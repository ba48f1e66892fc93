"""Helpers that tests build inputs and oracles with; no command uses them.

teichmuller and with_rel_prec work on PadicElement; kummer_weight_matrix
and perturbed_invariance on the rank-2 Kummer system of periods.kummer.
"""

from fractions import Fraction

from periods.kummer import WeightBlockMatrix, frobenius_matrix_kummer
from periods.padic import PadicElement, make_padic, residual_valuation


def teichmuller(x):
    """The (p-1)-st root of unity congruent to the unit x mod p.

    Each power y -> y^p gains a digit, so x^(p^(n-1)) = omega(x) mod p^n.
    """
    if not isinstance(x, PadicElement):
        raise TypeError("expected a PadicElement")
    if not x.is_unit():
        raise ValueError("Teichmuller lift needs a unit (valuation 0)")
    p, n = x.p, x.rel_prec
    return PadicElement(p, 0, pow(x.unit, p ** (n - 1), p**n), n)


def with_rel_prec(x, n):
    """x with its relative precision truncated (never extended) to n."""
    if x.rel_prec == 0 or n >= x.rel_prec:
        return x
    if n < 1:
        raise ValueError("relative precision must stay >= 1")
    return PadicElement(x.p, x.val, x.unit % x.p**n, n)


def kummer_weight_matrix(data):
    """The weight-ordered companion of the Kummer Frobenius.

    Dualizing [[1, L], [0, p]] (inverse transpose) and listing the mixed
    coordinate first gives [[1/p, -L/p], [0, 1]] with weights (-2, 0); its
    invariant vector with weight-0 part 1 is exactly period_vector_kummer.
    """
    ell = data.log_twist
    p = data.p
    one = make_padic(data.p, 1, data.n)
    zero = make_padic(data.p, 0, data.n)
    entries = (
        (one / p, -(ell / p)),
        (zero, one),
    )
    return WeightBlockMatrix(entries=entries, weights=(-2, 0))


def perturbed_invariance(data, k):
    """check_frobenius_invariance with f_2 scaled by (1 + p^k).

    That breaks the identity by exactly -L p^k, so the residual valuation
    drops to v(L) + k: a sensitivity control for the certificate.
    """
    phi = frobenius_matrix_kummer(data)
    f = [make_padic(data.p, 1, data.n), phi[0][1] / (1 - data.p) * (1 + Fraction(data.p) ** k)]
    return min(residual_valuation(f[0] * phi[0][j] + f[1] * phi[1][j], f[j]) for j in range(2))

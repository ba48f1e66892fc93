"""Frobenius matrices and invariant vectors for logarithm-type extensions.

The concrete two-dimensional case pairs the unit 1 with log(a): Frobenius
acts by [[1, L], [0, p]] where L = iwasawa_log(a^(1-p)), and the associated
invariant vector is (L/(1-p), 1), whose first entry collapses to
iwasawa_log(a).

The general solver works on matrices that are block upper-triangular with
respect to a weight labelling: the weight-0 coordinates are prescribed and
every lower-weight block is recovered by back-substitution, using that
(diagonal block - identity) is invertible away from weight 0.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime
from .padic import PadicElement, iwasawa_log, make_padic


@dataclass(frozen=True)
class KummerData:
    a: Fraction
    p: int
    n: int

    def __post_init__(self):
        a = Fraction(self.a)
        object.__setattr__(self, "a", a)
        if a == 0 or a == 1 or a == -1:
            raise ValueError("a must be a rational other than 0 and +-1")
        if self.p == 2 or not is_prime(self.p):
            raise ValueError("p must be an odd prime")
        if a.numerator % self.p == 0 or a.denominator % self.p == 0:
            raise ValueError("a must be a unit at p")
        if self.n < 1:
            raise ValueError("precision must be >= 1")


def _log_twist(data):
    """iwasawa_log(a^(1-p)), the (1,2) entry of the Frobenius matrix."""
    shifted = make_padic(data.p, data.a ** (1 - data.p), data.n)
    return iwasawa_log(shifted)


def frobenius_matrix_kummer(data):
    one = make_padic(data.p, 1, data.n)
    zero = make_padic(data.p, 0, data.n)
    return [
        [one, _log_twist(data)],
        [zero, make_padic(data.p, data.p, data.n)],
    ]


def period_vector_kummer(data):
    ell = _log_twist(data)
    return (ell / (1 - data.p), make_padic(data.p, 1, data.n))


def check_frobenius_invariance(data, perturb_exponent=None):
    """Residual valuation of f*phi - f for the row vector f = (1, L/(1-p)).

    The identity is exact algebra (L + p L/(1-p) = L/(1-p)), so the residual
    valuation must reach the working absolute precision.  With
    perturb_exponent = k the second entry is scaled by (1 + p^k), which
    breaks the identity by exactly -L p^k and drags the residual down to
    v(L) + k; callers use that as a sensitivity control.
    """
    phi = frobenius_matrix_kummer(data)
    f = [make_padic(data.p, 1, data.n), phi[0][1] / (1 - data.p)]
    if perturb_exponent is not None:
        f[1] = f[1] * (1 + Fraction(data.p) ** perturb_exponent)
    residual = math.inf
    for j in range(2):
        entry = f[0] * phi[0][j] + f[1] * phi[1][j] - f[j]
        v = entry.min_valuation()
        if entry.is_exact_zero():
            continue
        residual = min(residual, v)
    return residual


@dataclass(frozen=True)
class WeightBlockMatrix:
    """Square p-adic matrix, upper-triangular with respect to weights.

    entries[i][j] may be nonzero only when weights[i] <= weights[j]; the
    weight-0 coordinates must be present since they anchor the solve.
    """

    entries: tuple
    weights: tuple

    def __post_init__(self):
        n = len(self.weights)
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("matrix shape does not match the weight list")
        if 0 not in self.weights:
            raise ValueError("no weight-0 coordinate")
        if any(w > 0 for w in self.weights):
            raise ValueError("weights must be <= 0")
        for i in range(n):
            for j in range(n):
                e = rows[i][j]
                if self.weights[i] > self.weights[j] and not (
                    e.is_exact_zero() or e.is_zero_at_precision()
                ):
                    raise ValueError(
                        "entry (%d, %d) violates weight triangularity" % (i, j)
                    )

    def size(self):
        return len(self.weights)


def _solve_dense(matrix, rhs):
    """Gaussian elimination with minimal-valuation pivoting.

    matrix is a list of rows of PadicElement, rhs a list; both are consumed.
    Raises ArithmeticError when no usable pivot remains, which is how a
    singular-to-precision block surfaces.
    """
    n = len(rhs)
    for col in range(n):
        pivot, best = None, None
        for r in range(col, n):
            e = matrix[r][col]
            if e.is_exact_zero() or e.is_zero_at_precision():
                continue
            if best is None or e.val < best:
                pivot, best = r, e.val
        if pivot is None:
            raise ArithmeticError("matrix is singular at working precision")
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(n):
            if r == col:
                continue
            e = matrix[r][col]
            if e.is_exact_zero() or e.is_zero_at_precision():
                continue
            factor = e / matrix[col][col]
            for c in range(col, n):
                matrix[r][c] = matrix[r][c] - factor * matrix[col][c]
            rhs[r] = rhs[r] - factor * rhs[col]
    return [rhs[i] / matrix[i][i] for i in range(n)]


def solve_mixed_period(phi, v0):
    """The unique phi-invariant vector whose weight-0 part is v0.

    Invariance means phi V = V (columns are period vectors).  The weight-0
    rows are a consistency condition on v0 and are checked, not solved; each
    negative-weight block is solved, by elimination, against the
    already-known higher-weight coordinates.
    """
    n = phi.size()
    zero_idx = [i for i in range(n) if phi.weights[i] == 0]
    if len(v0) != len(zero_idx):
        raise ValueError("v0 length does not match the weight-0 coordinates")

    v = [None] * n
    for i, x in zip(zero_idx, v0):
        v[i] = x

    # consistency: the weight-0 rows of (phi - I) annihilate v0
    for i in zero_idx:
        acc = None
        for j in zero_idx:
            term = phi.entries[i][j] * v[j]
            acc = term if acc is None else acc + term
        acc = acc - v[i]
        if not (acc.is_exact_zero() or acc.is_zero_at_precision()):
            raise ArithmeticError("weight-0 block does not fix v0")

    for weight in sorted({w for w in phi.weights if w != 0}, reverse=True):
        block = [i for i in range(n) if phi.weights[i] == weight]
        known = [j for j in range(n) if phi.weights[j] > weight]
        rows = [[phi.entries[i][j] for j in block] for i in block]
        for k in range(len(block)):
            rows[k][k] = rows[k][k] - 1
        rhs = []
        for i in block:
            acc = None
            for j in known:
                term = phi.entries[i][j] * v[j]
                acc = term if acc is None else acc + term
            rhs.append(-acc)
        sol = _solve_dense(rows, rhs)
        for k, i in enumerate(block):
            v[i] = sol[k]
    return v


def kummer_weight_matrix(data):
    """The weight-ordered companion of the Kummer Frobenius.

    Dualizing [[1, L], [0, p]] (inverse transpose) and listing the mixed
    coordinate first gives [[1/p, -L/p], [0, 1]] with weights (-2, 0); its
    invariant vector with weight-0 part 1 is exactly period_vector_kummer.
    """
    ell = _log_twist(data)
    p = data.p
    one = make_padic(data.p, 1, data.n)
    zero = make_padic(data.p, 0, data.n)
    entries = (
        (one / p, -(ell / p)),
        (zero, one),
    )
    return WeightBlockMatrix(entries=entries, weights=(-2, 0))

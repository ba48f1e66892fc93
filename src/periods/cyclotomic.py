"""Gauss sums from Dwork's splitting function; Gross-Koblitz as an identity in Z_p.

Take pi with pi^(p-1) = -p and zeta_p = 1 + pi + O(pi^2). Dwork's
splitting function theta(t) = exp(pi(t - t^p)) = sum_n lambda_n t^n, with
lambda_n = sum over i + pj = n of (-1)^j pi^(i+j) / (i! j!), is an additive
character on Teichmuller points: theta(omega(x)) = zeta_p^x. Hence the
Gauss sum

    g_a = sum over units x of omega(x)^(-a) zeta_p^x
        = (p-1) sum over n congruent to a mod p-1 of lambda_n = pi^a G_a,

with G_a in Z_p: a term with i + j = q(p-1) + a is pi^a (-1)^j (-p)^q / (i! j!).
Gross-Koblitz with the sign fixed here once and pinned by a test:

    G_a = -Gamma_p(a / (p-1)).

Dwork's bound ord_p lambda_n >= n(p-1)/p^2 puts every n >= ceil(M p^2 /
(p-1)^2) at pi-valuation >= M, so for g_a mod pi^M the sum stops there and
G_a is summed on plain ints mod p^k, k = ceil((M - a)/(p-1)).  The residual
check takes M = m + 2 for a requested pi-precision m.
"""

from fractions import Fraction

from .arith import check_prime
from .gamma import _admit, gamma_p
from .padic import _vp, make_padic


def _gauss_unit(p, a, prec):
    """(G_a mod p^k, k): the unit part of g_a = pi^a G_a, for g_a mod pi^prec.

    Each term (-1)^j (-p)^q / (i! j!) is p^e times a unit with
    e = (s_p(i) + s_p(j) - a)/(p-1) >= 0, s_p the base-p digit sum, so the
    sum runs on ints mod p^k with no denominators.
    """
    d = p - 1
    top = -(-prec * p * p // (d * d))
    k = -(-(prec - a) // d)  # >= 0, as prec >= 2 and a <= p - 2
    _admit(p, max(k, 1))  # about pk + k^2 steps here, the shape of Gamma_p's constants at N = k
    mod = p**k
    # v_p(n!) and the inverse of its unit part mod p^k, for n < top
    vals, invs = [0], [1]
    for n in range(1, top):
        v = _vp(n, p)
        vals.append(vals[-1] + v)
        invs.append(invs[-1] * pow(n // p**v, -1, mod) % mod)
    total = 0
    for j in range((top - 1) // p + 1):
        for i in range((a - j) % d, top - p * j, d):
            q = (i + j - a) // d
            e = q - vals[i] - vals[j]
            if e < k:
                term = p**e * invs[i] * invs[j]
                total += -term if (q + j) % 2 else term
    return d * total % mod, k


def gross_koblitz_residual(p, a, m):
    """Lower bound on v_pi(g_a + pi^a Gamma_p(a/(p-1))), at most m + 2.

    The residual is pi^a (G_a + Gamma_p(a/(p-1))), so its pi-valuation is
    a + (p-1) v_p(G_a + Gamma_p), read to the k digits that g_a mod
    pi^(m+2) fixes.
    """
    check_prime(p)
    if not 1 <= a <= p - 2:
        raise ValueError("need 1 <= a <= p-2")
    if m < 1:
        raise ValueError("pi-precision must be >= 1")
    unit, k = _gauss_unit(p, a, m + 2)
    rel = max(k, 1)
    gamma = gamma_p(make_padic(p, Fraction(a, p - 1), rel), rel)
    diff = (unit + gamma.lift()) % p**k
    v = _vp(diff, p) if diff else k
    return min(a + (p - 1) * v, m + 2)

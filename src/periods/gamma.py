"""Morita's p-adic Gamma function on Z_p, odd p.

gamma_p(x) evaluates (-1)^m * prod_{0<j<m, p not | j} j at the integer
representative m of x modulo p^N, which by continuity is the value of the
extended function to absolute precision N.

The unit product is never scanned. With m - 1 = pB + r, 0 <= r < p, the
units below m fall into B full blocks pt + i (t < B, 0 < i < p) and a tail
pB + 1, ..., pB + r, and (Dwork; Rodriguez-Villegas, Experimental Number
Theory, 2007)

    prod_{0<j<m, p not | j} j = (p-1)!^B * exp(L) * prod_{i=1}^{r} (pB + i),
    L = sum_t sum_i log(1 + pt/i) = sum_{k>=1} c_k S_k(B),
    c_k = (-1)^(k+1) p^k H_k / k,   H_k = sum_{i=1}^{p-1} i^(-k),

where S_k(B) = sum_{t<B} t^k = sum_j S(k, j) j! C(B, j+1) (Stirling numbers
of the second kind). So L = sum_j d_j C(B, j+1) with integer coefficients
d_j mod p^W fixed per (p, N). Both truncations are proven:

- exp: v(L) >= 1, so exp(L) mod p^N is padic._exp_int(p, L, N), the
  series kernel that exp_p runs too. It reads L mod p^N and ends at the
  last J with J - v_p(J!) < N. The log sum is still formed mod p^W,
  W = N + v_p(J!), the modulus _admit prices.
- log: v(c_k) >= k - v_p(k) and S_k(B) is an integer, so the sum stops at
  the last K with K - v_p(K) < W.

The tail T_r(B) = prod_{i=1}^{r} (pB + i) is an integer polynomial in B
whose B^k coefficient is divisible by p^k, so modulo p^N it agrees with a
polynomial of degree < N and T_r(B) = sum_{j<N} e_j C(B, j), where e_j are
the forward differences of T_r at B = 0, ..., N-1. These are cached at every
r divisible by _TAIL_STEP; a value then multiplies out fewer than
_TAIL_STEP factors past its checkpoint, reducing mod p^N as it goes.
(p-1)! mod p^N is T_{p-1}(0).

Cost: the per-(p, N) constants take p - 1 inverses, K passes over p - 1
powers and K^2 Stirling updates mod p^W, and N tail passes over p - 1
factors; over _MAX_WORK word-operations, _admit refuses them before p^N is
formed. A value takes O(K + N) operations, J + 1 Horner steps on the J!/j!
that padic._exp_int caches, one modular power and fewer than _TAIL_STEP
tail factors. Nothing iterates over p^N.

Normalization: gamma_p(0) = 1, gamma_p(1) = -1.
"""

import math
from fractions import Fraction

from .arith import check_precision, check_prime
from .padic import (
    PadicElement, PrecisionError, _cutoff, _exp_cut, _exp_int, _vp, make_padic, residual_valuation,
)

_coeffs = {}

_TAIL_STEP = 1024
_CHUNK = 64

_MAX_WORK = 10**7  # about a second of constants; admits every p^N <= 10^7


def _admit(p, n):
    """(W, K) of a cold (p, n), None when cached; PrecisionError over _MAX_WORK.

    p and n are checked before a cold pair is priced; a cached pair passed.
    """
    def work(big_k, w):
        # on ints of W log2(p) bits; an inverse costs about 16 products
        words = 1 + w * p.bit_length() // 64
        return ((p - 1) * (n + big_k + 16 * (big_k > 0)) + big_k**2) * words

    if (p, n) in _coeffs:
        return None
    check_prime(p)
    check_precision(n)
    if work(n - 1, n) <= _MAX_WORK:  # K >= N - 1 and W >= N: a huge N stops here in O(1)
        w = n + _exp_cut(p, n)[1]
        big_k = _cutoff(w, lambda k: k - _vp(k, p))
        if work(big_k, w) <= _MAX_WORK:
            return w, big_k
    raise PrecisionError("work for Gamma_p at p = %d, N = %d exceeds the configured maximum "
                         "%d word-operations" % (p, n, _MAX_WORK))


def _range_prod(lo, hi, mod):
    # prod(range(lo, hi)) mod `mod`, reduced every _CHUNK factors
    acc = 1
    for a in range(lo, hi, _CHUNK):
        acc = acc * math.prod(range(a, min(a + _CHUNK, hi))) % mod
    return acc


def _newton_eval(e, b):
    # sum_j e[j] C(b, j) for an integer b >= 0
    val, binom = e[0], 1
    for j in range(1, len(e)):
        binom = binom * (b - j + 1) // j
        if not binom:
            break
        val += e[j] * binom
    return val


def _tail_checkpoints(p, n):
    """rows[c] = Newton coefficients in B of prod_{i<=c*_TAIL_STEP} (pB + i) mod p^n.

    Trailing zeros are dropped, so row 0 is [1] and _tail forms no binomial C(B, j)
    that it would multiply by 0.
    """
    mod = p**n
    last = (p - 1) // _TAIL_STEP
    cols = []
    for b in range(n):
        acc, col = 1, [1]
        for c in range(last):
            lo = p * b + c * _TAIL_STEP + 1
            acc = acc * _range_prod(lo, lo + _TAIL_STEP, mod) % mod
            col.append(acc)
        cols.append(col)
    rows = []
    for c in range(last + 1):
        e = [col[c] for col in cols]
        for j in range(1, n):
            for b in range(n - 1, j - 1, -1):
                e[b] = (e[b] - e[b - 1]) % mod
        while len(e) > 1 and not e[-1]:
            e.pop()
        rows.append(e)
    return rows


def _tail(b, r, p, n, rows):
    # prod_{i=1}^{r} (pb + i) mod p^n, for 0 <= r < p
    mod = p**n
    c = r // _TAIL_STEP
    lo = p * b + c * _TAIL_STEP + 1
    return _newton_eval(rows[c], b) * _range_prod(lo, p * b + r + 1, mod) % mod


def _series_coeffs(p, n):
    """Constants (d, fact, rows) at (p, n): L = sum_j d[j] C(B, j+1) mod p^w,
    fact = (p-1)! mod p^n, and the tail checkpoints."""
    co = _coeffs.get((p, n))
    if co is not None:
        return co
    w, big_k = _admit(p, n)
    mod_w = p**w
    inv = [pow(i, -1, mod_w) for i in range(1, p)] if big_k else []
    inv_pow = inv
    d = [0] * (big_k + 1)
    stirling = [1]  # S(k, 0..k) mod p^w, from k = 0
    for k in range(1, big_k + 1):
        v = _vp(k, p)
        c_k = p ** (k - v) * pow(k // p**v, -1, mod_w) * sum(inv_pow) % mod_w
        if k % 2 == 0:
            c_k = -c_k
        inv_pow = [x * y % mod_w for x, y in zip(inv_pow, inv)]
        stirling = [0] + [(j * stirling[j] + stirling[j - 1]) % mod_w for j in range(1, k)] + [1]
        for j in range(1, k + 1):
            d[j] += c_k * stirling[j]
    d = [math.factorial(j) * dj % mod_w for j, dj in enumerate(d)]
    rows = _tail_checkpoints(p, n)
    co = (d, _tail(0, p - 1, p, n, rows), rows)
    _coeffs[(p, n)] = co
    return co


def gamma_p(x, n):
    """Morita Gamma at the p-adic integer x, to absolute precision n.

    Accepts a PadicElement with v(x) >= 0. Never reports more precision
    than the argument carries.
    """
    if isinstance(x, (int, Fraction)):
        raise TypeError("pass a PadicElement, or use gamma_p_at(p, x, n)")
    p = x.p
    if x.min_valuation() < 0:
        raise ValueError("gamma_p needs an integral argument")
    n = min(n, x.abs_precision())
    d, fact, rows = _series_coeffs(p, n)
    mod = p**n
    m = x.lift() % mod or mod
    # prod_{0 < j < m, p not dividing j} j mod p^n
    b, r = divmod(m - 1, p)
    exp_l = _exp_int(p, _newton_eval([0, 0] + d[1:], b) % mod, n)
    value = pow(fact, b, mod) * exp_l % mod * _tail(b, r, p, n, rows) % mod
    if m % 2:
        value = mod - value
    return PadicElement(p, 0, value, n)


def gamma_p_at(p, x, n):
    """Convenience wrapper: gamma_p of the rational x embedded in Z_p."""
    _admit(p, n)
    return gamma_p(make_padic(p, x, n), n)


def check_translation(x, n):
    """Residual valuation of gamma_p(x+1) - sigma(x) gamma_p(x).

    sigma(x) is -x when x is a unit and -1 when p divides x.
    """
    gx = gamma_p(x, n)
    gx1 = gamma_p(x + 1, n)
    sigma = -x if x.is_unit() else make_padic(x.p, -1, n)
    return residual_valuation(gx1, sigma * gx)


def check_reflection(x, n):
    """Sign s = (-1)^l(x) and the residual valuation of gamma_p(x) gamma_p(1-x) - s.

    l(x) is the representative of x mod p in {1, ..., p}.
    """
    prod = gamma_p(x, n) * gamma_p(1 - x, n)
    s = -1 if (x.lift() % x.p or x.p) % 2 else 1
    return s, residual_valuation(prod, s)

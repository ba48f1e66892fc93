"""Gauss sums and Gross-Koblitz, against a direct sum in the ramified ring.

The oracle below is independent of `periods.cyclotomic`: it builds Z_p[pi]
with pi^(p-1) = -p on PadicElement coefficients, takes zeta_p from Dwork's
splitting function at t = 1, and sums g_a = sum_x omega(x)^(-a) zeta_p^x
term by term in the ring.
"""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from periods.cyclotomic import _gauss_unit, gross_koblitz_residual
from periods.gamma import gamma_p
from periods.padic import PadicElement, PrecisionError, _capped, _vp, make_padic

from oracles import is_zero_at_precision, teichmuller

# -- the oracle: Z_p[pi], pi^(p-1) = -p -----------------------------------------


class EisensteinElement:
    """c_0 + c_1 pi + ... + c_(p-2) pi^(p-2) with PadicElement coefficients.

    The pi-adic valuation of a nonzero element is min_i ((p-1) v_p(c_i) + i):
    the exponents of different slots never collide mod p-1.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        if len(coeffs) != p - 1:
            raise ValueError("need exactly p-1 coefficients")
        self.p = p
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, p):
        return cls(p, (PadicElement(p, None, 0, 0),) * (p - 1))

    @classmethod
    def from_scalar(cls, p, x, rel_prec=None):
        if not isinstance(x, PadicElement):
            x = make_padic(p, x, rel_prec)
        return cls(p, (x,) + cls.zero(p).coeffs[1:])

    @classmethod
    def pi(cls, p, rel_prec):
        cs = cls.zero(p).coeffs
        return cls(p, cs[:1] + (make_padic(p, 1, rel_prec),) + cs[2:])

    def pi_precision(self):
        """The element is known modulo pi^(this)."""
        return min(
            (self.p - 1) * c.abs_precision() + i
            for i, c in enumerate(self.coeffs)
            if not c.is_exact_zero()
        )

    def pi_valuation(self):
        """Provable lower bound on v_pi; None for the exact zero element."""
        vals = [
            (self.p - 1) * c.min_valuation() + i
            for i, c in enumerate(self.coeffs)
            if not c.is_exact_zero()
        ]
        return min(vals) if vals else None

    def _lift(self, other):
        if isinstance(other, EisensteinElement):
            return other
        rel = max(c.rel_prec for c in self.coeffs) or 1
        return EisensteinElement.from_scalar(self.p, other, rel)

    def __add__(self, other):
        other = self._lift(other)
        return EisensteinElement(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return EisensteinElement(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._lift(other)
        return EisensteinElement(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if not isinstance(other, EisensteinElement):
            return EisensteinElement(self.p, tuple(c * other for c in self.coeffs))
        d = self.p - 1
        out = list(EisensteinElement.zero(self.p).coeffs)
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_exact_zero():
                    continue
                k = i + j
                term = a * b
                if k >= d:
                    k -= d
                    term = term * (-self.p)
                out[k] = out[k] + term
        return EisensteinElement(self.p, tuple(out))

    def __pow__(self, k):
        if k < 1:
            raise ValueError("positive exponents only")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def conjugate(self):
        """The automorphism pi -> -pi (sends zeta_p to its inverse)."""
        return EisensteinElement(
            self.p, tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))
        )


def residual_pi_valuation(a, b):
    """Lower bound on v_pi(a - b); None when the difference is exactly zero."""
    return (a - b).pi_valuation()


def zeta_p(p, m):
    """The p-th root of unity with zeta = 1 + pi + O(pi^2), mod pi^m.

    zeta = theta(1) = sum_n lambda_n, cut at n < ceil(m p^2 / (p-1)^2) by
    Dwork's bound.  With i + j = q(p-1) + s a term is (-1)^j (-p)^q / (i! j!)
    in slot s; each slot is summed on ints mod p^W, W = ceil(m/(p-1)), and
    returned at absolute precision ceil((m-s)/(p-1)).
    """
    if p == 2 or p < 2:
        raise ValueError("odd p required")
    if m < 2:
        raise ValueError("pi-precision must be >= 2")
    d = p - 1
    top = -(-m * p * p // (d * d))
    width = -(-m // d)
    mod = p**width
    vals, invs = [0], [1]
    for k in range(1, top):
        v = _vp(k, p)
        vals.append(vals[-1] + v)
        invs.append(invs[-1] * pow(k // p**v, -1, mod) % mod)
    slots = [0] * d
    for j in range((top - 1) // p + 1):
        for i in range(top - p * j):
            q, s = divmod(i + j, d)
            e = q - vals[i] - vals[j]
            if e < width:
                term = p**e * invs[i] * invs[j]
                slots[s] += -term if (q + j) % 2 else term
    return EisensteinElement(
        p, tuple(_capped(p, x % mod, -((s - m) // d)) for s, x in enumerate(slots))
    )


def gauss_sum(p, a, m):
    """g_a = sum over units x of omega(x)^(-a) zeta_p^x, to pi-precision m."""
    if not 1 <= a <= p - 2:
        raise ValueError("need 1 <= a <= p-2")
    z = zeta_p(p, m + 2)
    rel = max(c.rel_prec for c in z.coeffs)
    acc = EisensteinElement.zero(p)
    zx = EisensteinElement.from_scalar(p, 1, rel)
    for x in range(1, p):
        zx = zx * z
        w = teichmuller(make_padic(p, x, rel))
        acc = acc + zx * w**-a
    return acc


def gauss_sum_conjugate(p, a, m):
    """Character and zeta inverted: the ring map pi -> -pi applied to g_(p-1-a)."""
    return gauss_sum(p, p - 1 - a, m).conjugate()


# -- the ring -------------------------------------------------------------------


def test_defining_relation():
    p = 5
    pi = EisensteinElement.pi(p, 8)
    prod = pi * pi ** (p - 2)
    minus_p = EisensteinElement.from_scalar(p, -p, 8)
    v = residual_pi_valuation(prod, minus_p)
    assert v is None or v >= 8 * (p - 1)


def test_add_sub_round_trip():
    p = 7
    rng = random.Random(1)

    def unit():
        x = rng.randrange(1, 7**6)
        return make_padic(p, x + 1 if x % 7 == 0 else x, 6)

    a = EisensteinElement(p, tuple(unit() for _ in range(p - 1)))
    b = EisensteinElement(p, tuple(unit() for _ in range(p - 1)))
    v = residual_pi_valuation((a + b) - b, a)
    assert v is None or v >= a.pi_precision()


def _sylvester_resultant(f, g):
    # f, g: coefficient lists, highest degree first, exact integers
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + f + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + g + [0] * (n - 1 - i))
    # fraction-free enough at this size: Gaussian elimination over Fraction
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if mat[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor:
                for c in range(col, size):
                    mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return int(det)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_norm_of_pi_matches_resultant(p):
    # product of all conjugates omega(c) * pi, computed in-ring
    rel = 6
    prod = EisensteinElement.from_scalar(p, 1, rel)
    for c in range(1, p):
        w = teichmuller(make_padic(p, c, rel))
        prod = prod * (EisensteinElement.pi(p, rel) * w)
    # against the resultant of the minimal polynomial x^(p-1) + p with x
    res = _sylvester_resultant([1] + [0] * (p - 2) + [p], [1, 0])
    norm = (-1) ** (p - 1) * res
    assert norm == p
    v = residual_pi_valuation(prod, EisensteinElement.from_scalar(p, norm, rel))
    assert v is None or v >= (p - 1) * (rel - 1)


def test_zeta_is_a_pth_root():
    p, m = 5, 20
    z = zeta_p(p, m)
    one = EisensteinElement.from_scalar(p, 1, 8)
    v = residual_pi_valuation(z**p, one)
    assert v is not None and v >= m


def test_zeta_cyclotomic_sum_vanishes():
    p, m = 7, 14
    z = zeta_p(p, m)
    acc = EisensteinElement.from_scalar(p, 1, 6)
    zx = EisensteinElement.from_scalar(p, 1, 6)
    for _ in range(p - 1):
        zx = zx * z
        acc = acc + zx
    assert acc.pi_valuation() >= m


def test_zeta_normalization():
    z = zeta_p(5, 20)
    d = z - 1 - EisensteinElement.pi(5, 8)
    assert d.pi_valuation() >= 2


def test_zeta_rejects_even_prime():
    with pytest.raises(ValueError):
        zeta_p(2, 8)


# sha256 (first 16 hex digits) of every slot's (val, unit, rel_prec) of
# zeta_p(p, m) for m = 2..40, frozen from the Newton iteration on Phi_p that
# the splitting-function sum replaced
ZETA_DIGESTS = {
    3: "953eec122db90d29",
    5: "2ede54556da9a1f5",
    7: "ce8b7317f4cc129a",
    11: "091e1c405f1c8c52",
    13: "1dc1adb9e5165150",
    17: "f72e9eccacc1ff04",
    19: "79e7363e7880e4be",
    23: "fee4a6f976916d28",
    29: "c2dce4329d402505",
    31: "64ed675c8a10d3ba",
}


@pytest.mark.parametrize("p", sorted(ZETA_DIGESTS))
def test_zeta_frozen_table(p):
    h = hashlib.sha256()
    for m in range(2, 41):
        for c in zeta_p(p, m).coeffs:
            h.update(("%s,%d,%d;" % (c.val, c.unit, c.rel_prec)).encode())
    assert h.hexdigest()[:16] == ZETA_DIGESTS[p]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_dwork_bound_exact(p):
    # lambda_n = sum_{i+pj=n} (-1)^j pi^(i+j) / (i! j!) in Q[pi]/(pi^(p-1)+p),
    # one Fraction per slot; ord_p lambda_n >= n(p-1)/p^2 is the cutoff that
    # gross_koblitz_residual (through _gauss_unit) and the zeta_p oracle use
    d = p - 1
    for n in range(90):
        slots = [Fraction(0)] * d
        for j in range(n // p + 1):
            i = n - p * j
            q, s = divmod(i + j, d)
            slots[s] += Fraction((-1) ** j * (-p) ** q, math.factorial(i) * math.factorial(j))
        ord_pi = min(
            d * (_vp(c.numerator, p) - _vp(c.denominator, p)) + s
            for s, c in enumerate(slots)
            if c
        )
        assert ord_pi * p * p >= n * d * d, (p, n, ord_pi)


def _pi_power_gamma(p, a, m):
    rel = m // (p - 1) + 2
    gamma = gamma_p(make_padic(p, Fraction(a, p - 1), rel), rel)
    return EisensteinElement.from_scalar(p, gamma) * EisensteinElement.pi(p, rel) ** a


@pytest.mark.parametrize(
    "p, a, m", [(5, 1, 8)] + [(7, a, 12) for a in range(1, 6)]
)
def test_gross_koblitz_sign_is_fixed(p, a, m):
    # g_a = -pi^a gamma_p(a/(p-1)): the sum reaches m, the difference is 2 g_a,
    # whose valuation a is carried by a digit that is known to be nonzero
    g = gauss_sum(p, a, m)
    cand = _pi_power_gamma(p, a, m + 2)
    plus = (g + cand).pi_valuation()
    assert plus is None or plus >= m
    minus = g - cand
    assert minus.pi_valuation() == a < m
    assert any(
        c.rel_prec > 0 and (p - 1) * c.val + i == a for i, c in enumerate(minus.coeffs)
    )


@pytest.mark.parametrize("p", [5, 7])
def test_gauss_sum_norm_is_p(p):
    m = 12
    for a in range(1, p - 1):
        g = gauss_sum(p, a, m)
        gc = gauss_sum_conjugate(p, a, m)
        v = ((g * gc) - p).pi_valuation()
        assert v is not None and v >= m, (p, a, v)


@pytest.mark.parametrize("p", [5, 7])
def test_gauss_sum_valuation_is_a(p):
    for a in range(1, p - 1):
        assert gauss_sum(p, a, 10).pi_valuation() == a


def test_gauss_sum_in_ring_conjugation():
    # the literal ring map pi -> -pi multiplies g_a by (-1)^a; the modulus
    # identity above needs the character inverted as well
    p, m = 5, 12
    for a in (1, 2, 3):
        g = gauss_sum(p, a, m)
        v = residual_pi_valuation(g.conjugate(), g if a % 2 == 0 else -g)
        assert v is None or v >= m


def test_gauss_sum_pair_product():
    # g_a * g_(p-1-a) = (-1)^a p
    p, m = 7, 12
    for a in range(1, p - 1):
        lhs = gauss_sum(p, a, m) * gauss_sum(p, p - 1 - a, m)
        rhs = EisensteinElement.from_scalar(p, (-1) ** a * p, m // (p - 1) + 2)
        v = residual_pi_valuation(lhs, rhs)
        assert v is None or v >= m


def test_gauss_sum_two_evaluation_paths_agree():
    p, a, m = 5, 2, 12
    g1 = gauss_sum(p, a, m)
    # independent loop: fresh zeta powers, positive character exponent
    z = zeta_p(p, m + 2)
    rel = max(c.rel_prec for c in z.coeffs)
    acc = EisensteinElement.zero(p)
    for x in range(p - 1, 0, -1):
        w = teichmuller(make_padic(p, x, rel))
        acc = acc + z**x * w ** (p - 1 - a)
    v = residual_pi_valuation(g1, acc)
    assert v is None or v >= m


def test_gauss_sum_range_check():
    with pytest.raises(ValueError):
        gauss_sum(5, 4, 10)
    for p in (9, 2, 1):
        with pytest.raises(ValueError, match="not an odd prime"):
            gross_koblitz_residual(p, 1, 6)
    for a in (0, 4):
        with pytest.raises(ValueError, match="1 <= a <= p-2"):
            gross_koblitz_residual(5, a, 6)
    for m in (0, -1):
        with pytest.raises(ValueError, match="pi-precision"):
            gross_koblitz_residual(5, 1, m)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gauss_unit_matches_direct_sum(p):
    # the direct sum is pi^a G_a: slot a carries G_a to all of its digits,
    # every other slot is zero to pi-precision m
    for a in range(1, p - 1):
        for m in (6, 10, 16):
            g = gauss_sum(p, a, m)
            unit, k = _gauss_unit(p, a, m + 2)
            c = g.coeffs[a]
            assert c.abs_precision() >= k, (p, a, m)
            assert (c.lift() - unit) % p**k == 0, (p, a, m)
            for i, c in enumerate(g.coeffs):
                if i != a:
                    assert c.is_exact_zero() or (
                        is_zero_at_precision(c) and (p - 1) * c.val + i >= m
                    ), (p, a, m, i)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_gross_koblitz_reports_m_plus_2(p):
    # G_a = -gamma_p(a/(p-1)) to every digit g_a mod pi^(m+2) fixes
    for a in range(1, p - 1):
        for m in range(1, 28):
            assert gross_koblitz_residual(p, a, m) == m + 2, (p, a, m)
    if p == 3:
        # m = 28 reads k = 15 digits; m = 10^6 would read 500001, and is
        # refused before the Gauss sum is summed
        assert gross_koblitz_residual(3, 1, 28) == 30
        start = time.perf_counter()
        with pytest.raises(PrecisionError, match="exceeds the configured maximum"):
            gross_koblitz_residual(3, 1, 10**6)
        assert time.perf_counter() - start < 1


def test_ring_axioms_randomized():
    p = 5
    rng = random.Random(42)

    def rand_elem():
        return EisensteinElement(
            p, tuple(make_padic(p, rng.randrange(1, 5**8), 8) for _ in range(p - 1))
        )

    for _ in range(10):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        v1 = residual_pi_valuation((a * b) * c, a * (b * c))
        v2 = residual_pi_valuation(a * (b + c), a * b + a * c)
        floor = (p - 1) * 6  # generous: products lose a little absolute precision
        assert v1 is None or v1 >= floor
        assert v2 is None or v2 >= floor

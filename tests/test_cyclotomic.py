import hashlib
import math
import random
from fractions import Fraction

import pytest

from periods.cyclotomic import (
    EisensteinElement,
    gauss_sum,
    gauss_sum_conjugate,
    gross_koblitz_residual,
    residual_pi_valuation,
    zeta_p,
)
from periods.gamma import gamma_p
from periods.padic import _vp, make_padic, teichmuller


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
    # one Fraction per slot; ord_p lambda_n >= n(p-1)/p^2 is the cutoff zeta_p uses
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


def test_gross_koblitz_p5_anchor():
    assert gross_koblitz_residual(5, 1, 16) >= 16


def test_gross_koblitz_p7_sweep():
    for a in range(1, 6):
        assert gross_koblitz_residual(7, a, 12) >= 12


def test_gross_koblitz_p3():
    assert gross_koblitz_residual(3, 1, 10) >= 10


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

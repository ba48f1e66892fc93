import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from periods import gamma
from periods.gamma import check_reflection, check_translation, gamma_p, gamma_p_at
from periods.padic import PrecisionError, make_padic


def _morita_oracle(p, n, ms):
    """{m: (-1)^m prod_{0<j<m, p not | j} j mod p^n} by one direct product scan."""
    mod = p**n
    wanted = sorted(set(ms))
    out = {}
    acc = 1
    j = 1
    for m in wanted:
        while j < m:
            if j % p:
                acc = acc * j % mod
            j += 1
        out[m] = (mod - acc) % mod if m % 2 else acc
    return out


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 3), (13, 2), (101, 2)])
def test_gamma_matches_oracle_everywhere(p, n):
    mod = p**n
    want = _morita_oracle(p, n, range(1, mod + 1))
    for m in range(1, mod + 1):
        assert gamma_p_at(p, m, n).unit == want[m], (p, n, m)


@pytest.mark.parametrize("p,n", [(3, 10), (5, 7), (61, 3)])
def test_gamma_matches_oracle_sampled(p, n):
    rng = random.Random(p * 1000 + n)
    ms = [rng.randrange(1, p**n + 1) for _ in range(500)]
    want = _morita_oracle(p, n, ms)
    for m in ms:
        assert gamma_p_at(p, m, n).unit == want[m], (p, n, m)


# m - 1 = pB + r: the kernel's full blocks B and tail r at their extremes
@pytest.mark.parametrize(
    "m",
    [
        pytest.param(lambda p, n: p**n, id="m=p^N"),
        pytest.param(lambda p, n: 6 * p, id="p|m,r=p-1"),
        pytest.param(lambda p, n: p - 1, id="m<p"),
        pytest.param(lambda p, n: 5 * p + 1, id="r=0"),
        pytest.param(lambda p, n: p + 2, id="B=1"),
    ],
)
@pytest.mark.parametrize("p,n", [(3, 6), (7, 4), (61, 3)])
def test_gamma_kernel_edge_cases(p, n, m):
    m = m(p, n)
    assert gamma_p_at(p, m, n).unit == _morita_oracle(p, n, [m])[m]


@pytest.mark.parametrize("p,n", [(4099, 1), (3137, 2)])
def test_gamma_tail_checkpoints(p, n):
    # p > _TAIL_STEP: the tail starts at a cached checkpoint; r on either side of each
    step = gamma._TAIL_STEP
    rs = sorted({c * step + e for c in range(1, (p - 1) // step + 1) for e in (-1, 0, 1)} | {p - 1})
    ms = [b * p + r + 1 for b in range(3 if n > 1 else 1) for r in rs]
    rng = random.Random(p)
    ms += [rng.randrange(1, min(p**n, 40 * p) + 1) for _ in range(200)]
    want = _morita_oracle(p, n, ms)
    for m in ms:
        assert gamma_p_at(p, m, n).unit == want[m], (p, n, m)


@pytest.mark.parametrize("p,n,k", [(101, 20, 2), (3, 40, 5)])
def test_gamma_beyond_table_precision(p, n, k):
    # p^n is far past any scan, yet cheap; the oracle checks the value mod p^k
    rng = random.Random(p + n)
    args = [rng.randrange(1, p**n) for _ in range(8)] + [Fraction(1, 2), Fraction(-5, 4), p**n]
    for a in args:
        x = make_padic(p, a, n)
        assert check_translation(x, n) >= n, a
        assert check_reflection(x, n)[1] >= n, a
        low = gamma_p_at(p, a, k)
        assert gamma_p(x, n).unit % p**k == low.unit, a
        m = make_padic(p, a, k).lift() % p**k or p**k
        assert low.unit == _morita_oracle(p, k, [m])[m], a


def _digest_values(p, n):
    """Gamma_p at p^n, 1/2, -5/4 and a seeded int, to precision n, as a short digest."""
    rng = random.Random(p * 1000 + n)
    args = [p**n, Fraction(1, 2), Fraction(-5, 4), rng.randrange(1, p**n)]
    text = "".join("%r %d %d\n" % (g.val, g.unit, g.rel_prec)
                   for g in (gamma_p_at(p, a, n) for a in args))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# _digest_values at N past the reach of the product oracle, frozen from the
# Horner over J!/j! that gamma.py summed itself
GAMMA_DIGESTS = {
    (3, 60): "2faefc5b85d3a496",
    (3, 200): "c66c4b33c2f52286",
    (3, 340): "ec235625d76fb9f1",
    (13, 100): "5223cb94d237a1f3",
    (101, 60): "944f50b6172edb2d",
}


@pytest.mark.parametrize("p,n", sorted(GAMMA_DIGESTS))
def test_gamma_frozen_digests(p, n):
    assert _digest_values(p, n) == GAMMA_DIGESTS[(p, n)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gamma_at_one_is_minus_one(p):
    g = gamma_p_at(p, 1, 5)
    assert g.unit == p**5 - 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gamma_at_two_is_one(p):
    assert gamma_p_at(p, 2, 5).unit == 1


def test_gamma_at_zero_is_one():
    assert gamma_p_at(5, 0, 6).unit == 1


def test_gamma_quarter_in_z5():
    # representative of 1/4 mod 5^6 and the same value recomputed through the
    # raw product shifted by a full period 5^6 must agree mod 5^6
    x = make_padic(5, Fraction(1, 4), 6)
    g = gamma_p(x, 6)
    mod = 5**6
    m = x.lift() % mod
    long_prod = math.prod(j for j in range(1, m + mod) if j % 5) % mod
    if (m + mod) % 2:
        long_prod = mod - long_prod
    assert g.unit == long_prod
    assert g.val == 0


def test_gamma_rejects_p2():
    with pytest.raises(ValueError):
        gamma_p_at(2, 1, 4)


def test_gamma_checks_p_and_n_before_the_work_budget():
    # pricing (p, N) first once read a bad p or n as an over-budget request
    with pytest.raises(ValueError, match="not an odd prime"):
        gamma_p_at(10**20, Fraction(1, 2), 2)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        gamma_p_at(5, Fraction(1, 2), -10**30)


def test_gamma_rejects_nonintegral():
    with pytest.raises(ValueError):
        gamma_p(make_padic(5, Fraction(1, 5), 4), 4)


def test_gamma_honors_precision_cap():
    # the constants at (3, 500) would take about 3 s; (3, 10^8) is refused
    # before any 3^N is formed or the O(N) cut-offs are found
    for n in (500, 10**8):
        start = time.perf_counter()
        with pytest.raises(PrecisionError, match="exceeds the configured maximum"):
            gamma_p_at(3, Fraction(1, 2), n)
        assert time.perf_counter() - start < 1, n


def test_gamma_never_reports_more_than_argument_knows():
    x = make_padic(5, Fraction(1, 4), 3)
    assert gamma_p(x, 6).rel_prec == 3


def test_translation_at_one_exact():
    # gamma(2) = -1 * gamma(1)
    assert check_translation(make_padic(7, 1, 6), 6) >= 6


def test_translation_at_p():
    # sigma is -1 when the argument is divisible by p
    p = 5
    assert check_translation(make_padic(p, p, 5), 5) >= 5
    # direct product cross-check of gamma(p+1) = -gamma(p)
    mod = p**5
    lhs = gamma_p_at(p, p + 1, 5).unit
    rhs = mod - gamma_p_at(p, p, 5).unit
    assert lhs == rhs


def test_translation_quarter_z5():
    assert check_translation(make_padic(5, Fraction(1, 4), 6), 6) >= 6


def test_reflection_at_one():
    s, r = check_reflection(make_padic(7, 1, 8), 8)
    assert s == -1 and r >= 8


def test_reflection_half_z7():
    # gamma_7(1/2)^2 is a fourth root of unity that happens to be +-1
    s, r = check_reflection(make_padic(7, Fraction(1, 2), 8), 8)
    assert s in (1, -1)
    assert r >= 8


@pytest.mark.parametrize("p", [3, 5, 7])
def test_reflection_random_sweep(p):
    rng = random.Random(p * 1009)
    n = 5
    for _ in range(50):
        x = make_padic(p, rng.randrange(0, p**n), n)
        s, r = check_reflection(x, n)
        assert r >= n, (p, x)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_reflection_sign_is_fixed(p):
    # gamma_p(x) gamma_p(1-x) = (-1)^l(x), l(x) in {1, ..., p} congruent to x
    rng = random.Random(p * 2003)
    n = 4
    signs = set()
    for _ in range(60):
        q = Fraction(rng.randrange(-p**3, p**3), rng.choice([d for d in range(1, 40) if d % p]))
        x = make_padic(p, q, n)
        ell = x.lift() % p or p
        s, r = check_reflection(x, n)
        assert s == (-1) ** ell and r >= n, (p, q)
        signs.add(s)
    assert signs == {1, -1}


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
def test_continuity_exhaustive(p, n):
    mod = p**n
    for m in range(1, mod + 1):
        a = gamma_p_at(p, m, n)
        b = gamma_p_at(p, m + mod, n)
        assert a.unit == b.unit


def test_continuity_sampled_larger():
    rng = random.Random(7)
    p, n = 5, 4
    for _ in range(25):
        m = rng.randrange(1, 5**4)
        assert gamma_p_at(p, m, n).unit == gamma_p_at(p, m + 5**4, n).unit


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gamma_is_unit_valued(p):
    rng = random.Random(p)
    for _ in range(30):
        x = make_padic(p, rng.randrange(0, p**5), 5)
        g = gamma_p(x, 5)
        assert g.val == 0
        assert g.unit % p != 0

import hashlib
import math
import random
from fractions import Fraction

import pytest

from periods.hypergeom import apply_D, evaluate, hyper_period, solve_second_order
from periods.padic import PadicElement, PrecisionError, _vp_factorial, make_padic

from oracles import exact_katz, is_zero_at_precision, wronskian_defect


def _katz_pair(lam0, e, order, n):
    """The coefficients of alpha (value 1, D-value e) and beta (value 0, D-value 1)."""
    return solve_second_order(lam0, ((1, e), (0, 1)), order, n)


def _series(p, n, coeffs):
    return [make_padic(p, c, n) for c in coeffs]


def _add(f, g):
    """Coefficientwise f + g through the lower of the two orders."""
    return [x + y for x, y in zip(f, g)]


def _mul(f, g):
    """The truncated Cauchy product f g, or f scaled by a scalar g.

    With _add this is the series algebra, kept as an oracle: apply_D and
    wronskian_defect run on coefficient tuples without it.
    """
    if not isinstance(g, (list, tuple)):
        return [c * g for c in f]
    out = []
    for k in range(min(len(f), len(g))):
        acc = f[0] * g[k]
        for i in range(1, k + 1):
            acc = acc + f[i] * g[k - i]
        out.append(acc)
    return out


def _all_zero(series):
    return all(
        c.is_exact_zero() or is_zero_at_precision(c) for c in series
    )


def test_apply_D_kills_constants():
    f = _series(5, 10, [7])
    assert _all_zero(apply_D(make_padic(5, 2, 10), f))


def test_apply_D_of_t_is_the_coefficient_quadratic():
    # D(t) = (t + lam0)(t + lam0 - 1); with lam0 = 2 that is 2 + 3t + t^2
    f = _series(5, 10, [0, 1, 0, 0])
    got = apply_D(make_padic(5, 2, 10), f)
    assert len(got) == 3
    expected = [2, 3, 1]
    for c, e in zip(got, expected):
        diff = c - e
        assert diff.is_exact_zero() or diff.min_valuation() >= 10


def test_apply_D_is_a_derivation():
    rng = random.Random(5)
    p, n = 7, 12
    lam0 = make_padic(p, 2, n)
    for _ in range(5):
        f = _series(p, n, [rng.randrange(p**n) for _ in range(9)])
        g = _series(p, n, [rng.randrange(p**n) for _ in range(9)])
        lhs = apply_D(lam0, _mul(f, g))
        rhs = _add(_mul(f, apply_D(lam0, g)), _mul(g, apply_D(lam0, f)))
        for k in range(min(len(lhs), len(rhs))):
            diff = lhs[k] - rhs[k]
            assert diff.is_exact_zero() or is_zero_at_precision(diff)


def test_solver_rejects_bad_base_points():
    with pytest.raises(ValueError):
        _katz_pair(make_padic(5, 1, 10), 0, 10, 10)
    with pytest.raises(ValueError):
        _katz_pair(make_padic(5, 0, 10), 0, 10, 10)
    with pytest.raises(ValueError):
        _katz_pair(make_padic(5, 6, 10), 0, 10, 10)
    for solve in (lambda: solve_second_order(2, ((1, 0),), 4, 4),
                  lambda: _katz_pair(2, 0, 4, 4)):
        with pytest.raises(TypeError) as err:
            solve()
        assert str(err.value) == "base point must be a p-adic element"


def test_solver_rejects_fractional_e():
    lam0 = make_padic(5, 2, 10)
    runs = [(lambda e=e: _katz_pair(lam0, e, 10, 10), 0)
            for e in (make_padic(5, Fraction(1, 5), 10), Fraction(1, 5))]
    # the tail bound needs every (value, D-value) pair integral, not e alone,
    # and a pair without an e is named by its place
    runs.append((lambda: solve_second_order(lam0, ((1, 0), (Fraction(3, 5), 1)), 10, 10), 1))
    runs.append((lambda: solve_second_order(lam0, ((Fraction(3, 5), 1),), 10, 10), 0))
    for run, i in runs:
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == "(value, D-value) pair %d has valuation -1; it must be integral" % i


def test_beta_linear_coefficient():
    lam0 = make_padic(5, 2, 12)
    _, beta = _katz_pair(lam0, 0, 10, 12)
    diff = beta[1] - Fraction(1, 2)
    assert diff.is_exact_zero() or diff.min_valuation() >= 12


def test_defining_equation_residual():
    lam0 = make_padic(5, 2, 20)
    alpha, beta = _katz_pair(lam0, 3, 16, 20)
    # q is an exact polynomial, so padding it out with genuine zeros keeps
    # the product order high enough to read the residual past order 2
    q = _series(5, 20, [2, 3, 1] + [0] * 16)
    for f in (alpha, beta):
        resid = _add(apply_D(lam0, apply_D(lam0, f)), _mul(q, f))
        for k in range(len(f) - 2):
            c = resid[k]
            assert c.is_exact_zero() or is_zero_at_precision(c)


def test_golden_coefficients():
    # frozen from an exact rational recurrence run; the order-40 entries sit
    # at the -v_p(k!) floor the divisions predict
    lam0 = make_padic(5, 2, 40)
    alpha, beta = _katz_pair(lam0, 0, 40, 40)
    alpha_expect = [1, 0, Fraction(-1, 4), Fraction(1, 4), Fraction(-5, 24),
                    Fraction(27, 160), Fraction(-53, 384)]
    beta_expect = [0, Fraction(1, 2), Fraction(-3, 8), Fraction(1, 4),
                   Fraction(-11, 64), Fraction(1, 8), Fraction(-123, 1280)]
    for k in range(7):
        da = alpha[k] - alpha_expect[k]
        db = beta[k] - beta_expect[k]
        assert da.is_exact_zero() or da.min_valuation() >= 30
        assert db.is_exact_zero() or db.min_valuation() >= 30
    assert alpha[40].min_valuation() >= -9
    assert beta[40].min_valuation() >= -9


def test_wronskian_series_clean():
    lam0 = make_padic(5, 2, 40)
    alpha, beta = _katz_pair(lam0, 0, 40, 40)
    assert wronskian_defect(lam0, alpha, beta) == []


def test_wronskian_flags_a_corrupted_solution():
    lam0 = make_padic(5, 2, 20)
    alpha, beta = _katz_pair(lam0, 0, 12, 20)
    broken = list(beta)
    broken[4] = broken[4] + 1
    assert wronskian_defect(lam0, alpha, broken) != []


def test_solution_space_linearity():
    rng = random.Random(17)
    p, n, T = 7, 16, 12
    lam0 = make_padic(p, 3, n)
    e = make_padic(p, 2, n)
    alpha, beta = _katz_pair(lam0, e, T, n)
    for _ in range(5):
        x0 = rng.randrange(p**n)
        x1 = rng.randrange(p**n)
        (direct,) = solve_second_order(lam0, ((x0, x1),), T, n)
        combo = _add(_mul(alpha, x0), _mul(beta, make_padic(p, x1, n) - e * x0))
        for k in range(T + 1):
            diff = direct[k] - combo[k]
            assert diff.is_exact_zero() or is_zero_at_precision(diff)


def test_precision_monotonicity():
    lam0_lo = make_padic(5, 2, 14)
    lam0_hi = make_padic(5, 2, 28)
    lo_a, lo_b = _katz_pair(lam0_lo, 0, 16, 14)
    hi_a, hi_b = _katz_pair(lam0_hi, 0, 24, 28)
    for low, high in ((lo_a, hi_a), (lo_b, hi_b)):
        for k in range(len(low)):
            diff = low[k] - high[k]
            assert diff.is_exact_zero() or is_zero_at_precision(diff)


def test_matrix_at_base_point():
    ((a, b), (c, d)), _, _, _ = hyper_period(2, 3, 12, 2, 5, 14)
    assert a.lift() == 1 and d.lift() == 1
    assert c.is_exact_zero() or is_zero_at_precision(c)
    diff = b + 3
    assert diff.is_exact_zero() or is_zero_at_precision(diff)


def test_matrix_golden_at_shifted_point():
    # digits frozen from the exact-recurrence oracle evaluated at t = 5
    m, got, det, _ = hyper_period(2, 0, 40, 7, 5, 40)
    (db, nda), (nb, a) = m
    assert db.val == 0
    assert db.digits()[:12] == [1, 0, 1, 3, 3, 0, 1, 3, 2, 1, 3, 4]
    assert nda.val == 1
    assert nda.digits()[:11] == [1, 0, 2, 1, 1, 0, 4, 1, 4, 0, 2]
    assert nb.val == 1
    assert nb.digits()[:11] == [2, 3, 1, 3, 2, 2, 1, 4, 4, 1, 1]
    assert a.val == 0
    assert a.digits()[:12] == [1, 0, 1, 0, 1, 3, 0, 4, 2, 0, 2, 4]
    assert got == 23
    assert (det - 1).min_valuation() >= 23


def test_determinant_is_one_across_the_disc():
    for shift in (7, 14, 49, 7 * 6):
        _, target, det, _ = hyper_period(3, 1, 20, 3 + shift, 7, 24)
        assert (det - 1).min_valuation() >= target


def _random_element(rng, p):
    """Exact zero, O(p^A), or a unit times p^v with 1 to 10 digits."""
    kind = rng.random()
    if kind < 0.1:
        return PadicElement(p, None, 0, 0)
    if kind < 0.25:
        return PadicElement(p, rng.randint(-4, 6), 0, 0)
    r = rng.randint(1, 10)
    u = rng.randrange(p**r)
    return PadicElement(p, rng.randint(-4, 6), u - u % p + rng.randrange(1, p), r)


def _evaluation_cases(p, seed, count):
    rng = random.Random(seed)
    lam0 = make_padic(p, 2, 40)
    for _ in range(count):
        order = rng.randint(0, 5)
        if rng.random() < 0.1:
            coeffs = [PadicElement(p, None, 0, 0)] * (order + 1)
        else:
            coeffs = [_random_element(rng, p) for _ in range(order + 1)]
        r = rng.randint(1, 12)
        u = rng.randrange(p**r)
        t = PadicElement(p, rng.randint(1, 4), u - u % p + rng.randrange(1, p), r)
        yield lam0, coeffs, lam0 + t


def _ladder_branch(lam0, coeffs, lam):
    """Which case of the value/tail comparison evaluate meets, 0 to 4."""
    t = lam - lam0
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    kk = len(coeffs)
    tail = kk * t.val - _vp_factorial(kk, lam0.p)
    if acc.is_exact_zero():
        return 0
    if is_zero_at_precision(acc):
        return 1
    if tail <= acc.val:
        return 2
    return 3 if tail < acc.abs_precision() else 4


# sha256 prefix of (val, unit, rel_prec) of every evaluate over
# _evaluation_cases(p, p, 300), frozen from the branch-by-branch truncation
# with the tail k v(t) - v_p(k!) at k = order + 1 and no slack
EVALUATE_DIGESTS = {
    3: "25be46a2248e5044",
    5: "41b9271d5dc90204",
    7: "a70b51062055c54a",
}


@pytest.mark.parametrize("p", sorted(EVALUATE_DIGESTS))
def test_evaluate_frozen_digests(p):
    # the table meets every case: the Horner value is exact zero, O(p^A), or
    # normal with the tail at or below its valuation, inside its digits, or
    # at or past its absolute precision
    cases = list(_evaluation_cases(p, p, 300))
    assert {_ladder_branch(*case) for case in cases} == set(range(5))
    text = "".join(
        "%r %d %d\n" % (y.val, y.unit, y.rel_prec) for y in (evaluate(*case) for case in cases)
    )
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == EVALUATE_DIGESTS[p]


def test_evaluation_domain_enforced():
    # 3 lies in the unit disc but not in the residue disc of lambda0 = 2
    with pytest.raises(ValueError) as err:
        hyper_period(2, 0, 8, 3, 5, 12)
    assert str(err.value) == ("evaluation point is outside the residue disc of lambda0: "
                              "v(at - lambda0) = 0, not >= 1")
    with pytest.raises(ValueError) as err:
        hyper_period(2, 0, 8, Fraction(1, 5), 5, 12)
    assert str(err.value).endswith("v(at - lambda0) = -1, not >= 1")


def test_precision_shortfall_is_loud():
    # pushing the order far past the working precision drives the tracked
    # error bounds through the floor; the matrix call must refuse rather
    # than hand back digits it cannot certify
    with pytest.raises(PrecisionError):
        hyper_period(2, 0, 40, 7, 5, 16)


def test_deeper_points_evaluate_sharper():
    near = hyper_period(2, 0, 12, 2 + 5, 5, 20)[1]
    deep = hyper_period(2, 0, 12, 2 + 25, 5, 20)[1]
    assert deep >= near


def _vp_exact(x, p):
    if not x:
        return math.inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _misses(p, lam0, e, order, n, at):
    """Entries of the hyper matrix at lam = at whose claimed digits miss exact_katz.

    None when the matrix is refused.  An entry claims p^val unit mod
    p^abs_precision (O(p^A) claims 0 mod p^A).  The exact series are summed
    below an order K past which every term is 0 mod p^prec: k! c_k is
    integral, and k v(t) - v_p(k!) >= k (v(t) - 1/2) + 1/2 at odd p.
    """
    try:
        matrix = hyper_period(lam0, e, order, at, p, n)[0]
    except PrecisionError:
        return None
    t = Fraction(at) - lam0
    entries = [x for row in matrix for x in row]
    prec = max(x.abs_precision() for x in entries)
    vt = _vp_exact(t, p)
    big_k = max(0, -(-(2 * prec - 1) // (2 * vt - 1)))
    alpha, beta, d_alpha, d_beta = exact_katz(lam0, e, big_k)
    exact = []
    for sign, coeffs in ((1, d_beta), (-1, d_alpha), (-1, beta), (1, alpha)):
        acc = Fraction(0)
        for c in reversed(coeffs[:big_k]):
            acc = acc * t + c
        exact.append(sign * acc)
    claimed = [x.unit * Fraction(p) ** x.val if x.rel_prec else 0 for x in entries]
    return [
        i for i, (x, c, y) in enumerate(zip(entries, claimed, exact))
        if _vp_exact(c - y, p) < x.abs_precision()
    ]


def test_hyper_digits_match_the_exact_solution():
    # 2(order + 1) < p^2 keeps every multiple of p^2 out of (T + 1, 2(T + 1)),
    # so k v(t) - v_p(k!) is least at k = T + 1 and evaluate's tail is proven
    rng = random.Random(33)
    checked = 0
    for p in (3, 5, 7, 11):
        bases = [Fraction(a, b) for a in range(-p * p, p * p) for b in (1, 2, p + 2)]
        for _ in range(120):
            order = rng.randint(2, (p * p - 3) // 2)
            lam0 = rng.choice([x for x in bases if (x * (x - 1)).numerator % p])
            e = rng.randint(-p**3, p**3)
            n = rng.randint(2, 30)
            t = p ** rng.randint(1, 2) * rng.choice([u for u in range(-p * p, p * p) if u % p])
            misses = _misses(p, lam0, e, order, n, lam0 + t)
            if misses is not None:
                checked += 1
                assert misses == [], (p, lam0, e, order, n, t)
    assert checked >= 400


# a series of order 23 takes its tail at k = 24, where k v(t) - v_p(k!) is
# 20 at p = 5, v(t) = 1, but at k = 25 it is 19: alpha in the first matrix
# and D(alpha) in the second claim one digit too many, and it is wrong
@pytest.mark.xfail(strict=True, reason="the tail minimum is not at order + 1")
@pytest.mark.parametrize("p, lam0, e, order, n, at", [
    (5, 2, 0, 23, 80, 7),  # alpha
    (5, 3, 3, 24, 24, 8),  # -D(alpha); the cli-small seed-0 request 198
])
def test_tail_minimum_past_the_next_order(p, lam0, e, order, n, at):
    assert _misses(p, lam0, e, order, n, at) == []


def _derivation_cases(p, seed, count):
    """(lam0, alpha, beta) solution pairs; a third corrupted, a third cut to unequal orders.

    The corruptions swap in an exact zero, an O(p^A) or a random element,
    and an order-0 pair and an O(p^A) coefficient close the list.
    """
    rng = random.Random(seed)
    for j in range(count):
        n = rng.randint(4, 24)
        lam0 = make_padic(p, rng.choice([2, p + 2, 2 - p]), n)
        alpha, beta = _katz_pair(lam0, rng.randrange(p**n), rng.randint(2, 12), n)
        a, b = list(alpha), list(beta)
        if j % 3 == 1:
            victim = rng.choice([a, b])
            victim[rng.randrange(len(victim))] = _random_element(rng, p)
        elif j % 3 == 2:
            b = b[:rng.randint(1, len(b))]
        yield lam0, a, b
    lam0 = make_padic(p, 2, 10)
    yield lam0, [make_padic(p, 3, 10)], [make_padic(p, 0, 10)]
    yield (
        lam0,
        [make_padic(p, 1, 10), PadicElement(p, 3, 0, 0), make_padic(p, 4, 10)],
        [make_padic(p, 0, 10), make_padic(p, 1, 10), PadicElement(p, -2, 0, 0)],
    )


# sha256 prefix of (val, unit, rel_prec) of every apply_D coefficient and of
# every wronskian_defect list over _derivation_cases(p, p, 50), frozen from
# the series algebra (FormalSeries +, -, * and differentiate)
DERIVATION_DIGESTS = {
    3: "6b678f9b8f2d2083",
    5: "23d5cbf100e760d4",
    7: "24da5ab11e41fe57",
}


@pytest.mark.parametrize("p", sorted(DERIVATION_DIGESTS))
def test_apply_D_and_wronskian_frozen_digests(p):
    lines = []
    for lam0, alpha, beta in _derivation_cases(p, p, 50):
        for f in (alpha, beta):
            lines += ["%r %d %d" % (c.val, c.unit, c.rel_prec) for c in apply_D(lam0, f)]
        lines.append(repr(wronskian_defect(lam0, alpha, beta)))
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == DERIVATION_DIGESTS[p]


def _solve_lines(p):
    """(val, unit, rel_prec) of every coefficient of every solve in a fixed sweep.

    Each (order, n) solves e = 0, an element e, and one general (x0, x1)
    pair; a solve that raises ZeroDivisionError contributes its text.  n = 1
    reaches the divisor refusal at p = 3 from order 27.
    """
    for order in (2, 3, 6, 12, 36, 60):
        for n in (1, 2, 8, 24, 60):
            lam0 = make_padic(p, p + 2, n)
            e = make_padic(p, Fraction(p + 1, 2), n)
            runs = (
                lambda: _katz_pair(lam0, 0, order, n),
                lambda: _katz_pair(lam0, e, order, n),
                lambda: solve_second_order(lam0, ((12345, Fraction(-7, 4)),), order, n),
            )
            for run in runs:
                yield "%d %d" % (order, n)
                try:
                    sols = run()
                except ZeroDivisionError as err:
                    yield str(err)
                    continue
                for f in sols:
                    yield from ("%r %d %d" % (c.val, c.unit, c.rel_prec) for c in f)


# sha256 prefix of _solve_lines(p), frozen from the solver that ran the
# recurrence once per solution
SOLVE_DIGESTS = {
    3: "6c18a7761e732fb8",
    5: "c9d0932253b15c81",
    7: "58239d3d81003e87",
    11: "2352ba105e1a30b5",
    13: "d8195e015139c524",
}


@pytest.mark.parametrize("p", sorted(SOLVE_DIGESTS))
def test_solve_frozen_digests(p):
    lines = list(_solve_lines(p))
    if p == 3:
        assert "divisor indistinguishable from zero at O(3^3)" in lines
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == SOLVE_DIGESTS[p]

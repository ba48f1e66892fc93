import hashlib
import random
from fractions import Fraction

import pytest

from periods import frobenius
from periods.arith import is_prime
from periods.cm import rational_reconstruct
from periods.frobenius import (
    CharpolyCertificate,
    EllipticCurveW,
    charpoly_certificate,
    count_points,
    frobenius_selftest,
    kedlaya_frobenius,
)
from periods.padic import PrecisionError, residual_valuation

from oracles import dense_kedlaya, walked_loss_count

# a_p frozen from a standalone double-loop enumeration, checked against
# the character sum and the table of squares below
AP_TABLE = {
    ((1, 1, 0, 1), 5): -3, ((1, 1, 0, 1), 7): 3,
    ((1, 1, 0, 1), 11): -2, ((1, 1, 0, 1), 13): -4,
    ((0, -1, 0, 1), 5): -2, ((0, -1, 0, 1), 7): 0,
    ((0, -1, 0, 1), 11): 0, ((0, -1, 0, 1), 13): 6,
    ((2, 3, 0, 1), 5): 1, ((2, 3, 0, 1), 7): -1,
    ((2, 3, 0, 1), 11): -1, ((2, 3, 0, 1), 13): 2,
    ((1, -2, 0, 1), 7): -4, ((1, -2, 0, 1), 11): 4, ((1, -2, 0, 1), 13): -2,
    ((1, 0, 1, 1), 5): 1, ((1, 0, 1, 1), 7): -3,
    ((1, 0, 1, 1), 11): -2, ((1, 0, 1, 1), 13): -2,
}


def _count_by_squares(f, p):
    # oracle for count_points: square roots per x from a table of squares
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    c0, c1, c2 = f[0], f[1], f[2]
    affine = sum(roots[(x * x * x + c2 * x * x + c1 * x + c0) % p] for x in range(p))
    return p - affine


def test_count_points_frozen_table():
    for (f, p), expect in AP_TABLE.items():
        assert count_points(f, p) == expect
        assert _count_by_squares(f, p) == expect


def test_y2_x3_minus_x_trace_pattern():
    # ordinary at 5 (the count is -2, not the 0 a supersingularity guess
    # would suggest), supersingular at the primes congruent to 3 mod 4
    assert count_points((0, -1, 0, 1), 5) == -2
    assert count_points((0, -1, 0, 1), 7) == 0
    assert count_points((0, -1, 0, 1), 11) == 0


def test_counting_methods_agree_on_random_curves():
    rng = random.Random(31)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    done = 0
    while done < 50:
        p = rng.choice(primes)
        f = (rng.randrange(-9, 10), rng.randrange(-9, 10),
             rng.randrange(-9, 10), 1)
        try:
            a = count_points(f, p)
        except ValueError:
            continue
        assert a == _count_by_squares(f, p)
        assert a * a <= 4 * p
        done += 1


def test_count_points_input_checks():
    with pytest.raises(ValueError):
        count_points((1, -2, 0, 1), 5)  # disc = 5
    with pytest.raises(ValueError):
        count_points((1, 1, 0, 2), 5)
    with pytest.raises(ValueError):
        count_points((1, 1, 1), 5)
    with pytest.raises(ValueError):
        count_points((1, 1, 0, 1), 9)


def test_curve_validation():
    with pytest.raises(ValueError):
        EllipticCurveW(f=(1, 1, 0, 1), p=3, n=4)
    with pytest.raises(ValueError):
        EllipticCurveW(f=(1, 1, 0, 1), p=9, n=4)
    with pytest.raises(ValueError):
        EllipticCurveW(f=(1, 1, 0, 1), p=5, n=0)
    with pytest.raises(ValueError):
        EllipticCurveW(f=(1, -2, 0, 1), p=5, n=4)
    with pytest.raises(ValueError):
        EllipticCurveW(f=(1, 1, 0, 2), p=5, n=4)


def test_non_integral_coefficients_are_refused():
    # int() alone would take 3/2 to 1 and 7/2 to 3 without a word
    for call in (lambda: EllipticCurveW((Fraction(3, 2), 1, 0, 1), 5, 4),
                 lambda: count_points((Fraction(7, 2), 1, 0, 1), 5),
                 lambda: EllipticCurveW((1, 1.5, 0, 1), 5, 4)):
        with pytest.raises(ValueError, match="^f must have integer coefficients$"):
            call()
    assert EllipticCurveW((Fraction(2, 2), 1.0, 0, 1), 5, 4).f == (1, 1, 0, 1)
    assert count_points((Fraction(6, 2), 1, 0, 1), 5) == count_points((3, 1, 0, 1), 5)


def test_discriminants():
    assert frobenius._discriminant((1, 1, 0, 1)) == -31
    assert frobenius._discriminant((0, -1, 0, 1)) == 4
    assert frobenius._discriminant((1, 0, 1, 1)) == -31


def test_trace_and_det_against_the_count():
    for f, p in (((1, 1, 0, 1), 5), ((0, -1, 0, 1), 5), ((2, 3, 0, 1), 5),
                 ((1, 0, 1, 1), 5), ((1, 1, 0, 1), 7), ((0, -1, 0, 1), 7),
                 ((1, -2, 0, 1), 7), ((1, 1, 0, 1), 11)):
        cur = EllipticCurveW(f=f, p=p, n=4)
        cert = charpoly_certificate(kedlaya_frobenius(cur), AP_TABLE[(f, p)])
        assert isinstance(cert, CharpolyCertificate)
        assert cert.ok, (f, p, cert)


def test_supersingular_trace_vanishes_to_precision():
    cur = EllipticCurveW(f=(0, -1, 0, 1), p=7, n=4)
    tr = kedlaya_frobenius(cur).trace()
    assert tr.is_exact_zero() or tr.min_valuation() >= 4


def test_golden_matrix_p5():
    # digits pinned by the doubled-parameter recomputation and the trace
    # and determinant gates; regression anchor for the reduction chain
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=5, n=8)
    m = kedlaya_frobenius(cur)
    (a, b), (c, d) = m.entries
    assert a.val == 2 and a.digits() == [2, 0, 3, 3, 4, 4]
    assert b.val == 0 and b.digits() == [3, 3, 1, 4, 2, 3, 3, 2]
    assert c.val == 1 and c.digits() == [3, 1, 0, 4, 2, 2, 1]
    assert d.val == 0 and d.digits() == [2, 4, 2, 4, 1, 1, 0, 0]
    cert = charpoly_certificate(m, -3)
    assert cert.ok and cert.trace_valuation >= 8 and cert.det_valuation >= 8


def test_golden_matrix_p7():
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=7, n=4)
    m = kedlaya_frobenius(cur)
    (a, b), (c, d) = m.entries
    assert a.val == 1 and a.digits() == [5, 0, 0]
    assert b.val == 0 and b.digits() == [4, 5, 5, 2]
    assert c.val == 2 and c.digits() == [3, 2]
    assert d.val == 0 and d.digits() == [3, 2, 6, 6]


# (f, p, n, ((val, digits) of a, b, c, d)) for entries ((a, b), (c, d)),
# frozen from the PadicElement-tracked reduction on seeded cubics
FROZEN = (
    ((-1, 1, 7, 1), 5, 2, ((2, ()), (0, (3, 1)), (1, (3,)), (0, (1, 0)))),
    ((-2, 8, 3, 1), 5, 3, ((1, (2, 3)), (0, (1, 0, 2)), (1, (4, 0)), (1, (3, 1)))),
    ((-5, -7, -9, 1), 5, 4, ((1, (1, 2, 4)), (0, (4, 2, 3, 2)), (1, (4, 3, 3)), (0, (2, 4, 2, 0)))),
    ((8, 4, -7, 1), 5, 5, ((1, (3, 0, 0, 0)), (1, (4, 1, 4, 2)), (1, (1, 4, 2, 1)), (0, (2, 1, 4, 4, 4)))),
    ((0, 4, -8, 1), 5, 6, ((2, (1, 1, 3, 1)), (0, (4, 3, 2, 2, 2, 0)), (1, (1, 2, 3, 4, 0)), (0, (2, 0, 4, 3, 1, 3)))),
    ((-7, -7, -3, 1), 5, 8, ((1, (2, 2, 3, 0, 2, 0, 0)), (0, (2, 0, 4, 4, 2, 4, 2, 2)), (1, (2, 0, 4, 3, 3, 4, 1)), (1, (3, 2, 1, 4, 2, 4, 4)))),
    ((-7, 4, 9, 1), 7, 2, ((1, (1,)), (0, (2, 2)), (1, (3,)), (1, (6,)))),
    ((8, -5, 9, 1), 7, 3, ((1, (6, 5)), (0, (1, 0, 5)), (1, (6, 5)), (1, (1, 1)))),
    ((-6, 0, -6, 1), 7, 4, ((1, (3, 1, 6)), (0, (1, 5, 6, 3)), (1, (4, 1, 5)), (0, (4, 3, 5, 0)))),
    ((6, 4, 9, 1), 7, 5, ((1, (2, 2, 5, 0)), (1, (1, 2, 2, 2)), (1, (5, 2, 4, 0)), (0, (4, 5, 4, 1, 6)))),
    ((-8, -5, 6, 1), 7, 7, ((1, (6, 4, 4, 4, 2, 2)), (0, (4, 6, 3, 1, 0, 4, 5)), (1, (2, 1, 0, 6, 6, 0)), (0, (5, 0, 2, 2, 2, 4, 4)))),
    ((4, 4, 6, 1), 7, 8, ((1, (2, 2, 0, 6, 0, 0, 0)), (0, (6, 2, 0, 0, 2, 0, 2, 3)), (1, (6, 5, 4, 6, 6, 3, 2)), (0, (1, 5, 4, 6, 0, 6, 6, 6)))),
    ((-3, -6, -6, 1), 11, 2, ((1, (2,)), (0, (1, 9)), (2, ()), (0, (6, 9)))),
    ((3, -7, 8, 1), 11, 3, ((1, (5, 4)), (0, (3, 10, 9)), (1, (5, 9)), (0, (1, 6, 6)))),
    ((-2, 1, -2, 1), 11, 4, ((1, (6, 0, 5)), (0, (4, 1, 3, 7)), (1, (2, 9, 6)), (0, (7, 4, 10, 5)))),
    ((-4, -5, -2, 1), 11, 6, ((1, (8, 0, 6, 0, 5)), (0, (8, 8, 8, 9, 7, 0)), (1, (6, 9, 5, 8, 2)), (0, (2, 3, 10, 4, 10, 5)))),
    ((4, -8, -9, 1), 11, 8, ((1, (4, 9, 10, 8, 2, 5, 6)), (0, (9, 4, 1, 7, 6, 10, 4, 6)), (1, (4, 2, 6, 5, 0, 5, 0)), (0, (1, 7, 1, 0, 2, 8, 5, 4)))),
    ((-3, 0, 4, 1), 13, 2, ((1, (11,)), (0, (2, 2)), (1, (2,)), (0, (4, 2)))),
    ((4, 1, 1, 1), 13, 3, ((1, (12, 7)), (0, (5, 7, 4)), (1, (11, 11)), (0, (9, 0, 5)))),
    ((-5, 9, -1, 1), 13, 5, ((1, (6, 9, 4, 1)), (0, (11, 5, 12, 4, 0)), (1, (2, 5, 8, 3)), (0, (6, 6, 3, 8, 11)))),
    ((-5, -8, -3, 1), 13, 7, ((1, (12, 3, 0, 12, 0, 0)), (1, (5, 0, 5, 6, 7, 2)), (1, (12, 11, 5, 1, 9, 3)), (0, (12, 0, 9, 12, 0, 12, 12)))),
    ((-7, 7, 3, 1), 29, 2, ((1, (11,)), (0, (12, 14)), (1, (24,)), (0, (21, 17)))),
    ((-6, 6, -6, 1), 29, 3, ((1, (25, 23)), (0, (24, 16, 8)), (2, (22,)), (0, (7, 4, 5)))),
    ((-6, 1, -3, 1), 29, 4, ((1, (1, 14, 25)), (0, (3, 25, 21, 23)), (1, (21, 26, 19)), (0, (6, 28, 14, 3)))),
)


def test_frozen_matrices():
    for f, p, n, want in FROZEN:
        m = kedlaya_frobenius(EllipticCurveW(f=f, p=p, n=n))
        got = tuple((e.val, tuple(e.digits())) for row in m.entries for e in row)
        assert got == want, (f, p, n)
        for row in m.entries:
            for e in row:
                assert e.abs_precision() == n and e.rel_prec == len(e.digits())


def test_buffer_boundary_is_the_loss_count(monkeypatch):
    # At p = 5 and K = 7 the top row, at pole order P = 5 * 15 = 75, kills
    # x^114 .. x^2 of the second column by dividing by 2k - 3P + 2: the odd
    # numbers -219 .. 5, which hold 28 factors of 5 (-25, -75, -175 hold two
    # and -125 three).  Every lower row joins with fewer, so the max keeps
    # 28; the vertical steps from P = 75 down to 3 divide by P - 2, the odd
    # numbers 1 .. 73, which hold 8 more (25 holds two)
    def factors_of_5(ds):
        return sum(d % 5**t == 0 for d in ds for t in (1, 2, 3))

    loss = factors_of_5(range(-219, 6, 2)) + factors_of_5(range(1, 74, 2))
    assert loss == 36
    assert frobenius._loss_count(5, 7) == loss
    # at every shape, W = n + _loss_count succeeds and one digit less fails:
    # the count is the exact buffer for both columns
    loss_count = frobenius._loss_count
    curves = [EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4)]
    curves += [c for p in (5, 7, 11, 13) for c in _kedlaya_cases(p, (2, 4, 6))]
    # W is part of the (p, n) plan, so each patched call starts from no plan
    for cur in curves:
        monkeypatch.setattr(frobenius, "_plans", {})
        monkeypatch.setattr(frobenius, "_loss_count", loss_count)
        kedlaya_frobenius(cur)
        monkeypatch.setattr(frobenius, "_plans", {})
        monkeypatch.setattr(frobenius, "_loss_count", lambda p, K: loss_count(p, K) - 1)
        with pytest.raises(PrecisionError):
            kedlaya_frobenius(cur)


def test_loss_count_is_the_walked_count():
    # the closed form against the count walked one pole order at a time, at
    # every K up to the cut of the largest n whose plan the budget admits,
    # found from above: a refusal comes before any work
    for p in (5, 7, 11, 13, 29, 101, 1009, 10007):
        n = 200
        while True:
            try:
                frobenius._build_plan(p, n)
                break
            except PrecisionError:
                n -= 1
        for K in range(frobenius._series_cut(p, n) + 1):
            assert frobenius._loss_count(p, K) == walked_loss_count(p, K), (p, K)


def test_a_plan_holds_nothing_per_pole_order():
    # at (10007, 3), the largest plan the budget admits, K = 2 and there are
    # p(2K + 1)/2 = 25017 vertical steps; the largest field is the 3K + 2
    # window multipliers that every row shares
    plan = frobenius._build_plan(10007, 3)
    assert plan.K == 2
    sizes = [len(x) for x in plan if isinstance(x, tuple)]
    assert sizes and max(sizes) <= 3 * plan.K + 2


def test_entries_come_back_at_the_requested_precision():
    cur = EllipticCurveW(f=(2, 3, 0, 1), p=5, n=5)
    m = kedlaya_frobenius(cur)
    for row in m.entries:
        for e in row:
            assert e.abs_precision() == 5


def test_bezout_factor_inverts_the_derivative():
    rng = random.Random(5)
    checked = 0
    while checked < 300:
        p, w = rng.choice([5, 7, 11, 13, 29, 101]), rng.randint(1, 30)
        f = [rng.randint(-60, 60) for _ in range(3)] + [1]
        if frobenius._discriminant(f) % p == 0:
            continue
        fpr = [f[i] * i for i in range(1, 4)]
        v = frobenius._bezout_factor(f, fpr, p**w)
        product = frobenius._int_mul(v, fpr, p**w)
        assert frobenius._divmod_cubic(product, f, p**w)[1] == [1, 0, 0], (f, p, w)
        checked += 1


def test_charpoly_integers_reconstruct():
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=5, n=8)
    m = kedlaya_frobenius(cur)
    assert rational_reconstruct(m.trace(), 5) == -3
    assert rational_reconstruct(m.determinant(), 6) == 5


def test_perturbed_matrix_fails_the_certificate():
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4)
    m = kedlaya_frobenius(cur)
    (a, b), (c, d) = m.entries
    bad = type(m)(entries=((a + 125, b), (c, d)), curve=cur)
    cert = charpoly_certificate(bad, -3)
    assert not cert.ok
    assert cert.trace_valuation == 3


def test_transposed_matrix_passes_the_certificate():
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4)
    m = kedlaya_frobenius(cur)
    (a, b), (c, d) = m.entries
    swapped = type(m)(entries=((a, c), (b, d)), curve=cur)
    assert charpoly_certificate(swapped, -3).ok


def test_selftest_certifies_and_agrees():
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=7, n=4)
    direct = kedlaya_frobenius(cur)
    checked = frobenius_selftest(cur)
    for r in (0, 1):
        for c in (0, 1):
            diff = direct.entries[r][c] - checked.entries[r][c]
            assert diff.is_exact_zero() or diff.min_valuation() >= 4


def test_selftest_refuses_digits_that_move(monkeypatch):
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=7, n=4)
    real = frobenius.kedlaya_frobenius

    def moved(curve):
        # the run on the shifted model f(X + 1) disagrees from p^3 on
        m = real(curve)
        if curve.f == cur.f:
            return m
        (a, b), (c, d) = m.entries
        return type(m)(entries=((a + 7**3, b), (c, d)), curve=curve)

    monkeypatch.setattr(frobenius, "kedlaya_frobenius", moved)
    # a failed check, not a precision the request could not reach
    with pytest.raises(ArithmeticError, match="^matrix digits moved under a change of model: "
                                              "the models agree to 3 of 4 digits$") as err:
        frobenius_selftest(cur)
    assert not isinstance(err.value, PrecisionError)


def test_selftest_runs_the_kernel_twice_at_the_requested_precision(monkeypatch):
    # the base model and its shift f(X + 1), both at n: nothing deeper
    calls = []

    def counted(curve):
        calls.append((curve.f, curve.n))
        return real(curve)

    real = frobenius.kedlaya_frobenius
    monkeypatch.setattr(frobenius, "kedlaya_frobenius", counted)
    for cur in _kedlaya_cases(5, (2, 4, 6)):
        calls.clear()
        frobenius_selftest(cur)
        assert calls == [(cur.f, cur.n), (_shift(cur.f, 1), cur.n)], cur.f


def test_count_points_refuses_a_sum_past_the_weil_bound(monkeypatch):
    # every value a square: a_p = -p, and p^2 > 4p
    monkeypatch.setattr(frobenius, "kronecker", lambda a, b: 1)
    with pytest.raises(ArithmeticError, match="^point count violates the Weil bound$"):
        count_points((1, 1, 0, 1), 5)


def test_vertical_maps_refuse_a_wrong_bezout_factor(monkeypatch):
    # with v f' != 1 mod f, x^b - S f' is no multiple of f
    real = frobenius._bezout_factor
    monkeypatch.setattr(frobenius, "_bezout_factor",
                        lambda f, fpr, M: [(c + 1) % M for c in real(f, fpr, M)])
    with pytest.raises(ArithmeticError, match="^pole reduction left a nonzero remainder$"):
        kedlaya_frobenius(EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4))


def test_exhausted_buffer_is_loud(monkeypatch):
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4)
    monkeypatch.setattr(frobenius, "_plans", {})
    monkeypatch.setattr(frobenius, "_loss_count", lambda p, m_init: 0)
    with pytest.raises(PrecisionError):
        kedlaya_frobenius(cur)


def _kedlaya_cases(p, ns):
    """One seeded good-reduction cubic per precision in ns."""
    rng = random.Random(p)
    for n in ns:
        while True:
            f = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9), 1)
            if frobenius._discriminant(f) % p:
                yield EllipticCurveW(f=f, p=p, n=n)
                break


def test_mazur_divisibility_of_the_hodge_column():
    # Frobenius maps the Hodge line into p H^1 (Mazur, Bull. AMS 78, 1972),
    # so column 0, the image of dx/y, is 0 mod p
    for p in (5, 7, 11, 13, 29):
        for cur in _kedlaya_cases(p, (2, 4, 6)):
            m = kedlaya_frobenius(cur)
            for r in (0, 1):
                e = m.entries[r][0]
                assert e.is_exact_zero() or e.min_valuation() >= 1, (cur.f, p, cur.n, r)


def _shift(f, r):
    """g(X) = f(X + r), coefficients low to high."""
    c0, c1, c2 = f[:3]
    return (c0 + c1 * r + c2 * r * r + r**3, c1 + 2 * c2 * r + 3 * r * r, c2 + 3 * r, 1)


def _matmul(x, y):
    return tuple(tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in (0, 1)) for i in (0, 1))


def _model_residual(m, shifted, r, u):
    """Least v(F_f - B^-1 F_g B) over the entries, B = [[1/u, r/u], [0, u]].

    The substitution x = u^2 X + r, y = u^3 Y, u = +-1, takes y^2 = f(x) to
    y^2 = g(X), g = _shift(f, r), and dx/y, x dx/y to dX/Y, X dX/Y times the
    columns of B.
    """
    b, b_inv = ((u, r * u), (0, u)), ((u, -r * u), (0, u))
    moved = _matmul(b_inv, _matmul(shifted.entries, b))
    return min(residual_valuation(x, y)
               for row, mrow in zip(m.entries, moved) for x, y in zip(row, mrow))


def test_matrix_is_covariant_under_a_change_of_model():
    # the action on H^1 does not depend on the lift (Monsky-Washnitzer), so a
    # shifted model gives the same map in the moved basis, to every digit
    rng = random.Random(13)
    for p in (5, 7, 11, 13, 29):
        for cur in _kedlaya_cases(p, (2, 4, 6)):
            m = kedlaya_frobenius(cur)
            for r in (1, 2, 3, -4):
                shifted = kedlaya_frobenius(EllipticCurveW(f=_shift(cur.f, r), p=p, n=cur.n))
                u = rng.choice((1, -1))
                assert _model_residual(m, shifted, r, u) >= cur.n, (cur.f, p, cur.n, r, u)


def test_covariance_sees_what_the_charpoly_misses(monkeypatch):
    # conjugating by diag(1 + p^k, 1) keeps trace and determinant, but moves
    # the unit F[0][1] from p^k on: the certificate passes and the model
    # residual is exactly k, which frobenius_selftest reports
    real = frobenius.kedlaya_frobenius
    for f, p, n in (((1, 1, 0, 1), 5, 6), ((1, 1, 0, 1), 7, 4), ((2, 3, 0, 1), 11, 4)):
        cur = EllipticCurveW(f=f, p=p, n=n)
        m = kedlaya_frobenius(cur)
        (a, b), (c, d) = m.entries
        assert b.val == 0
        shifted = kedlaya_frobenius(EllipticCurveW(f=_shift(f, 1), p=p, n=n))
        assert _model_residual(m, shifted, 1, 1) >= n
        for k in range(1, n):
            s = 1 + p**k
            bad = type(m)(entries=((a, b / s), (c * s, d)), curve=cur)
            assert charpoly_certificate(bad, count_points(f, p)).ok, (f, p, k)
            assert _model_residual(bad, shifted, 1, 1) == k, (f, p, k)
            with monkeypatch.context() as mp:
                mp.setattr(frobenius, "kedlaya_frobenius",
                           lambda curve: bad if curve.f == f else real(curve))
                with pytest.raises(ArithmeticError, match="agree to %d of %d digits$" % (k, n)):
                    frobenius_selftest(cur)


def _is_small(e, n):
    return e.is_exact_zero() or e.min_valuation() >= n


def test_cm_curves_have_the_shape_of_their_automorphism():
    # dx/y and x dx/y are eigenforms of x -> -x, y -> iy on y^2 = x^3 - x and
    # of x -> zeta x on y^2 = x^3 + 1, so F is diagonal at a split p (1 mod 4,
    # resp. 1 mod 3) and anti-diagonal at an inert one; every p < 200, n = 4
    n, seen = 4, {}
    for f, m in (((0, -1, 0, 1), 4), ((1, 0, 0, 1), 3)):
        for p in range(5, 200):
            if not is_prime(p):
                continue
            (a, b), (c, d) = kedlaya_frobenius(EllipticCurveW(f=f, p=p, n=n)).entries
            split = p % m == 1
            small = (b, c) if split else (a, d)
            assert all(_is_small(e, n) for e in small), (f, p)
            seen[f, split] = seen.get((f, split), 0) + 1
    assert sorted(seen.values()) == [21, 21, 23, 23]


# sha256 prefix of (val, unit, rel_prec) of the four entries of every matrix
# over _kedlaya_cases(p, ns), frozen from the dense-series expansion; at
# p = 5 and 7 the n = 3 matrix comes from frobenius_selftest
KEDLAYA_DIGESTS = {
    5: (range(1, 9), "5623c70d5e2421fc"),
    7: (range(1, 9), "9a4710b5fa967d97"),
    11: (range(1, 9), "35d74f85d6a32dc7"),
    13: (range(1, 9), "3c31f2dbb851f9ce"),
    17: ((1, 3, 5, 8), "3796c7e6659f215e"),
    29: ((1, 3, 5, 8), "8b32c599ae648ea2"),
    53: ((2,), "7995f0092b687f0b"),
    101: ((2,), "5ccef67f1fc01a5a"),
}


@pytest.mark.parametrize("p", sorted(KEDLAYA_DIGESTS))
def test_kedlaya_frozen_digests(p):
    ns, digest = KEDLAYA_DIGESTS[p]
    lines = []
    for cur in _kedlaya_cases(p, ns):
        deep = p in (5, 7) and cur.n == 3
        m = (frobenius_selftest if deep else kedlaya_frobenius)(cur)
        lines += ["%r %d %d" % (e.val, e.unit, e.rel_prec) for row in m.entries for e in row]
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_no_dense_product(monkeypatch):
    # K = _series_cut(29, 4) = 3: the powers f^j, j <= K, have at most
    # 3K + 1 = 10 coefficients, and no product in the expansion or the
    # reduction is larger
    sizes = []

    def counted(a, b, M):
        sizes.extend((len(a), len(b)))
        return real(a, b, M)

    real = frobenius._int_mul
    monkeypatch.setattr(frobenius, "_int_mul", counted)
    kedlaya_frobenius(EllipticCurveW(f=(1, 1, 0, 1), p=29, n=4))
    assert frobenius._series_cut(29, 4) == 3
    assert sizes and max(sizes) <= 10


def test_constant_number_of_cubic_divisions(monkeypatch):
    # the Bezout factor and the two vertical maps divide by f; the rows and
    # the vertical steps never do, whatever p and n
    calls = []

    def counted(a, f, M):
        calls.append(len(a))
        return real(a, f, M)

    real = frobenius._divmod_cubic
    monkeypatch.setattr(frobenius, "_divmod_cubic", counted)
    kedlaya_frobenius(EllipticCurveW(f=(1, 1, 0, 1), p=29, n=4))
    assert 0 < len(calls) <= 10


ORACLE_PRIMES = (5, 7, 11, 13, 17, 29, 53, 101)


def _oracle_cases(p):
    """x^3 - x, x^3 + 1 and seeded cubics at n = 1..10 (1..4 at p >= 53).

    Every third seeded cubic has a coefficient that is 0 mod p, a case
    the benchmark's curves avoid.
    """
    rng = random.Random(1000 + p)
    yield EllipticCurveW(f=(0, -1, 0, 1), p=p, n=3)
    yield EllipticCurveW(f=(1, 0, 0, 1), p=p, n=2)
    for n in range(1, 11 if p < 53 else 5):
        while True:
            f = [rng.randint(-9, 9) for _ in range(3)] + [1]
            if n % 3 == 0:
                f[rng.randrange(3)] = p * rng.randint(-1, 1)
            if frobenius._discriminant(f) % p:
                yield EllipticCurveW(f=tuple(f), p=p, n=n)
                break


def test_oracle_cases_cover_the_grid():
    cases = [c for p in ORACLE_PRIMES for c in _oracle_cases(p)]
    assert len(cases) >= 80
    assert sum(any(a % c.p == 0 for a in c.f[:3]) for c in cases) >= 20


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_entries_match_the_dense_reduction(p):
    for cur in _oracle_cases(p):
        m = kedlaya_frobenius(cur)
        got = tuple((e.val, e.unit, e.rel_prec) for row in m.entries for e in row)
        assert got == dense_kedlaya(cur.f, p, cur.n), (cur.f, p, cur.n)


def _floor_log(p, m):
    t = 0
    while p ** (t + 1) <= m:
        t += 1
    return t


def test_series_cut_is_the_least_proven_k():
    # the tail after E^K is O(p^n) once (K + 1) - floor(log_p(2K + 3)) >= n
    for p in (5, 7, 11, 13, 29, 101):
        for n in range(1, 13):
            K = frobenius._series_cut(p, n)
            assert K + 1 - _floor_log(p, 2 * K + 3) >= n, (p, n)
            assert K == 0 or K - _floor_log(p, 2 * K + 1) < n, (p, n)
    assert [frobenius._series_cut(5, n) for n in range(1, 11)] == [0, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert all(frobenius._series_cut(p, n) == n - 1 for p in (29, 101) for n in range(1, 13))


def test_series_cut_is_sharp(monkeypatch):
    # the proven cut matches the dense reduction, which cuts at K = n + 3;
    # one term fewer moves a digit at each of these shapes
    f, cut = (1, 1, 0, 1), frobenius._series_cut
    for p, n in ((5, 5), (5, 6), (5, 7), (7, 7), (5, 10)):
        want = dense_kedlaya(f, p, n)
        for shift, agrees in ((0, True), (1, False)):
            monkeypatch.setattr(frobenius, "_plans", {})
            monkeypatch.setattr(frobenius, "_series_cut", lambda p, n: cut(p, n) - shift)
            m = kedlaya_frobenius(EllipticCurveW(f=f, p=p, n=n))
            got = tuple((e.val, e.unit, e.rel_prec) for row in m.entries for e in row)
            assert (got == want) == agrees, (p, n, shift)


def _entries(m):
    return tuple((e.val, e.unit, e.rel_prec) for row in m.entries for e in row)


def test_a_warm_plan_gives_the_cold_entries(monkeypatch):
    # the plan depends on (p, n) alone: a plan built for the shifted model
    # (same p, n and discriminant) gives every curve its cold-plan entries
    curves = [EllipticCurveW(f=f, p=p, n=n) for f, p, n, _ in FROZEN]
    curves += [c for p in ORACLE_PRIMES for c in _oracle_cases(p)]
    for cur in curves:
        monkeypatch.setattr(frobenius, "_plans", {})
        cold = _entries(kedlaya_frobenius(cur))
        monkeypatch.setattr(frobenius, "_plans", {})
        kedlaya_frobenius(EllipticCurveW(f=_shift(cur.f, 1), p=cur.p, n=cur.n))
        assert list(frobenius._plans) == [(cur.p, cur.n)]
        assert _entries(kedlaya_frobenius(cur)) == cold, (cur.f, cur.p, cur.n)


def test_a_plan_is_built_once_per_shape(monkeypatch):
    # a second curve at the same (p, n), and the shifted model inside
    # frobenius_selftest, reuse the plan of the first
    built = []

    def counted(p, n):
        built.append((p, n))
        return real(p, n)

    real = frobenius._build_plan
    monkeypatch.setattr(frobenius, "_plans", {})
    monkeypatch.setattr(frobenius, "_build_plan", counted)
    kedlaya_frobenius(EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4))
    kedlaya_frobenius(EllipticCurveW(f=(2, 3, 0, 1), p=5, n=4))
    assert built == [(5, 4)]
    frobenius_selftest(EllipticCurveW(f=(1, 1, 0, 1), p=7, n=4))
    assert built == [(5, 4), (7, 4)]


def test_an_over_budget_shape_is_refused_each_time(monkeypatch):
    # the step budget is checked before any work, and a refusal is not cached
    monkeypatch.setattr(frobenius, "_plans", {})
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=100003, n=2)
    for _ in range(2):
        with pytest.raises(PrecisionError) as err:
            kedlaya_frobenius(cur)
        assert str(err.value) == ("the Kedlaya step count at p = 100003, precision 2 exceeds "
                                  "the configured maximum 500000")
        assert (100003, 2) not in frobenius._plans

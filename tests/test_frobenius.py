import random

import pytest

from periods import frobenius
from periods.cm import rational_reconstruct
from periods.frobenius import (
    CharpolyCertificate,
    EllipticCurveW,
    charpoly_certificate,
    count_points,
    frobenius_selftest,
    kedlaya_frobenius,
)
from periods.padic import PrecisionError

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


def test_discriminants():
    assert EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4).discriminant() == -31
    assert EllipticCurveW(f=(0, -1, 0, 1), p=5, n=4).discriminant() == 4
    assert EllipticCurveW(f=(1, 0, 1, 1), p=5, n=4).discriminant() == -31


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
    # K = n + 3 = 7 and m_init = 5K + 2 = 37: the pole steps divide by the
    # odd numbers 1 .. 73, which hold 8 factors of 5 (25 holds two); the
    # final loop divides by 2j - 1 = 5 once, at j = 3
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4)
    odd = range(1, 74, 2)
    loss = sum(d % 5 == 0 for d in odd) + sum(d % 25 == 0 for d in odd) + 1
    assert loss == 9
    assert frobenius._loss_count(5, 37) == loss
    kedlaya_frobenius(cur)
    monkeypatch.setattr(frobenius, "_loss_count", lambda p, m_init: loss - 1)
    with pytest.raises(PrecisionError):
        kedlaya_frobenius(cur)


def test_entries_come_back_at_the_requested_precision():
    cur = EllipticCurveW(f=(2, 3, 0, 1), p=5, n=5)
    m = kedlaya_frobenius(cur)
    for row in m.entries:
        for e in row:
            assert e.abs_precision() == 5


def test_charpoly_integers_reconstruct():
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=5, n=8)
    m = kedlaya_frobenius(cur)
    assert rational_reconstruct(m.trace(), 5) == -3
    assert rational_reconstruct(m.determinant(), 6) == 5


def test_perturbed_matrix_fails_the_certificate():
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4)
    m = kedlaya_frobenius(cur)
    (a, b), (c, d) = m.entries
    bad = type(m)(entries=((a + 125, b), (c, d)), curve=cur, precision=4)
    cert = charpoly_certificate(bad, -3)
    assert not cert.ok
    assert cert.trace_valuation == 3


def test_transposed_matrix_passes_the_certificate():
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4)
    m = kedlaya_frobenius(cur)
    (a, b), (c, d) = m.entries
    swapped = type(m)(entries=((a, c), (b, d)), curve=cur, precision=4)
    assert charpoly_certificate(swapped, -3).ok


def test_selftest_certifies_and_agrees():
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=7, n=4)
    direct = kedlaya_frobenius(cur)
    checked = frobenius_selftest(cur)
    for r in (0, 1):
        for c in (0, 1):
            diff = direct.entries[r][c] - checked.entries[r][c]
            assert diff.is_exact_zero() or diff.min_valuation() >= 4


def test_exhausted_buffer_is_loud(monkeypatch):
    cur = EllipticCurveW(f=(1, 1, 0, 1), p=5, n=4)
    monkeypatch.setattr(frobenius, "_loss_count", lambda p, m_init: 0)
    with pytest.raises(PrecisionError):
        kedlaya_frobenius(cur)

import hashlib
import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from periods.kummer import _solve_dense, kummer_period, solve_mixed_period
from periods.padic import iwasawa_log, make_padic

from oracles import is_zero_at_precision, kummer_weight_matrix, perturbed_invariance


def test_data_validation():
    for a, p in ((Fraction(1), 3), (Fraction(0), 3), (Fraction(2), 4),
                 (Fraction(3), 3), (Fraction(1, 3), 3)):
        with pytest.raises(ValueError):
            kummer_period(a, p, 10)


def test_frobenius_matrix_structure():
    phi = kummer_period(Fraction(2), 3, 15)[0]
    assert phi[0][0].lift() == 1 and phi[0][0].val == 0
    assert is_zero_at_precision(phi[1][0]) or phi[1][0].is_exact_zero()
    assert phi[1][1].val == 1 and phi[1][1].unit == 1
    # L = log(2^(-2)) pinned against an independent series evaluation
    assert phi[0][1].lift() % 3**15 == 11387904


def test_frobenius_entry_is_log_homomorphic():
    p, n = 7, 12
    la, lb, lab = (kummer_period(Fraction(a), p, n)[0][0][1] for a in (2, 3, 6))
    diff = lab - la - lb
    assert diff.is_exact_zero() or diff.min_valuation() >= 12


def test_period_vector_golden():
    # digits pinned from a Fraction-only series oracle run at double depth
    first, second = kummer_period(Fraction(2), 3, 15)[1]
    assert second.lift() == 1
    assert first.val == 1
    assert first.lift() % 3**15 == 8654955
    assert first.digits()[:14] == [2, 2, 0, 0, 1, 1, 0, 2, 1, 2, 0, 1, 2, 1]


def test_period_vector_first_entry_is_plain_log():
    for a, p in ((Fraction(2), 3), (Fraction(5), 7), (Fraction(22, 7), 5)):
        first, _ = kummer_period(a, p, 12)[1]
        direct = iwasawa_log(make_padic(p, a, 12))
        diff = first - direct
        assert diff.is_exact_zero() or diff.min_valuation() >= 12


def test_period_vector_doubling():
    p, n = 5, 12
    two = kummer_period(Fraction(2), p, n)[1][0]
    four = kummer_period(Fraction(4), p, n)[1][0]
    diff = four - 2 * two
    assert diff.is_exact_zero() or diff.min_valuation() >= 12


def test_invariance_residual_meets_precision():
    assert kummer_period(Fraction(2), 3, 12)[2] >= 12
    assert kummer_period(Fraction(5), 7, 12)[2] >= 12


def test_invariance_perturbation_control():
    # scaling L by (1 + p^k) multiplies exp_p(-L) by exp_p(-L p^k), a 1-unit
    # of valuation exactly v(L) + k, which must sit strictly below precision
    v_ell = kummer_period(Fraction(2), 3, 12)[0][0][1].val
    for k in (2, 5, 8):
        got = perturbed_invariance(Fraction(2), 3, 12, k)
        assert got == v_ell + k
        assert got < 12


def _kummer_rows(p, seed, count):
    """(invariance residual, ok) of count seeded units a at p and precisions 1 to 60, as a digest."""
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        a = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
        if a in (0, 1, -1) or a.numerator % p == 0 or a.denominator % p == 0:
            continue
        n = rng.randint(1, 60)
        res = kummer_period(a, p, n)[2]
        rows.append("%s %d %r %s\n" % (a, n, res, res >= n))
    return hashlib.sha256("".join(rows).encode()).hexdigest()[:16]


# _kummer_rows(p, p, 40), frozen from the invariance identity
# L + pL/(1-p) = L/(1-p) that the certificate checked before exp_p
KUMMER_DIGESTS = {
    3: "e4b936fcf90c3ced",
    5: "463aeec183426309",
    7: "2ccc96f8a4c196f1",
    13: "a7cc392587e47ff2",
    101: "5c88bae421cb6205",
}


@pytest.mark.parametrize("p", sorted(KUMMER_DIGESTS))
def test_invariance_frozen_digests(p):
    assert _kummer_rows(p, p, 40) == KUMMER_DIGESTS[p]


def test_solver_reproduces_kummer_vector():
    v0 = (make_padic(3, 1, 15),)
    got = solve_mixed_period(*kummer_weight_matrix(Fraction(2), 3, 15), v0)
    expect = kummer_period(Fraction(2), 3, 15)[1]
    for g, e in zip(got, expect):
        diff = g - e
        assert diff.is_exact_zero() or diff.min_valuation() >= 14


def _solve_all_at_once(entries, weights, v0):
    # oracle for the block solver: every negative-weight coordinate from one
    # elimination against the weight-0 part
    n = len(weights)
    zero_idx = [i for i in range(n) if weights[i] == 0]
    neg = [i for i in range(n) if weights[i] != 0]
    rows = [[entries[i][j] for j in neg] for i in neg]
    for k in range(len(neg)):
        rows[k][k] = rows[k][k] - 1
    rhs = [-reduce(operator.add, (entries[i][j] * x for j, x in zip(zero_idx, v0)))
           for i in neg]
    v = [None] * n
    for i, x in zip(zero_idx + neg, list(v0) + _solve_dense(rows, rhs)):
        v[i] = x
    return v


def _random_unit(rng, p, n):
    lift = rng.randrange(1, p**n)
    while lift % p == 0:
        lift = rng.randrange(1, p**n)
    return make_padic(p, lift, n)


def _three_by_three(rng, p, n):
    while True:
        a, b, c, d, e, f = (_random_unit(rng, p, n) for _ in range(6))
        det_shifted = (a - 1) * (e - 1) - b * d
        if not det_shifted.is_unit():
            continue
        zero = make_padic(p, 0, n)
        one = make_padic(p, 1, n)
        entries = (
            (a, b, c),
            (d, e, f),
            (zero, zero, one),
        )
        return entries, (-1, -1, 0)


def test_solver_three_by_three_shape():
    # the invariant vector (alpha, beta, 1) satisfies the shifted system
    # (A - I)(alpha, beta)^T = -(c, f)^T, where A is the negative block;
    # plugging back into full invariance is the cleanest certificate
    rng = random.Random(11)
    p, n = 5, 10
    for _ in range(5):
        entries, weights = _three_by_three(rng, p, n)
        v0 = (make_padic(p, 1, n),)
        v = solve_mixed_period(entries, weights, v0)
        for i in range(3):
            acc = None
            for j in range(3):
                term = entries[i][j] * v[j]
                acc = term if acc is None else acc + term
            resid = acc - v[i]
            assert resid.is_exact_zero() or resid.min_valuation() >= 9


def test_solver_shifted_vs_displayed_system():
    # the unshifted reading A (alpha, beta)^T = (c, f)^T differs from the
    # invariant solution whenever det(A - I) and det(A) are both units;
    # one seeded instance pins the distinction
    rng = random.Random(3)
    p, n = 5, 10
    entries, weights = _three_by_three(rng, p, n)
    v = solve_mixed_period(entries, weights, (make_padic(p, 1, n),))
    lhs0 = entries[0][0] * v[0] + entries[0][1] * v[1]
    assert (lhs0 - entries[0][2]).min_valuation() < 9


def test_solver_split_extension_has_zero_mixed_part():
    p, n = 7, 10
    zero = make_padic(p, 0, n)
    one = make_padic(p, 1, n)
    half = make_padic(p, Fraction(1, p), n)
    entries = ((half, zero), (zero, one))
    v = solve_mixed_period(entries, (-2, 0), (one,))
    assert v[0].is_exact_zero() or is_zero_at_precision(v[0])
    assert v[1].lift() == 1


def test_solver_dense_agrees_with_blocks():
    rng = random.Random(19)
    p, n = 5, 10
    for _ in range(5):
        phi = _three_by_three(rng, p, n)
        v0 = (make_padic(p, 1, n),)
        via_blocks = solve_mixed_period(*phi, v0)
        via_dense = _solve_all_at_once(*phi, v0)
        for x, y in zip(via_blocks, via_dense):
            diff = x - y
            assert diff.is_exact_zero() or diff.min_valuation() >= 9


def test_solver_three_weight_levels():
    rng = random.Random(23)
    p, n = 5, 10
    zero = make_padic(p, 0, n)
    one = make_padic(p, 1, n)
    u = [_random_unit(rng, p, n) for _ in range(6)]
    while not ((u[0] - 1).is_unit() and (u[3] - 1).is_unit()):
        u = [_random_unit(rng, p, n) for _ in range(6)]
    # weights (-2, -1, 0): strictly triangular blocks of size one
    entries = (
        (u[0], u[1], u[2]),
        (zero, u[3], u[4]),
        (zero, zero, one),
    )
    v = solve_mixed_period(entries, (-2, -1, 0), (one,))
    dense = _solve_all_at_once(entries, (-2, -1, 0), (one,))
    for i in range(3):
        acc = None
        for j in range(3):
            term = entries[i][j] * v[j]
            acc = term if acc is None else acc + term
        resid = acc - v[i]
        assert resid.is_exact_zero() or resid.min_valuation() >= 9
        diff = v[i] - dense[i]
        assert diff.is_exact_zero() or diff.min_valuation() >= 9


def test_solver_singular_block_is_reported():
    p, n = 5, 10
    zero = make_padic(p, 0, n)
    one = make_padic(p, 1, n)
    entries = ((one, one), (zero, one))
    with pytest.raises(ArithmeticError):
        solve_mixed_period(entries, (-1, 0), (one,))


def test_weight_triangularity_enforced():
    p, n = 5, 8
    one = make_padic(p, 1, n)
    zero = make_padic(p, 0, n)
    with pytest.raises(ValueError, match=r"entry \(1, 0\) violates weight triangularity"):
        solve_mixed_period(((one, zero), (one, one)), (-1, 0), (one,))
    with pytest.raises(ValueError, match="no weight-0 coordinate"):
        solve_mixed_period(((one, zero), (zero, one)), (-1, -2), (one,))
    with pytest.raises(ValueError, match="matrix shape does not match the weight list"):
        solve_mixed_period(((one,),), (0, 0), (one,))


def test_weight_zero_consistency_checked():
    p, n = 5, 8
    one = make_padic(p, 1, n)
    zero = make_padic(p, 0, n)
    two = make_padic(p, 2, n)
    half = make_padic(p, Fraction(1, p), n)
    with pytest.raises(ArithmeticError):
        solve_mixed_period(((half, one), (zero, two)), (-2, 0), (one,))


def test_solver_v0_length_mismatch():
    p, n = 5, 8
    one = make_padic(p, 1, n)
    zero = make_padic(p, 0, n)
    half = make_padic(p, Fraction(1, p), n)
    with pytest.raises(ValueError):
        solve_mixed_period(((half, zero), (zero, one)), (-2, 0), (one, one))

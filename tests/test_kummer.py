import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from periods.kummer import (
    KummerData,
    WeightBlockMatrix,
    _solve_dense,
    check_frobenius_invariance,
    frobenius_matrix_kummer,
    kummer_weight_matrix,
    period_vector_kummer,
    solve_mixed_period,
)
from periods.padic import iwasawa_log, make_padic


def test_data_validation():
    with pytest.raises(ValueError):
        KummerData(Fraction(1), 3, 10)
    with pytest.raises(ValueError):
        KummerData(Fraction(0), 3, 10)
    with pytest.raises(ValueError):
        KummerData(Fraction(2), 4, 10)
    with pytest.raises(ValueError):
        KummerData(Fraction(3), 3, 10)
    with pytest.raises(ValueError):
        KummerData(Fraction(1, 3), 3, 10)


def test_frobenius_matrix_structure():
    data = KummerData(Fraction(2), 3, 15)
    phi = frobenius_matrix_kummer(data)
    assert phi[0][0].lift() == 1 and phi[0][0].val == 0
    assert phi[1][0].is_zero_at_precision() or phi[1][0].is_exact_zero()
    assert phi[1][1].val == 1 and phi[1][1].unit == 1
    # L = log(2^(-2)) pinned against an independent series evaluation
    assert phi[0][1].lift() % 3**15 == 11387904


def test_frobenius_entry_is_log_homomorphic():
    p, n = 7, 12
    la = frobenius_matrix_kummer(KummerData(Fraction(2), p, n))[0][1]
    lb = frobenius_matrix_kummer(KummerData(Fraction(3), p, n))[0][1]
    lab = frobenius_matrix_kummer(KummerData(Fraction(6), p, n))[0][1]
    diff = lab - la - lb
    assert diff.is_exact_zero() or diff.min_valuation() >= 12


def test_period_vector_golden():
    # digits pinned from a Fraction-only series oracle run at double depth
    data = KummerData(Fraction(2), 3, 15)
    first, second = period_vector_kummer(data)
    assert second.lift() == 1
    assert first.val == 1
    assert first.lift() % 3**15 == 8654955
    assert first.digits()[:14] == [2, 2, 0, 0, 1, 1, 0, 2, 1, 2, 0, 1, 2, 1]


def test_period_vector_first_entry_is_plain_log():
    for a, p in ((Fraction(2), 3), (Fraction(5), 7), (Fraction(22, 7), 5)):
        data = KummerData(a, p, 12)
        first, _ = period_vector_kummer(data)
        direct = iwasawa_log(make_padic(p, a, 12))
        diff = first - direct
        assert diff.is_exact_zero() or diff.min_valuation() >= 12


def test_period_vector_doubling():
    p, n = 5, 12
    two = period_vector_kummer(KummerData(Fraction(2), p, n))[0]
    four = period_vector_kummer(KummerData(Fraction(4), p, n))[0]
    diff = four - 2 * two
    assert diff.is_exact_zero() or diff.min_valuation() >= 12


def test_invariance_residual_meets_precision():
    assert check_frobenius_invariance(KummerData(Fraction(2), 3, 12)) >= 12
    assert check_frobenius_invariance(KummerData(Fraction(5), 7, 12)) >= 12


def test_invariance_perturbation_control():
    # scaling f_2 by (1 + p^k) leaves a residual of exactly -L p^k, so the
    # reported valuation is v(L) + k and must sit strictly below precision
    data = KummerData(Fraction(2), 3, 12)
    v_ell = frobenius_matrix_kummer(data)[0][1].val
    for k in (2, 5, 8):
        got = check_frobenius_invariance(data, perturb_exponent=k)
        assert got == v_ell + k
        assert got < 12


def test_solver_reproduces_kummer_vector():
    data = KummerData(Fraction(2), 3, 15)
    phi = kummer_weight_matrix(data)
    v0 = (make_padic(3, 1, 15),)
    got = solve_mixed_period(phi, v0)
    expect = period_vector_kummer(data)
    for g, e in zip(got, expect):
        diff = g - e
        assert diff.is_exact_zero() or diff.min_valuation() >= 14


def _solve_all_at_once(phi, v0):
    # oracle for the block solver: every negative-weight coordinate from one
    # elimination against the weight-0 part
    n = phi.size()
    zero_idx = [i for i in range(n) if phi.weights[i] == 0]
    neg = [i for i in range(n) if phi.weights[i] != 0]
    rows = [[phi.entries[i][j] for j in neg] for i in neg]
    for k in range(len(neg)):
        rows[k][k] = rows[k][k] - 1
    rhs = [-reduce(operator.add, (phi.entries[i][j] * x for j, x in zip(zero_idx, v0)))
           for i in neg]
    v = [None] * n
    for i, x in zip(zero_idx + neg, list(v0) + _solve_dense(rows, rhs)):
        v[i] = x
    return v


def _random_unit(rng, p, n):
    lift = rng.randrange(1, p**n)
    while lift % p == 0:
        lift = rng.randrange(1, p**n)
    return make_padic(p, lift, n, integral=True)


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
        return WeightBlockMatrix(entries=entries, weights=(-1, -1, 0))


def test_solver_three_by_three_shape():
    # the invariant vector (alpha, beta, 1) satisfies the shifted system
    # (A - I)(alpha, beta)^T = -(c, f)^T, where A is the negative block;
    # plugging back into full invariance is the cleanest certificate
    rng = random.Random(11)
    p, n = 5, 10
    for _ in range(5):
        phi = _three_by_three(rng, p, n)
        v0 = (make_padic(p, 1, n),)
        v = solve_mixed_period(phi, v0)
        for i in range(3):
            acc = None
            for j in range(3):
                term = phi.entries[i][j] * v[j]
                acc = term if acc is None else acc + term
            resid = acc - v[i]
            assert resid.is_exact_zero() or resid.min_valuation() >= 9


def test_solver_shifted_vs_displayed_system():
    # the unshifted reading A (alpha, beta)^T = (c, f)^T differs from the
    # invariant solution whenever det(A - I) and det(A) are both units;
    # one seeded instance pins the distinction
    rng = random.Random(3)
    p, n = 5, 10
    phi = _three_by_three(rng, p, n)
    v = solve_mixed_period(phi, (make_padic(p, 1, n),))
    lhs0 = phi.entries[0][0] * v[0] + phi.entries[0][1] * v[1]
    assert (lhs0 - phi.entries[0][2]).min_valuation() < 9


def test_solver_split_extension_has_zero_mixed_part():
    p, n = 7, 10
    zero = make_padic(p, 0, n)
    one = make_padic(p, 1, n)
    half = make_padic(p, Fraction(1, p), n)
    entries = ((half, zero), (zero, one))
    phi = WeightBlockMatrix(entries=entries, weights=(-2, 0))
    v = solve_mixed_period(phi, (one,))
    assert v[0].is_exact_zero() or v[0].is_zero_at_precision()
    assert v[1].lift() == 1


def test_solver_dense_agrees_with_blocks():
    rng = random.Random(19)
    p, n = 5, 10
    for _ in range(5):
        phi = _three_by_three(rng, p, n)
        v0 = (make_padic(p, 1, n),)
        via_blocks = solve_mixed_period(phi, v0)
        via_dense = _solve_all_at_once(phi, v0)
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
    phi = WeightBlockMatrix(entries=entries, weights=(-2, -1, 0))
    v = solve_mixed_period(phi, (one,))
    dense = _solve_all_at_once(phi, (one,))
    for i in range(3):
        acc = None
        for j in range(3):
            term = phi.entries[i][j] * v[j]
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
    phi = WeightBlockMatrix(entries=entries, weights=(-1, 0))
    with pytest.raises(ArithmeticError):
        solve_mixed_period(phi, (one,))


def test_weight_triangularity_enforced():
    p, n = 5, 8
    one = make_padic(p, 1, n)
    zero = make_padic(p, 0, n)
    with pytest.raises(ValueError):
        WeightBlockMatrix(entries=((one, zero), (one, one)), weights=(-1, 0))
    with pytest.raises(ValueError):
        WeightBlockMatrix(entries=((one, zero), (zero, one)), weights=(-1, -2))
    with pytest.raises(ValueError):
        WeightBlockMatrix(entries=((one,),), weights=(0, 0))


def test_weight_zero_consistency_checked():
    p, n = 5, 8
    one = make_padic(p, 1, n)
    zero = make_padic(p, 0, n)
    two = make_padic(p, 2, n)
    half = make_padic(p, Fraction(1, p), n)
    phi = WeightBlockMatrix(entries=((half, one), (zero, two)), weights=(-2, 0))
    with pytest.raises(ArithmeticError):
        solve_mixed_period(phi, (one,))


def test_solver_v0_length_mismatch():
    p, n = 5, 8
    one = make_padic(p, 1, n)
    zero = make_padic(p, 0, n)
    half = make_padic(p, Fraction(1, p), n)
    phi = WeightBlockMatrix(entries=((half, zero), (zero, one)), weights=(-2, 0))
    with pytest.raises(ValueError):
        solve_mixed_period(phi, (one, one))

import hashlib
import random
import time
from collections import namedtuple
from fractions import Fraction
from itertools import product as iproduct
from math import comb, gcd, lcm

import pytest

from periods import tannaka
from periods.tannaka import (
    _echelon_insert,
    _normal_form,
    _ring_mul,
    coeff_subalgebra_closure,
    dim_group,
    homog_dim,
    matrix_coefficients,
)

from oracles import fraction_echelon_insert, target_multiplicities


def test_group_dimensions():
    assert dim_group(("pgl2", 0)) == 3
    assert dim_group(("sl2", 0)) == 3
    assert dim_group(("gl2", 0)) == 4
    assert dim_group(("torus", 2)) == 2
    assert dim_group(("fiber-product", 0)) == 5
    assert dim_group(("trivial", 0)) == 0


def test_fiber_product_quotient_count():
    # killing the diagonal scalar leaves the general linear group
    assert dim_group(("fiber-product", 0)) - 1 == dim_group(("gl2", 0))


def test_group_validation():
    with pytest.raises(ValueError, match="^unknown group kind 'so3'$"):
        dim_group(("so3", 0))
    with pytest.raises(ValueError, match="^a torus needs a positive rank$"):
        dim_group(("torus", 0))
    with pytest.raises(ValueError, match="^only tori carry a rank$"):
        dim_group(("gl2", 1))


def test_homog_dims_for_the_four_bound_cases():
    assert homog_dim(("torus", 1), ("trivial", 0)) == 1
    assert homog_dim(("pgl2", 0), ("trivial", 0)) == 3
    assert homog_dim(("pgl2", 0), ("torus", 1)) == 2
    assert homog_dim(("gl2", 0), ("torus", 1)) == 3


def test_homog_dim_is_the_dimension_difference():
    for g in (("pgl2", 0), ("sl2", 0), ("gl2", 0), ("fiber-product", 0), ("torus", 3)):
        assert homog_dim(g, ("trivial", 0)) == dim_group(g)
        assert homog_dim(g, ("torus", 1)) == dim_group(g) - 1


def test_homog_dim_rejects_missing_embeddings():
    with pytest.raises(ValueError, match="^no designated embedding of 'torus' in 'pgl2'$"):
        homog_dim(("pgl2", 0), ("torus", 2))
    with pytest.raises(ValueError, match="^no designated embedding of 'gl2' in 'pgl2'$"):
        homog_dim(("pgl2", 0), ("gl2", 0))
    with pytest.raises(ValueError, match="^no designated embedding of 'torus' in 'trivial'$"):
        homog_dim(("trivial", 0), ("torus", 1))


# the paper's transcendence-degree bound: three nested trdeg bounds, tightest
# first, with strictness flags; no command reads it, so it lives with its tests
BoundChain = namedtuple("BoundChain", "bounds strict")


def _as_dim(x):
    if isinstance(x, tuple):
        return dim_group(x)
    return int(x)


def trdeg_bound_chain(g_dr_m, g_crys_m, g_dr_mm, g_crys_mm):
    """Chain dim difference of the dual pair <= pair difference <= ambient.

    Inputs are dimensions (or (kind, rank) groups, which are measured).
    Rejects data that cannot come from nested fixed groups: negative
    differences or an out-of-order chain.
    """
    a = _as_dim(g_dr_m)
    b = _as_dim(g_crys_m)
    c = _as_dim(g_dr_mm)
    d = _as_dim(g_crys_mm)
    tight, mid, loose = c - d, a - b, a
    if tight < 0 or mid < 0:
        raise ValueError("a fixed group outgrew its ambient group")
    if not tight <= mid <= loose:
        raise ValueError("bounds do not chain")
    return BoundChain(bounds=(tight, mid, loose),
                      strict=(tight < mid, mid < loose))


def test_bound_chain_supersingular():
    chain = trdeg_bound_chain(3, 0, 3, 0)
    assert chain.bounds == (3, 3, 3)
    assert chain.strict == (False, False)


def test_bound_chain_accepts_group_descriptors():
    chain = trdeg_bound_chain(("pgl2", 0), ("trivial", 0), ("pgl2", 0), ("trivial", 0))
    assert chain.bounds == (3, 3, 3)


def test_bound_chain_strictness_flags():
    chain = trdeg_bound_chain(4, 1, 4, 2)
    assert chain.bounds == (2, 3, 4)
    assert chain.strict == (True, True)


def test_bound_chain_rejects_bad_data():
    with pytest.raises(ValueError):
        trdeg_bound_chain(2, 3, 2, 0)
    with pytest.raises(ValueError):
        trdeg_bound_chain(3, 2, 3, 0)


def test_elementary_counts_match_group_bounds():
    assert 4 + 4 - 2 - 2 - 1 == homog_dim(("pgl2", 0), ("trivial", 0))
    assert 4 - 3 == homog_dim(("torus", 1), ("trivial", 0))


def _mono(i, j, k, l, c=1):
    return _normal_form((((i, j, k, l), c),))


# -- ring operations over the normal-form dicts; the closure needs only the
# product, and these check the normal form and the grading against it

ONE = {(0, 0, 0, 0): 1}


def _zero():
    return {}


def _is_zero(x):
    return not x


def _add(x, y):
    return _normal_form(list(x.items()) + list(y.items()))


def _scale(x, c):
    return _normal_form((k, v * c) for k, v in x.items())


def _neg(x):
    return _scale(x, -1)


def _sub(x, y):
    return _add(x, _neg(y))


def _total_degree(x):
    return max((sum(key) for key in x), default=None)


def _right_weights(x):
    return {key[0] - key[1] + key[2] - key[3] for key in x}


def _left_weight_split(x):
    buckets = {}
    for key, coeff in x.items():
        buckets.setdefault(key[0] + key[1] - key[2] - key[3], []).append((key, coeff))
    return {w: _normal_form(t) for w, t in buckets.items()}


def _span_rank(elements):
    """Rank of a family of ring elements, by exact elimination."""
    pivots = {}
    return sum(_echelon_insert(pivots, e) for e in elements)


def test_normal_form_rewrites_ad():
    assert _mono(1, 0, 0, 1) == _add(ONE, _mono(0, 1, 1, 0))
    det = _sub(_mono(1, 0, 0, 1), _mono(0, 1, 1, 0))
    assert det == ONE
    assert _mono(12, 0, 0, 12) == {(0, t, t, 0): comb(12, t) for t in range(13)}
    assert _mono(1, 0, 0, 1, 3) == {(0, 0, 0, 0): 3, (0, 1, 1, 0): 3}


def test_normal_form_is_confluent_on_squares():
    lhs = _mono(2, 0, 0, 2)
    rhs = _ring_mul(_add(ONE, _mono(0, 1, 1, 0)), _add(ONE, _mono(0, 1, 1, 0)))
    assert lhs == rhs


def test_normal_form_has_no_mixed_monomials():
    rng = random.Random(9)
    for _ in range(20):
        e = _mono(rng.randrange(4), rng.randrange(4),
                  rng.randrange(4), rng.randrange(4),
                  Fraction(rng.randrange(1, 9), rng.randrange(1, 9)))
        for key in e:
            assert min(key[0], key[3]) == 0


def test_ring_grading():
    e = _add(_mono(1, 1, 0, 0), _mono(0, 0, 1, 1))
    assert _right_weights(e) == {0}
    split = _left_weight_split(e)
    assert set(split) == {2, -2}
    assert split[2] == _mono(1, 1, 0, 0)
    assert _total_degree(e) == 2
    assert _is_zero(_zero())
    assert _is_zero(_sub(e, e))
    # a zero coefficient is skipped, not rewritten into a missing key
    assert _is_zero(_mono(1, 0, 0, 1, 0))


def test_scalar_multiplication():
    e = _mono(0, 1, 1, 0)
    assert _scale(e, 2) == _add(e, e)
    assert _add(_scale(e, Fraction(1, 2)), _scale(e, Fraction(1, 2))) == e


def test_matrix_coefficients_adjoint():
    ab, mid, cd = matrix_coefficients(2)
    assert ab == _mono(1, 1, 0, 0)
    assert mid == _add(ONE, _mono(0, 1, 1, 0, 2))
    assert cd == _mono(0, 0, 1, 1)
    for m, e in enumerate(matrix_coefficients(6)):
        assert _right_weights(e) == {0}
        assert set(_left_weight_split(e)) == {6 - 2 * m}
    assert all(type(c) is int for c in matrix_coefficients(6)[3].values())
    with pytest.raises(ValueError):
        matrix_coefficients(3)


def test_span_rank_sees_the_ring_relation():
    assert _span_rank([ONE, _mono(1, 0, 0, 1),
                       _mono(0, 1, 1, 0)]) == 2


def test_coordinate_ring_degree_dimensions():
    # the images of the degree-n monomials stay linearly independent, so
    # the rank matches the count of weight-compatible normal monomials
    for n in range(1, 11):
        monos = [_mono(*e)
                 for e in iproduct(range(n + 1), repeat=4) if sum(e) == n]
        expect = sum((m + 1) ** 2 for m in range(n % 2, n + 1, 2))
        assert _span_rank(monos) == expect == len(monos)


def test_adjoint_closure_generates_through_degree_eight():
    report = coeff_subalgebra_closure(2, cap=8)
    assert report.generated
    assert report.missing == ()
    assert report.reached == ((0, 1), (2, 1), (4, 1), (6, 1), (8, 1))
    assert report.target == ((0, 1), (2, 1), (4, 1), (6, 1), (8, 1))


def test_sym4_closure_misses_blocks():
    report = coeff_subalgebra_closure(4, cap=8)
    assert not report.generated
    # products of an even number of commuting degree-4 coefficients land
    # in the symmetric square, which has no Sym^2 or Sym^6 part
    assert report.missing == (2, 6)
    assert dict(report.reached)[4] == 1


def test_trivial_closure_is_constants():
    report = coeff_subalgebra_closure(0, cap=6)
    assert not report.generated
    assert dict(report.reached) == {0: 1, 2: 0, 4: 0, 6: 0}
    assert report.missing == (2, 4, 6)


def test_closure_monotone_in_the_cap():
    for r in (2, 4):
        seen = {}
        for cap in (2, 4, 6, 8):
            report = coeff_subalgebra_closure(r, cap=cap)
            got = dict(report.reached)
            for m, mult in seen.items():
                assert got[m] >= mult
            seen = got


def test_closure_past_the_cap_is_constants_and_fast():
    # no product of degree-r coefficients fits under the cap, so nothing
    # beyond the constants is formed, however large r is
    for r in (40, 60, 10**6):
        started = time.monotonic()
        report = coeff_subalgebra_closure(r, 12)
        assert time.monotonic() - started < 1, r
        assert dict(report.reached) == {0: 1, 2: 0, 4: 0, 6: 0, 8: 0, 10: 0, 12: 0}
        assert report.missing == (2, 4, 6, 8, 10, 12)


def test_closure_input_checks():
    with pytest.raises(ValueError, match="r must be nonnegative"):
        coeff_subalgebra_closure(-2, cap=8)
    with pytest.raises(ValueError, match="odd symmetric powers"):
        coeff_subalgebra_closure(3, cap=7)
    with pytest.raises(ValueError):
        coeff_subalgebra_closure(2, cap=7)
    with pytest.raises(ValueError):
        coeff_subalgebra_closure(2, cap=14)


def test_int_elimination_installs_the_fraction_pivot_keys(monkeypatch):
    # every admitted (r, cap) with r <= cap + 2: each insert the closure
    # makes also goes through the Fraction elimination into a shadow table
    def check_row(row, ref):
        assert row.keys() == ref.keys()
        lead = min(row)
        assert all(type(c) is int for c in row.values()) and gcd(*row.values()) == 1
        assert all(row[k] == ref[k] * row[lead] for k in row)

    for cap in range(0, 13, 2):
        for r in range(0, cap + 3, 2):
            shadow = {}

            def insert(pivots, vec):
                ref = shadow.setdefault(id(pivots), (pivots, {}))[1]
                installed = _echelon_insert(pivots, vec)
                assert fraction_echelon_insert(ref, vec) == installed
                return installed

            monkeypatch.setattr(tannaka, "_echelon_insert", insert)
            coeff_subalgebra_closure(r, cap)
            assert shadow, (r, cap)
            for pivots, ref in shadow.values():
                assert pivots.keys() == ref.keys(), (r, cap)
                for lead, row in pivots.items():
                    check_row(row, ref[lead])
    # a rational vector, scaled here to an integer row for the int elimination
    rng = random.Random(36)
    keys = [(0, j, k, 0) for j in range(3) for k in range(3)]
    pivots, ref = {}, {}
    for _ in range(40):
        vec = {k: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
               for k in rng.sample(keys, rng.randint(1, 4))}
        vec = {k: c for k, c in vec.items() if c}
        den = lcm(*(c.denominator for c in vec.values()))
        scaled = {k: int(c * den) for k, c in vec.items()}
        assert _echelon_insert(pivots, scaled) == fraction_echelon_insert(ref, vec)
    assert pivots.keys() == ref.keys() and len(pivots) == len(keys)
    for lead, row in pivots.items():
        check_row(row, ref[lead])


def test_closure_target_is_the_monomial_count():
    # the monomial count finds each even Sym^m once, past the largest
    # admitted cap too; every admitted cap's fixed target matches it
    for cap in range(0, 25, 2):
        assert target_multiplicities(cap) == {m: 1 for m in range(0, cap + 1, 2)}, cap
    for cap in range(0, tannaka.MAX_CLOSURE_CAP + 1, 2):
        for r in (0, 2, 4, cap + 2):
            report = coeff_subalgebra_closure(r, cap)
            assert report.target == tuple(sorted(target_multiplicities(cap).items())), (r, cap)


# sha256 prefix of the repr of every ClosureReport for one r over the even
# caps 0..12, r > cap included; frozen from the stack-based normal form and
# the per-level independent-subset elimination
CLOSURE_DIGESTS = {
    0: "229ea8d421180c89",
    2: "8634a9071c0c1359",
    4: "3dacd0fdd6507554",
    6: "05cb91fd4589c481",
    8: "2ae09fc020be0c98",
    10: "f53aaf1d15a26101",
    12: "376059fd7dbd137b",
    14: "1e03b79d3bcdf101",
}


@pytest.mark.parametrize("r", sorted(CLOSURE_DIGESTS))
def test_closure_frozen_digests(r):
    text = "".join("%r\n" % (coeff_subalgebra_closure(r, cap),)
                   for cap in range(0, 13, 2))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == CLOSURE_DIGESTS[r]

import hashlib
import random
import time
from fractions import Fraction
from itertools import product as iproduct
from math import comb

import pytest

from periods.tannaka import (
    FIBER_PRODUCT,
    GL2,
    PGL2,
    SL2,
    TRIVIAL,
    CoeffRingElement,
    GroupDesc,
    _echelon_insert,
    coeff_subalgebra_closure,
    dim_group,
    homog_dim,
    matrix_coefficients,
    torus,
    trdeg_bound_chain,
)


def test_group_dimensions():
    assert dim_group(PGL2) == 3
    assert dim_group(SL2) == 3
    assert dim_group(GL2) == 4
    assert dim_group(torus(2)) == 2
    assert dim_group(FIBER_PRODUCT) == 5
    assert dim_group(TRIVIAL) == 0


def test_fiber_product_quotient_count():
    # killing the diagonal scalar leaves the general linear group
    assert dim_group(FIBER_PRODUCT) - 1 == dim_group(GL2)


def test_group_validation():
    with pytest.raises(ValueError):
        GroupDesc("so3")
    with pytest.raises(ValueError):
        torus(0)
    with pytest.raises(ValueError):
        GroupDesc("gl2", rank=1)


def test_homog_dims_for_the_four_bound_cases():
    assert homog_dim(torus(1), TRIVIAL) == 1
    assert homog_dim(PGL2, TRIVIAL) == 3
    assert homog_dim(PGL2, torus(1)) == 2
    assert homog_dim(GL2, torus(1)) == 3


def test_homog_dim_is_the_dimension_difference():
    for g in (PGL2, SL2, GL2, FIBER_PRODUCT, torus(3)):
        assert homog_dim(g, TRIVIAL) == dim_group(g)
        assert homog_dim(g, torus(1)) == dim_group(g) - 1


def test_homog_dim_rejects_missing_embeddings():
    with pytest.raises(ValueError):
        homog_dim(PGL2, torus(2))
    with pytest.raises(ValueError):
        homog_dim(PGL2, GL2)
    with pytest.raises(ValueError):
        homog_dim(TRIVIAL, torus(1))


def test_bound_chain_supersingular():
    chain = trdeg_bound_chain(3, 0, 3, 0)
    assert chain.bounds == (3, 3, 3)
    assert chain.strict == (False, False)


def test_bound_chain_accepts_group_descriptors():
    chain = trdeg_bound_chain(PGL2, TRIVIAL, PGL2, TRIVIAL)
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
    assert 4 + 4 - 2 - 2 - 1 == homog_dim(PGL2, TRIVIAL)
    assert 4 - 3 == homog_dim(torus(1), TRIVIAL)


def _mono(i, j, k, l, c=1):
    return CoeffRingElement.monomial(i, j, k, l, c)


# -- ring operations over the normal-form terms; the closure needs only the
# product, and these check the normal form and the grading against it


def _zero():
    return CoeffRingElement(terms=())


def _is_zero(x):
    return not x.terms


def _add(x, y):
    return CoeffRingElement(terms=x.terms + y.terms)


def _scale(x, c):
    return CoeffRingElement(terms=tuple((k, v * c) for k, v in x.terms))


def _neg(x):
    return _scale(x, -1)


def _sub(x, y):
    return _add(x, _neg(y))


def _total_degree(x):
    return max((sum(key) for key, _ in x.terms), default=None)


def _right_weights(x):
    return {key[0] - key[1] + key[2] - key[3] for key, _ in x.terms}


def _left_weight_split(x):
    buckets = {}
    for key, coeff in x.terms:
        buckets.setdefault(key[0] + key[1] - key[2] - key[3], []).append((key, coeff))
    return {w: CoeffRingElement(terms=tuple(t)) for w, t in buckets.items()}


def _span_rank(elements):
    """Rank of a family of CoeffRingElements, by exact elimination."""
    pivots = {}
    return sum(_echelon_insert(pivots, dict(e.terms)) for e in elements)


def test_normal_form_rewrites_ad():
    assert _mono(1, 0, 0, 1) == _add(CoeffRingElement.one(), _mono(0, 1, 1, 0))
    det = _sub(_mono(1, 0, 0, 1), _mono(0, 1, 1, 0))
    assert det == CoeffRingElement.one()
    assert _mono(12, 0, 0, 12) == CoeffRingElement(
        terms=tuple(((0, t, t, 0), comb(12, t)) for t in range(13)))


def test_normal_form_is_confluent_on_squares():
    lhs = _mono(2, 0, 0, 2)
    rhs = _add(CoeffRingElement.one(), _mono(0, 1, 1, 0)) * \
          _add(CoeffRingElement.one(), _mono(0, 1, 1, 0))
    assert lhs == rhs


def test_normal_form_has_no_mixed_monomials():
    rng = random.Random(9)
    for _ in range(20):
        e = _mono(rng.randrange(4), rng.randrange(4),
                  rng.randrange(4), rng.randrange(4),
                  Fraction(rng.randrange(1, 9), rng.randrange(1, 9)))
        for key, _ in e.terms:
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


def test_scalar_multiplication():
    e = _mono(0, 1, 1, 0)
    assert _scale(e, 2) == _add(e, e)
    assert _add(_scale(e, Fraction(1, 2)), _scale(e, Fraction(1, 2))) == e


def test_matrix_coefficients_adjoint():
    ab, mid, cd = matrix_coefficients(2)
    assert ab == _mono(1, 1, 0, 0)
    assert mid == _add(CoeffRingElement.one(), _mono(0, 1, 1, 0, 2))
    assert cd == _mono(0, 0, 1, 1)
    for m, e in enumerate(matrix_coefficients(6)):
        assert _right_weights(e) == {0}
        assert set(_left_weight_split(e)) == {6 - 2 * m}
    with pytest.raises(ValueError):
        matrix_coefficients(3)


def test_span_rank_sees_the_ring_relation():
    assert _span_rank([CoeffRingElement.one(), _mono(1, 0, 0, 1),
                       _mono(0, 1, 1, 0)]) == 2


def test_coordinate_ring_degree_dimensions():
    # the images of the degree-n monomials stay linearly independent, so
    # the rank matches the count of weight-compatible normal monomials
    for n in range(1, 11):
        monos = [CoeffRingElement.monomial(*e)
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

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from periods import cli
from periods.cm import (
    algebraicity_probe,
    class_number,
    cm_period_ramified_p3,
    cm_period_unramified,
    field_discriminant,
    imag_quad_data,
    rational_reconstruct,
)
from periods.padic import PrecisionError, make_padic

from oracles import (
    bracket,
    cm_ramified_p3_by_unit,
    cm_unramified_by_unit,
    collapse,
    eps,
    gamma_factors,
    is_ramified,
    teichmuller,
    with_rel_prec,
)


def test_field_discriminant_normalization():
    assert field_discriminant(1) == -4
    assert field_discriminant(3) == -3
    assert field_discriminant(23) == -23
    assert field_discriminant(2) == -8
    with pytest.raises(ValueError):
        field_discriminant(12)


def test_class_numbers_small():
    assert class_number(-4) == 1
    assert class_number(-3) == 1
    assert class_number(-23) == 3
    assert class_number(-24) == 2
    assert class_number(-84) == 4
    assert class_number(-132) == 4
    with pytest.raises(ValueError) as err:
        class_number(5)
    assert str(err.value) == "need a negative discriminant, 0 or 1 mod 4"


def test_imag_quad_data_examples():
    g = imag_quad_data(1)
    assert (g.h, g.w, g.conductor) == (1, 4, 4)
    e = imag_quad_data(3)
    assert (e.h, e.w, e.conductor) == (1, 6, 3)
    big = imag_quad_data(23)
    assert (big.h, big.w, big.conductor) == (3, 2, 23)


def test_w_trichotomy():
    for d in range(1, 40):
        try:
            data = imag_quad_data(d)
        except ValueError:
            continue
        if data.disc == -4:
            assert data.w == 4
        elif data.disc == -3:
            assert data.w == 6
        else:
            assert data.w == 2


def test_eps_is_multiplicative():
    # exhaustive over every squarefree d up to 50
    for d in range(1, 51):
        try:
            data = imag_quad_data(d)
        except ValueError:
            continue
        cond = data.conductor
        units = [u for u in range(1, cond) if math.gcd(u, cond) == 1]
        for u in units:
            for v in units:
                lhs = eps(data.disc, u * v % cond)
                assert lhs == (eps(data.disc, u) + eps(data.disc, v)) % 2


def test_bracket_examples():
    assert bracket(1, 3) == Fraction(1, 3)
    assert bracket(4, 3) == Fraction(1, 3)
    assert bracket(-1, 4) == Fraction(3, 4)
    with pytest.raises(ValueError):
        bracket(6, 3)


def test_is_ramified_examples():
    assert is_ramified(3, 3) is True
    assert is_ramified(5, 1) is False
    assert is_ramified(2, 1) is True


def test_unramified_rejects_bad_primes():
    with pytest.raises(ValueError):
        cm_period_unramified(3, 3, 6)
    with pytest.raises(ValueError):
        cm_period_unramified(1, 2, 6)
    with pytest.raises(ValueError):
        cm_period_unramified(1, 9, 6)


def test_gaussian_split_case_frozen():
    """d=1, p=5 collapses to a single Gamma factor; digits are pinned."""
    prod = cm_period_unramified(1, 5, 8)
    assert prod.power == 1
    assert len(prod.factors) == 1
    v = prod.collapsed
    assert v.val == 0
    assert v.digits() == [1, 4, 0, 0, 3, 0, 1, 1]


def test_gaussian_split_square_is_not_rational():
    # The value is a quadratic integer: its square lands on -(2 + omega(2)),
    # where omega(2) is the fourth root of unity congruent to 2 mod 5.  No
    # power is rational, so degree-one reconstruction of the square comes
    # back empty.  The quartic certificate below is the honest witness of
    # algebraicity.
    v = cm_period_unramified(1, 5, 8).collapsed
    i = teichmuller(make_padic(5, 2, 8))
    assert (v * v + 2 + i).min_valuation() >= 8
    quartic = v**4 + 4 * v * v + 5
    assert quartic.min_valuation() >= 8
    assert rational_reconstruct(v * v, 100) is None
    assert algebraicity_probe(v, 100, 8) is None


def test_eisenstein_split_case_certificate():
    """d=3, p=7: the collapsed square-power satisfies x^2 + x + 7 = 0."""
    prod = cm_period_unramified(3, 7, 8)
    assert prod.power == 2
    v = prod.collapsed
    assert v.digits() == [6, 0, 1, 2, 5, 0, 2, 5]
    assert (v * v + v + 7).min_valuation() >= 8
    assert algebraicity_probe(v, 100, 4) is None


def test_supersingular_golden():
    # 7 is inert in the Gaussian field, so no algebraic certificate is
    # expected; the collapsed digits are pinned against an independent
    # recomputation one digit deeper.
    prod = cm_period_unramified(1, 7, 8)
    v = prod.collapsed
    assert v.val == 0
    assert v.digits() == [1, 6, 1, 5, 4, 0, 5, 1]


def test_unramified_doubling_stability():
    low = cm_period_unramified(1, 5, 4).collapsed
    high = cm_period_unramified(1, 5, 8).collapsed
    diff = high - low
    assert diff.is_exact_zero() or diff.min_valuation() >= 4


def test_class_three_probe_alias_dispelled():
    """A height-100 hit at N=12 for d=23 is aliasing; two more digits kill it.

    This pins the confirmation protocol: any reconstruction hit must persist
    at higher precision before it may be believed.
    """
    w12 = cm_period_unramified(23, 3, 12).collapsed
    assert w12.digits() == [2, 1, 2, 0, 2, 0, 0, 1, 1, 0, 2, 1]
    assert algebraicity_probe(w12, 100, 6) == (4, Fraction(-14))
    w14 = cm_period_unramified(23, 3, 14).collapsed
    assert (w14**4 + 14).min_valuation() == 12
    assert algebraicity_probe(w14, 100, 6) is None


def test_reindexing_by_p_is_free_for_split_p():
    # multiplication by a split p permutes the units mod D and eps(p) = 0,
    # so the <p u / D> and <u / D> enumerations collapse identically
    for d, p in ((1, 5), (23, 3)):
        data = imag_quad_data(d)
        exponent = lambda u: Fraction(-eps(data.disc, u) * data.w, 4 * data.h)
        shifted = gamma_factors(p, 6, data.conductor, p, exponent)
        plain = gamma_factors(p, 6, data.conductor, 1, exponent)
        a = collapse(p, shifted, 6).collapsed
        b = collapse(p, plain, 6).collapsed
        diff = a - b
        assert diff.is_exact_zero() or diff.min_valuation() >= 6


def test_collapse_is_order_free():
    prod = cm_period_unramified(23, 3, 8)
    items = list(prod.factors)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = items[:]
        rng.shuffle(shuffled)
        again = collapse(3, shuffled, 8).collapsed
        diff = again - prod.collapsed
        assert diff.is_exact_zero() or diff.min_valuation() >= 8


def test_ramified_rejects_multiples_of_three():
    with pytest.raises(ValueError):
        cm_period_ramified_p3(6, 8)


def test_ramified_n8_square_is_minus_one():
    """The n=8 value has exponents in halves; the cleared square is -1."""
    prod = cm_period_ramified_p3(8, 12)
    assert prod.power == 2
    kappa2 = prod.collapsed
    assert (kappa2 + 1).min_valuation() >= 12
    assert algebraicity_probe(kappa2, 100, 4) == (1, Fraction(-1))


def test_ramified_n8_doubling_stability():
    low = cm_period_ramified_p3(8, 6).collapsed
    high = cm_period_ramified_p3(8, 12).collapsed
    diff = high - low
    assert diff.is_exact_zero() or diff.min_valuation() >= 6


def test_ramified_field_data_uses_squarefree_kernel():
    # n=8 sits over the field of sqrt(-24) = sqrt(-6): h=2, w=2, so the
    # Jacobi exponents (8|u)/2 clear at power two
    prod = cm_period_ramified_p3(8, 6)
    assert prod.power == 2
    assert len(prod.factors) == 4
    exps = sorted(e for _, e in prod.factors)
    assert exps == [Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)]


@pytest.mark.parametrize("n0, power, exps, value", [
    # 3n = 12 = 2^2 * 3: the field is Q(sqrt(-3)), h=1, w=6
    (4, 1, [3, 3], -1),
    # 3n = 60 = 2^2 * 15: the field is Q(sqrt(-15)), h=2, w=2
    (20, 2, [Fraction(-1, 2)] * 4 + [Fraction(1, 2)] * 4, 1),
])
def test_ramified_field_divides_out_a_square_factor(n0, power, exps, value):
    prod = cm_period_ramified_p3(n0, 12)
    assert prod.power == power
    assert sorted(e for _, e in prod.factors) == exps
    assert algebraicity_probe(prod.collapsed, 100, 4) == (1, Fraction(value))


def test_ramified_n7_no_small_rational_power():
    # (7/3) = 1, so the value is known to be algebraic, but every power up
    # to 8 misses degree-one reconstruction; a height-1000 candidate seen at
    # N=16 died at N=18 (residual valuation 17), so None is the settled
    # outcome here
    prod = cm_period_ramified_p3(7, 12)
    assert prod.power == 4
    assert prod.collapsed.digits() == [1, 0, 2, 1, 1, 0, 2, 1, 2, 0, 0, 2]
    assert algebraicity_probe(prod.collapsed, 100, 8) is None


def test_ramified_n11_no_small_rational_power():
    # (11/3) = -1: same symbol class as n=8, and no small power
    # reconstructs; verified stable out to N=18
    prod = cm_period_ramified_p3(11, 12)
    assert prod.power == 4
    assert prod.collapsed.digits() == [2, 2, 1, 1, 1, 0, 1, 1, 0, 0, 2, 2]
    assert algebraicity_probe(prod.collapsed, 100, 8) is None


def test_reconstruct_round_trip():
    x = make_padic(5, Fraction(22, 7), 12)
    assert rational_reconstruct(x, 100) == Fraction(22, 7)


def test_reconstruct_random_digits_miss():
    rng = random.Random(2026)
    hits = []
    for _ in range(100):
        lift = rng.randrange(1, 5**12)
        x = make_padic(5, lift, 12)
        got = rational_reconstruct(x, 100)
        if got is not None:
            hits.append((lift, got))
    assert hits == []


def test_reconstruct_precision_guard():
    x = with_rel_prec(make_padic(5, Fraction(1, 3), 12), 2)
    with pytest.raises(PrecisionError):
        rational_reconstruct(x, 10**6)


def test_reconstruct_exact_zero():
    z = make_padic(5, 0, 8)
    assert rational_reconstruct(z, 100) == Fraction(0)


def test_reconstruct_checks_the_height_first():
    # refused whatever the value: an exact zero, and a precision too low for
    # any height, each reach the height check before their own branches
    for x, height in ((make_padic(5, 0, 8), 0), (make_padic(3, 1, 1), -2)):
        with pytest.raises(ValueError) as err:
            rational_reconstruct(x, height)
        assert str(err.value) == "height must be >= 1, got %d" % height
        assert not isinstance(err.value, PrecisionError)


def test_reconstruct_refuses_a_bare_int():
    with pytest.raises(TypeError) as err:
        rational_reconstruct(3, 5)
    assert str(err.value) == "expected a PadicElement"


def test_probe_rejects_negative_valuation():
    x = make_padic(5, Fraction(1, 5), 12)
    with pytest.raises(ValueError):
        rational_reconstruct(x, 10)


def test_exponentiated_product_json_factors():
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(["cm", "--d", "1", "--p", "5", "--prec", "6", "--json"]) == 0
    (entry,) = json.loads(buf.getvalue())["result"]["factors"]
    assert entry["exponent"] == [-1, 1]
    assert entry["base"]["p"] == 5


# sha256 prefix of the canonical JSON of (power, factors, collapsed)
# of every product, or of the exception type and text: cm_period_unramified
# over the first 120 squarefree d at N = 1, 2, 4, 7 for each p (2 and 9 are
# refused), and cm_period_ramified_p3 over n in [-1, 60) for each N.  At
# N = 1 and 2 different units share a Gamma argument mod p^N.  The p = 11
# and 13 rows were frozen again when N = 7 stopped being refused by a cap on
# p^N; their Gamma values were checked against the product scan mod p^5 and
# by translation and reflection at N = 7.  The p = 2 and 9 rows were frozen
# again when the refusal text became "p = 2 is not an odd prime" (was "odd
# prime required"); every record differed from the old one in that text only.
CM_DIGESTS = {
    ("unramified", 2): "e78d787d20367e94",
    ("unramified", 3): "c02860c4ba1e397f",
    ("unramified", 5): "9a455996bbf59cd2",
    ("unramified", 7): "e0872e8af692057b",
    ("unramified", 9): "59e17653f5f17bb6",
    ("unramified", 11): "02c9388283d4b6f0",
    ("unramified", 13): "a1a5be046ac9f880",
    ("ramified", 1): "4e8046deb16941d6",
    ("ramified", 3): "2c1b560dcfe81bcd",
    ("ramified", 8): "47afc4a9a3fc6dfe",
    ("ramified", 12): "558db3922074c174",
}


def _squarefree(d):
    try:
        field_discriminant(d)
    except ValueError:
        return False
    return True


def _cm_record(f, *args):
    try:
        prod = f(*args)
    except Exception as e:
        return [type(e).__name__, str(e)]
    factors = [{"base": b.to_json(), "exponent": [e.numerator, e.denominator]}
               for b, e in prod.factors]
    return [prod.power, factors, prod.collapsed.to_json()]


def _outcome(f, *args):
    try:
        prod = f(*args)
    except Exception as e:
        return type(e), str(e)
    return prod.power, prod.factors, prod.collapsed


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_products_match_the_unit_by_unit_oracle(p):
    # exact equality of power, factors and collapsed, or of the error; at
    # N = 0 both refuse the precision
    ds = [d for d in range(1, 201) if _squarefree(d)]
    for n in range(9):
        for d in ds:
            got = _outcome(cm_period_unramified, d, p, n)
            assert got == _outcome(cm_unramified_by_unit, d, p, n), (d, n)
        if p == 3:
            for n0 in range(-1, 61):
                got = _outcome(cm_period_ramified_p3, n0, n)
                assert got == _outcome(cm_ramified_p3_by_unit, n0, n), (n0, n)


@pytest.mark.parametrize("kind, q", sorted(CM_DIGESTS))
def test_cm_frozen_digests(kind, q):
    if kind == "unramified":
        ds = [d for d in range(1, 400) if _squarefree(d)][:120]
        cases = [(cm_period_unramified, d, q, n) for d in ds for n in (1, 2, 4, 7)]
    else:
        cases = [(cm_period_ramified_p3, n0, q) for n0 in range(-1, 60)]
    h = hashlib.sha256()
    for f, *args in cases:
        h.update(json.dumps(_cm_record(f, *args), sort_keys=True, separators=(",", ":")).encode())
    assert h.hexdigest()[:16] == CM_DIGESTS[kind, q]

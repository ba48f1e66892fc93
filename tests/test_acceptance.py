"""The acceptance battery.

One test per advertised guarantee, each enforcing its stated time
budget and tolerance, in the order the guarantees are documented in the
README.  Run with `pytest tests/test_acceptance.py -v` to get one
pass/fail line per guarantee.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from periods import cli, gamma
from periods.cm import (
    algebraicity_probe,
    cm_period_ramified_p3,
    cm_period_unramified,
    rational_reconstruct,
)
from periods.cyclotomic import gross_koblitz_residual
from periods.frobenius import (
    EllipticCurveW,
    charpoly_certificate,
    count_points,
    kedlaya_frobenius,
)
from periods.gamma import check_reflection, check_translation, gamma_p_at
from periods.hypergeom import period_matrix_hypergeom, solve_katz_ode
from periods.kummer import KummerData, check_frobenius_invariance, period_vector_kummer
from periods.padic import exp_p, iwasawa_log, make_padic, residual_valuation
from periods.tannaka import coeff_subalgebra_closure

from oracles import is_zero_at_precision, wronskian_defect

# a_p values frozen from the double-loop point-count oracle
AP_TABLE = {
    ((1, 1, 0, 1), 5): -3,
    ((1, 1, 0, 1), 7): 3,
    ((1, 1, 0, 1), 11): -2,
    ((1, 1, 0, 1), 13): -4,
    ((0, -1, 0, 1), 5): -2,
    ((0, -1, 0, 1), 7): 0,
    ((0, -1, 0, 1), 11): 0,
    ((0, -1, 0, 1), 13): 6,
    ((2, 3, 0, 1), 5): 1,
    ((2, 3, 0, 1), 7): -1,
    ((2, 3, 0, 1), 11): -1,
    ((2, 3, 0, 1), 13): 2,
    ((1, -2, 0, 1), 7): -4,
    ((1, -2, 0, 1), 11): 4,
    ((1, -2, 0, 1), 13): -2,
    ((1, 0, 1, 1), 5): 1,
    ((1, 0, 1, 1), 7): -3,
    ((1, 0, 1, 1), 11): -2,
    ((1, 0, 1, 1), 13): -2,
}


def _pass(name, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, "%s exceeded its %ss budget (%.1fs)" % (
        name,
        budget,
        elapsed,
    )
    print("[PASS] %s (%.2fs, budget %ss)" % (name, elapsed, budget))


def _run_cli_json(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv + ["--json"])
    return code, json.loads(buf.getvalue())


def test_1_bounds_table():
    started = time.monotonic()
    expected = {"cm-ss": 1, "noncm-ss": 3, "noncm-ord": 2, "legendre": 3}
    for case, want in expected.items():
        code, payload = _run_cli_json(["bound", "--case", case])
        assert code == 0
        assert payload["result"]["bound"] == want, case
    _pass("bounds table", started, 1)


def test_2_gauss_sum_gamma_product_sweep():
    started = time.monotonic()
    m = 12
    for p in (3, 5, 7):
        for a in range(1, p - 1):
            r = gross_koblitz_residual(p, a, m)
            assert r >= m, (p, a, r)
    _pass("Gauss sum vs gamma product, pi-valuation >= 12", started, 30)


def test_3_gamma_functional_equations():
    started = time.monotonic()
    n = 8
    for p in (3, 5, 7):
        rng = random.Random(8000 + p)
        for _ in range(50):
            x = make_padic(p, rng.randrange(1, p**n), n)
            assert check_translation(x, n) >= n, (p, x)
            _, r = check_reflection(x, n)
            assert r >= n, (p, x)
    # continuity, exhaustive over the residues mod 3^3
    p, n = 3, 3
    mod = p**n
    for m in range(1, mod + 1):
        assert gamma_p_at(p, m, n).unit == gamma_p_at(p, m + mod, n).unit, m
    _pass("gamma translation/reflection on 150 arguments + continuity", started, 60)


def test_4_kummer_invariance_sweep():
    started = time.monotonic()
    n = 12
    rng = random.Random(412)
    pairs = 0
    while pairs < 20:
        p = rng.choice((3, 5, 7, 11, 13))
        num = rng.randint(2, 60)
        den = rng.randint(1, 60)
        a = Fraction(num, den)
        if a == 1 or num % p == 0 or den % p == 0:
            continue
        data = KummerData(a, p, n)
        assert check_frobenius_invariance(data) >= n, (a, p)
        vec = period_vector_kummer(data)
        rv = residual_valuation(vec[0], iwasawa_log(make_padic(p, a, n)))
        assert rv >= n, (a, p, rv)
        pairs += 1
    _pass("Kummer invariance + log identity on 20 pairs", started, 5)


def test_5_wronskian_sweep():
    started = time.monotonic()
    order = 40
    n = 2 * order
    rng = random.Random(509)
    for _ in range(10):
        p = rng.choice((5, 7, 11, 13))
        lam0 = make_padic(p, rng.randrange(2, p), n)
        e = rng.randrange(2, p)
        sol = solve_katz_ode(lam0, e, order, n)
        assert wronskian_defect(*sol) == []
        matrix = period_matrix_hypergeom(sol, lam0)
        (a, b), (c, d) = matrix.entries
        assert a.lift() == 1 and d.lift() == 1
        assert c.is_exact_zero() or is_zero_at_precision(c)
        diff = b + e
        assert diff.is_exact_zero() or is_zero_at_precision(diff)
    _pass("Wronskian through order 38 + base-point matrix on 10 points", started, 10)


def test_6_frobenius_vs_point_counts():
    started = time.monotonic()
    n = 4
    first_per_prime = {}
    for (f, p), a_p in sorted(AP_TABLE.items()):
        curve = EllipticCurveW(f, p, n)
        assert count_points(f, p) == a_p, (f, p)
        matrix = kedlaya_frobenius(curve)
        cert = charpoly_certificate(matrix, a_p)
        assert cert.ok, (f, p, cert)
        first_per_prime.setdefault(p, (matrix, a_p))
    assert len(AP_TABLE) >= 10
    # the characteristic polynomial has integer coefficients: recover them
    for p, (matrix, a_p) in sorted(first_per_prime.items()):
        assert rational_reconstruct(matrix.trace(), 8) == a_p, p
        assert rational_reconstruct(matrix.determinant(), 13) == p, p
    _pass("Frobenius trace/det vs point counts on 19 curves", started, 300)


def test_7_closure_generation():
    started = time.monotonic()
    adjoint = coeff_subalgebra_closure(2, 8)
    assert adjoint.generated
    assert adjoint.missing == ()
    sym4 = coeff_subalgebra_closure(4, 8)
    assert not sym4.generated
    assert len(sym4.missing) >= 1
    assert sym4.missing == (2, 6)
    _pass("matrix-coefficient closure: adjoint full, Sym^4 deficient", started, 300)


@pytest.mark.xfail(
    strict=True,
    reason="the split-case collapsed value generates a quadratic field "
    "(its square is a Jacobi-sum prime factor, never rational), so no "
    "bounded-height reconstruction of any power can succeed; kept as the "
    "honest record of that miss",
)
def test_8a_split_case_reconstruction():
    prod = cm_period_unramified(1, 5, 8)
    hit = algebraicity_probe(prod.collapsed, 100, 8)
    assert hit is not None


def test_8b_ramified_case_reconstruction():
    started = time.monotonic()
    prod = cm_period_ramified_p3(8, 8)
    assert prod.power == 2
    assert algebraicity_probe(prod.collapsed, 10, 2) == (1, Fraction(-1))
    # a hit only counts if it persists at higher precision
    deeper = cm_period_ramified_p3(8, 10)
    assert algebraicity_probe(deeper.collapsed, 10, 2) == (1, Fraction(-1))
    _pass("ramified value reconstructs as -1, stable under deepening", started, 120)


def test_9_precision_roundtrip_sweep():
    started = time.monotonic()

    def within_precision(u, v):
        d = u - v
        if d.is_exact_zero():
            return True
        return d.min_valuation() >= min(u.abs_precision(), v.abs_precision())

    rng = random.Random(900)
    checks = 0
    for _ in range(250):
        p = rng.choice((3, 5, 7, 11, 13))
        n = rng.randint(4, 10)

        def rand_frac(signed=True):
            num = rng.randint(1, p**4) * (rng.choice((-1, 1)) if signed else 1)
            den = rng.randint(1, p**3)
            while den % p == 0:
                den = rng.randint(1, p**3)
            return Fraction(num, den)

        qa, qb, qc = rand_frac(), rand_frac(signed=False), rand_frac()
        a = make_padic(p, qa, n)
        b = make_padic(p, qb, n)
        c = make_padic(p, qc, n)
        # two routes to the same value: tracked ops vs exact rationals
        assert within_precision(a + b, make_padic(p, qa + qb, n))
        assert within_precision((a + b) * c, make_padic(p, (qa + qb) * qc, n))
        assert within_precision(a / b, make_padic(p, qa / qb, n))
        checks += 3
        t = make_padic(p, p * rng.randint(1, p**3), n)
        assert within_precision(iwasawa_log(exp_p(t)), t)
        checks += 1
    assert checks >= 1000
    _pass("1000 precision round-trips, no digit discrepancies", started, 30)


def test_10_gamma_cost_independent_of_p_to_the_n(monkeypatch):
    # a scan of the units below p^N took 11-15 s on the cm case alone
    monkeypatch.setattr(gamma, "_coeffs", {})
    started = time.monotonic()
    code, out = _run_cli_json(["cm", "--d", "1", "--p", "13", "--prec", "6"])
    assert code == 0 and out["ok"], out
    code, out = _run_cli_json(["gamma", "--p", "541", "--x", "1/3", "--prec", "2"])
    assert code == 0 and out["ok"], out
    _pass("cold cm at 13^6 and gamma at 541^2", started, 2)


def test_11_gk_cost_without_newton(monkeypatch):
    # Newton on Phi_p took about 2 s of this request
    monkeypatch.setattr(gamma, "_coeffs", {})
    started = time.monotonic()
    code, out = _run_cli_json(["gk", "--p", "31", "--a", "3", "--prec", "12"])
    assert code == 0 and out["ok"], out
    _pass("cold gk at p = 31", started, 1)


def test_12_gk_at_large_p(monkeypatch):
    # the direct Gauss sum in Z_p[pi] took about 5 s of this request
    monkeypatch.setattr(gamma, "_coeffs", {})
    started = time.monotonic()
    code, out = _run_cli_json(["gk", "--p", "101", "--a", "5", "--prec", "8"])
    assert code == 0 and out["ok"], out
    _pass("cold gk at p = 101", started, 1)


def test_13_kummer_log_without_teichmuller():
    # this request took 4.7 s with the tracked-term log and its Teichmuller lift
    started = time.monotonic()
    code, out = _run_cli_json(["kummer", "--a", "2/3", "--p", "13", "--prec", "1500"])
    assert code == 0 and out["ok"], out
    _pass("kummer at 13^1500", started, 2)


def test_14_kummer_at_large_p():
    # the exact rational a^(1-p) took over 100 s at this p
    started = time.monotonic()
    code, out = _run_cli_json(["kummer", "--a", "2/3", "--p", "100000007", "--prec", "5"])
    assert code == 0 and out["ok"], out
    _pass("kummer at p = 100000007", started, 1)


def test_15_kedlaya_at_large_p():
    # a dense division by f at every pole order took about 4 s at p = 199
    # and about 50 s at p = 1009
    for p, n, budget in ((199, 4, 1), (1009, 2, 5), (10007, 2, 2)):
        started = time.monotonic()
        curve = EllipticCurveW((1, 1, 0, 1), p, n)
        cert = charpoly_certificate(kedlaya_frobenius(curve), count_points(curve.f, p))
        assert cert.ok, (p, cert)
        _pass("Kedlaya matrix of x^3+x+1 at p = %d, n = %d" % (p, n), started, budget)

"""End-to-end checks of the command line front end.

Every JSON payload is validated against schema/output.json.  Text mode
is pinned line by line: the selftest table, an error line, and the
element, zero-state and matrix renderings.
"""

import hashlib
import io
import json
import math
import os
import random
import re
import runpy
import shlex
import subprocess
import sys
import time
from collections import Counter, OrderedDict, namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from periods import cli, frobenius, hypergeom, kummer
from periods.frobenius import charpoly_certificate
from periods.gamma import check_reflection, check_translation
from periods.kummer import kummer_period
from periods.padic import PadicElement, iwasawa_log, make_padic, residual_valuation

from oracles import REFERENCE_JSON, kummer_weight_matrix, perturbed_invariance

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "schema" / "output.json").read_text()
)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run_cli(argv + ["--json"])
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def from_json(d):
    unit = 0
    for i, digit in enumerate(d["digits"]):
        unit += digit * d["p"] ** i
    return PadicElement(d["p"], d["val"], unit, d["rel_prec"])


def test_parse_cubic():
    assert cli._parse_cubic("x^3-x") == (0, -1, 0, 1)
    assert cli._parse_cubic("x^3+2*x+3") == (3, 2, 0, 1)
    assert cli._parse_cubic("x^3 + x^2 + 1") == (1, 0, 1, 1)
    assert cli._parse_cubic("x**3 - 2*x + 1") == (1, -2, 0, 1)
    assert cli._parse_cubic("x^3+0*x") == (0, 0, 0, 1)
    for bad in ("x^2+1", "x^3+y", "2*x^3", "x^4+x^3", "",
                "x^3--x+1", "x^3+x+1-", "x^3++x+1", "++x^3+1", "x^3+-x+1"):
        with pytest.raises(ValueError):
            cli._parse_cubic(bad)


def test_fraction_grammar():
    for text, want in (("7", 7), ("-5/4", Fraction(-5, 4)), ("2.5", Fraction(5, 2)),
                       (".5", Fraction(1, 2)), ("%s/%s" % ("7" * 4000, "3" * 4000),
                                               Fraction(int("7" * 4000), int("3" * 4000)))):
        assert cli._fraction(text) == want, text
    # exponent notation, and a decimal whose numerator passes the
    # int-string limit: each printed a traceback from the JSON echo
    for text in ("1e5", "2E-3", "1.5e2", "9" * 4000 + "." + "9" * 4000, "1/0"):
        with pytest.raises(ValueError):
            cli._fraction(text)


def test_bound_cases():
    expected = {"cm-ss": 1, "noncm-ss": 3, "noncm-ord": 2, "legendre": 3}
    for case, want in expected.items():
        code, payload = run_json(["bound", "--case", case])
        assert code == 0
        assert payload["ok"] is True
        assert payload["result"]["bound"] == want


def test_text_mode_runs(tmp_path):
    code, out = run_cli(["bound", "--case", "legendre"])
    assert code == 0
    assert out
    code, out = run_cli(["kummer", "--a", "2/3", "--p", "5", "--prec", "8"])
    assert code == 0
    assert out
    code, out = run_cli(["selftest", "--prec", "3"])
    assert (code, out.splitlines()) == (0, [
        "selftest: ok",
        "  bound          PASS  4/4 requests",
        "  closure        PASS  2/2 requests",
        "  frob           PASS  2/2 requests",
        "  gk             PASS  9/9 requests",
        "  hyper          PASS  2/2 requests",
        "  kummer         PASS  4/4 requests",
        "  6/6 checks passed",
    ])
    (tmp_path / "phi.json").write_text(json.dumps(dict(README_PHI, weights=[1, 0])))
    (tmp_path / "v0.json").write_text(json.dumps([1]))
    code, out = run_cli(["mixed", "--matrix", str(tmp_path / "phi.json"),
                         "--v0", str(tmp_path / "v0.json")])
    assert (code, out) == (2, "mixed: error: weights must be <= 0\n")
    code, out = run_cli(["frob", "--f", "x^3-x", "--p", "7", "--prec", "4"])
    assert code == 0 and "  matrix[0][0]: O(7^4)" in out.splitlines()
    code, out = run_cli(["gamma", "--p", "5", "--x", "1/2", "--prec", "3"])
    assert code == 0 and "  value: 5^0 * [3, 3, 2] + O(5^3)" in out.splitlines()


def test_module_runs_as_a_script(monkeypatch):
    # python -m periods.cli: the module is imported already, hence runpy's warning
    monkeypatch.setattr(sys, "argv", ["periods.cli", "bound", "--case", "legendre", "--json"])
    buf = io.StringIO()
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
            pytest.raises(SystemExit) as exc, redirect_stdout(buf):
        runpy.run_module("periods.cli", run_name="__main__")
    assert exc.value.code == 0
    assert (0, buf.getvalue()) == run_cli(["bound", "--case", "legendre", "--json"])


def test_gamma_matches_library():
    from periods.gamma import gamma_p_at

    code, payload = run_json(["gamma", "--p", "5", "--x", "1/2", "--prec", "6"])
    assert code == 0
    assert payload["result"]["value"] == gamma_p_at(5, Fraction(1, 2), 6).to_json()


def test_gk_passes_at_target():
    code, payload = run_json(["gk", "--p", "7", "--a", "1", "--prec", "10"])
    assert code == 0
    r = payload["result"]
    assert r["passed"] is True
    assert r["residual_pi_valuation"] is None or r["residual_pi_valuation"] >= 10


def test_cm_ramified_probe_reconstructs():
    code, payload = run_json(
        ["cm", "--p", "3", "--ramified-n", "8", "--prec", "8", "--probe", "10"]
    )
    assert code == 0
    r = payload["result"]
    assert r["power"] == 2
    assert r["probe"] == {"height": 10, "power": 1, "value": [-1, 1]}


def test_cm_unramified_reports_factors():
    code, payload = run_json(
        ["cm", "--d", "1", "--p", "13", "--prec", "6", "--probe", "40"]
    )
    assert code == 0
    r = payload["result"]
    assert r["factors"]
    assert r["probe"] is not None


def test_kummer_invariance():
    code, payload = run_json(["kummer", "--a", "2/3", "--p", "5", "--prec", "8"])
    assert code == 0
    r = payload["result"]
    v = r["invariance_residual_valuation"]
    assert v is None or v >= 8
    # the second period coordinate is exactly 1
    assert r["period_vector"][1]["val"] == 0
    assert r["period_vector"][1]["digits"][0] == 1


def test_kummer_fails_on_a_wrong_logarithm(monkeypatch):
    # L off by p^3 gives exp_p(-L) - a^(p-1) a valuation of 3, below --prec
    right = kummer.iwasawa_log
    monkeypatch.setattr(kummer, "iwasawa_log", lambda x: right(x) + x.p**3)
    code, payload = run_json(["kummer", "--a", "2/3", "--p", "5", "--prec", "8"])
    assert code == 1 and payload["ok"] is False
    assert payload["result"]["invariance_residual_valuation"] == 3


def test_mixed_solves_kummer_system(tmp_path):
    entries, weights = kummer_weight_matrix(Fraction(2), 5, 8)
    doc = {
        "p": 5,
        "precision": 8,
        "weights": list(weights),
        "entries": [[e.to_json() for e in row] for row in entries],
    }
    matrix_file = tmp_path / "matrix.json"
    v0_file = tmp_path / "v0.json"
    matrix_file.write_text(json.dumps(doc))
    v0_file.write_text(json.dumps({"values": [1]}))
    code, payload = run_json(
        ["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)]
    )
    assert code == 0
    got = from_json(payload["result"]["solution"][0])
    want = kummer_period(Fraction(2), 5, 8)[1][0]
    d = got - want
    assert d.is_exact_zero() or d.min_valuation() >= 6


def test_mixed_inconsistent_v0_fails(tmp_path):
    doc = {
        "p": 5,
        "precision": 8,
        "weights": [-2, 0],
        "entries": [["1/5", "0"], ["0", "2"]],
    }
    matrix_file = tmp_path / "matrix.json"
    v0_file = tmp_path / "v0.json"
    matrix_file.write_text(json.dumps(doc))
    v0_file.write_text(json.dumps([1]))
    code, payload = run_json(
        ["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)]
    )
    assert code == 1
    assert payload["ok"] is False
    assert "error" in payload


def test_hyper_unit_determinant():
    code, payload = run_json(
        [
            "hyper",
            "--p", "7",
            "--lambda0", "2",
            "--e", "3",
            "--order", "12",
            "--prec", "12",
            "--at", "9",
        ]
    )
    assert code == 0
    r = payload["result"]
    assert r["achieved_precision"] >= 10
    v = r["det_residual_valuation"]
    assert v is None or v >= r["achieved_precision"]


def test_hyper_rejects_far_evaluation_point():
    code, payload = run_json(
        [
            "hyper",
            "--p", "7",
            "--lambda0", "2",
            "--e", "3",
            "--order", "8",
            "--prec", "8",
            "--at", "3",
        ]
    )
    assert code == 2
    assert "error" in payload
    # 3 lies in the unit disc, but not in the residue disc of lambda0 = 2
    error = "evaluation point is outside the residue disc of lambda0: v(at - lambda0) = 0, not >= 1"
    argv = "hyper --p 5 --lambda0 2 --e 1 --order 8 --prec 12 --at 3".split()
    assert run_json(argv)[1]["error"] == error
    assert run_cli(argv) == (2, "hyper: error: %s\n" % error)


def test_frob_matches_point_count():
    code, payload = run_json(
        ["frob", "--f", "x^3+x+1", "--p", "5", "--prec", "4"]
    )
    assert code == 0
    r = payload["result"]
    assert r["a_p"] == -3
    assert r["trace_residual_valuation"] is None or r["trace_residual_valuation"] >= 4
    assert r["det_residual_valuation"] is None or r["det_residual_valuation"] >= 4


def test_frob_selftest_flag():
    code, payload = run_json(
        ["frob", "--f", "x^3-x", "--p", "7", "--prec", "3", "--selftest"]
    )
    assert code == 0
    assert payload["result"]["selftest"] is True
    assert payload["result"]["a_p"] == 0


def test_frob_selftest_certificate_miss_exits_1(monkeypatch):
    # the point count is taken once and certified as without --selftest,
    # so a wrong a_p is a failed check with the payload, not a refusal
    counts = []

    def wrong(f, p):
        counts.append((f, p))
        return -3 + 1

    monkeypatch.setattr(cli, "count_points", wrong)
    argv = ["frob", "--f", "x^3+x+1", "--p", "5", "--prec", "4"]
    for extra in ([], ["--selftest"]):
        counts.clear()
        code, payload = run_json(argv + extra)
        assert code == 1 and payload["ok"] is False
        assert payload["result"]["a_p"] == -2
        assert payload["result"]["trace_residual_valuation"] < 4
        assert counts == [((1, 1, 0, 1), 5)]


def test_frob_selftest_model_mismatch_exits_1(monkeypatch):
    real = frobenius.kedlaya_frobenius

    def moved(f, p, n):
        m = real(f, p, n)
        if f == (1, 1, 0, 1):
            return m
        (a, b), (c, d) = m
        return ((a + 5**3, b), (c, d))

    monkeypatch.setattr(frobenius, "kedlaya_frobenius", moved)
    code, payload = run_json(["frob", "--f", "x^3+x+1", "--p", "5", "--prec", "4", "--selftest"])
    assert code == 1
    assert payload["error"] == ("matrix digits moved under a change of model: "
                                "the models agree to 3 of 4 digits")


def test_frob_selftest_is_admitted_wherever_the_plain_run_is():
    # the self-test's second run is at the requested precision, so at
    # p = 10007 it meets the same step budget as the plain request
    argv = ["frob", "--f", "x^3+x+1", "--p", "10007", "--prec", "2"]
    code, plain = run_json(argv)
    assert code == 0
    code, checked = run_json(argv + ["--selftest"])
    assert code == 0
    assert checked["result"].pop("selftest") is True
    assert plain["result"].pop("selftest") is False
    assert checked == plain
    for extra in ([], ["--selftest"]):
        code, payload = run_json(["frob", "--f", "x^3+x+1", "--p", "10007", "--prec", "4"] + extra)
        assert code == 2
        assert payload["error"] == ("the Kedlaya step count at p = 10007, precision 4 "
                                    "exceeds the configured maximum 500000")


def test_frob_rejects_bad_reduction():
    code, payload = run_json(["frob", "--f", "x^3-x", "--p", "3", "--prec", "4"])
    assert code == 2
    assert "error" in payload


def test_closure_reports():
    code, payload = run_json(["closure", "--r", "2", "--cap", "8"])
    assert code == 0
    assert payload["result"]["generated"] is True
    assert payload["result"]["missing"] == []

    code, payload = run_json(["closure", "--r", "4", "--cap", "8"])
    assert code == 0
    assert payload["result"]["generated"] is False
    assert payload["result"]["missing"] == [2, 6]


def test_selftest_all_pass():
    code, payload = run_json(["selftest", "--prec", "6", "--seed", "3"])
    assert code == 0
    r = payload["result"]
    assert r["passed"] == r["total"] == 6
    names = [row["name"] for row in r["checks"]]
    assert names == ["bound", "closure", "frob", "gk", "hyper", "kummer"]


def test_selftest_row_reads_its_commands_own_check(monkeypatch):
    # a Gauss-sum residual one short of the target fails gk's own check
    monkeypatch.setattr(cli, "gross_koblitz_residual", lambda p, a, m: m - 1)
    code, payload = run_json(["selftest", "--prec", "6"])
    assert code == 1 and payload["ok"] is False
    rows = {row["name"]: row for row in payload["result"]["checks"]}
    assert rows.pop("gk") == {"name": "gk", "ok": False, "detail": "0/9 requests"}
    assert all(row["ok"] for row in rows.values())
    assert payload["result"]["passed"] == 5


def test_json_byte_identical_reruns():
    argv = ["selftest", "--prec", "6", "--seed", "5", "--json"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second

    argv = ["gamma", "--p", "7", "--x", "2/5", "--prec", "8", "--json"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def test_config_errors_exit_2(tmp_path):
    # composite p
    code, payload = run_json(["gamma", "--p", "6", "--x", "1/2", "--prec", "4"])
    assert code == 2 and "error" in payload
    # a outside [1, p-2]
    code, payload = run_json(["gk", "--p", "5", "--a", "4", "--prec", "6"])
    assert code == 2 and "error" in payload
    # gamma argument not a p-adic integer
    code, payload = run_json(["gamma", "--p", "5", "--x", "1/5", "--prec", "4"])
    assert code == 2 and "error" in payload
    # missing field selector
    code, payload = run_json(["cm", "--p", "13", "--prec", "6"])
    assert code == 2 and "error" in payload
    # unreadable input file
    code, payload = run_json(["mixed", "--matrix", "/nonexistent.json", "--v0", "/nonexistent.json"])
    assert code == 2 and "error" in payload
    # probe heights below 1: one divided by zero, the other could never hit
    for height in ("-1", "0"):
        code, payload = run_json(["cm", "--d", "1", "--p", "5", "--prec", "4", "--probe", height])
        assert code == 2 and "height" in payload["error"], height
    # ramified n below 1: the field sqrt(-3n) is not imaginary quadratic
    for n0 in ("-4", "-1", "0"):
        code, payload = run_json(["cm", "--p", "3", "--ramified-n", n0, "--prec", "8"])
        assert code == 2 and "at least 1" in payload["error"], n0
    # a Gamma-product modulus (|disc|, or n) past 10^6 is refused before
    # the squarefree kernel, the class number or the unit loop
    for argv in (["--d", "1000000007", "--p", "5"],
                 ["--d", "1000000000000000003", "--p", "5"],
                 ["--p", "3", "--ramified-n", "10000000"]):
        start = time.perf_counter()
        code, payload = run_json(["cm", *argv, "--prec", "2"])
        assert code == 2 and "exceeds the configured maximum" in payload["error"], argv
        assert time.perf_counter() - start < 1, argv
    # work budgets: the Gamma_p constants (for gamma, gk and cm), the Kedlaya
    # step count and a mixed file's precision, each refused before its work
    (tmp_path / "phi.json").write_text(json.dumps(dict(README_PHI, precision=10**9)))
    (tmp_path / "v0.json").write_text(json.dumps([1]))
    for argv in (["gamma", "--p", "3", "--x", "1/2", "--prec", "100000000"],
                 ["gamma", "--p", "3", "--x", "1/2", "--prec", "1000000"],
                 ["gk", "--p", "5", "--a", "1", "--prec", "1000000"],
                 ["cm", "--d", "1", "--p", "5", "--prec", "100000000"],
                 ["frob", "--f", "x^3+x+1", "--p", "100003", "--prec", "2"],
                 ["mixed", "--matrix", str(tmp_path / "phi.json"), "--v0", str(tmp_path / "v0.json")]):
        start = time.perf_counter()
        code, payload = run_json(argv)
        assert code == 2 and "exceeds the configured maximum" in payload["error"], argv
        assert time.perf_counter() - start < 1, argv
    # --d plays no part in the ramified construction
    code, payload = run_json(["cm", "--p", "3", "--ramified-n", "8", "--d", "5", "--prec", "4"])
    assert code == 2 and "--ramified-n" in payload["error"]
    # the one ramified case, and the least order the Wronskian needs
    for argv, error in (
        (["cm", "--ramified-n", "8", "--p", "5", "--prec", "3"],
         "the ramified construction is implemented for p = 3"),
        (["hyper", "--p", "7", "--lambda0", "3", "--e", "2", "--order", "1", "--prec", "4",
          "--at", "10"], "order must be at least 2"),
    ):
        code, payload = run_json(argv)
        assert (code, payload["error"]) == (2, error), argv
    # psi_12, a strong pseudoprime to the bases 2..37, certified digits before
    code, payload = run_json(["hyper", "--p", "318665857834031151167461", "--lambda0", "2",
                              "--e", "3", "--order", "4", "--prec", "2",
                              "--at", "318665857834031151167463"])
    assert code == 2 and "prime" in payload["error"]
    # closure: r is checked before the cap, each with its own message
    for r, cap, error in (
        ("3", "8", "odd symmetric powers do not factor through PGL2"),
        ("-2", "8", "r must be nonnegative"),
        ("2", "7", "the degree cap must be a nonnegative even number"),
        ("2", "14", "degree cap 14 exceeds the configured maximum 12"),
    ):
        code, payload = run_json(["closure", "--r", r, "--cap", cap])
        assert (code, payload["error"]) == (2, error), (r, cap)


# every subcommand that reads a prime or a precision, once at each refused
# value; {p} and {n} default to a prime and a precision it accepts
_SWEEP_COMMANDS = {
    "gamma": ("gamma --p {p} --x 1/2 --prec {n}", 5),
    "gk": ("gk --p {p} --a 1 --prec {n}", 5),
    "cm": ("cm --d 1 --p {p} --prec {n}", 5),
    "kummer": ("kummer --a 2/3 --p {p} --prec {n}", 5),
    "hyper": ("hyper --p {p} --lambda0 2 --e 3 --order 12 --prec {n} --at 9", 7),
    "frob": ("frob --f x^3+x+1 --p {p} --prec {n}", 5),
    "mixed": ("mixed --matrix {p}:{n}:1 --v0 v0.json", 5),
}
_REFUSED_PRIMES = ("2", "4", "9", "1", "-5", "318665857834031151167461")
_REFUSED_PRECISIONS = ("0", "-1", "-" + str(10**30))
_HUGE = ("1e5000", "1e100000")
_SWEEP = sorted(
    [_SWEEP_COMMANDS[c][0].format(p=p, n=4) for c in _SWEEP_COMMANDS for p in _REFUSED_PRIMES]
    + [t.format(p=p, n=n) for t, p in _SWEEP_COMMANDS.values() for n in _REFUSED_PRECISIONS]
    + ["cm --p 3 --ramified-n 8 --prec %s" % n for n in _REFUSED_PRECISIONS]
    + ["selftest --prec %s" % n for n in _REFUSED_PRECISIONS]
    # exponent notation: a rational past the int-string limit
    + ["gamma --p 7 --x %s --prec 2" % x for x in _HUGE]
    + ["gamma --p 5 --x %s --prec 2" % x for x in _HUGE]
    + ["kummer --a %s --p 7 --prec 2" % x for x in _HUGE]
    + ["hyper --p 7 --lambda0 %s --e 3 --order 12 --prec 4 --at 9" % x for x in _HUGE]
    + ["hyper --p 7 --lambda0 2 --e 3 --order 12 --prec 4 --at %s" % x for x in _HUGE]
    + ["mixed --matrix 5:4:1e300000 --v0 v0.json"]
    + ["kummer --a 1/0 --p 7 --prec 2", "mixed --matrix 5:4:1/0 --v0 v0.json"]
)
# the reason a refused rational must name, whether argparse or execute reports
# it; a mixed cell is named by its place, never repeated
_REASONS = {"1e": "exponent notation in '1e", "1/0": "zero denominator in '1/0'"}
_CELL_REASONS = {"1e": "exponent notation in matrix entry [0][0]; write num/den",
                 "1/0": "zero denominator in matrix entry [0][0]"}


@pytest.mark.parametrize("command", _SWEEP)
def test_refused_primes_precisions_and_rationals_exit_2(command, tmp_path):
    (tmp_path / "v0.json").write_text(json.dumps([1]))
    argv = []
    for token in command.split():
        if token.count(":") == 2:
            # a one-by-one mixed file: prime, precision and its one cell
            p, n, cell = token.split(":")
            (tmp_path / "phi.json").write_text(json.dumps(
                {"p": int(p), "precision": int(n), "weights": [0], "entries": [[cell]]}))
            token = "phi.json"
        argv.append(str(tmp_path / token) if token.endswith(".json") else token)
    start = time.perf_counter()
    stderr = io.StringIO()
    try:
        with redirect_stderr(stderr):
            code, payload = run_json(argv)
    except SystemExit as exc:
        # argparse's own refusal of a value its type function rejects
        code, payload = exc.code, {"error": stderr.getvalue()}
    assert code == 2 and "error" in payload, payload
    for bad, reason in (_CELL_REASONS if argv[0] == "mixed" else _REASONS).items():
        if bad in command:
            assert reason in payload["error"], payload
    assert time.perf_counter() - start < 1


def test_malformed_mixed_files_exit_2(tmp_path):
    entries, weights = kummer_weight_matrix(Fraction(2), 5, 8)
    good = {
        "p": 5,
        "precision": 8,
        "weights": list(weights),
        "entries": [[e.to_json() for e in row] for row in entries],
    }
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps(good))
    v0_file = tmp_path / "v0.json"

    # vector document is an object without the one recognised key
    v0_file.write_text(json.dumps({"oops": [1]}))
    code, payload = run_json(["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)])
    assert code == 2 and "values" in payload["error"]

    # vector value is a bare scalar, not an array
    v0_file.write_text(json.dumps({"values": 1}))
    code, payload = run_json(["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)])
    assert code == 2 and "error" in payload

    # matrix document is an array, not an object
    matrix_file.write_text(json.dumps([1, 2, 3]))
    v0_file.write_text(json.dumps([1]))
    code, payload = run_json(["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)])
    assert code == 2 and "error" in payload

    # matrix rows are scalars, not arrays
    bad = dict(good, entries=[1, 2])
    matrix_file.write_text(json.dumps(bad))
    code, payload = run_json(["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)])
    assert code == 2 and "error" in payload

    # p, precision and weights that are not ints (bools included)
    v0_file.write_text(json.dumps([1]))
    for fields in ({"p": "5"}, {"precision": 8.5}, {"precision": True},
                   {"weights": ["a"] + good["weights"][1:]}):
        matrix_file.write_text(json.dumps(dict(good, **fields)))
        code, payload = run_json(["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)])
        assert code == 2 and "integers" in payload["error"], fields

    # a positive weight, a missing key, and weights that are not an array
    no_entries = {k: v for k, v in good.items() if k != "entries"}
    for doc, error in (
        (dict(good, weights=[1, 0]), "weights must be <= 0"),
        (no_entries, "matrix file lacks the 'entries' key"),
        (dict(good, weights=5), "matrix weights and entries must be JSON arrays"),
    ):
        matrix_file.write_text(json.dumps(doc))
        code, payload = run_json(["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)])
        assert (code, payload["error"]) == (2, error), doc

    # cells of another prime or of a type the loader does not read, in the
    # matrix and in the vector, each named by its place
    for cell, error in (
        ({"p": 7, "val": 0, "digits": [1], "rel_prec": 1},
         ": its p differs from the matrix prime 5"),
        (1.5, " is not an integer, a num/den string or a digit dict"),
        ([1], " is not an integer, a num/den string or a digit dict"),
    ):
        entries = [list(row) for row in good["entries"]]
        entries[0][0] = cell
        for doc, v0, place in ((dict(good, entries=entries), [1], "matrix entry [0][0]"),
                               (good, [cell], "vector entry [0]")):
            matrix_file.write_text(json.dumps(doc))
            v0_file.write_text(json.dumps(v0))
            code, payload = run_json(["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)])
            assert (code, payload["error"]) == (2, place + error), (cell, v0)

    # cells that to_json never writes: digits outside [0, p), a val that is
    # not an int, a zero leading digit, rel_prec other than the digit count,
    # a null (or missing) val with digits or a nonzero rel_prec, a val past
    # the file's precision (at 10^9, x - 1 carried 10^9 digits and hung),
    # digits that are not a list (len() of them raised a TypeError)
    for cell in (
        {"val": 1, "digits": [0, 7], "rel_prec": 9},
        {"val": 0, "digits": [1, 5], "rel_prec": 2},
        {"val": 0, "digits": [-1], "rel_prec": 1},
        {"val": "1", "digits": [1], "rel_prec": 1},
        {"val": 1.0, "digits": [1], "rel_prec": 1},
        {"val": True, "digits": [1], "rel_prec": 1},
        {"val": 0, "digits": [0, 1], "rel_prec": 2},
        {"val": 0, "digits": [1, 2], "rel_prec": 9},
        {"val": 3, "digits": [], "rel_prec": 2},
        {"val": 0, "digits": [1, 2], "rel_prec": 1},
        {"val": None, "digits": [3, 1], "rel_prec": 7},
        {"val": None, "digits": [3, 1], "rel_prec": 2},
        {"val": None, "digits": [], "rel_prec": 2},
        {"digits": [3, 1], "rel_prec": 2},
        {"val": 9, "digits": [1], "rel_prec": 1},
        {"val": 10**9, "digits": [1], "rel_prec": 1},
        {"val": 0, "digits": 5},
        {"val": 0, "digits": None},
    ):
        entries = [list(row) for row in good["entries"]]
        entries[0][0] = cell
        matrix_file.write_text(json.dumps(dict(good, entries=entries)))
        v0_file.write_text(json.dumps([1]))
        code, payload = run_json(["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)])
        assert code == 2 and "error" in payload, cell
        matrix_file.write_text(json.dumps(good))
        v0_file.write_text(json.dumps([cell]))
        code, payload = run_json(["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)])
        assert code == 2 and "error" in payload, cell

    # JSON nested past the recursion limit, as the matrix and as the vector
    # (json.load raised RecursionError: a traceback and exit 1)
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100000 + "]" * 100000)
    matrix_file.write_text(json.dumps(good))
    v0_file.write_text(json.dumps([1]))
    error = "the JSON in %s is nested too deeply" % nested
    for argv in (["mixed", "--matrix", str(nested), "--v0", str(v0_file)],
                 ["mixed", "--matrix", str(matrix_file), "--v0", str(nested)]):
        code, payload = run_json(argv)
        assert (code, payload["error"]) == (2, error), argv
        assert run_cli(argv) == (2, "mixed: error: %s\n" % error), argv


def test_mixed_errors_name_the_cell_not_its_contents(tmp_path):
    # each text once repeated the whole cell: 30 KB for the digit dict, 689 KB
    # for the list cell, 300 KB for the list p and 100 KB for a string cell
    rng = random.Random(39)
    digits = [1] + [rng.randrange(5) for _ in range(9998)] + [7]
    long_list = [rng.randrange(10**6) for _ in range(10**5)]
    doc = {"p": 5, "precision": 10**4, "weights": [-1, 0], "entries": [[1, 1], [0, 1]]}
    matrix_file = tmp_path / "matrix.json"
    v0_file = tmp_path / "v0.json"
    argv = ["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)]
    for entries, v0, error in (
        ([[{"val": 1, "digits": digits, "rel_prec": len(digits)}, 1], [0, 1]], [1],
         "matrix entry [0][0] has a digit outside [0, 5)"),
        ([[1, 1], [0, 1]], [long_list],
         "vector entry [0] is not an integer, a num/den string or a digit dict"),
        ([[1, 1], [{"p": long_list, "val": 0, "digits": [1], "rel_prec": 1}, 1]], [1],
         "matrix entry [1][0]: its p differs from the matrix prime 5"),
        ([[1, "1/" + "x" * 10**5], [0, 1]], [1],
         "matrix entry [0][1] is not a num/den rational within the int-string limit"),
        ([[1, 1], [0, 1]], ["1e" + "5" * 10**5],
         "exponent notation in vector entry [0]; write num/den"),
    ):
        matrix_file.write_text(json.dumps(dict(doc, entries=entries)))
        v0_file.write_text(json.dumps(v0))
        code, payload = run_json(argv)
        assert (code, payload["error"]) == (2, error)
        assert len(error) < 200
        assert run_cli(argv) == (2, "mixed: error: %s\n" % error)


def test_mixed_dimension_budget(tmp_path):
    # one weight-0 coordinate, then a weight -1 block with 1/5 on its diagonal:
    # every v_i = -1 / (1/5 - 1) = 5/4
    def system(n):
        entries = [[1] + [0] * (n - 1)]
        entries += [[1] + ["1/5" if j == i else 0 for j in range(1, n)] for i in range(1, n)]
        return {"p": 5, "precision": 20, "weights": [0] + [-1] * (n - 1), "entries": entries}

    matrix_file = tmp_path / "matrix.json"
    v0_file = tmp_path / "v0.json"
    argv = ["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)]
    matrix_file.write_text(json.dumps(system(cli._MAX_MIXED_DIMENSION)))
    v0_file.write_text(json.dumps([1]))
    code, payload = run_json(argv)
    assert code == 0
    assert payload["result"]["solution"][1:] == [make_padic(5, Fraction(5, 4), 20).to_json()] * 9
    # the block solve is cubic: at precision 20, 320 ran past 60 s; the
    # longest side of either file counts, whatever the weights say
    for doc, v0 in ((system(400), [1]),
                    (dict(system(1), entries=[[1] * 400]), [1]),
                    (system(1), [1] * 400)):
        matrix_file.write_text(json.dumps(doc))
        v0_file.write_text(json.dumps(v0))
        start = time.perf_counter()
        code, payload = run_json(argv)
        assert (code, payload["error"]) == (
            2, "matrix dimension 400 exceeds the configured maximum 10")
        assert time.perf_counter() - start < 1


def test_mixed_digit_budget(tmp_path):
    # a digit dict of 10^4 digits is admitted at precision 10^4, and one more
    # digit is refused before any digit is read (the unit was once formed as a
    # sum of fresh powers p^i: 3 * 10^4 digits took 5 s)
    rng = random.Random(10**4)
    n = cli._MAX_MIXED_PRECISION
    digits = [1 + rng.randrange(4)] + [rng.randrange(5) for _ in range(n - 1)]
    cell = {"val": 1, "digits": digits, "rel_prec": n}
    matrix_file = tmp_path / "matrix.json"
    v0_file = tmp_path / "v0.json"
    argv = ["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)]
    doc = {"p": 5, "precision": n, "weights": [-1, 0], "entries": [[cell, 1], [0, 1]]}
    matrix_file.write_text(json.dumps(doc))
    v0_file.write_text(json.dumps([1]))
    code, payload = run_json(argv)
    x = from_json(dict(cell, p=5))
    assert x.digits() == digits
    # the invariant vector is (1/(1 - x), 1)
    assert code == 0 and payload["result"]["solution"][0] == (-make_padic(5, 1, n) / (x - 1)).to_json()
    long_cell = dict(cell, digits=digits + [1], rel_prec=n + 1)
    error = "entry digit count %d exceeds the configured maximum %d" % (n + 1, n)
    for entries, v0 in (([[long_cell, 1], [0, 1]], [1]), ([[cell, 1], [0, 1]], [long_cell])):
        matrix_file.write_text(json.dumps(dict(doc, entries=entries)))
        v0_file.write_text(json.dumps(v0))
        start = time.perf_counter()
        code, payload = run_json(argv)
        assert (code, payload["error"]) == (2, error)
        assert run_cli(argv) == (2, "mixed: error: %s\n" % error)
        assert time.perf_counter() - start < 1


def test_mixed_far_apart_valuations_finish(tmp_path):
    # one entry at 5^(-10^9): every sum against it must skip the p^gap term
    far = {"val": -10**9, "digits": [1], "rel_prec": 1}
    doc = {"p": 5, "precision": 8, "weights": [-2, -1, 0],
           "entries": [["1/25", far, 1], [0, "1/5", 1], [0, 0, 1]]}
    matrix_file = tmp_path / "matrix.json"
    v0_file = tmp_path / "v0.json"
    matrix_file.write_text(json.dumps(doc))
    v0_file.write_text(json.dumps([1]))
    started = time.monotonic()
    code, payload = run_json(["mixed", "--matrix", str(matrix_file), "--v0", str(v0_file)])
    assert time.monotonic() - started < 2
    assert code == 0
    # v_1 = 5/4; v_0 = -(5^(-10^9) u * 5/4 + 1) / (1/25 - 1) with u = 1 + O(5)
    assert payload["result"]["solution"] == [
        {"p": 5, "val": -10**9 + 3, "digits": [1], "rel_prec": 1},
        make_padic(5, Fraction(5, 4), 8).to_json(),
        make_padic(5, 1, 8).to_json(),
    ]


def test_mixed_cells_written_by_to_json_load():
    for x in (PadicElement(5, 2, 13, 3), PadicElement(5, -1, 1, 1),
              PadicElement(5, 4, 0, 0), PadicElement(5, None, 0, 0),
              PadicElement(5, 8, 1, 1)):
        assert cli._load_cell(5, x.to_json(), 8, "vector entry [0]") == x


def test_error_messages_carry_achievable_precision():
    code, payload = run_json(
        [
            "hyper",
            "--p", "5",
            "--lambda0", "2",
            "--e", "3",
            "--order", "40",
            "--prec", "16",
            "--at", "7",
        ]
    )
    assert code == 2
    assert "error" in payload


def test_unknown_arguments_exit_2():
    # only selftest has randomized checks, so only it takes a seed
    for argv in (["bound", "--case", "no-such-case"],
                 ["gamma", "--seed", "3", "--p", "5", "--x", "1/2", "--prec", "4"],
                 ["bound", "--case", "cm-ss", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--p", "5", "--x=-5/4", "--prec", "3"],
        ["kummer", "--a=-3/2", "--p", "5", "--prec", "4"],
        ["hyper", "--p", "7", "--lambda0=-1/2", "--e", "3", "--order", "12",
         "--prec", "8", "--at=-15/2"],
        # abbreviated option names
        ["hyper", "--p", "7", "--lam=-1/2", "--e", "3", "--ord", "12",
         "--prec", "8", "--at=-15/2"],
    ],
)
def test_negative_rationals_as_separate_tokens(argv):
    spaced = [part for token in argv for part in token.split("=")]
    code, out = run_cli(argv + ["--json"])
    assert code == 0
    assert run_cli(spaced + ["--json"]) == (code, out)


def test_one_logarithm_per_kummer_datum(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return iwasawa_log(x)

    monkeypatch.setattr(kummer, "iwasawa_log", counted)
    code, _ = run_json(["kummer", "--a", "2/3", "--p", "13", "--prec", "40"])
    assert code == 0 and len(calls) == 1
    calls.clear()
    # four data, one L each
    code, _ = run_json(["selftest", "--prec", "6"])
    assert code == 0 and len(calls) == 4


# the residual convention: a residual is an int, or math.inf when the
# difference is exactly zero, and --json writes that inf, and only it, as null


def _is_residual(v):
    return type(v) is int or v == math.inf


def test_residuals_are_int_or_inf():
    zero = PadicElement(7, None, 0, 0)
    x = make_padic(7, Fraction(2, 3), 8)
    assert residual_valuation(zero, zero) == math.inf
    assert residual_valuation(zero, 0) == math.inf
    assert residual_valuation(x, x) == 8
    assert residual_valuation(x, Fraction(2, 3) + 7**3) == 3
    for a in (2, 3, 7, Fraction(1, 4), Fraction(14, 3)):
        y = make_padic(7, a, 6)
        assert _is_residual(check_translation(y, 6)), a
        assert _is_residual(check_reflection(y, 6)[1]), a
    for a, p in ((Fraction(2, 3), 5), (Fraction(-7, 2), 3), (Fraction(5), 13)):
        matrix, _, res = kummer_period(a, p, 10)
        assert _is_residual(res), (a, p)
        perturbed = perturbed_invariance(a, p, 10, 3)
        assert _is_residual(perturbed), (a, p)
        assert perturbed == matrix[0][1].val + 3, (a, p)
    _, _, tv, dv = charpoly_certificate(cli.kedlaya_frobenius((1, 1, 0, 1), 5, 4), -3, 5)
    assert type(tv) is int and type(dv) is int
    # an exactly-zero trace against a_p = 0 gives inf; det - p does not vanish
    zero = PadicElement(5, None, 0, 0)
    _, _, tv, dv = charpoly_certificate(((zero, zero), (zero, zero)), 0, 5)
    assert (tv, dv, tv >= 4 and dv >= 4) == (math.inf, 1, False)


@pytest.mark.parametrize(
    "argv, field, source",
    [
        (["gk", "--p", "7", "--a", "2", "--prec", "12"],
         "residual_pi_valuation", "gross_koblitz_residual"),
        (["kummer", "--a", "2/3", "--p", "5", "--prec", "12"],
         "invariance_residual_valuation", "residual_valuation"),
        (["hyper", "--p", "7", "--lambda0", "2", "--e", "3", "--order", "12",
          "--prec", "12", "--at", "9"],
         "det_residual_valuation", "residual_valuation"),
    ],
)
def test_json_residual_is_null_exactly_when_inf(argv, field, source, monkeypatch):
    # kummer's and hyper's residuals are taken inside their modules, gk's in the cli
    owner = {"kummer": kummer, "hyper": hypergeom}.get(argv[0], cli)
    seen = []
    real = getattr(owner, source)

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(owner, source, spy)
    _, payload = run_json(argv)
    assert type(seen[-1]) is int and payload["result"][field] == seen[-1]
    monkeypatch.setattr(owner, source, lambda *args: math.inf)
    _, payload = run_json(argv)
    assert payload["result"][field] is None


def test_frob_json_residuals_are_null_exactly_when_inf(monkeypatch):
    argv = ["frob", "--f", "x^3+x+1", "--p", "5", "--prec", "4"]
    fields = ("trace_residual_valuation", "det_residual_valuation")
    _, payload = run_json(argv)
    assert all(type(payload["result"][f]) is int for f in fields)
    real = cli.charpoly_certificate
    monkeypatch.setattr(
        cli,
        "charpoly_certificate",
        lambda *args: real(*args)[:2] + (math.inf, math.inf),
    )
    _, payload = run_json(argv)
    assert all(payload["result"][f] is None for f in fields)


def test_bare_dash_value_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["gamma", "--p", "5", "--x", "-", "--prec", "3"])
    assert exc.value.code == 2


def test_parser_reused_after_an_error():
    argv = ["gamma", "--p", "7", "--x", "2/5", "--prec", "8", "--json"]
    with pytest.raises(SystemExit) as exc:
        run_cli(["gamma", "--p", "7", "--x", "2/5"])
    assert exc.value.code == 2
    assert cli._parser() is cli._parser()
    code, out = run_cli(argv)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    fresh = subprocess.run(
        [sys.executable, "-m", "periods.cli"] + argv,
        capture_output=True, text=True, env=env, check=False,
    )
    assert (code, out) == (fresh.returncode, fresh.stdout)


# sha256 of the --json stdout and the exit code for every README example,
# plus a configuration error from each of two layers; frozen before the CLI
# and the Kedlaya sizing were simplified, so those changes keep every byte
GOLDEN = {
    "bound --case noncm-ss": (0, "8dfd3c62ee8eae9b6ea2ba0ad637e725fea947f97002afffcc99764223b1b953"),
    "gamma --p 5 --x 1/2 --prec 8": (0, "4685f41204deeb6cba5f955abb47ae187e74ca0ca0fbb941a5e3e2a81678e595"),
    "gk --p 7 --a 2 --prec 12": (0, "5769f8596c2450527a8144b17d1251bdf2b93d4895a8842fb9bb8b6d37bf30c5"),
    "cm --d 1 --p 13 --prec 6 --probe 40": (0, "249cfcd37d3a11f924311a51910c78ad4dd69389332d4e7bcd7f41b369ac51e5"),
    "cm --p 3 --ramified-n 8 --prec 8 --probe 10": (0, "3697089c445441be627bb446267e4f9ed5ea09e50f09f6b1f7ee1504d122b6e0"),
    "kummer --a 2/3 --p 5 --prec 12": (0, "5cff6f21a5dd3b162867ef95174fdda8e55dec1b45b9d0046bd120e1696176ab"),
    "mixed --matrix phi.json --v0 v0.json": (0, "8f24629b1eca85dd8bdc1a0e3ce005a80276920691cd51710572c7278ff5fcad"),
    "hyper --p 7 --lambda0 2 --e 3 --order 12 --prec 12 --at 9": (0, "217d8185161d8214efac8fb10ed649dc06a7d6ea94aefed96b14a387be52c1fa"),
    "frob --f x^3+x+1 --p 5 --prec 4 --selftest": (0, "062c6c3f0f0d86bdacc5246c0c6b13f7dbcea2b97bd8363035bec5ef28180a2a"),
    "closure --r 4 --cap 8": (0, "9f9bc965c63616c7f020cc41f5b39f964e8af12b8e5cc1645b7fef821021bb37"),
    # re-frozen when the selftest rows became the commands' own checks
    "selftest --prec 10 --seed 0": (0, "21839599b5ccac631e24171616a74067558878789e8cef6a7023d9c0c38a8868"),
    # exit 2 until p^N was no longer capped at 10^7; checked against the
    # product scan and by translation and reflection before it was frozen
    "gamma --p 101 --x 1/2 --prec 4": (0, "2b4029dde023d10ccbb23dfb901acd6a634924d9ad6e99fea0d98681fc9f254b"),
    # over the work budget of the Gamma_p constants
    "gamma --p 3 --x 1/2 --prec 100000000": (2, "04d5c1c27946f101635ec58b4cf4e6a3a789ab63ee07a12d69ef9233a12b2449"),
    # the discriminant of x^3 - 2x + 1 is 5
    "frob --f x^3-2*x+1 --p 5 --prec 4": (2, "0a55db692dcfd9c278a25c123a3e077c6939db96071c5d54a5b3ccb068353a0d"),
    # D(beta) is O(3^15), one digit past the tail that probed the computed
    # coefficients; the exact first-order solution agrees through 3^15
    "hyper --p 3 --lambda0 2 --e 0 --order 28 --prec 24 --at 5": (0, "1bf5e292f23cfd2e6a36c7cf36e145df2d9e0bf41bd0edeb29aa155f342bcd24"),
    # frob without --selftest, and hyper at v(t) = 2 (t = 25); frozen before
    # hyper and frob lost their wrapper classes
    "frob --f x^3+x+1 --p 7 --prec 6": (0, "cf94882d4bee42a38b2406d209a251d53f9969aaa8d0741c8497cc06008aaa83"),
    "frob --f x^3-x --p 13 --prec 3": (0, "a9c9dfc0dbd6869cb594303f1b953776a6f6493386ae14ef50f0e08f3e6576f7"),
    "hyper --p 5 --lambda0 3 --e 4 --order 30 --prec 30 --at 28": (0, "5f4f1496ef71b28264206b895791be6e0b79374f4d0c9d797578c7223e6abe8d"),
    # the other three bound cases, a torus as the group and as the fixed
    # subgroup; frozen before groups became (kind, rank) pairs
    "bound --case cm-ss": (0, "3014374848da75357b3c6d8e456a2cb65ea36294acbc9fe34bac30040b2b1a93"),
    "bound --case noncm-ord": (0, "a9f7668b4fb6dadbb8ec1463e7d702d7112a5a7b6a2270dc7311561d34dbf47e"),
    "bound --case legendre": (0, "39edeb07705b2ef590db3e8c7cf95149f1f6b074db0a6b4a3c8fdcb80f87d5c0"),
}

def test_commands_table_schema_and_goldens_agree():
    assert list(cli.COMMANDS) == SCHEMA["properties"]["command"]["enum"]
    branches = {b["if"]["properties"]["command"]["const"] for b in SCHEMA["allOf"]}
    assert branches == set(cli.COMMANDS)
    assert {command.split()[0] for command in GOLDEN} == set(cli.COMMANDS)


# one line per subcommand at 80 columns; usage lines, unlike full help
# pages, read the same on Python 3.10 to 3.13
USAGE = {
    "bound": "usage: periods bound [-h] [--json] --case {cm-ss,legendre,noncm-ord,noncm-ss}\n",
    "gamma": "usage: periods gamma [-h] [--json] --p P --x NUM/DEN --prec PREC\n",
    "gk": "usage: periods gk [-h] [--json] --p P --a A --prec PREC\n",
    "cm": "usage: periods cm [-h] [--json] [--d D] --p P --prec PREC\n"
          "                  [--ramified-n RAMIFIED_N] [--probe HEIGHT]\n",
    "kummer": "usage: periods kummer [-h] [--json] --a NUM/DEN --p P --prec PREC\n",
    "mixed": "usage: periods mixed [-h] [--json] --matrix FILE.json --v0 FILE.json\n",
    "hyper": "usage: periods hyper [-h] [--json] --p P --lambda0 NUM/DEN --e E --order ORDER\n"
             "                     --prec PREC --at NUM/DEN\n",
    "frob": "usage: periods frob [-h] [--json] --f CUBIC --p P --prec PREC [--selftest]\n",
    "closure": "usage: periods closure [-h] [--json] --r R [--cap CAP]\n",
    "selftest": "usage: periods selftest [-h] [--json] [--prec PREC] [--seed SEED]\n",
}


def test_usage_lines(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    (sub,) = [action for action in cli._parser()._actions if action.dest == "command"]
    assert {name: sp.format_usage() for name, sp in sub.choices.items()} == USAGE


# main reads a well-formed command line straight from COMMANDS
# (cli._table_args) and builds argparse only for the rest: the reader gives
# argparse's own Namespace or None, never a request argparse refuses


def _no_parser():
    raise AssertionError("argparse was built for a well-formed command line")


# (valid, invalid) value texts per option type, valid as argparse sees them
_INTS = (("3", "5", "13", "0", "-5", " 7"), ("-", "", "1e5", "1/0", "x", "9" * 4301))
_RATIONALS = (("1/2", "-5/4", "7", "2.5"), ("-", "", "1e5", "1/0", "a/b"))
_TEXTS = (("x^3+x+1", "phi.json"), ("-x", "", "-"))
_STRAYS = ("-h", "--help", "--", "stray", "-", "-5", "--no-such", "--seed", "--cap=8")


def _random_value(rng, kw):
    valid, invalid = {int: _INTS, cli._fraction_arg: _RATIONALS}.get(kw["type"], _TEXTS)
    if "choices" in kw:
        valid, invalid = kw["choices"], valid + ("no-such-case",)
    return rng.choice(valid if rng.random() < 0.9 else invalid)


def _random_argv(rng):
    """A command line over one command's options: full and abbreviated names,
    "=" and separate values, missing and repeated options, stray tokens."""
    if rng.random() < 0.01:
        return []
    command = rng.choice(list(cli.COMMANDS) * 4 + ["no-such", "--help", ""])
    argv = [command]
    specs = [cli._JSON, *cli.COMMANDS.get(command, (None, None, []))[2]]
    for flag, kw in rng.sample(specs, len(specs)) * rng.choice((1,) * 9 + (2,)):
        if rng.random() < 0.04 or (not kw.get("required") and rng.random() < 0.5):
            continue
        name = flag if rng.random() < 0.9 or len(flag) < 4 else flag[:rng.randrange(3, len(flag))]
        if "action" in kw:
            argv.append(name + rng.choice(("",) * 16 + ("=1", "=")))
            continue
        value, form = _random_value(rng, kw), rng.random()
        if form < 0.45:
            argv.append(name + "=" + value)
        elif form < 0.98:
            argv += [name, value]
        else:
            argv.append(name)
    if rng.random() < 0.05:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(_STRAYS))
    return argv if rng.random() < 0.5 else cli._join_negative_values(argv)


def _argparse_vars(argv):
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(cli._parser().parse_args(argv))
    except SystemExit:  # a refusal, or a help page
        return None


def test_table_reader_agrees_with_argparse():
    rng = random.Random(42)
    outcomes = Counter()
    for _ in range(20000):
        argv = _random_argv(rng)
        got, want = cli._table_args(argv), _argparse_vars(argv)
        if got is not None:
            assert want is not None and vars(got) == want, argv
        outcomes["table" if got else "argparse" if want else "refused"] += 1
    # each path is taken thousands of times
    assert min(outcomes[k] for k in ("table", "argparse", "refused")) > 2000, outcomes
    # argparse alone reads a repeated option (the last one wins) or an abbreviation
    gamma = ["gamma", "--p", "5", "--x", "1/2"]
    for argv in (gamma + ["--prec", "3", "--prec", "4"], gamma + ["--prec", "3", "--json", "--json"],
                 gamma + ["--pre", "3"], gamma + ["--prec", "3", "--js"]):
        assert cli._table_args(argv) is None and _argparse_vars(argv), argv


def test_readme_examples_are_golden_requests():
    # so test_golden_json_output reads every README example without argparse
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [" ".join(shlex.split(line, comments=True)[1:])
                for line in re.findall(r"^periods .*", readme, re.M)]
    assert len(examples) == 11 and set(examples) <= set(GOLDEN)


def test_selftest_requests_are_read_from_the_table(monkeypatch):
    for seed in (0, 1):
        for n in (1, 10, 20):
            for line, _ in cli._selftest_requests(n, random.Random(seed)):
                assert vars(cli._table_args(line.split())) == _argparse_vars(line.split()), line
    monkeypatch.setattr(cli, "_parser", _no_parser)
    assert run_cli(["selftest", "--prec", "3", "--seed", "1", "--json"])[0] == 0


def test_precision_cap_variable_is_ignored():
    # PERIODS_PRECISION_CAP once capped p^N; nothing reads it now
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PERIODS_PRECISION_CAP="100",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-m", "periods.cli", "gamma", "--p", "5", "--x", "1/2", "--prec", "8", "--json"],
        capture_output=True, text=True, env=env, check=False,
    )
    digest = hashlib.sha256(out.stdout.encode()).hexdigest()
    assert (out.returncode, digest) == GOLDEN["gamma --p 5 --x 1/2 --prec 8"]


# the matrix file shown in README
README_PHI = {
    "p": 5,
    "precision": 8,
    "weights": [-2, 0],
    "entries": [["1/5", {"p": 5, "val": 0, "digits": [3, 1], "rel_prec": 2}],
                ["0", "1"]],
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_json_output(command, tmp_path, monkeypatch):
    # every golden request is read from COMMANDS, without argparse
    monkeypatch.setattr(cli, "_parser", _no_parser)
    (tmp_path / "phi.json").write_text(json.dumps(README_PHI))
    (tmp_path / "v0.json").write_text(json.dumps([1]))
    argv = [str(tmp_path / t) if t.endswith(".json") else t for t in command.split()]
    code, out = run_cli(argv + ["--json"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]


# sha256 prefix over --prec 1..20 of the exit code and the sha256 of the
# selftest --json stdout, per seed; frozen when the rows became the
# commands' own checks over fixed requests
SELFTEST_DIGESTS = {
    0: "6f6d380af8a82f46",
    1: "062d25cea0c09a9b",
    2: "f952abfffc946fb6",
}


@pytest.mark.parametrize("seed", sorted(SELFTEST_DIGESTS))
def test_selftest_frozen_digests(seed):
    h = hashlib.sha256()
    for n in range(1, 21):
        code, out = run_cli(["selftest", "--prec", str(n), "--seed", str(seed), "--json"])
        h.update(("%d %s" % (code, hashlib.sha256(out.encode()).hexdigest())).encode())
    assert h.hexdigest()[:16] == SELFTEST_DIGESTS[seed]


# --json is written by cli._canonical_json in one pass; the json module's
# indent=2 text is the reference for every byte


def _payload(argv):
    return cli.execute(cli._parser().parse_args(cli._join_negative_values(argv)))[1]


def test_canonical_json_on_golden_and_selftest_payloads(tmp_path):
    (tmp_path / "phi.json").write_text(json.dumps(README_PHI))
    (tmp_path / "v0.json").write_text(json.dumps([1]))
    payloads = []
    for command in sorted(GOLDEN):
        payloads.append(_payload([str(tmp_path / t) if t.endswith(".json") else t
                                  for t in command.split()]))
    for seed in (0, 1):
        for n in range(1, 21):
            payloads.append(_payload(["selftest", "--prec", str(n), "--seed", str(seed)]))
            for argv, _ in cli._selftest_requests(n, random.Random(seed)):
                payloads.append(_payload(argv.split()))
    assert len(payloads) == len(GOLDEN) + 2 * 20 * 24
    for payload in payloads:
        assert cli._canonical_json(payload) == REFERENCE_JSON(payload)


_Pair = namedtuple("_Pair", "left right")

_ODD_TEXT = ('"', "\\", "\\u", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
             "\u2028", "\U0001d11e", "\ud800", "plain", "")


def _random_text(rng):
    return "".join(rng.choice(_ODD_TEXT) for _ in range(rng.randrange(4)))


def _random_leaf(rng):
    return rng.choice((
        lambda: rng.randint(-10**40, 10**40),
        lambda: rng.randint(-3, 3),
        lambda: rng.choice((True, False, None)),
        lambda: rng.choice((0.0, -0.0, 0.1, -2.5e-300, 1e300, float("inf"),
                            float("-inf"), float("nan"))),
        lambda: _random_text(rng),
    ))()


def _random_payload(rng, depth):
    kind = rng.randrange(8 if depth else 1)
    if kind == 0:
        return _random_leaf(rng)
    items = [_random_payload(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind in (1, 2):
        return items
    if kind == 3:
        return tuple(items)
    if kind == 4:
        return _Pair(_random_payload(rng, depth - 1), _random_payload(rng, depth - 1))
    pairs = [(_random_text(rng), x) for x in items]
    return OrderedDict(pairs[::-1]) if kind == 5 else dict(pairs)


def test_canonical_json_on_generated_payloads():
    rng = random.Random(36)
    for _ in range(2000):
        payload = _random_payload(rng, 4)
        assert cli._canonical_json(payload) == REFERENCE_JSON(payload)
    for payload in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], {}], _Pair((), {})):
        assert cli._canonical_json(payload) == REFERENCE_JSON(payload)


def test_canonical_json_refuses_a_key_that_is_not_a_str():
    # json.dumps would write these keys as strings; no payload has one
    for payload in ({1: 0}, {"a": [{None: 0}]}, {True: 0}, {1.5: 0}):
        with pytest.raises(TypeError, match="keys must be str"):
            cli._canonical_json(payload)

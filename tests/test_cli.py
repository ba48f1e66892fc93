"""End-to-end checks of the command line front end.

Only the JSON mode is parsed; text mode is checked for exit status
alone.  Every JSON payload is validated against schema/output.json.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from periods import cli, kummer
from periods.frobenius import EllipticCurveW, FrobeniusMatrix, charpoly_certificate
from periods.gamma import check_reflection, check_translation
from periods.kummer import KummerData, check_frobenius_invariance, period_vector_kummer
from periods.padic import PadicElement, iwasawa_log, make_padic, residual_valuation

from oracles import kummer_weight_matrix, perturbed_invariance

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


def test_text_mode_runs():
    code, out = run_cli(["bound", "--case", "legendre"])
    assert code == 0
    assert out
    code, out = run_cli(["kummer", "--a", "2/3", "--p", "5", "--prec", "8"])
    assert code == 0
    assert out


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
    right = kummer.KummerData.log_twist.func
    monkeypatch.setattr(kummer.KummerData, "log_twist", property(lambda d: right(d) + d.p**3))
    code, payload = run_json(["kummer", "--a", "2/3", "--p", "5", "--prec", "8"])
    assert code == 1 and payload["ok"] is False
    assert payload["result"]["invariance_residual_valuation"] == 3


def test_mixed_solves_kummer_system(tmp_path):
    data = KummerData(Fraction(2), 5, 8)
    m = kummer_weight_matrix(data)
    doc = {
        "p": 5,
        "precision": 8,
        "weights": list(m.weights),
        "entries": [[e.to_json() for e in row] for row in m.entries],
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
    want = period_vector_kummer(data)[0]
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
    assert names == sorted(names)


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
# the reason a refused rational must name, whether argparse or execute reports it
_REASONS = {"1e": "exponent notation in '1e", "1/0": "zero denominator in '1/0'"}


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
    for bad, reason in _REASONS.items():
        if bad in command:
            assert reason in payload["error"], payload
    assert time.perf_counter() - start < 1


def test_malformed_mixed_files_exit_2(tmp_path):
    data = KummerData(Fraction(2), 5, 8)
    m = kummer_weight_matrix(data)
    good = {
        "p": 5,
        "precision": 8,
        "weights": list(m.weights),
        "entries": [[e.to_json() for e in row] for row in m.entries],
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
        assert cli._load_cell(5, x.to_json(), 8) == x


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
    monkeypatch.setattr(cli, "iwasawa_log", counted)
    code, _ = run_json(["kummer", "--a", "2/3", "--p", "13", "--prec", "40"])
    assert code == 0 and len(calls) == 1
    calls.clear()
    # four data, each with its own L and one direct log(a) to compare with
    code, _ = run_json(["selftest", "--prec", "6"])
    assert code == 0 and len(calls) == 8


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
        data = KummerData(a, p, 10)
        assert _is_residual(check_frobenius_invariance(data)), (a, p)
        perturbed = perturbed_invariance(data, 3)
        assert _is_residual(perturbed), (a, p)
        assert perturbed == data.log_twist.val + 3, (a, p)
    curve = EllipticCurveW((1, 1, 0, 1), 5, 4)
    cert = charpoly_certificate(cli.kedlaya_frobenius(curve), -3)
    assert type(cert.trace_valuation) is int and type(cert.det_valuation) is int
    # an exactly-zero trace against a_p = 0 gives inf; det - p does not vanish
    zero = PadicElement(5, None, 0, 0)
    exact = FrobeniusMatrix(entries=((zero, zero), (zero, zero)), curve=curve)
    cert = charpoly_certificate(exact, 0)
    assert (cert.trace_valuation, cert.det_valuation, cert.ok) == (math.inf, 1, False)


@pytest.mark.parametrize(
    "argv, field, source",
    [
        (["gk", "--p", "7", "--a", "2", "--prec", "12"],
         "residual_pi_valuation", "gross_koblitz_residual"),
        (["kummer", "--a", "2/3", "--p", "5", "--prec", "12"],
         "invariance_residual_valuation", "check_frobenius_invariance"),
        (["hyper", "--p", "7", "--lambda0", "2", "--e", "3", "--order", "12",
          "--prec", "12", "--at", "9"],
         "det_residual_valuation", "residual_valuation"),
    ],
)
def test_json_residual_is_null_exactly_when_inf(argv, field, source, monkeypatch):
    seen = []
    real = getattr(cli, source)

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(cli, source, spy)
    _, payload = run_json(argv)
    assert type(seen[-1]) is int and payload["result"][field] == seen[-1]
    monkeypatch.setattr(cli, source, lambda *args: math.inf)
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
        lambda *args: real(*args)._replace(trace_valuation=math.inf, det_valuation=math.inf),
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
    "selftest --prec 10 --seed 0": (0, "0083c601e960c832af21c751102f0be36673bcf1900536aa6fc0424df8151bc7"),
    # exit 2 until p^N was no longer capped at 10^7; checked against the
    # product scan and by translation and reflection before it was frozen
    "gamma --p 101 --x 1/2 --prec 4": (0, "2b4029dde023d10ccbb23dfb901acd6a634924d9ad6e99fea0d98681fc9f254b"),
    # over the work budget of the Gamma_p constants
    "gamma --p 3 --x 1/2 --prec 100000000": (2, "04d5c1c27946f101635ec58b4cf4e6a3a789ab63ee07a12d69ef9233a12b2449"),
    # the discriminant of x^3 - 2x + 1 is 5
    "frob --f x^3-2*x+1 --p 5 --prec 4": (2, "0a55db692dcfd9c278a25c123a3e077c6939db96071c5d54a5b3ccb068353a0d"),
}

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
def test_golden_json_output(command, tmp_path):
    (tmp_path / "phi.json").write_text(json.dumps(README_PHI))
    (tmp_path / "v0.json").write_text(json.dumps([1]))
    argv = [str(tmp_path / t) if t.endswith(".json") else t for t in command.split()]
    code, out = run_cli(argv + ["--json"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]


# sha256 prefix over --prec 1..20 of the exit code and the sha256 of the
# selftest --json stdout, per seed; frozen before the selftest rows were
# built by one helper
SELFTEST_DIGESTS = {
    0: "3b86ab5154d71fdd",
    1: "a282e0f5f2a12b46",
    2: "772228477005f29c",
}


@pytest.mark.parametrize("seed", sorted(SELFTEST_DIGESTS))
def test_selftest_frozen_digests(seed):
    h = hashlib.sha256()
    for n in range(1, 21):
        code, out = run_cli(["selftest", "--prec", str(n), "--seed", str(seed), "--json"])
        h.update(("%d %s" % (code, hashlib.sha256(out.encode()).hexdigest())).encode())
    assert h.hexdigest()[:16] == SELFTEST_DIGESTS[seed]

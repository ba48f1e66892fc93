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
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from periods import cli
from periods.kummer import KummerData, kummer_weight_matrix, period_vector_kummer
from periods.padic import PadicElement

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
    for bad in ("x^2+1", "x^3+y", "2*x^3", "x^4+x^3", ""):
        with pytest.raises(ValueError):
            cli._parse_cubic(bad)


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


def test_config_errors_exit_2():
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

    # cells that to_json never writes: digits outside [0, p), a val that is
    # not an int, a zero leading digit, rel_prec other than the digit count
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


def test_mixed_cells_written_by_to_json_load():
    for x in (PadicElement(5, 2, 13, 3), PadicElement(5, -1, 1, 1),
              PadicElement(5, 4, 0, 0), PadicElement(5, None, 0, 0)):
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
    with pytest.raises(SystemExit) as exc:
        run_cli(["bound", "--case", "no-such-case"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--p", "5", "--x=-5/4", "--prec", "3"],
        ["kummer", "--a=-3/2", "--p", "5", "--prec", "4"],
        ["hyper", "--p", "7", "--lambda0=-1/2", "--e", "3", "--order", "12",
         "--prec", "8", "--at=-15/2"],
    ],
)
def test_negative_rationals_as_separate_tokens(argv):
    spaced = [part for token in argv for part in token.split("=")]
    code, out = run_cli(argv + ["--json"])
    assert code == 0
    assert run_cli(spaced + ["--json"]) == (code, out)


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
    # over PERIODS_PRECISION_CAP: 101^4 > 10^7
    "gamma --p 101 --x 1/2 --prec 4": (2, "261aa5a82c4f9414fd5c3326d1df9ce5a7598fde7c7f6bb08342e65345cb7ce0"),
    # the discriminant of x^3 - 2x + 1 is 5
    "frob --f x^3-2*x+1 --p 5 --prec 4": (2, "0a55db692dcfd9c278a25c123a3e077c6939db96071c5d54a5b3ccb068353a0d"),
}

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

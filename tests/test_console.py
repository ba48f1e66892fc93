"""Command-line requests, each run as a `python -m periods.cli` process.

A row of REQUESTS is a request, the exit code it must give within 10 s, its
input files and an optional check of its stdout.  A file is a JSON document,
or a function of a random.Random seeded by its row that returns its text.
"""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import README_PHI

ROOT = Path(__file__).resolve().parents[1]
BIG = str(10**4299)  # the 4300 digits int() reads by default; "10**4299" in a row


def canonical(out):  # the json module's own indent=2 text
    return out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def brief(out):  # no long argument or input repeated
    return len(out) < 1024


def digit_dict(count):
    # a corner cell of `count` digits, leading 1 and the rest in [0, 5): always valid
    def text(rng):
        d = [1] + [rng.randrange(5) for _ in range(count - 1)]
        return json.dumps({"p": 5, "precision": 10000, "weights": [-1, 0],
                           "entries": [[{"val": 1, "digits": d, "rel_prec": count}, 1], [0, 1]]})
    return text


def side_400(rng):
    n = 400
    rows = [[rng.randrange(1, 10**6) for _ in range(n)] for _ in range(n - 1)]
    return json.dumps({"p": 5, "precision": 20, "weights": [0] + [-1] * (n - 1),
                       "entries": [[1] + [0] * (n - 1)] + rows})


V0 = {"v0.json": [1]}
FROB = "frob --f x^3+x+1 --p "
HYPER = "hyper --p 7 --lambda0 3 --e 2 --order "

REQUESTS = [  # (request, exit code, input files, stdout check)
    ("selftest --prec 100000 --json", 2, {}, None),
    ("gk --p 101 --a 5 --prec 8 --json", 0, {}, None),
    ("gamma --p 101 --x 1/2 --prec 4 --json", 0, {}, None),
    ("gamma --p 3 --x 1/2 --prec 100000000 --json", 2, {}, None),
    ("gamma --p 7 --x 1e5000 --prec 2 --json", 2, {}, None),
    ("kummer --a 2/3 --p 13 --prec 1500 --json", 0, {}, canonical),
    ("kummer --a 2/3 --p 100000007 --prec 5 --json", 0, {}, None),
] + [(FROB + args + " --json", 0, {}, None) for args in (
    "29 --prec 4", "101 --prec 4", "1009 --prec 2", "10007 --prec 2",
    "10007 --prec 3",  # the largest plan the step budget admits at p = 10007
    "101 --prec 4 --selftest", "10007 --prec 2 --selftest",
    "5 --prec 10 --selftest")] + [  # at p = 5, n = 10 the shifted model reuses the plan
    (FROB + "100003 --prec 2 --json", 2, {}, None),
    (FROB + "7 --prec 10**4299 --json", 2, {}, brief),
    ("cm --d 10007 --p 13 --prec 3 --json", 0, {}, canonical),
    ("cm --d 1000000000000000003 --p 5 --prec 2 --json", 2, {}, None),
    (HYPER + "60 --prec 120 --at 24 --json", 0, {}, None),
    (HYPER + "400 --prec 120 --at 24 --json", 0, {}, None),
    ("hyper --p 3 --lambda0 2 --e 0 --order 28 --prec 24 --at 5 --json", 0, {}, None),
    ("hyper --p 5 --lambda0 2 --e 1 --order 8 --prec 12 --at 3 --json", 2, {}, None),
    ("closure --r 2 --cap 12 --json", 0, {}, None),
    ("closure --r 40 --cap 12 --json", 0, {}, None),
    ("closure --r 4 --cap 12 --json", 0, {}, None),
] + [("bound --case %s --json" % case, 0, {}, None)
     for case in ("cm-ss", "noncm-ss", "noncm-ord", "legendre")] + [
    ("mixed --matrix gap-matrix.json --v0 gap-v0.json --json", 0, {
        "gap-matrix.json": {"p": 5, "precision": 8, "weights": [-2, -1, 0], "entries": [
            ["1/25", {"val": -1000000000, "digits": [1], "rel_prec": 1}, 1], [0, "1/5", 1], [0, 0, 1]]},
        "gap-v0.json": [1]}, None),
    ("mixed --matrix bad-matrix.json --v0 bad-v0.json --json", 2, {
        "bad-matrix.json": {"p": 5, "precision": 8, "weights": [-2, 0], "entries": [["1/5", 1], [0, 1]]},
        "bad-v0.json": [{"val": 0, "digits": 5}]}, None),
    ("mixed --matrix phi.json --v0 v0.json --json", 0, {"phi.json": README_PHI, **V0}, None),
    ("mixed --matrix phi.json --v0 v0.json", 0, {"phi.json": README_PHI, "v0.json": {"values": [1]}}, None),
    ("mixed --matrix nested.json --v0 v0.json --json", 2,
     {"nested.json": lambda rng: "[" * 100000 + "]" * 100000, **V0}, None),
    ("mixed --matrix big-matrix.json --v0 v0.json --json", 2, {"big-matrix.json": side_400, **V0}, None),
    ("mixed --matrix long-matrix.json --v0 v0.json --json", 0, {"long-matrix.json": digit_dict(10**4), **V0}, None),
    ("mixed --matrix longer-matrix.json --v0 v0.json --json", 2,
     {"longer-matrix.json": digit_dict(10**4 + 1), **V0}, None),
    ("mixed --matrix list-matrix.json --v0 v0.json --json", 2, {"list-matrix.json": {
        "p": 5, "precision": 8, "weights": [-1, 0], "entries": [[list(range(100000)), 1], [0, 1]]}, **V0}, brief),
    # a refusal quotes a long int by its first digits and its length
    ("gamma --p 10**4299 --x 1/2 --prec 2 --json", 2, {}, brief),
    ("gamma --p -10**4299 --x 1/2 --prec 2 --json", 2, {}, brief),
    ("gamma --p 3 --x 1/2 --prec 10**4299 --json", 2, {}, brief),
    ("cm --d 10**4299 --p 5 --prec 2 --json", 2, {}, brief),
    ("cm --d -10**4299 --p 5 --prec 2 --json", 2, {}, brief),
    ("cm --d 1 --p 13 --prec 6 --probe -10**4299 --json", 2, {}, brief),
    ("cm --d 1 --p 13 --prec 6 --probe 10**4299 --json", 2, {}, brief),
    ("closure --r 2 --cap 10**4299 --json", 2, {}, brief),
    ("mixed --matrix huge-precision.json --v0 v0.json --json", 2, {"huge-precision.json": {
        "p": 5, "precision": 10**4299, "weights": [-2, 0], "entries": [["1/5", 1], [0, 1]]}, **V0}, brief),
]


@pytest.mark.parametrize("req, code, files, check", REQUESTS, ids=[row[0] for row in REQUESTS])
def test_request(req, code, files, check, tmp_path):
    rng = random.Random(req)
    for name, doc in files.items():
        (tmp_path / name).write_text(doc(rng) if callable(doc) else json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-m", "periods.cli"] + req.replace("10**4299", BIG).split(),
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10)
    assert run.returncode == code, run.stdout[:2000] + run.stderr[-2000:]
    assert check is None or check(run.stdout), run.stdout[:2000]


def test_the_workflow_runs_no_other_request():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert re.findall(r"(?<![\w/.-])periods\b.*", workflow) == [
        "periods selftest --prec 10 --json", "periods selftest --prec 10"]

"""Smoke test of the benchmark harness on a tiny seeded configuration.

    python3 -m pytest -q bench/test_smoke.py

Runs a few cheap requests of every workload through the real worker, with
and without the tracer, and checks the harness's own guarantees: seeded
inputs, independent checks that catch a changed digit, tracing that reaches
names copied by `from .x import y`, and a non-zero exit without the sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "gamma-cold": lambda reqs: sorted(reqs, key=lambda r: int(checks.option(r["argv"], "--p"))
                                      ** int(checks.option(r["argv"], "--prec")))[:3],
    "identities": lambda reqs: [r for r in reqs if r["fn"] != "gross_koblitz_residual"][:6]
    + [r for r in reqs if r["fn"] == "gross_koblitz_residual" and r["p"] == 5][:1],
    "kedlaya": lambda reqs: [r for r in reqs if r["argv"][3:] == ["--p", "5", "--prec", "4"]][:2],
    "cli-small": lambda reqs: reqs[:20],
}


def _tiny_file(workload, seed=7):
    reqs = TINY[workload](workloads.generate(workload, seed, os.path.join(run.OUT, "inputs")))
    run.write_inputs(reqs)
    os.makedirs(os.path.join(ROOT, run.OUT), exist_ok=True)
    path = os.path.join(run.OUT, "smoke-%s.json" % workload)
    with open(os.path.join(ROOT, path), "w") as fh:
        json.dump(reqs, fh)
    return reqs, path


def test_inputs_are_a_function_of_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 3) == workloads.generate(w, 3)
        assert workloads.generate(w, 3) != workloads.generate(w, 4)
    assert len(workloads.generate("kedlaya", 0)) >= run.MIN_SAMPLES


def test_tiny_passes_check_and_trace():
    for w in workloads.WORKLOADS:
        reqs, path = _tiny_file(w)
        verifier = run.Verifier(reqs, None)
        setup, plain = run.run_pass(path)
        assert setup > 0 and plain["wall_s"] > 0
        scales = run.request_scales(plain)
        assert len(scales) == len(reqs) and all(f > 0 for f in scales)
        assert run.setup_scale(plain) > 0
        assert verifier.verify(0, plain) == 0, verifier.failures
        _, traced = run.run_pass(path, trace=True)
        assert verifier.verify("traced", traced) == 0, verifier.failures
        counts = {}
        for r in reqs:
            counts[run.command_of(r)] = counts.get(run.command_of(r), 0) + 1
        layers = tracer.layer_metrics(traced["trace"], counts, traced["wall_s"], plain["wall_s"])
        assert set(layers) == set(tracer.PER_LAYER_UNITS)
        ids = set()
        for sid, parent, request, name, start, end, self_s in traced["spans"]:
            assert end >= start and self_s <= end - start + 1e-9
            assert 0 <= request < len(reqs) and name.split(".")[0] in tracer.LAYERS
            ids.add(sid)
        assert all(s[1] is None or s[1] in ids for s in traced["spans"])
        if w == "kedlaya":
            assert layers["frobenius.kedlaya_calls"] == 2 and layers["gamma.calls"] == 0
        if w == "gamma-cold":
            assert layers["gamma.cold_frac"] == 1.0 and layers["cm.gamma_per_period"] in (0, 1)


def test_checks_catch_a_changed_digit():
    reqs, path = _tiny_file("gamma-cold")
    _, rec = run.run_pass(path)
    payload = json.loads(rec["outputs"][0])
    assert checks.check(reqs[0], 0, rec["outputs"][0]) is None
    digits = payload["result"]["value"]["digits"]
    digits[-1] = (digits[-1] + 1) % payload["result"]["p"]
    assert checks.check(reqs[0], 0, json.dumps(payload)) is not None


def test_tracer_rebinds_imported_copies():
    code = (
        "import sys; sys.path.insert(0, 'bench')\n"
        "import periods.cli, periods.cm, periods.gamma, periods.padic as pd\n"
        "from tracer import Tracer\n"
        "Tracer().install()\n"
        "assert periods.cm.gamma_p is periods.gamma.gamma_p\n"
        "assert periods.cli.gamma_p_at is periods.gamma.gamma_p_at\n"
        "assert periods.gamma.gamma_p.__wrapped__ is not periods.gamma.gamma_p\n"
        "assert pd.PadicElement.__radd__ is not pd.PadicElement.__add__\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)


def test_refuses_to_run_without_the_sources():
    bare = os.path.join(ROOT, run.OUT, "no-source")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""

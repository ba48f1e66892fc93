"""The `periods` benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src`.  NAME is
one of the workloads in bench/workloads.py, or `all` to run each in turn.

A pass runs the workload's seeded request list once in a fresh interpreter
(bench/worker.py).  Passes repeat until S seconds have gone and at least
100 latencies are taken.  Every time is scaled to a reference speed by the
calibration samples the worker takes between requests (request_scales).
wall_s is the median pass, the latency percentiles are taken over every
latency of every pass, and set-up and memory are medians over all spawns.
With --trace 1 one more pass runs with the outside-in tracer installed and
gives the per-layer metrics; the end-to-end numbers never come from it.

Every output is checked by bench/checks.py outside the timed region, and
for the default seed also against bench/digests.json.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A record of the run goes to bench/out/.
"""

import argparse
import hashlib
import json
import math
import operator
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join("bench", "out")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 0
MIN_SAMPLES = 100  # so that ten latencies lie beyond the 90th percentile
SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer properties that keep each workload on the layer it isolates
GUARDS = {
    "gamma-cold": (("gamma.cold_frac", ">=", 0.9), ("frobenius.kedlaya_calls", "==", 0)),
    "identities": (("gamma.cold_frac", "<=", 0.05), ("frobenius.kedlaya_calls", "==", 0)),
    "kedlaya": (("gamma.calls", "==", 0), ("cyclotomic.zeta_calls", "==", 0)),
    "cli-small": (),
}
# Times are reported at the speed where the worker's calibration unit takes
# CAL_REFERENCE_S: each time is multiplied by CAL_REFERENCE_S over the
# calibration samples taken near it (request_scales).  The shared host this
# runs on changes speed by up to 1.8 times, for seconds to minutes at a
# time, which moved whole runs.  The unit is integer work that does not
# touch `periods`, so a change to the program moves the scaled times as much
# as the raw ones.  The raw figures go to the run record too.
CAL_REFERENCE_S = 0.005
CAL_WINDOW_S = 1.0

COMPARE = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


class BenchError(Exception):
    """The harness could not run a pass: no result is printed."""


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with a q share at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def request_scales(rec):
    """Each request's factor to the reference speed.

    It is CAL_REFERENCE_S over the median of the calibration samples taken
    within CAL_WINDOW_S of the request, or of the whole pass if none is.
    """
    at, cal = rec["calibration_at_s"], rec["calibration_s"]
    scales = []
    for t0, lat in zip(rec["starts_s"], rec["latencies_s"]):
        near = [c for t, c in zip(at, cal) if t0 - CAL_WINDOW_S <= t <= t0 + lat + CAL_WINDOW_S]
        scales.append(CAL_REFERENCE_S / statistics.median(near or cal))
    return scales


def setup_scale(rec):
    """The factor for a pass's set-up: from the samples taken before its first request."""
    first = rec["starts_s"][0] if rec["starts_s"] else math.inf
    return CAL_REFERENCE_S / statistics.median(
        [c for t, c in zip(rec["calibration_at_s"], rec["calibration_s"]) if t < first])


def end_to_end(passes, setups, scaled):
    """The end-to-end metrics of the untraced passes, raw or scaled to the reference speed."""
    walls, latencies = [], []
    for p in passes:
        scales = request_scales(p) if scaled else [1.0] * len(p["latencies_s"])
        lat = [x * f for x, f in zip(p["latencies_s"], scales)]
        walls.append(sum(lat))
        latencies.extend(lat)
    return {
        "setup_s": statistics.median(x * (f if scaled else 1.0) for x, f in setups),
        "wall_s": statistics.median(walls),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def run_pass(request_file, trace=False):
    """Spawn one worker; returns (set-up seconds, the worker's record)."""
    cmd = [sys.executable, os.path.join("bench", "worker.py"), request_file]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    # unbuffered, so that readline takes no more than the ready line and
    # communicate sees the rest
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != b"ready\n" or proc.returncode != 0:
        raise BenchError("worker failed (exit %s) on %s" % (proc.returncode, request_file))
    return setup, json.loads(out.splitlines()[-1])


def write_inputs(requests):
    for req in requests:
        for path, doc in req.get("files", {}).items():
            full = os.path.join(ROOT, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as fh:
                json.dump(doc, fh)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests():
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class Verifier:
    """Checks each request once, then holds later passes to the same bytes."""

    def __init__(self, requests, digests):
        self.requests = requests
        self.digests = digests
        self.seen = [None] * len(requests)
        self.failures = []

    def verify(self, label, record):
        failed = 0
        for i, req in enumerate(self.requests):
            code, out, err = record["codes"][i], record["outputs"][i], record["errors"][i]
            digest = sha256(out)
            if err is not None:
                reason = err
            elif self.seen[i] is None:
                reason = checks.check(req, code, out)
                if reason is None and self.digests and self.digests[i] != digest:
                    reason = "output differs from the committed digest"
                if reason is None:
                    self.seen[i] = digest
            elif self.seen[i] != digest:
                reason = "output differs from the first pass"
            else:
                reason = None
            if reason is not None:
                failed += 1
                self.failures.append({"pass": label, "request": i, "input": req.get("argv", req),
                                      "reason": reason})
        return failed


def git_revision():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def command_of(req):
    return req["argv"][0] if req["kind"] == "cli" else req["fn"]


def reference_figures(workload, requests, latencies):
    """Figures comparable with the ROADMAP baseline table, from per-request ms."""
    first = {}
    out = {}
    if workload == "gamma-cold":
        per = []
        for req, lat in zip(requests, latencies):
            argv = req["argv"]
            pair = (int(argv[argv.index("--p") + 1]), int(argv[argv.index("--prec") + 1]))
            if argv[0] == "gamma" and pair not in first:
                per.append(lat * 1e3 / pair[0] ** pair[1])
            first.setdefault(pair, True)
        out["cold_gamma_us_per_pN_median"] = statistics.median(per)
    elif workload == "kedlaya":
        by_p = {}
        for req, lat in zip(requests, latencies):
            argv = req["argv"]
            if argv[argv.index("--prec") + 1] == "4" and "--selftest" not in argv:
                by_p.setdefault(argv[argv.index("--p") + 1], []).append(lat / 1e3)
        out["frob_n4_s_median_by_p"] = {p: statistics.median(v) for p, v in sorted(by_p.items())}
    return out


def prepare(workload, seed):
    """Generate the request list and write it, and its input files, under bench/out."""
    requests = workloads.generate(workload, seed, os.path.join(OUT, "inputs"))
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    write_inputs(requests)
    request_file = os.path.join(OUT, "requests-%s-seed%d.json" % (workload, seed))
    with open(os.path.join(ROOT, request_file), "w") as fh:
        json.dump(requests, fh)
    return requests, request_file


def run_workload(workload, seed, seconds, trace):
    requests, request_file = prepare(workload, seed)
    digests = load_digests().get(workload) if seed == DEFAULT_SEED else None
    verifier = Verifier(requests, digests)

    passes = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        setup, rec = run_pass(request_file)
        attempted += len(requests)
        failed += verifier.verify(len(passes), rec)
        passes.append({"setup_s": setup, "wall_s": rec["wall_s"], "peak_rss_mb": rec["peak_rss_mb"],
                       "starts_s": rec["starts_s"], "latencies_s": rec["latencies_s"],
                       "calibration_at_s": rec["calibration_at_s"],
                       "calibration_s": rec["calibration_s"]})
        if (time.perf_counter() - start >= seconds
                and len(passes) * len(requests) >= MIN_SAMPLES):
            break
    setups = [(p["setup_s"], setup_scale(p)) for p in passes]
    empty = os.path.join(OUT, "requests-empty.json")
    with open(os.path.join(ROOT, empty), "w") as fh:
        json.dump([], fh)
    while len(setups) < SETUP_SAMPLES:
        setup, rec = run_pass(empty)
        setups.append((setup, setup_scale(rec)))

    raw = end_to_end(passes, setups, scaled=False)
    e2e = end_to_end(passes, setups, scaled=True)
    samples = len(passes) * len(requests)
    record = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "requests_per_pass": len(requests),
        "passes": passes,
        "setup_samples_s": [x for x, _ in setups],
        "setup_scales": [f for _, f in setups],
        "latency_samples": samples,
        "percentiles": "p50 and p90 by nearest rank over all %d scaled latencies of the "
                       "untraced passes" % samples,
        "calibration_reference_s": CAL_REFERENCE_S,
        "metrics": e2e,
        "raw_metrics": raw,
        "reference": reference_figures(
            workload, requests, [min(p["latencies_s"][i] * 1e3 for p in passes)
                                 for i in range(len(requests))]),
    }
    guards_ok = True
    if trace:
        _, rec = run_pass(request_file, trace=True)
        attempted += len(requests)
        failed += verifier.verify("traced", rec)
        counts = {}
        for req in requests:
            counts[command_of(req)] = counts.get(command_of(req), 0) + 1
        traced_wall = sum(lat * f for lat, f in zip(rec["latencies_s"], request_scales(rec)))
        layers = tracer.layer_metrics(rec["trace"], counts, traced_wall, e2e["wall_s"])
        record["per_layer"] = layers
        record["trace"] = rec["trace"]
        record["guards"] = []
        for name, op, bound in GUARDS[workload]:
            value = layers[name]
            ok = COMPARE[op](value, bound)
            record["guards"].append({"metric": name, "rule": "%s %s" % (op, bound), "value": value,
                                     "ok": ok})
            guards_ok = guards_ok and ok
        spans = os.path.join(ROOT, OUT, "spans-%s-seed%d.jsonl" % (workload, seed))
        with open(spans, "w") as fh:
            for s in rec["spans"]:
                fh.write(json.dumps(dict(zip(("id", "parent", "request", "name", "start", "end",
                                              "self_s"), s))) + "\n")
    record.update(attempted=attempted, failed=failed, fail_frac=failed / attempted,
                  failures=verifier.failures[:50], correct=failed == 0 and guards_ok)
    with open(os.path.join(ROOT, OUT, "%s-seed%d-trace%d.json" % (workload, seed, int(trace))),
              "w") as fh:
        json.dump(record, fh)
    return record


def print_table(record):
    w = record["workload"]
    print("== %s (seed %d, %d passes of %d requests; %s)" % (
        w, record["seed"], len(record["passes"]), record["requests_per_pass"], record["why"]))
    for name, unit in E2E_UNITS.items():
        note = ""
        if name.startswith("latency"):
            note = "  (%d samples)" % record["latency_samples"]
        elif name == "setup_s":
            note = "  (median of %d)" % len(record["setup_samples_s"])
        elif name in ("wall_s", "peak_rss_mb"):
            note = "  (median of %d passes)" % len(record["passes"])
        print("  %-34s %14.6g %-12s%s" % (name, record["metrics"][name], unit, note))
    print("  %-34s %14.6g %-12s  (%d of %d requests)" % (
        "fail_frac", record["fail_frac"], "frac", record["failed"], record["attempted"]))
    for name, value in record.get("per_layer", {}).items():
        print("  %-34s %14.6g %s" % (name, value, tracer.PER_LAYER_UNITS[name]))
    for g in record.get("guards", []):
        print("  guard %-28s %14.6g %s  %s" % (g["metric"], g["value"], g["rule"],
                                                "ok" if g["ok"] else "VIOLATED"))
    for f in record["failures"][:10]:
        print("  FAILED pass %s request %d %s: %s" % (f["pass"], f["request"], f["input"],
                                                      f["reason"]))


def result_line(records, trace):
    metrics = {}
    for rec in records:
        prefix = rec["workload"] + "." if len(records) > 1 else ""
        if trace:
            for name, value in rec["per_layer"].items():
                metrics[prefix + name] = {"value": value, "unit": tracer.PER_LAYER_UNITS[name]}
        else:
            for name, unit in E2E_UNITS.items():
                metrics[prefix + name] = {"value": rec["metrics"][name], "unit": unit}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def write_digests(workload):
    """Store the output digests of one checked pass at the default seed."""
    requests, request_file = prepare(workload, DEFAULT_SEED)
    _, rec = run_pass(request_file)
    verifier = Verifier(requests, None)
    if verifier.verify(0, rec):
        raise BenchError("refusing to record digests of failing outputs: %s" % verifier.failures[:3])
    table = load_digests()
    table[workload] = [sha256(out) for out in rec["outputs"]]
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record bench/digests.json for the default seed, then exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "periods", "cli.py")):
        print("run.py: no src/periods in %s; run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.write_digests:
            for name in names:
                write_digests(name)
            return 0
        records = []
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            print_table(records[-1])
        if len(records) > 1:
            path = os.path.join(ROOT, OUT, "all-seed%d-trace%d.json" % (args.seed, args.trace))
            with open(path, "w") as fh:
                fh.write("[\n%s\n]\n" % ",\n".join(json.dumps(r) for r in records))
    except BenchError as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result_line(records, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

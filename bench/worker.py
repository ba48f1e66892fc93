"""One benchmark pass in a fresh interpreter.

Run as `python3 bench/worker.py REQUESTS.json [--trace]` from the checkout
root with `src` on PYTHONPATH.  The worker imports `periods.cli`, prints
`ready` (the harness times set-up up to that line), then sends the requests
one after another from this one thread: a closed loop with a single client.
When the pass ends it prints one JSON line with each request's latency, exit
code and output bytes, the pass wall time (the sum of the latencies), the
peak resident memory, the calibration samples and, with --trace, the tracer's accumulators and spans.

Calibration: CAL_AT_START times after `ready`, before a request once at least
CAL_EVERY_S has gone since the last sample, and once after the last request,
the worker times one fixed unit of pure-Python integer work that does not
touch `periods`.  The harness scales its times by these samples, so
that the shared host's changes of speed from one run to the next cancel out.
Samples are taken between requests and never inside a request's latency.
"""

import io
import json
import math
import sys
import time
from contextlib import redirect_stdout

import periods.cli
import periods.cyclotomic
import periods.gamma
import periods.padic


CAL_EVERY_S = 0.2
CAL_AT_START = 3
CAL_MODULUS = 7 ** 60


def _calibration_unit():
    """Seconds taken by a fixed unit of integer work, about 5 ms.

    Half is a loop of small modular products, as in the p-adic scalar
    arithmetic; half multiplies out long runs of integers into one large
    product, as a Gamma table build does.  Together they slow down in the
    host's slow periods about as much as the program does.
    """
    t0 = time.perf_counter()
    x = 3
    for i in range(5000):
        x = (x * x + i) % CAL_MODULUS
    for start in range(1, 5000, 1250):
        x += math.prod(j for j in range(start, start + 1250) if j % 7) % CAL_MODULUS
    return time.perf_counter() - t0


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _valuation(v):
    return "inf" if v == math.inf else v


def _run_lib(req):
    fn = req["fn"]
    if fn == "gross_koblitz_residual":
        result = _valuation(periods.cyclotomic.gross_koblitz_residual(req["p"], req["a"], req["m"]))
    else:
        x = periods.padic.make_padic(req["p"], req["x"], req["n"])
        result = getattr(periods.gamma, fn)(x, req["n"])
        result = [result[0], _valuation(result[1])] if isinstance(result, tuple) else _valuation(result)
    return 0, _canonical({"request": req, "result": result})


def _peak_rss_mb():
    # VmHWM is the high-water mark of this process's own address space;
    # getrusage's ru_maxrss would also count the harness, whose peak Linux
    # carries across exec
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _run_cli(req):
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = periods.cli.main(req["argv"] + ["--json"])
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
    return code, buf.getvalue()


def main():
    print("ready", flush=True)
    with open(sys.argv[1]) as fh:
        requests = json.load(fh)
    tracer = None
    if "--trace" in sys.argv[2:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    starts, latencies, codes, outputs, errors = [], [], [], [], []
    origin = time.perf_counter()
    cal = []  # (start, seconds) of each calibration sample, from origin

    def calibrate():
        cal.append((time.perf_counter() - origin, _calibration_unit()))

    for _ in range(CAL_AT_START):
        calibrate()
    for i, req in enumerate(requests):
        if time.perf_counter() - origin - sum(cal[-1]) >= CAL_EVERY_S:
            calibrate()
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        starts.append(t0 - origin)
        try:
            code, out = (_run_lib if req["kind"] == "lib" else _run_cli)(req)
            err = None
        except Exception as e:  # a traceback is a failed request, not a failed pass
            code, out, err = None, "", "%s: %s" % (type(e).__name__, e)
        latencies.append(time.perf_counter() - t0)
        codes.append(code)
        outputs.append(out)
        errors.append(err)
    calibrate()
    record = {
        "wall_s": sum(latencies),
        "starts_s": starts,
        "latencies_s": latencies,
        "codes": codes,
        "outputs": outputs,
        "errors": errors,
        "peak_rss_mb": _peak_rss_mb(),
        "calibration_at_s": [at for at, _ in cal],
        "calibration_s": [seconds for _, seconds in cal],
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        record["spans"] = tracer.spans
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()

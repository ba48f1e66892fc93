"""Outside-in tracing of the `periods` modules.

Tracer.install replaces, from outside the package, the public functions of
every `periods` module and the operations of its classes with timing
wrappers.  The package itself is not edited and knows nothing of the tracer.

Two kinds of wrapper share one frame stack:

  * span wrappers, for the public module-level functions of every layer but
    `padic`: each call records a span (name, start, end, parent span,
    request id, self time) kept in memory until the run ends;
  * op wrappers, for the `padic` functions and for the arithmetic and public
    methods of the package's classes: counted and timed into accumulators,
    with no span per call, because one Kedlaya matrix makes millions of
    PadicElement operations.

Self time is a frame's duration minus the time its wrapped children cover.
A call is a boundary call when its caller frame belongs to another layer.

`PadicElement` predicates and accessors (is_exact_zero, abs_precision, ...)
are left unwrapped: they cost less than a wrapper, and their time counts as
self time of the layer that calls them.
"""

import functools
import importlib
import inspect
from fractions import Fraction
from time import perf_counter

LAYERS = ("padic", "arith", "gamma", "cyclotomic", "cm", "kummer",
          "hypergeom", "frobenius", "tannaka", "cli")

ARITH_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__")
DIV_OPS = ("__truediv__", "__rtruediv__")

HARNESS = "bench"


class Stat:
    """Accumulator for one wrapped callable."""

    __slots__ = ("calls", "self_s", "incl_s", "active", "callers", "int_operand")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0  # outermost calls only, so recursion is not counted twice
        self.active = 0
        self.callers = {}  # caller layer -> boundary calls from it
        self.int_operand = 0  # boundary calls with an int or Fraction operand

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__ if k != "active"}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []  # (id, parent id, request, name, start, end, self_s)
        self.request = None
        self.gamma_seen = set()
        self.gamma_cold = [0, 0.0]  # calls, seconds
        self.gamma_warm = [0, 0.0]
        # one frame per active wrapped call: [layer, child seconds, span id]
        self.stack = [[HARNESS, 0.0, None]]
        self._next_id = 0

    # -- wrappers -------------------------------------------------------------

    def op_wrapper(self, layer, name, fn):
        """Count and time calls to fn into its Stat, with no span.

        incl_s adds every call: the ops whose inclusive time is reported
        (iwasawa_log, exp_p) do not recurse.
        """
        stack = self.stack
        stat = self.stats.setdefault(name, Stat())
        callers = stat.callers
        clock = perf_counter
        binary = name.rsplit(".", 1)[-1] in ARITH_OPS and not name.endswith("__neg__")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                stat.calls += 1
                stat.self_s += dt - frame[1]
                stat.incl_s += dt
                caller = parent[0]
                if caller != layer:
                    callers[caller] = callers.get(caller, 0) + 1
                    if binary and type(args[1]) in (int, Fraction):
                        stat.int_operand += 1

        return wrapper

    def span_wrapper(self, layer, name, fn, classify=None):
        """Time calls to fn into its Stat and record one span per call."""
        tracer = self
        stack = self.stack
        stat = self.stats.setdefault(name, Stat())
        callers = stat.callers
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = classify(*args, **kwargs) if classify is not None else None
            parent = stack[-1]
            tracer._next_id += 1
            sid = tracer._next_id
            frame = [layer, 0.0, sid]
            stack.append(frame)
            stat.active += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stat.active -= 1
                parent[1] += dt
                stat.calls += 1
                stat.self_s += dt - frame[1]
                if stat.active == 0:
                    stat.incl_s += dt
                if parent[0] != layer:
                    callers[parent[0]] = callers.get(parent[0], 0) + 1
                tracer.spans.append((sid, parent[2], tracer.request, name, t0, t1, dt - frame[1]))
                if tag is not None:
                    tag[0] += 1
                    tag[1] += dt

        return wrapper

    def _gamma_classify(self, x, n=None):
        # cold = first call at this (p, N) in the process, whatever the
        # implementation caches; N as gamma_p itself settles it
        try:
            ap = x.abs_precision()
            key = (x.p, ap if n is None else (n if ap is None else min(n, ap)))
        except AttributeError:
            return None
        if key in self.gamma_seen:
            return self.gamma_warm
        self.gamma_seen.add(key)
        return self.gamma_cold

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every layer of the imported `periods` package in place."""
        modules = {layer: importlib.import_module("periods." + layer) for layer in LAYERS}
        replaced = {}  # original module-level function -> its wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if inspect.isfunction(obj):
                    if layer == "padic":
                        wrapped = self.op_wrapper(layer, name, obj)
                    elif name == "gamma.gamma_p":
                        wrapped = self.span_wrapper(layer, name, obj, self._gamma_classify)
                    else:
                        wrapped = self.span_wrapper(layer, name, obj)
                    replaced[obj] = wrapped
                elif inspect.isclass(obj):
                    self._wrap_class(layer, name, obj)
        # rebind every copy made by `from .x import y`, found by identity
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, layer, cname, cls):
        for attr, raw in list(vars(cls).items()):
            if attr not in ARITH_OPS and (attr.startswith("_") or layer == "padic"):
                continue
            name = "%s.%s" % (cname, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.op_wrapper(layer, name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self.op_wrapper(layer, name, raw)
            else:
                continue
            setattr(cls, attr, wrapped)

    # -- output ---------------------------------------------------------------

    def summary(self):
        return {
            "stats": {k: v.as_dict() for k, v in self.stats.items() if v.calls},
            "gamma_cold": self.gamma_cold,
            "gamma_warm": self.gamma_warm,
            "span_count": len(self.spans),
        }


def layer_metrics(summary, requests_by_command, traced_wall, untraced_wall):
    """Per-layer metrics from one traced pass.

    requests_by_command counts the pass's requests per CLI subcommand (or
    library function), which is the denominator of the per-matrix and
    per-period ratios.
    """
    stats = summary["stats"]

    def st(name, field="calls"):
        return stats.get(name, {}).get(field, 0)

    def boundary(name, caller=None):
        callers = stats.get(name, {}).get("callers", {})
        return callers.get(caller, 0) if caller else sum(callers.values())

    def layer_sum(layer, field):
        return sum(v[field] for k, v in stats.items() if k.split(".", 1)[0] == layer)

    def layer_calls(layer):
        return sum(boundary(k) for k in stats if k.split(".", 1)[0] == layer)

    def ratio(a, b):
        return a / b if b else 0.0

    padic_ops = [k for k in stats if k.startswith("padic.PadicElement.")
                 and k.rsplit(".", 1)[-1] in ARITH_OPS]
    cold_calls, cold_s = summary["gamma_cold"]
    warm_calls, warm_s = summary["gamma_warm"]
    gamma_calls = st("gamma.gamma_p")
    matrices = requests_by_command.get("frob", 0)
    gk_calls = st("cyclotomic.gross_koblitz_residual")
    periods_made = st("cm.cm_period_unramified") + st("cm.cm_period_ramified_p3")
    from_frob = sum(boundary(k, "frobenius") for k in padic_ops)
    m = {
        "gamma.calls": gamma_calls,
        "gamma.cold_calls": cold_calls,
        "gamma.cold_frac": ratio(cold_calls, gamma_calls),
        "gamma.cold_s": cold_s,
        "gamma.warm_s": warm_s,
        "cyclotomic.zeta_calls": st("cyclotomic.zeta_p"),
        "cyclotomic.zeta_s": st("cyclotomic.zeta_p", "incl_s"),
        "cyclotomic.gauss_sum_calls": st("cyclotomic.gauss_sum"),
        "cyclotomic.gauss_sum_s": st("cyclotomic.gauss_sum", "incl_s"),
        "cyclotomic.gk_calls": gk_calls,
        "cyclotomic.gauss_sums_per_gk": ratio(st("cyclotomic.gauss_sum"), gk_calls),
        "cyclotomic.eis_mul": st("cyclotomic.EisensteinElement.__mul__")
        + st("cyclotomic.EisensteinElement.__rmul__"),
        "cyclotomic.self_s": layer_sum("cyclotomic", "self_s"),
        "frobenius.kedlaya_calls": st("frobenius.kedlaya_frobenius"),
        "frobenius.kedlaya_per_matrix": ratio(st("frobenius.kedlaya_frobenius"), matrices),
        "frobenius.kedlaya_s": st("frobenius.kedlaya_frobenius", "incl_s"),
        "frobenius.padic_ops_per_matrix": ratio(from_frob, matrices),
        "frobenius.count_points_s": st("frobenius.count_points", "incl_s"),
        "frobenius.self_s": layer_sum("frobenius", "self_s"),
        "padic.ops": sum(boundary(k) for k in padic_ops),
        "padic.int_coerce": sum(st(k, "int_operand") for k in padic_ops),
        "padic.div": sum(boundary("padic.PadicElement." + op) for op in DIV_OPS),
        "padic.self_s": layer_sum("padic", "self_s"),
        "padic.teichmuller_calls": st("padic.teichmuller"),
        "padic.log_exp_s": st("padic.iwasawa_log", "incl_s") + st("padic.exp_p", "incl_s"),
        "cm.calls": layer_calls("cm"),
        "cm.gamma_per_period": ratio(boundary("gamma.gamma_p", "cm"), periods_made),
        "cm.self_s": layer_sum("cm", "self_s"),
        "arith.calls": layer_calls("arith"),
        "arith.self_s": layer_sum("arith", "self_s"),
        "kummer.calls": layer_calls("kummer"),
        "kummer.self_s": layer_sum("kummer", "self_s"),
        "hypergeom.calls": layer_calls("hypergeom"),
        "hypergeom.self_s": layer_sum("hypergeom", "self_s"),
        "tannaka.calls": layer_calls("tannaka"),
        "tannaka.self_s": layer_sum("tannaka", "self_s"),
        "cli.requests": st("cli.main"),
        "cli.parse_render_s": st("cli.main", "self_s"),
        "cli.handler_s": st("cli.execute", "self_s"),
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
    }
    return m


# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "gamma.calls": "count", "gamma.cold_calls": "count", "gamma.cold_frac": "frac",
    "gamma.cold_s": "s", "gamma.warm_s": "s",
    "cyclotomic.zeta_calls": "count", "cyclotomic.zeta_s": "s",
    "cyclotomic.gauss_sum_calls": "count", "cyclotomic.gauss_sum_s": "s",
    "cyclotomic.gk_calls": "count", "cyclotomic.gauss_sums_per_gk": "count/call",
    "cyclotomic.eis_mul": "count", "cyclotomic.self_s": "s",
    "frobenius.kedlaya_calls": "count", "frobenius.kedlaya_per_matrix": "count/matrix",
    "frobenius.kedlaya_s": "s", "frobenius.padic_ops_per_matrix": "count/matrix",
    "frobenius.count_points_s": "s", "frobenius.self_s": "s",
    "padic.ops": "count", "padic.int_coerce": "count", "padic.div": "count",
    "padic.self_s": "s", "padic.teichmuller_calls": "count", "padic.log_exp_s": "s",
    "cm.calls": "count", "cm.gamma_per_period": "count/period", "cm.self_s": "s",
    "arith.calls": "count", "arith.self_s": "s",
    "kummer.calls": "count", "kummer.self_s": "s",
    "hypergeom.calls": "count", "hypergeom.self_s": "s",
    "tannaka.calls": "count", "tannaka.self_s": "s",
    "cli.requests": "count", "cli.parse_render_s": "s", "cli.handler_s": "s",
    "trace.overhead_frac": "frac",
}

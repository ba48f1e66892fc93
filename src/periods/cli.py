"""Command line front end.

One subcommand per computation.  Every subcommand takes --json, which
switches the output to a canonical serialization (sorted keys, fixed
indentation) of an envelope validating against schema/output.json; the
text mode is for eyeballs only.  Exit status: 0 when every check in the
run passed, 1 when a check failed, 2 for configuration errors (bad
arguments, unreadable input files, unattainable precision).
"""

import argparse
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .arith import _quote, check_precision, check_prime
from .cm import algebraicity_probe, cm_period_ramified_p3, cm_period_unramified
from .cyclotomic import gross_koblitz_residual
from .frobenius import charpoly_certificate, count_points, frobenius_selftest, kedlaya_frobenius
from .gamma import gamma_p_at
from .hypergeom import hyper_period
from .kummer import kummer_period, solve_mixed_period
from .padic import PadicElement, PrecisionError, make_padic
from .tannaka import coeff_subalgebra_closure, homog_dim

SCHEMA_VERSION = 1

# (description, ambient group, fixed subgroup) per named curve/family case
BOUND_CASES = {
    "cm-ss": ("supersingular with extra endomorphisms", ("torus", 1), ("trivial", 0)),
    "noncm-ss": ("supersingular, generic", ("pgl2", 0), ("trivial", 0)),
    "noncm-ord": ("ordinary, generic", ("pgl2", 0), ("torus", 1)),
    "legendre": ("the one-parameter family", ("gl2", 0), ("torus", 1)),
}

PROBE_MAX_POWER = 8

_MAX_MIXED_PRECISION = 10**4  # caps a mixed file's precision and each digit dict's length
_MAX_MIXED_DIMENSION = 10  # the block solve is cubic in it: 10 at precision 10^4 takes about 1 s


def _fraction(text, name=None):
    """The rational text; an error text calls it name, by default repr(text)."""
    # exponent notation is refused before Fraction expands "1e300000"; str(x)
    # raises past the int-string limit here, not in the JSON echo of x
    name = name or repr(text)
    if "e" in text.lower():
        raise ValueError("exponent notation in %s; write num/den" % name)
    try:
        x = Fraction(text)
        str(x)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %s" % name)
    except ValueError:
        # Fraction's own text repeats the whole literal
        raise ValueError("%s is not a num/den rational within the int-string limit" % name)
    return x


def _fraction_arg(text):
    # argparse prints an ArgumentTypeError's own text, but turns a ValueError
    # into "invalid <function name> value" and drops the reason
    try:
        return _fraction(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _frac_json(x):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _res_json(v):
    """A residual valuation for --json: the one place inf (exact zero) becomes null."""
    return None if v == math.inf else v


def _matrix_json(entries):
    return [[e.to_json() for e in row] for row in entries]


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (json-ready result dict, all checks ok)


def _group_json(g):
    return {"kind": g[0], "rank": g[1]}


def _cmd_bound(args):
    case = args.case
    label, g, h = BOUND_CASES[case]
    return {
        "case": case,
        "description": label,
        "group": _group_json(g),
        "fixed_subgroup": _group_json(h),
        "bound": homog_dim(g, h),
    }, True


def _cmd_gamma(args):
    p, n, x = args.p, args.prec, args.x
    value = gamma_p_at(p, x, n)
    return {
        "p": p,
        "precision": n,
        "x": _frac_json(x),
        "value": value.to_json(),
    }, True


def _cmd_gk(args):
    p, a, m = args.p, args.a, args.prec
    res = gross_koblitz_residual(p, a, m)
    ok = res >= m
    return {
        "p": p,
        "a": a,
        "requested": m,
        "residual_pi_valuation": _res_json(res),
        "passed": ok,
    }, ok


def _cmd_cm(args):
    p, n = args.p, args.prec
    d, n0, height = args.d, args.ramified_n, args.probe
    if n0 is not None:
        if d is not None:
            raise ValueError("--d and --ramified-n each select the field; give one")
        if p != 3:
            raise ValueError("the ramified construction is implemented for p = 3")
        prod = cm_period_ramified_p3(n0, n)
    else:
        if d is None:
            raise ValueError("--d is required unless --ramified-n is given")
        prod = cm_period_unramified(d, p, n)
    result = {
        "d": d,
        "p": p,
        "precision": n,
        "ramified_n": n0,
        "power": prod.power,
        "factors": [{"base": b.to_json(), "exponent": _frac_json(e)} for b, e in prod.factors],
        "collapsed": prod.collapsed.to_json(),
        "probe": None,
    }
    if height is not None:
        hit = algebraicity_probe(prod.collapsed, height, PROBE_MAX_POWER)
        if hit is None:
            result["probe"] = {"height": height, "power": None, "value": None}
        else:
            k, value = hit
            result["probe"] = {
                "height": height,
                "power": k,
                "value": _frac_json(value),
            }
    return result, True


def _cmd_kummer(args):
    p, n, a = args.p, args.prec, args.a
    matrix, vec, res = kummer_period(a, p, n)
    return {
        "a": _frac_json(a),
        "p": p,
        "precision": n,
        "matrix": _matrix_json(matrix),
        "period_vector": [x.to_json() for x in vec],
        "invariance_residual_valuation": _res_json(res),
    }, res >= n


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _load_cell(p, cell, n, where):
    """A matrix/vector entry from its file form; error texts name it by where.

    Accepts an integer, a "num/den" string, or the dict emitted by
    to_json (p optional there, but must match when present).  No text
    repeats the cell, which can be as long as the file.
    """
    if isinstance(cell, dict):
        if cell.get("p", p) != p:
            raise ValueError("%s: its p differs from the matrix prime %d" % (where, p))
        val = cell.get("val")
        digits = cell.get("digits", [])
        if not (val is None or _is_int(val)) or not isinstance(digits, list):
            raise ValueError("%s needs an integer val and a digit list" % where)
        if len(digits) > _MAX_MIXED_PRECISION:
            raise ValueError("entry digit count %d exceeds the configured maximum %d"
                             % (len(digits), _MAX_MIXED_PRECISION))
        rel_prec = cell.get("rel_prec", len(digits))
        if val is None:
            if digits != [] or not (_is_int(rel_prec) and rel_prec == 0):
                raise ValueError("%s: an exact zero (null val) has no digits" % where)
            return PadicElement(p, None, 0, 0)
        if val > n:
            raise ValueError("%s: val exceeds the file's precision %d" % (where, n))
        if not all(_is_int(d) and 0 <= d < p for d in digits):
            raise ValueError("%s has a digit outside [0, %d)" % (where, p))
        if not _is_int(rel_prec) or rel_prec != len(digits):
            raise ValueError("%s: rel_prec must equal the number of digits" % where)
        if digits and digits[0] == 0:
            raise ValueError("%s: the leading digit of a unit is 0" % where)
        unit = 0
        for digit in reversed(digits):
            unit = unit * p + digit
        return PadicElement(p, val, unit, rel_prec)
    if isinstance(cell, (int, str)):
        return make_padic(p, _fraction(str(cell), where), n)
    raise ValueError("%s is not an integer, a num/den string or a digit dict" % where)


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("the JSON in %s is nested too deeply" % path)


def _cmd_mixed(args):
    mdoc, vdoc = _load_json(args.matrix), _load_json(args.v0)
    if not isinstance(mdoc, dict):
        raise ValueError("matrix file must hold a JSON object")
    for key in ("p", "precision", "weights", "entries"):
        if key not in mdoc:
            raise ValueError("matrix file lacks the %r key" % key)
    if not isinstance(mdoc["weights"], list) or not isinstance(mdoc["entries"], list):
        raise ValueError("matrix weights and entries must be JSON arrays")
    if not all(isinstance(row, list) for row in mdoc["entries"]):
        raise ValueError("matrix entries must be an array of rows")
    p, n = mdoc["p"], mdoc["precision"]
    if not (_is_int(p) and _is_int(n) and all(_is_int(w) for w in mdoc["weights"])):
        raise ValueError("matrix p, precision and weights must be integers")
    check_prime(p)
    check_precision(n)
    if n > _MAX_MIXED_PRECISION:
        raise ValueError("matrix precision %s exceeds the configured maximum %d"
                         % (_quote(n), _MAX_MIXED_PRECISION))
    if isinstance(vdoc, dict):
        if "values" not in vdoc:
            raise ValueError("vector file lacks the 'values' key")
        values = vdoc["values"]
    else:
        values = vdoc
    if not isinstance(values, list):
        raise ValueError("vector file must hold a JSON array of values")
    # the longest side of either file, so no more cells are embedded than fit the budget
    dim = max(len(mdoc["weights"]), len(mdoc["entries"]), len(values), *map(len, mdoc["entries"]))
    if dim > _MAX_MIXED_DIMENSION:
        raise ValueError("matrix dimension %d exceeds the configured maximum %d"
                         % (dim, _MAX_MIXED_DIMENSION))
    entries = [[_load_cell(p, cell, n, "matrix entry [%d][%d]" % (i, j)) for j, cell in enumerate(row)]
               for i, row in enumerate(mdoc["entries"])]
    v0 = [_load_cell(p, cell, n, "vector entry [%d]" % i) for i, cell in enumerate(values)]
    solution = solve_mixed_period(entries, mdoc["weights"], v0)
    return {
        "p": p,
        "precision": n,
        "weights": list(mdoc["weights"]),
        "solution": [x.to_json() for x in solution],
    }, True


def _cmd_hyper(args):
    p, n = args.p, args.prec
    lam0, e, order, at = args.lambda0, args.e, args.order, args.at
    matrix, achieved, det, rv = hyper_period(lam0, e, order, at, p, n)
    return {
        "p": p,
        "precision": n,
        "order": order,
        "lambda0": _frac_json(lam0),
        "e": e,
        "at": _frac_json(at),
        "matrix": _matrix_json(matrix),
        "achieved_precision": achieved,
        "determinant": det.to_json(),
        "det_residual_valuation": _res_json(rv),
    }, rv >= achieved


def _parse_cubic(text):
    """Coefficients (c0, c1, c2, 1) of a monic cubic like "x^3-2*x+1"."""
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise ValueError("empty polynomial")
    coeffs = [0, 0, 0, 0]
    # split before every sign but a leading one, so a stray sign is a term
    for term in re.split(r"(?<=.)(?=[+-])", s):
        m = re.match(r"^([+-]?)(\d+)?(?:\*?x(?:\^(\d+))?)?$", term)
        if not m or (m.group(2) is None and "x" not in term):
            raise ValueError("cannot parse the term %r" % term)
        sign = -1 if m.group(1) == "-" else 1
        c = int(m.group(2)) if m.group(2) else 1
        if "x" in term:
            deg = int(m.group(3)) if m.group(3) else 1
        else:
            deg = 0
        if deg > 3:
            raise ValueError("degree %d term in a cubic" % deg)
        coeffs[deg] += sign * c
    if coeffs[3] != 1:
        raise ValueError("the cubic must be monic in x")
    return tuple(coeffs)


def _cmd_frob(args):
    p, n = args.p, args.prec
    f = _parse_cubic(args.f)
    deep = args.selftest
    matrix = (frobenius_selftest if deep else kedlaya_frobenius)(f, p, n)
    a_p = count_points(f, p)
    trace, det, tv, dv = charpoly_certificate(matrix, a_p, p)
    return {
        "f": list(f),
        "p": p,
        "precision": n,
        "selftest": bool(deep),
        "matrix": _matrix_json(matrix),
        "trace": trace.to_json(),
        "determinant": det.to_json(),
        "a_p": a_p,
        "trace_residual_valuation": _res_json(tv),
        "det_residual_valuation": _res_json(dv),
    }, tv >= n and dv >= n


def _cmd_closure(args):
    r = args.r
    cap = args.cap
    report = coeff_subalgebra_closure(r, cap)
    return {
        "r": r,
        "cap": report.cap,
        "reached": [list(t) for t in report.reached],
        "target": [list(t) for t in report.target],
        "missing": list(report.missing),
        "generated": report.generated,
    }, True


# ---------------------------------------------------------------------------
# selftest: the commands' own checks over a fixed list of requests, seeded
# where randomized


def _selftest_requests(n, rng):
    """(argv, pinned result fields) per request, in run order; the row is the command.

    Only bound and closure print no check of their own, so only their
    results are pinned.  gk is the first request that takes n: its budget
    refuses an unattainable n before any other command starts.
    """
    for case, want in (("cm-ss", 1), ("noncm-ss", 3), ("noncm-ord", 2), ("legendre", 3)):
        yield "bound --case %s" % case, {"bound": want}
    for p in (3, 5, 7):
        for a in range(1, p - 1):
            yield "gk --p %d --a %d --prec %d" % (p, a, n), {}
    for _ in range(4):
        p = rng.choice((3, 5, 7, 11))
        while True:
            num, den = rng.randint(2, 40), rng.randint(1, 40)
            if num != den and num % p and den % p:
                break
        yield "kummer --a %s --p %d --prec %d" % (Fraction(num, den), p, n), {}
    order = max(6, n)
    for _ in range(2):
        p = rng.choice((5, 7, 11, 13))
        lam0, e = rng.randrange(2, p), rng.randrange(2, p)
        yield "hyper --p %d --lambda0 %d --e %d --order %d --prec %d --at %d" % (
            p, lam0, e, order, 2 * order, lam0 + p), {}
    for f, p in (("x^3+x+1", 5), ("x^3-x", 7)):
        yield "frob --f %s --p %d --prec 4" % (f, p), {}
    yield "closure --r 2 --cap 8", {"generated": True}
    yield "closure --r 4 --cap 8", {"missing": [2, 6]}


def _cmd_selftest(args):
    n = args.prec
    rows = {}
    for argv, pins in _selftest_requests(n, random.Random(args.seed)):
        req = _parser().parse_args(argv.split())
        result, ok = req.handler(req)
        rows.setdefault(req.command, []).append(ok and all(result[k] == v for k, v in pins.items()))
    checks = [
        {"name": name, "ok": all(hits), "detail": "%d/%d requests" % (sum(hits), len(hits))}
        for name, hits in sorted(rows.items())
    ]
    passed = sum(1 for row in checks if row["ok"])
    return {
        "precision": n,
        "seed": args.seed,
        "checks": checks,
        "passed": passed,
        "total": len(checks),
    }, passed == len(checks)


def execute(args):
    """Run one parsed subcommand; returns (exit code, envelope dict).

    JSON output is a pure function of the parsed arguments, which is what
    makes byte-identical reruns checkable.
    """
    envelope = {"schema_version": SCHEMA_VERSION, "command": args.command}
    try:
        result, ok = args.handler(args)
    except (ValueError, PrecisionError, OSError) as e:
        envelope["ok"] = False
        envelope["error"] = str(e)
        return 2, envelope
    except ArithmeticError as e:
        # a failed internal postcondition, as opposed to bad configuration
        envelope["ok"] = False
        envelope["error"] = str(e)
        return 1, envelope
    envelope["ok"] = ok
    envelope["result"] = result
    return (0 if ok else 1), envelope


# ---------------------------------------------------------------------------
# rendering


def _canonical_json(payload):
    """The bytes of json.dumps(payload, sort_keys=True, indent=2) + "\\n".

    Written in one recursive pass: with an indent, json.dumps leaves the C
    encoder for its pure-Python one.  Every key must be a str.
    """
    return _json_text(payload, "\n") + "\n"


def _json_text(v, nl):
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = nl + "  "
        items = []
        for k in sorted(v):
            if not isinstance(k, str):
                raise TypeError("JSON keys must be str, not %s" % type(k).__name__)
            items.append(encode_basestring_ascii(k) + ": " + _json_text(v[k], inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = nl + "  "
        # most items are the ints of digit lists: written without a call
        texts = [str(x) if type(x) is int else _json_text(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    if type(v) is int:
        return str(v)
    return json.dumps(v)


def _is_padic(v):
    return isinstance(v, dict) and set(v) == {"p", "val", "digits", "rel_prec"}


def _show_padic(d):
    if d["val"] is None:
        return "0 (exact)"
    if d["rel_prec"] == 0:
        return "O(%d^%d)" % (d["p"], d["val"])
    return "%d^%d * [%s] + O(%d^%d)" % (
        d["p"],
        d["val"],
        ", ".join(str(x) for x in d["digits"]),
        d["p"],
        d["val"] + d["rel_prec"],
    )


def _text_lines(command, result):
    if command == "selftest":
        for row in result["checks"]:
            yield "%-14s %s  %s" % (
                row["name"],
                "PASS" if row["ok"] else "FAIL",
                row["detail"],
            )
        yield "%d/%d checks passed" % (result["passed"], result["total"])
        return
    for key in sorted(result):
        v = result[key]
        if _is_padic(v):
            yield "%s: %s" % (key, _show_padic(v))
        elif (
            isinstance(v, list)
            and v
            and all(isinstance(row, list) and row and all(_is_padic(e) for e in row) for row in v)
        ):
            for i, row in enumerate(v):
                for j, e in enumerate(row):
                    yield "%s[%d][%d]: %s" % (key, i, j, _show_padic(e))
        elif isinstance(v, list) and v and all(_is_padic(e) for e in v):
            for i, e in enumerate(v):
                yield "%s[%d]: %s" % (key, i, _show_padic(e))
        else:
            yield "%s: %s" % (key, json.dumps(v, sort_keys=True))


def _render_text(payload, out):
    if "error" in payload:
        out.write("%s: error: %s\n" % (payload["command"], payload["error"]))
        return
    out.write("%s: %s\n" % (payload["command"], "ok" if payload["ok"] else "FAILED"))
    for line in _text_lines(payload["command"], payload["result"]):
        out.write("  %s\n" % line)


# ---------------------------------------------------------------------------
# the table of commands


def _opt(flag, **kw):
    """An option's spec, (flag, add_argument keywords): an int, required unless it has a default."""
    return flag, {"type": int, "required": "default" not in kw, **kw}


_rational = functools.partial(_opt, type=_fraction_arg, metavar="NUM/DEN")
_prec = functools.partial(_opt, "--prec")
_P = _opt("--p")

# name -> (help, handler, option specs in usage order); `periods --help`
# lists the commands in this order, and each one also takes --json
COMMANDS = {
    "bound": ("transcendence-degree bound for a named case", _cmd_bound, [
        _opt("--case", type=None, choices=sorted(BOUND_CASES))]),
    "gamma": ("Morita gamma value at a rational argument", _cmd_gamma, [
        _P, _rational("--x"), _prec()]),
    "gk": ("Gauss sum against the gamma product, residual valuation", _cmd_gk, [
        _P, _opt("--a"), _prec(help="target pi-adic valuation")]),
    "cm": ("gamma-product period of an imaginary quadratic field", _cmd_cm, [
        _opt("--d", default=None, help="the field is Q(sqrt(-d))"), _P, _prec(),
        _opt("--ramified-n", default=None, help="ramified p = 3 construction for sqrt(-3n)"),
        _opt("--probe", default=None, metavar="HEIGHT", help="rational reconstruction probe")]),
    "kummer": ("rank-2 Frobenius and period vector of a Kummer datum", _cmd_kummer, [
        _rational("--a"), _P, _prec()]),
    "mixed": ("invariant period vector of a weight-triangular matrix", _cmd_mixed, [
        _opt("--matrix", type=None, metavar="FILE.json"),
        _opt("--v0", type=None, metavar="FILE.json")]),
    "hyper": ("hypergeometric period matrix from the local solutions", _cmd_hyper, [
        _P, _rational("--lambda0"), _opt("--e"), _opt("--order", help="series truncation order"),
        _prec(), _rational("--at")]),
    "frob": ("crystalline Frobenius matrix of y^2 = f(x)", _cmd_frob, [
        _opt("--f", type=None, metavar="CUBIC", help='monic cubic, e.g. "x^3-2*x+1"'),
        _P, _prec(),
        ("--selftest", {"action": "store_true", "help": "cross-check against a shifted model"})]),
    "closure": ("coefficient subalgebra of a symmetric power", _cmd_closure, [
        _opt("--r", help="even symmetric power"),
        _opt("--cap", default=8, help="total degree cap")]),
    "selftest": ("run the whole battery of cross-checks", _cmd_selftest, [
        _prec(default=10), _opt("--seed", default=0, help="seed for the randomized checks")]),
}


@functools.cache
def _parser():
    # built on the first main call, then reused: parse_args keeps no state
    parser = argparse.ArgumentParser(
        prog="periods",
        description="exact p-adic periods: special values, Frobenius matrices, dimension bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, handler, specs) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", help="canonical JSON output")
        for flag, kw in specs:
            sp.add_argument(flag, **kw)
    return parser


def _join_negative_values(argv):
    """Rewrite `--x -5/4` as `--x=-5/4`, and `--lam -1/2` as `--lam=-1/2`.

    argparse reads a separate token that starts with "-" and is not a plain
    negative number as an option, so `--x -5/4` would lack its value.  No
    option of this parser starts with "-" and a digit, so joining such a
    token to the option before it cannot capture one; argparse then resolves
    an abbreviated option name as usual.
    """
    out = []
    for token in argv:
        if out and re.fullmatch("--[^=]+", out[-1]) and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_join_negative_values(argv))
    code, payload = execute(args)
    if args.json:
        sys.stdout.write(_canonical_json(payload))
    else:
        _render_text(payload, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())

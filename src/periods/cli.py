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

from .arith import check_precision, check_prime
from .cm import algebraicity_probe, cm_period_ramified_p3, cm_period_unramified
from .cyclotomic import gross_koblitz_residual
from .frobenius import (
    EllipticCurveW,
    charpoly_certificate,
    count_points,
    frobenius_selftest,
    kedlaya_frobenius,
)
from .gamma import gamma_p_at
from .hypergeom import period_matrix_hypergeom, solve_katz_ode, wronskian_defect
from .kummer import (
    KummerData,
    WeightBlockMatrix,
    check_frobenius_invariance,
    frobenius_matrix_kummer,
    period_vector_kummer,
    solve_mixed_period,
)
from .padic import (
    PadicElement,
    PrecisionError,
    iwasawa_log,
    make_padic,
    residual_valuation,
)
from .tannaka import GL2, PGL2, TRIVIAL, coeff_subalgebra_closure, homog_dim, torus

SCHEMA_VERSION = 1

# (description, ambient group, fixed subgroup) per named curve/family case
BOUND_CASES = {
    "cm-ss": ("supersingular with extra endomorphisms", torus(1), TRIVIAL),
    "noncm-ss": ("supersingular, generic", PGL2, TRIVIAL),
    "noncm-ord": ("ordinary, generic", PGL2, torus(1)),
    "legendre": ("the one-parameter family", GL2, torus(1)),
}

PROBE_MAX_POWER = 8

_MAX_MIXED_PRECISION = 10**4  # each "num/den" cell of a mixed file is embedded at its precision


def _fraction(text):
    # exponent notation is refused before Fraction expands "1e300000"; str(x)
    # raises past the int-string limit here, not in the JSON echo of x
    if "e" in text.lower():
        raise ValueError("exponent notation in %r; write num/den" % text)
    try:
        x = Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text)
    str(x)
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
    return {"kind": g.kind, "rank": g.rank}


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
        "factors": prod.json_factors(),
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
    p, n = args.p, args.prec
    a = args.a
    data = KummerData(a, p, n)
    matrix = frobenius_matrix_kummer(data)
    vec = period_vector_kummer(data)
    res = check_frobenius_invariance(data)
    ok = res >= n
    return {
        "a": _frac_json(a),
        "p": p,
        "precision": n,
        "matrix": _matrix_json(matrix),
        "period_vector": [x.to_json() for x in vec],
        "invariance_residual_valuation": _res_json(res),
    }, ok


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _load_cell(p, cell, n):
    """A matrix/vector entry from its file form.

    Accepts an integer, a "num/den" string, or the dict emitted by
    to_json (p optional there, but must match when present).
    """
    if isinstance(cell, dict):
        if cell.get("p", p) != p:
            raise ValueError("entry prime %r differs from the matrix prime %d" % (cell.get("p"), p))
        val = cell.get("val")
        digits = cell.get("digits", [])
        if not (val is None or _is_int(val)) or not isinstance(digits, list):
            raise ValueError("entry %r needs an integer val and a digit list" % (cell,))
        rel_prec = cell.get("rel_prec", len(digits))
        if val is None:
            if digits != [] or not (_is_int(rel_prec) and rel_prec == 0):
                raise ValueError("entry %r: an exact zero (null val) has no digits" % (cell,))
            return PadicElement(p, None, 0, 0)
        if val > n:
            raise ValueError("entry %r: val exceeds the file's precision %d" % (cell, n))
        if not all(_is_int(d) and 0 <= d < p for d in digits):
            raise ValueError("entry %r has a digit outside [0, %d)" % (cell, p))
        if not _is_int(rel_prec) or rel_prec != len(digits):
            raise ValueError("entry %r: rel_prec must equal the number of digits" % (cell,))
        if digits and digits[0] == 0:
            raise ValueError("entry %r: the leading digit of a unit is 0" % (cell,))
        unit = 0
        for i, digit in enumerate(digits):
            unit += digit * p**i
        return PadicElement(p, val, unit, rel_prec)
    if isinstance(cell, (int, str)):
        return make_padic(p, _fraction(str(cell)), n)
    raise ValueError("cannot interpret %r as a matrix entry" % (cell,))


def _cmd_mixed(args):
    with open(args.matrix) as fh:
        mdoc = json.load(fh)
    with open(args.v0) as fh:
        vdoc = json.load(fh)
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
        raise ValueError("matrix precision %d exceeds the configured maximum %d"
                         % (n, _MAX_MIXED_PRECISION))
    entries = tuple(
        tuple(_load_cell(p, cell, n) for cell in row) for row in mdoc["entries"]
    )
    phi = WeightBlockMatrix(entries=entries, weights=tuple(mdoc["weights"]))
    if isinstance(vdoc, dict):
        if "values" not in vdoc:
            raise ValueError("vector file lacks the 'values' key")
        values = vdoc["values"]
    else:
        values = vdoc
    if not isinstance(values, list):
        raise ValueError("vector file must hold a JSON array of values")
    v0 = [_load_cell(p, cell, n) for cell in values]
    solution = solve_mixed_period(phi, v0)
    return {
        "p": p,
        "precision": n,
        "weights": list(mdoc["weights"]),
        "solution": [x.to_json() for x in solution],
    }, True


def _cmd_hyper(args):
    p, n = args.p, args.prec
    lam0, e, order, at = args.lambda0, args.e, args.order, args.at
    sol = solve_katz_ode(make_padic(p, lam0, n), e, order, n)
    matrix = period_matrix_hypergeom(sol, make_padic(p, at, n))
    det = matrix.determinant()
    achieved = matrix.achieved_precision()
    rv = residual_valuation(det, make_padic(p, 1, n))
    # alpha(lam) is never exact zero, so achieved is an int
    ok = rv >= achieved
    return {
        "p": p,
        "precision": n,
        "order": order,
        "lambda0": _frac_json(lam0),
        "e": e,
        "at": _frac_json(at),
        "matrix": _matrix_json(matrix.entries),
        "achieved_precision": achieved,
        "determinant": det.to_json(),
        "det_residual_valuation": _res_json(rv),
    }, ok


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
    curve = EllipticCurveW(f, p, n)
    matrix = frobenius_selftest(curve) if deep else kedlaya_frobenius(curve)
    a_p = count_points(f, p)
    cert = charpoly_certificate(matrix, a_p)
    return {
        "f": list(f),
        "p": p,
        "precision": n,
        "selftest": bool(deep),
        "matrix": _matrix_json(matrix.entries),
        "trace": matrix.trace().to_json(),
        "determinant": matrix.determinant().to_json(),
        "a_p": a_p,
        "trace_residual_valuation": _res_json(cert.trace_valuation),
        "det_residual_valuation": _res_json(cert.det_valuation),
    }, cert.ok


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
# selftest: a fixed battery over every component, seeded where randomized


def _row(name, results, detail):
    """A selftest row that passes when every result does; detail follows hits/total."""
    hits = sum(results)
    return {
        "name": name,
        "ok": hits == len(results),
        "detail": "%d/%d %s" % (hits, len(results), detail),
    }


def _check_bounds():
    expected = {"cm-ss": 1, "noncm-ss": 3, "noncm-ord": 2, "legendre": 3}
    results = [homog_dim(*BOUND_CASES[case][1:]) == want for case, want in expected.items()]
    return _row("bounds", results, "cases")


def _check_gross_koblitz(n):
    results = [gross_koblitz_residual(p, a, n) >= n for p in (3, 5, 7) for a in range(1, p - 1)]
    return _row("gross-koblitz", results, "residuals at pi-valuation >= %d" % n)


def _check_kummer(n, rng):
    results = []
    for _ in range(4):
        p = rng.choice((3, 5, 7, 11))
        while True:
            num = rng.randint(2, 40)
            den = rng.randint(1, 40)
            a = Fraction(num, den)
            if a != 1 and num % p and den % p:
                break
        data = KummerData(a, p, n)
        res = check_frobenius_invariance(data)
        vec = period_vector_kummer(data)
        rv = residual_valuation(vec[0], iwasawa_log(make_padic(p, a, n)))
        results.append(res >= n and rv >= n)
    return _row("kummer", results, "pairs at precision %d" % n)


def _check_wronskian(n, rng):
    order = max(6, n)
    results = []
    for _ in range(2):
        p = rng.choice((5, 7, 11, 13))
        lam0 = rng.randrange(2, p)
        e = rng.randrange(2, p)
        alpha, beta = solve_katz_ode(
            make_padic(p, lam0, 2 * order), e, order, 2 * order
        )
        results.append(not wronskian_defect(alpha, beta))
    return _row("wronskian", results, "sample points at order %d" % order)


def _check_charpoly():
    cases = (((1, 1, 0, 1), 5), ((0, -1, 0, 1), 7))
    results = [
        charpoly_certificate(kedlaya_frobenius(EllipticCurveW(f, p, 4)), count_points(f, p)).ok
        for f, p in cases
    ]
    return _row("charpoly", results, "curves at precision 4")


def _check_closure():
    adjoint = coeff_subalgebra_closure(2, 8)
    sym4 = coeff_subalgebra_closure(4, 8)
    ok = adjoint.generated and len(sym4.missing) > 0
    return {
        "name": "closure",
        "ok": ok,
        "detail": "adjoint generates through %d; Sym^4 misses %s"
        % (adjoint.cap, list(sym4.missing)),
    }


def _cmd_selftest(args):
    n = args.prec
    rng = random.Random(args.seed)
    checks = [
        _check_bounds(),
        _check_gross_koblitz(n),
        _check_kummer(n, rng),
        _check_wronskian(n, rng),
        _check_charpoly(),
        _check_closure(),
    ]
    checks.sort(key=lambda row: row["name"])
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
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
# argument parsing


@functools.cache
def _parser():
    # built on the first main call, then reused: parse_args keeps no state
    parser = argparse.ArgumentParser(
        prog="periods",
        description="exact p-adic periods: special values, Frobenius matrices, dimension bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", help="canonical JSON output")
        return sp

    sp = add("bound", _cmd_bound, "transcendence-degree bound for a named case")
    sp.add_argument("--case", required=True, choices=sorted(BOUND_CASES))

    sp = add("gamma", _cmd_gamma, "Morita gamma value at a rational argument")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--x", type=_fraction_arg, required=True, metavar="NUM/DEN")
    sp.add_argument("--prec", type=int, required=True)

    sp = add("gk", _cmd_gk, "Gauss sum against the gamma product, residual valuation")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--prec", type=int, required=True, help="target pi-adic valuation")

    sp = add("cm", _cmd_cm, "gamma-product period of an imaginary quadratic field")
    sp.add_argument("--d", type=int, help="the field is Q(sqrt(-d))")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--prec", type=int, required=True)
    sp.add_argument("--ramified-n", type=int, help="ramified p = 3 construction for sqrt(-3n)")
    sp.add_argument("--probe", type=int, metavar="HEIGHT", help="rational reconstruction probe")

    sp = add("kummer", _cmd_kummer, "rank-2 Frobenius and period vector of a Kummer datum")
    sp.add_argument("--a", type=_fraction_arg, required=True, metavar="NUM/DEN")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--prec", type=int, required=True)

    sp = add("mixed", _cmd_mixed, "invariant period vector of a weight-triangular matrix")
    sp.add_argument("--matrix", required=True, metavar="FILE.json")
    sp.add_argument("--v0", required=True, metavar="FILE.json")

    sp = add("hyper", _cmd_hyper, "hypergeometric period matrix from the local solutions")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--lambda0", type=_fraction_arg, required=True, metavar="NUM/DEN")
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--order", type=int, required=True, help="series truncation order")
    sp.add_argument("--prec", type=int, required=True)
    sp.add_argument("--at", type=_fraction_arg, required=True, metavar="NUM/DEN")

    sp = add("frob", _cmd_frob, "crystalline Frobenius matrix of y^2 = f(x)")
    sp.add_argument("--f", required=True, metavar="CUBIC", help='monic cubic, e.g. "x^3-2*x+1"')
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--prec", type=int, required=True)
    sp.add_argument("--selftest", action="store_true", help="recompute deeper and cross-check")

    sp = add("closure", _cmd_closure, "coefficient subalgebra of a symmetric power")
    sp.add_argument("--r", type=int, required=True, help="even symmetric power")
    sp.add_argument("--cap", type=int, default=8, help="total degree cap")

    sp = add("selftest", _cmd_selftest, "run the whole battery of cross-checks")
    sp.add_argument("--prec", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")

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

"""Independent checks of every benchmark request's output.

Nothing here imports `periods`: the checks use plain integer and Fraction
arithmetic on the JSON the program printed, so a digit an optimisation
changes is caught by code the optimisation did not touch.

check(request, code, output) returns None when the output is right and a
one-line reason when it is not.
"""

import json
import math
from fractions import Fraction

# bound subcommand: the transcendence-degree bound of each named case
BOUNDS = {"cm-ss": 1, "noncm-ss": 3, "noncm-ord": 2, "legendre": 3}

# cm --d d for d = 1, 3: conductor, then (u, exponent) per Gamma factor.
# Factors are Gamma_p(<p u / D>) ^ (-eps(u) w / 4h) over units u mod D with
# eps(u) = 1: D = 4, w = 4, h = 1 keeps u = 3; D = 3, w = 6, h = 1 keeps u = 2.
CM_FACTORS = {1: (4, ((3, Fraction(-1)),)), 3: (3, ((2, Fraction(-3, 2)),))}


def padic_value(d):
    """(value mod p^A, A) of a JSON p-adic number; A is None for exact zero."""
    if d["val"] is None:
        return Fraction(0), None
    if d["rel_prec"] == 0:
        return Fraction(0), d["val"]
    p = d["p"]
    unit = sum(digit * p**i for i, digit in enumerate(d["digits"]))
    return Fraction(p) ** d["val"] * unit, d["val"] + d["rel_prec"]


def valuation(x, p):
    """v_p of a nonzero rational."""
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def agrees(d, expected, digits):
    """Whether JSON number d claims >= digits absolute digits, all equal to expected."""
    value, a = padic_value(d)
    if a is not None and a < digits:
        return False
    diff = value - Fraction(expected)
    return diff == 0 or valuation(diff, d["p"]) >= digits


def morita_gamma(p, x, n):
    """Gamma_p(x) mod p^n for a p-integral rational x, by the defining product.

    Gamma_p(m) = (-1)^m prod_{0 < j < m, p not | j} j at the representative
    m of x modulo p^n in (0, p^n].
    """
    mod = p**n
    x = Fraction(x)
    m = x.numerator * pow(x.denominator, -1, mod) % mod or mod
    acc = 1
    for lo in range(1, m, 8192):
        chunk = 1
        for j in range(lo, min(lo + 8192, m)):
            if j % p:
                chunk *= j
        acc = acc * chunk % mod
    return (mod - acc) % mod if m % 2 else acc


def trace_of_frobenius(f, p):
    """a_p = p + 1 - #E(F_p) for y^2 = f(x), by counting square roots."""
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    affine = sum(roots[(x**3 + f[2] * x * x + f[1] * x + f[0]) % p] for x in range(p))
    return p - affine


def option(argv, name):
    return argv[argv.index(name) + 1]


def _residual_at_least(v, bound):
    return v is None or v == "inf" or (bound is not None and v >= bound)


def _check_cli(argv, result):
    cmd = argv[0]
    if cmd == "bound":
        if result["bound"] != BOUNDS[option(argv, "--case")]:
            return "wrong bound"
    elif cmd == "gamma":
        p, n = int(option(argv, "--p")), int(option(argv, "--prec"))
        want = morita_gamma(p, Fraction(option(argv, "--x")), n)
        if not agrees(result["value"], want, n) or padic_value(result["value"])[1] != n:
            return "gamma value differs from the Morita product"
    elif cmd == "cm":
        p, n, d = int(option(argv, "--p")), int(option(argv, "--prec")), int(option(argv, "--d"))
        cond, factors = CM_FACTORS[d]
        got = result["factors"]
        if len(got) != len(factors):
            return "wrong number of cm factors"
        power = math.lcm(*(e.denominator for _, e in factors))
        mod = p**n
        collapsed = 1
        for (u, e), row in zip(factors, got):
            base = morita_gamma(p, Fraction((p * u) % cond or cond, cond), n)
            if Fraction(*row["exponent"]) != e or not agrees(row["base"], base, n):
                return "cm factor differs from the Morita product"
            collapsed = collapsed * pow(base, int(e * power), mod) % mod
        if result["power"] != power or not agrees(result["collapsed"], collapsed, n):
            return "cm collapsed value is not the product of its factors"
    elif cmd == "frob":
        p, n = int(option(argv, "--p")), int(option(argv, "--prec"))
        a_p = trace_of_frobenius(result["f"], p)
        if result["a_p"] != a_p:
            return "a_p differs from the point count"
        if not agrees(result["trace"], a_p, n):
            return "trace is not a_p mod p^n"
        if not agrees(result["determinant"], p, n):
            return "determinant is not p mod p^n"
    elif cmd == "kummer":
        if not _residual_at_least(result["invariance_residual_valuation"], result["precision"]):
            return "kummer invariance residual below the precision"
    elif cmd == "hyper":
        if not _residual_at_least(result["det_residual_valuation"], result["achieved_precision"]):
            return "hyper determinant residual below the achieved precision"
    elif cmd == "closure":
        short = [m for (m, want), (_, got) in zip(result["target"], result["reached"]) if got < want]
        if short != result["missing"] or result["generated"] != (not short):
            return "closure report is inconsistent"
    return None


def _check_mixed(expect, result):
    if len(result["solution"]) != len(expect):
        return "mixed solution has the wrong length"
    for d, want in zip(result["solution"], expect):
        want = Fraction(want)
        value, a = padic_value(d)
        if a is None:
            if want != 0:
                return "mixed solution is an exact zero"
        elif a <= valuation(want, d["p"]):
            return "mixed solution claims no digit"
        elif value != want and valuation(value - want, d["p"]) < a:
            return "mixed solution differs from the exact invariant vector"
    return None


def _check_lib(req, result):
    fn = req["fn"]
    if fn == "gross_koblitz_residual":
        ok = _residual_at_least(result, req["m"])
    elif fn == "check_translation":
        ok = _residual_at_least(result, req["n"])
    else:
        p, x = req["p"], req["x"]
        # Gamma_p(x) Gamma_p(1 - x) = (-1)^x0, x0 in {1..p} congruent to x
        ok = result[0] == (-1) ** (x % p or p) and _residual_at_least(result[1], req["n"])
    return None if ok else "%s residual below the requested bound" % fn


def check(req, code, output):
    if code != 0:
        return "exit code %r" % (code,)
    try:
        payload = json.loads(output)
    except ValueError:
        return "output is not JSON"
    if req["kind"] == "lib":
        return _check_lib(req, payload["result"])
    if payload.get("ok") is not True:
        return "ok is not true"
    result = payload["result"]
    if "expect" in req:
        return _check_mixed(req["expect"], result)
    return _check_cli(req["argv"], result)

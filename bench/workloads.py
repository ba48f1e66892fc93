"""Seeded request lists for the four benchmark workloads.

Every generator is a pure function of the seed and uses only the standard
library, so the program under test sees nothing but the generated inputs.

Each workload is a fixed multiset of request *shapes*: the parameters that
set a request's cost (command, p, precision, order, table size, kind of
curve, Gamma argument).  The seed chooses everything that does not move the
cost much: rational arguments, seeded curves, characters, matrix entries,
and the order in which requests are sent.  That
keeps the total work of a pass nearly the same for every seed, so medians
taken over different seeds are comparable.

A request is a dict: {"kind": "cli", "argv": [...]} is one `periods` command
line run in-process through `periods.cli.main`, and {"kind": "lib", "fn":
name, ...} is one direct library call made the way the acceptance battery
makes it.  Requests that need an input file carry {"files": {path: json}};
the harness writes those files before the timed pass starts.
"""

import math
import random
from fractions import Fraction

WORKLOADS = ("gamma-cold", "identities", "kedlaya", "cli-small")

WHY = {
    "gamma-cold": "Morita gamma and CM requests at fresh (p, N), so the O(p^N) table build does the work",
    "identities": "library identity checks: warm gamma_p, zeta_p Newton and Gauss sums at shared (p, N)",
    "kedlaya": "frob requests: Kedlaya Frobenius matrices and the small-int p-adic ops under them",
    "cli-small": "millisecond CLI requests: parsing, validation, JSON, kummer, hypergeom, mixed, closure",
}

# the acceptance-battery curves at each prime, coefficients (c0, c1, c2, 1)
AP_TABLE_CURVES = {
    5: ((1, 1, 0, 1), (0, -1, 0, 1), (2, 3, 0, 1), (1, 0, 1, 1)),
    7: ((1, 1, 0, 1), (0, -1, 0, 1), (2, 3, 0, 1), (1, -2, 0, 1), (1, 0, 1, 1)),
    11: ((1, 1, 0, 1), (0, -1, 0, 1), (2, 3, 0, 1), (1, -2, 0, 1), (1, 0, 1, 1)),
    13: ((1, 1, 0, 1), (0, -1, 0, 1), (2, 3, 0, 1), (1, -2, 0, 1), (1, 0, 1, 1)),
}

# Gamma tables with p^N from 1e4 to 3e5, at N from 2 to 11, and the command
# that builds each: `cm` with the given d, or `gamma`.  Each pair is built
# once per interpreter.  The list is fixed rather than seeded because the
# cost per p^N differs between primes and between the two commands.
# Fourteen pairs plus one warm repeat make 15 requests a pass, 93% of them
# cold.  The 50th percentile falls inside the samples of one pair (199^2),
# and the 90th among those of two gamma requests of nearly equal cost (61^3
# and 487^2), not between two classes.  d = 1 and d = 3 have one Gamma
# factor each, so a cm request makes exactly one (cold) gamma_p call; d = 3
# ramifies at 3.
GAMMA_COLD_PAIRS = (
    (101, 2, None), (23, 3, 3), (7, 5, None), (29, 3, 1), (13, 4, None), (3, 10, None),
    (199, 2, None), (37, 3, None), (5, 7, 3), (311, 2, None), (3, 11, 1), (61, 3, None),
    (487, 2, None), (541, 2, None),
)
GAMMA_COLD_REPEATS = 1

# gross_koblitz_residual requests per m at each p.  The p = 7 requests are
# the largest class below the p = 11 and p = 13 ones, and there are enough of
# them that the 90th percentile falls in their middle, not at the edge
# between them and the cold table builds.
GK_PER_M = {5: 2, 7: 4, 11: 2, 13: 2}

# identity checks per (p, N) pair and function; the checkpoint stride of the
# Gamma table in periods.gamma, which sets what a warm call costs
CHECKS_PER_CLASS = 15
GAMMA_STRIDE = 4096

# Kedlaya shapes (p, n, count, selftest count); 100 requests per pass, so a
# pass has ten latencies beyond its 90th percentile.  A shape with a single
# request, and every self-test, uses one fixed curve, the first acceptance
# curve: the cost of a request that large would otherwise depend on the
# seed.
KEDLAYA_SHAPES = (
    (5, 4, 70, 10), (5, 5, 8, 0), (5, 6, 5, 0), (5, 7, 3, 0), (5, 8, 2, 0),
    (5, 10, 2, 0),
    (7, 4, 6, 0), (7, 7, 1, 0),
    (11, 4, 1, 0), (13, 4, 1, 0),
    (29, 4, 1, 0),
)
KEDLAYA_FIXED_CURVE = (1, 1, 0, 1)

BOUND_CASES = ("cm-ss", "noncm-ss", "noncm-ord", "legendre")


def _unit_fraction(rng, p, num_max=999, den_max=12):
    """A rational num/den with den prime to p, as "num/den" text."""
    while True:
        num = rng.randint(1, num_max)
        den = rng.randint(1, den_max)
        if den % p and math.gcd(num, den) == 1:
            return Fraction(num, den)


def _frac_text(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def _cubic_text(f):
    """The CLI spelling of the monic cubic with coefficients (c0, c1, c2, 1)."""
    out = "x^3"
    for c, tail in ((f[2], "*x^2"), (f[1], "*x"), (f[0], "")):
        if c:
            out += "%+d%s" % (c, tail)
    return out


def _cubic_discriminant(f):
    c0, c1, c2 = f[0], f[1], f[2]
    return (18 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2
            - 4 * c1**3 - 27 * c0**2)


def _gamma_request(rng, p, n):
    return {"kind": "cli", "argv": ["gamma", "--p", str(p), "--x",
                                    _frac_text(_unit_fraction(rng, p)), "--prec", str(n)]}


def gamma_cold(seed):
    rng = random.Random(seed)
    pairs = list(GAMMA_COLD_PAIRS)
    rng.shuffle(pairs)
    reqs = []
    for p, n, d in pairs:
        if d is None:
            reqs.append(_gamma_request(rng, p, n))
        else:
            reqs.append({"kind": "cli", "argv": ["cm", "--d", str(d), "--p", str(p),
                                                 "--prec", str(n)]})
    # warm requests at a pair already built in this interpreter
    firsts = list(reqs)
    for _ in range(GAMMA_COLD_REPEATS):
        k = rng.randrange(len(pairs) - 1)
        after = next(i for i, r in enumerate(reqs) if r is firsts[k]) + 1
        reqs.insert(rng.randrange(after, len(reqs) + 1), _gamma_request(rng, *pairs[k][:2]))
    return reqs


def _stratified_argument(j, mod):
    """An argument in [1, mod) whose residue mod GAMMA_STRIDE lies in the
    middle of the j-th of CHECKS_PER_CLASS equal slices.

    A warm gamma_p call multiplies out the integers past the last table
    checkpoint, so the residue and the size of those integers set its cost.
    Both are fixed by j, cycling the checkpoint block through those below
    mod, so the cost of a pass does not depend on the seed; the seed orders
    the requests.
    """
    width = min(mod - 1, GAMMA_STRIDE) // CHECKS_PER_CLASS
    r = 1 + j * width + width // 2
    return GAMMA_STRIDE * (j % ((mod - 1 - r) // GAMMA_STRIDE + 1)) + r


def identities(seed):
    rng = random.Random(seed)
    gk = []
    for p, per_m in GK_PER_M.items():
        for m in (12, 16, 20):
            for a in rng.sample(range(1, p - 1), per_m):
                gk.append({"kind": "lib", "fn": "gross_koblitz_residual", "p": p, "a": a, "m": m})
    for m in (12, 13):
        gk.append({"kind": "lib", "fn": "gross_koblitz_residual", "p": 3, "a": 1, "m": m})
    # the (p, N) pairs the Gauss-sum candidates already use, so the identity
    # checks share their Gamma tables
    shared = ((3, 9), (5, 6), (7, 5), (11, 4), (13, 3))
    checks = []
    for p, n in shared:
        for fn in ("check_translation", "check_reflection"):
            for j in range(CHECKS_PER_CLASS):
                checks.append({"kind": "lib", "fn": fn, "p": p, "n": n,
                               "x": _stratified_argument(j, p**n)})
    reqs = gk + checks
    rng.shuffle(reqs)
    return reqs


def _seeded_cubic(rng, p):
    """A monic cubic, nonsingular mod p, with no coefficient 0 mod p.

    A coefficient that vanishes mod p makes the Frobenius matrix cheaper to
    compute, so allowing it would let the seed move the cost of a request.
    """
    while True:
        f = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9), 1)
        if all(c % p for c in f) and _cubic_discriminant(f) % p:
            return f


def kedlaya(seed):
    rng = random.Random(seed)
    reqs = []
    for p, n, count, deep in KEDLAYA_SHAPES:
        for i in range(count):
            # the cost of a request moves with the curve by up to 2.7 times,
            # so the seed does not choose between kinds of curve: a shape
            # with one request and the self-tests, which sit at the 90th
            # percentile, use the fixed curve, and the other requests take
            # an acceptance curve and a seeded cubic in turn
            if count == 1 or i < deep:
                f = KEDLAYA_FIXED_CURVE
            elif i % 2 == 0:
                f = AP_TABLE_CURVES[p][(i // 2) % len(AP_TABLE_CURVES[p])]
            else:
                f = _seeded_cubic(rng, p)
            argv = ["frob", "--f", _cubic_text(f), "--p", str(p), "--prec", str(n)]
            if i < deep:
                argv.append("--selftest")
            reqs.append({"kind": "cli", "argv": argv})
    rng.shuffle(reqs)
    return reqs


def _mixed_system(rng, p, size):
    """Exact rational weight-triangular phi and its invariant vector V.

    Weights are -size+1 .. 0.  Row i < size-1 has diagonal p or 1/p and
    random entries to its right except the last column, which is solved so
    that (phi V)_i = V_i holds over Q; the solver's digits are then checked
    against V itself.
    """
    vec = [_unit_fraction(rng, p, 60, 9) for _ in range(size)]
    phi = [[Fraction(0)] * size for _ in range(size)]
    phi[size - 1][size - 1] = Fraction(1)
    for i in range(size - 1):
        phi[i][i] = Fraction(p) if rng.random() < 0.5 else Fraction(1, p)
        for j in range(i + 1, size - 1):
            phi[i][j] = _unit_fraction(rng, p, 60, 9) * rng.choice((1, -1))
        rest = sum(phi[i][j] * vec[j] for j in range(i, size - 1))
        phi[i][size - 1] = (vec[i] - rest) / vec[size - 1]
    return phi, vec


def cli_small(seed, workdir="bench/out/inputs"):
    rng = random.Random(seed)
    reqs = []
    for _ in range(30):
        reqs.append({"kind": "cli", "argv": ["bound", "--case", rng.choice(BOUND_CASES)]})
    for i in range(60):
        p, n = ((5, 5), (7, 4), (11, 3), (13, 3))[i % 4]
        reqs.append(_gamma_request(rng, p, n))
    for i in range(50):
        p = (3, 5, 7, 11, 13)[i % 5]
        n = (20, 40, 60, 80, 100, 120)[i % 6]
        while True:
            a = Fraction(rng.randint(2, 60), rng.randint(1, 60))
            if a not in (1, -1) and a.numerator % p and a.denominator % p:
                break
        reqs.append({"kind": "cli", "argv": ["kummer", "--a", _frac_text(a), "--p", str(p),
                                             "--prec", str(n)]})
    for i in range(50):
        p = (5, 7, 11, 13)[i % 4]
        order = (12, 24, 36, 48, 60)[i % 5]
        # p = 5 loses too many digits to the (k+1)(k+2) divisions past order 40
        if p == 5 and order > 40:
            order = 36
        prec = min(120, order * (1 + i % 2))
        lam0 = rng.randrange(2, p)
        e = rng.randrange(1, p)
        at = lam0 + p * rng.randint(1, 5)
        reqs.append({"kind": "cli", "argv": ["hyper", "--p", str(p), "--lambda0", str(lam0),
                                             "--e", str(e), "--order", str(order),
                                             "--prec", str(prec), "--at", str(at)]})
    for i in range(40):
        p = (3, 5, 7, 11, 13)[i % 5]
        size = 2 + i % 2
        prec = (20, 40, 80, 120)[i % 4]
        phi, vec = _mixed_system(rng, p, size)
        mpath = "%s/mixed-%d-matrix.json" % (workdir, i)
        vpath = "%s/mixed-%d-v0.json" % (workdir, i)
        matrix = {
            "p": p,
            "precision": prec,
            "weights": list(range(-size + 1, 1)),
            "entries": [[_frac_text(x) for x in row] for row in phi],
        }
        reqs.append({
            "kind": "cli",
            "argv": ["mixed", "--matrix", mpath, "--v0", vpath],
            "files": {mpath: matrix, vpath: {"values": [_frac_text(vec[-1])]}},
            "expect": [_frac_text(x) for x in vec],
        })
    for i in range(40):
        r = (2, 4, 6, 8)[i % 4]
        cap = (4, 6, 8, 8, 10)[i % 5]
        reqs.append({"kind": "cli", "argv": ["closure", "--r", str(r), "--cap", str(cap)]})
    rng.shuffle(reqs)
    return reqs


def generate(workload, seed, workdir="bench/out/inputs"):
    """The request list of one pass of the named workload."""
    if workload == "gamma-cold":
        return gamma_cold(seed)
    if workload == "identities":
        return identities(seed)
    if workload == "kedlaya":
        return kedlaya(seed)
    if workload == "cli-small":
        return cli_small(seed, workdir)
    raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))

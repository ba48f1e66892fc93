"""Symbolic bookkeeping for groups, representations, and matrix coefficients.

Dimension arithmetic for the handful of algebraic groups the period
bounds need, read from one fixed table, and an exact computation inside
O(SL2) = Q[a,b,c,d]/(ad - bc - 1) that decides, per degree, which
irreducible blocks of the torus-invariant coordinate ring the matrix
coefficients of a given representation actually generate.  The blocks
to reach are fixed by Peter-Weyl (each even Sym^m once); only the
generated side is computed.  A group is a (kind, rank) pair, rank 0 but
for a torus; a ring element is a normal-form dict {exponent tuple:
coefficient}.  The closure forms only int coefficients, and its linear
algebra is exact and fraction-free over Z; nothing is rounded.
"""

from collections import namedtuple
from math import comb, gcd

MAX_CLOSURE_CAP = 12

# kind -> (dimension, rank of a maximal torus), a torus having its rank for
# both; the fiber product {(a, b, A) : ab = det A} in Gm^2 x GL2 is one equation
_GROUPS = {"torus": None, "gl2": (4, 2), "sl2": (3, 1), "pgl2": (3, 1),
           "fiber-product": (2 + 4 - 1, 3), "trivial": (0, 0)}


def _row(g):
    kind, rank = g
    if kind not in _GROUPS:
        raise ValueError("unknown group kind %r" % (kind,))
    if kind == "torus":
        if rank < 1:
            raise ValueError("a torus needs a positive rank")
    elif rank != 0:
        raise ValueError("only tori carry a rank")
    return _GROUPS[kind] or (rank, rank)


def dim_group(g):
    return _row(g)[0]


def homog_dim(g, h):
    """Dimension of G/H for a designated embedding of H in G."""
    dg, dh = dim_group(g), dim_group(h)
    if not (h[0] == "trivial" or h[0] == "torus" and h[1] <= _row(g)[1]):
        raise ValueError("no designated embedding of %r in %r" % (h[0], g[0]))
    return dg - dh


# -- the coordinate ring of SL2 ---------------------------------------------
#
# Monomials are exponent tuples (i, j, k, l) for a^i b^j c^k d^l.  The
# relation ad = 1 + bc rewrites any monomial containing both a and d,
# so normal-form monomials have min(i, l) = 0; that rewriting is
# confluent and the surviving monomials are a linear basis.  Right
# translation by diag(t, 1/t) scales a, c by t and b, d by 1/t; left
# translation scales a, b by t and c, d by 1/t.

def _normal_form(pairs):
    """The dict {monomial: coefficient} of sum c * monomial over (monomial, c)."""
    out = {}
    for key, coeff in pairs:
        if not coeff:  # else it could reach the del below on a missing key
            continue
        i, j, k, l = key
        # a^i d^l = a^(i-m) (1 + bc)^m d^(l-m), expanded binomially
        m = min(i, l)
        for t in range(m + 1):
            nk = (i - m, j + t, k + t, l - m)
            c = out.get(nk, 0) + comb(m, t) * coeff
            if c:
                out[nk] = c
            else:
                del out[nk]
    return out


def _ring_mul(x, y):
    return _normal_form((tuple(u + v for u, v in zip(k1, k2)), c1 * c2)
                        for k1, c1 in x.items() for k2, c2 in y.items())


def matrix_coefficients(r):
    """Coefficient functions of the torus-fixed vector of Sym^r, r even.

    The fixed line of Sym^r(std) is spanned by (e1 e2)^(r/2); applying a
    group element and reading off the coefficient of each basis monomial
    e1^(r-m) e2^m gives r + 1 functions of degree r with right weight 0
    and left weights r - 2m.  They span one copy of Sym^r on the left.
    """
    if r < 0 or r % 2:
        raise ValueError("the torus fixes nothing in odd symmetric powers")
    h = r // 2
    out = []
    for m in range(r + 1):
        pairs = []
        for s in range(max(0, m - h), min(h, m) + 1):
            t = m - s
            pairs.append(((h - s, h - t, s, t), comb(h, s) * comb(h, t)))
        out.append(_normal_form(pairs))
    return tuple(out)


# -- exact sparse linear algebra over the integers ---------------------------

def _without_content(vec):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*vec.values())
    return {k: c // g for k, c in vec.items()} if g > 1 else vec


def _echelon_insert(pivots, vec):
    """Reduce vec against the pivot rows; install it if independent.

    Fraction-free: pivot rows are primitive integer rows, and a reduction
    step is v <- a*v - b*row with a/b in lowest terms, then v divided by
    its content.  vec must have int entries.  Every v is a nonzero multiple
    of the vector the same elimination over Q would hold, so the same pivot
    keys are installed.
    """
    vec = _without_content(vec)
    while vec:
        lead = min(vec)
        row = pivots.get(lead)
        if row is None:
            pivots[lead] = vec
            return True
        a, b = row[lead], vec[lead]
        g = gcd(a, b)
        a, b = a // g, b // g
        vec = {k: a * c for k, c in vec.items()}
        for k, c in row.items():
            nc = vec.get(k, 0) - b * c
            if nc:
                vec[k] = nc
            else:
                vec.pop(k, None)
        vec = _without_content(vec)
    return False


ClosureReport = namedtuple("ClosureReport", "r cap reached target missing generated")


def coeff_subalgebra_closure(r, cap=8):
    """Which blocks of the weight-0 ring do products of coefficients hit.

    Multiplies the matrix coefficients of the PGL2 representation Sym^r
    out to total degree cap, splits the product span by left weight, and
    differences the ranks to read off which Sym^m blocks (m even, at most
    cap) are present.  The target side is fixed by Peter-Weyl, not read off
    the products: each such Sym^m occurs once in the weight-0 ring.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r % 2:
        raise ValueError("odd symmetric powers do not factor through PGL2")
    if cap < 0 or cap % 2:
        raise ValueError("the degree cap must be a nonnegative even number")
    if cap > MAX_CLOSURE_CAP:
        raise ValueError("degree cap %d exceeds the configured maximum %d"
                         % (cap, MAX_CLOSURE_CAP))
    # every product of coefficients has a single left weight, so the span
    # splits into one pivot table per weight; a product already in the span
    # generates nothing new, so only the new ones are multiplied further
    one = {(0, 0, 0, 0): 1}
    tables = {0: {}}
    _echelon_insert(tables[0], one)
    if 0 < r <= cap:
        gens = matrix_coefficients(r)
        level = [(0, one)]
        for _ in range(cap // r):
            new = []
            for w, x in level:
                for m, g in enumerate(gens):
                    y, wy = _ring_mul(x, g), w + r - 2 * m
                    if _echelon_insert(tables.setdefault(wy, {}), y):
                        new.append((wy, y))
            level = new
    reached = {}
    for m in range(0, cap + 1, 2):
        reached[m] = len(tables.get(m, ())) - len(tables.get(m + 2, ()))
    # Peter-Weyl: through degree cap, O(SL2) is the sum of Sym^k x Sym^k over
    # k <= cap, and Sym^k has a torus-fixed line iff k is even: each Sym^m once
    target = {m: 1 for m in range(0, cap + 1, 2)}
    missing = tuple(m for m in target if reached[m] < target[m])
    return ClosureReport(
        r=r,
        cap=cap,
        reached=tuple(sorted(reached.items())),
        target=tuple(sorted(target.items())),
        missing=missing,
        generated=not missing,
    )

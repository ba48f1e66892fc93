"""Symbolic bookkeeping for groups, representations, and matrix coefficients.

Dimension arithmetic for the handful of algebraic groups the period
bounds need, and an exact computation inside
O(SL2) = Q[a,b,c,d]/(ad - bc - 1) that decides, per degree, which
irreducible blocks of the torus-invariant coordinate ring the matrix
coefficients of a given representation actually generate.
All linear algebra is over exact rationals; nothing is rounded.
"""

from collections import namedtuple
from fractions import Fraction
from math import comb

MAX_CLOSURE_CAP = 12

_GROUP_KINDS = ("torus", "gl2", "sl2", "pgl2", "fiber-product", "trivial")


class GroupDesc:
    def __init__(self, kind, rank=0):
        if kind not in _GROUP_KINDS:
            raise ValueError("unknown group kind %r" % (kind,))
        if kind == "torus":
            if rank < 1:
                raise ValueError("a torus needs a positive rank")
        elif rank != 0:
            raise ValueError("only tori carry a rank")
        self.kind, self.rank = kind, rank


GL2 = GroupDesc("gl2")
SL2 = GroupDesc("sl2")
PGL2 = GroupDesc("pgl2")
FIBER_PRODUCT = GroupDesc("fiber-product")
TRIVIAL = GroupDesc("trivial")


def torus(rank):
    return GroupDesc("torus", rank)


def dim_group(g):
    if g.kind == "torus":
        return g.rank
    if g.kind == "gl2":
        return 4
    if g.kind in ("sl2", "pgl2"):
        return 3
    if g.kind == "fiber-product":
        # {(a, b, A) : ab = det A} inside Gm^2 x GL2, one equation
        return 2 + 4 - 1
    return 0


def _max_torus_rank(g):
    return {"torus": g.rank, "gl2": 2, "sl2": 1, "pgl2": 1,
            "fiber-product": 3, "trivial": 0}[g.kind]


def homog_dim(g, h):
    """Dimension of G/H for a designated embedding of H in G."""
    if h.kind == "trivial":
        pass
    elif h.kind == "torus" and h.rank <= _max_torus_rank(g):
        pass
    else:
        raise ValueError("no designated embedding of %r in %r"
                         % (h.kind, g.kind))
    return dim_group(g) - dim_group(h)


# three nested trdeg bounds, tightest first, with strictness flags
BoundChain = namedtuple("BoundChain", "bounds strict")


def _as_dim(x):
    if isinstance(x, GroupDesc):
        return dim_group(x)
    return int(x)


def trdeg_bound_chain(g_dr_m, g_crys_m, g_dr_mm, g_crys_mm):
    """Chain dim difference of the dual pair <= pair difference <= ambient.

    Inputs are dimensions (or group descriptors, which are measured).
    Rejects data that cannot come from nested fixed groups: negative
    differences or an out-of-order chain.
    """
    a = _as_dim(g_dr_m)
    b = _as_dim(g_crys_m)
    c = _as_dim(g_dr_mm)
    d = _as_dim(g_crys_mm)
    tight, mid, loose = c - d, a - b, a
    if tight < 0 or mid < 0:
        raise ValueError("a fixed group outgrew its ambient group")
    if not tight <= mid <= loose:
        raise ValueError("bounds do not chain")
    return BoundChain(bounds=(tight, mid, loose),
                      strict=(tight < mid, mid < loose))


# -- the coordinate ring of SL2 ---------------------------------------------
#
# Monomials are exponent tuples (i, j, k, l) for a^i b^j c^k d^l.  The
# relation ad = 1 + bc rewrites any monomial containing both a and d,
# so normal-form monomials have min(i, l) = 0; that rewriting is
# confluent and the surviving monomials are a linear basis.  Right
# translation by diag(t, 1/t) scales a, c by t and b, d by 1/t; left
# translation scales a, b by t and c, d by 1/t.

def _reduce_terms(pairs):
    out = {}
    for key, coeff in pairs:
        key, coeff = tuple(key), Fraction(coeff)
        if not coeff:
            continue
        if len(key) != 4 or min(key) < 0:
            raise ValueError("bad monomial %r" % (key,))
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


class CoeffRingElement:
    """An element of Q[a,b,c,d]/(ad - bc - 1) in normal form."""

    def __init__(self, terms):
        self.terms = tuple(sorted(_reduce_terms(terms).items()))

    def __eq__(self, other):
        if not isinstance(other, CoeffRingElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    @classmethod
    def monomial(cls, i, j, k, l, coeff=1):
        return cls(terms=(((i, j, k, l), coeff),))

    @classmethod
    def one(cls):
        return cls.monomial(0, 0, 0, 0)

    def __mul__(self, other):
        if not isinstance(other, CoeffRingElement):
            return NotImplemented
        prod = []
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                prod.append((tuple(x + y for x, y in zip(k1, k2)), c1 * c2))
        return CoeffRingElement(terms=tuple(prod))


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
            pairs.append(((h - s, h - t, s, t),
                          Fraction(comb(h, s) * comb(h, t))))
        out.append(CoeffRingElement(terms=tuple(pairs)))
    return tuple(out)


# -- exact sparse linear algebra over the rationals --------------------------

def _echelon_insert(pivots, vec):
    """Reduce vec against the pivot rows; install it if independent."""
    vec = dict(vec)
    while vec:
        lead = min(vec)
        if lead not in pivots:
            inv = Fraction(1) / vec[lead]
            pivots[lead] = {k: c * inv for k, c in vec.items()}
            return True
        factor = vec[lead]
        for k, c in pivots[lead].items():
            nc = vec.get(k, 0) - factor * c
            if nc:
                vec[k] = nc
            else:
                vec.pop(k, None)
    return False


def _target_multiplicities(cap):
    """Irreducible content of the weight-0 ring through each even degree.

    Counts normal-form monomials with right weight 0 and degree at most
    cap, bucketed by left weight; consecutive differences give the
    multiplicity of each Sym^m, which the product structure predicts to
    be exactly one.  This count is the independent yardstick the closure
    is compared against.
    """
    counts = {}
    for i in range(cap + 1):
        for j in range(cap + 1 - i):
            for k in range(cap + 1 - i - j):
                for l in range(cap + 1 - i - j - k):
                    if i and l:
                        continue
                    if i - j + k - l:
                        continue
                    w = i + j - k - l
                    counts[w] = counts.get(w, 0) + 1
    out = {}
    for m in range(0, cap + 1, 2):
        out[m] = counts.get(m, 0) - counts.get(m + 2, 0)
    return out


ClosureReport = namedtuple("ClosureReport", "r cap reached target missing generated")


def coeff_subalgebra_closure(r, cap=8):
    """Which blocks of the weight-0 ring do products of coefficients hit.

    Multiplies the matrix coefficients of the PGL2 representation Sym^r
    out to total degree cap, splits the product span by left weight, and
    differences the ranks to read off which Sym^m blocks (m even, at most
    cap) are present.  The target side comes from the monomial count, not
    from the products.
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
    one = CoeffRingElement.one()
    tables = {0: {}}
    _echelon_insert(tables[0], dict(one.terms))
    if 0 < r <= cap:
        gens = matrix_coefficients(r)
        level = [(0, one)]
        for _ in range(cap // r):
            new = []
            for w, x in level:
                for m, g in enumerate(gens):
                    y, wy = x * g, w + r - 2 * m
                    if _echelon_insert(tables.setdefault(wy, {}), dict(y.terms)):
                        new.append((wy, y))
            level = new
    reached = {}
    for m in range(0, cap + 1, 2):
        reached[m] = len(tables.get(m, ())) - len(tables.get(m + 2, ()))
    target = _target_multiplicities(cap)
    for m, mult in target.items():
        if mult != 1:
            raise ArithmeticError(
                "monomial count gives multiplicity %d in degree %d" % (mult, m)
            )
    missing = tuple(m for m in sorted(target)
                    if reached.get(m, 0) < target[m])
    return ClosureReport(
        r=r,
        cap=cap,
        reached=tuple(sorted(reached.items())),
        target=tuple(sorted(target.items())),
        missing=missing,
        generated=not missing,
    )

"""Frobenius matrices of elliptic curves, with a point-counting oracle.

The curve is y^2 = f(x) for a monic integer cubic f with good reduction
at an odd prime p >= 5.  Lifting Frobenius by x -> x^p and expanding
1/sigma(y) as a binomial series in (f(x^p) - f(x)^p)/f(x)^p, regrouped by
powers of f(x^p), gives terms f(x^p)^j / y^(p(2j+1)) dx with poles along
y = 0; pushing the pole order down with exact forms, each term joining at
its own order, expresses the image of each basis element in the basis
{dx/y, x dx/y} again.  The series is cut after its K-th power of
E = f(x^p) - f(x)^p, K = _series_cut(p, n), the least K for which Kedlaya's
Lemmas 2 and 3 prove the tail O(p^n) (kedlaya_frobenius has the proof).
Counting points over F_p directly supplies an independent value for the
trace.

The reduction runs on plain ints at the single modulus p^W.  Each term is
reduced horizontally at its pole order P to degree <= 1, both columns in one
pass that divides by 2k - 3P + 2 and reduces only its multipliers mod p^W;
two fixed 2x2 maps from the Bezout factor 1/f' mod f then carry both from P
to P - 2, dividing by P - 2.  The p-parts of the divisors go to one loss
counter e, so the result holds to absolute precision exactly W - e.
PadicElement appears only when the entries are read off.

Only f enters the Bezout factor, the vertical maps, the powers f^j and the
window walk; K, W, the row scalars and the divisors' products, inverses and
p-parts depend on (p, n) alone and form one _Plan, kept in _plans.
"""

from collections import namedtuple
from math import comb, prod

from .arith import check_precision, check_prime, kronecker
from .padic import PrecisionError, _capped, _vp, residual_valuation

# p(3K^2 + 9K + 4) reduction steps at the proven cut K = _series_cut(p, n), times
# the 64-bit words of p^n: about a second
_MAX_STEPS = 5 * 10**5
# divisors per product in _row_walk
_CHUNK = 64


# -- integer polynomials mod M, coefficients low to high ---------------------

def _int_mul(a, b, M):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % M for c in out]


def _divmod_cubic(a, f, M):
    """Quotient and remainder mod M of a by the monic cubic f.

    The quotient has at least two terms and the remainder exactly three.
    """
    a = a + [0] * (5 - len(a))
    f0, f1, f2 = f[0], f[1], f[2]
    for top in range(len(a) - 1, 2, -1):
        c = a[top] = a[top] % M
        if c:
            a[top - 1] -= c * f2
            a[top - 2] -= c * f1
            a[top - 3] -= c * f0
    return a[3:], [c % M for c in a[:3]]


def _bezout_factor(f, fpr, M):
    """v with v*f' = 1 mod (f, M), deg v < 3, by Cramer's rule.

    Column i of the matrix of multiplication by f' on (Z/M)[x]/(f) is
    x^i f' mod f, and v solves that matrix times v = (1, 0, 0).  Its
    determinant is the resultant of f and f', which is -disc(f) and so a
    unit mod p by good reduction.
    """
    cols = [_divmod_cubic([0] * i + fpr, f, M)[1] for i in range(3)]
    top, (a, b, c), (d, e, g) = zip(*cols)
    # the cofactors of the top row: the cross product of the other two
    cof = [b * g - c * e, c * d - a * g, a * e - b * d]
    inv = pow(sum(x * y for x, y in zip(top, cof)), -1, M)
    return [x * inv % M for x in cof]


# -- curves and the counting oracle -----------------------------------------

def _discriminant(f):
    """Discriminant of the monic cubic f, coefficients low to high."""
    c0, c1, c2 = f[0], f[1], f[2]
    return (18 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2
            - 4 * c1**3 - 27 * c0**2)


def _good_cubic(f, p, least):
    """f as a tuple of ints, once it is a monic cubic with good reduction at
    the prime p >= least."""
    f = tuple(int(c) for c in f)
    if len(f) != 4 or f[3] != 1:
        raise ValueError("f must be a monic cubic, coefficients low to high")
    check_prime(p, least)
    if _discriminant(f) % p == 0:
        raise ValueError("bad reduction: the discriminant vanishes mod p")
    return f


class EllipticCurveW:
    """y^2 = f(x), f a monic integer cubic, p >= 5 of good reduction."""

    def __init__(self, f, p, n):
        self.f = _good_cubic(f, p, 5)
        check_precision(n)
        self.p, self.n = p, n


def count_points(f, p):
    """Trace of Frobenius a_p = p + 1 - #E(F_p) by direct enumeration.

    Sums the quadratic character of f(x) over F_p; the result must sit
    inside the Weil bound, a hard postcondition.
    """
    c0, c1, c2 = _good_cubic(f, p, 3)[:3]
    a_p = -sum(kronecker((x * x * x + c2 * x * x + c1 * x + c0) % p, p)
               for x in range(p))
    if a_p * a_p > 4 * p:
        raise ArithmeticError("point count violates the Weil bound")
    return a_p


# -- the Frobenius matrix ----------------------------------------------------

class FrobeniusMatrix(namedtuple("FrobeniusMatrix", "entries curve")):
    """Action on the basis {dx/y, x dx/y}; column i is the image of basis i."""

    __slots__ = ()

    def trace(self):
        return self.entries[0][0] + self.entries[1][1]

    def determinant(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c


def _loss_count(p, K):
    # the counter both columns share, walked as the loop walks: row j (P = p(2j+1))
    # divides by the odd 6 - 3P .. p, multiples p*m for odd m = -(6j+1) .. 1
    e = 0
    for P in range(p * (2 * K + 1), 1, -2):
        if P % (2 * p) == p:
            e = max(e, sum(_vp(d, p) for d in range(2 * p - 3 * P, p + 1, 2 * p)))
        e += _vp(P - 2, p)
    return e


def _vertical_maps(f, fpr, v, M):
    """Images of 1 and x under T and S' as (T0, T1, S'0, S'1), ints mod M.

    With r = R*f + S*f' (S = r*v mod f), r dx/y^P is T(r) + (2/(P-2)) S'(r)
    over y^(P-2) up to an exact form, where T(r) = R = (r - S*f')/f.
    """
    images = []
    for b in (0, 1):
        S = _divmod_cubic([0] * b + v, f, M)[1]
        w = [-c for c in _int_mul(S, fpr, M)]
        w[b] += 1
        T, rem = _divmod_cubic(w, f, M)
        if any(rem):
            raise ArithmeticError("pole reduction left a nonzero remainder")
        images.append((T[0], T[1], S[1], 2 * S[2]))
    return images


def _row_walk(K, p, M):
    """(multipliers, rows): what the divisors of rows 0 .. K give _horizontal.

    _horizontal multiplies row j's window by D = 2k - 3P + 2, P = p(2j+1),
    at each k from p(3j+2) - 1 down to 2, so D runs from p down to 6 - 3P
    and every row walks a prefix of row K's divisors.  Its input t joins
    after k = p(t+1) + 2, the i-th input (i = 3j - t) times U p^e mod M, the
    product of the D so far: multipliers[i], whatever the row.  The D between
    two inputs are p consecutive odd numbers (p - 2 before the first), only
    the one at k = -1 mod p divisible by p, so one product per segment, its
    p-part split off, moves U and e; _CHUNK divisors per product keep each
    product short.  Row j ends p steps after its last input, at the end of
    segment 3j + 1, with rows[j] = (U^-1, e).
    """
    U, e, pe, D, mults, rows = 1, 0, 1, p, [], []
    for i, count in enumerate((p - 2,) + (p,) * (3 * K + 1)):
        end = D - 2 * count
        for lo in range(D, end, -2 * _CHUNK):
            x = prod(range(lo, max(lo - 2 * _CHUNK, end), -2))
            v = _vp(x, p)
            U, e, pe = U * (x // p**v) % M, e + v, pe * p**v
        D = end
        mults.append(U * pe % M)
        if i % 3 == 1:
            rows.append((pow(U, -1, M), e))
    return tuple(mults), tuple(rows)


def _horizontal(c, P, f, p, M, mults, row):
    """Reduce x^(p(i+1)-1) C(x^p) dx/y^P, C = sum c[t] x^t, for i = 0 and 1.

    Twice d(x^(k-2)/y^(P-2)) is (2(k-2) x^(k-3) f - (P-2) x^(k-2) f') dx/y^P,
    D x^k + a1 x^(k-1) + a2 x^(k-2) + a3 x^(k-3) with D = 2k - 3P + 2.  A
    window per column holds the coefficients of x^k, x^(k-1), x^(k-2) times
    U * p^e: a step multiplies it by D and reduces only w0, the next
    multiplier, mod M.  _row_walk gives the U * p^e mod M each input takes
    (mults) and the row's (U^-1, e).  Returns both columns' (r0, r1) of
    (r0 + r1 x) dx / (p^e y^P), and e.
    """
    inv, e = row
    f0, f1, f2 = 2 * f[0], 2 * f[1], 2 * f[2]
    top = p * (len(c) + 1) - 1
    (u0, u1, u2), (w0, w1, w2) = (0, 0, 0), (c[-1], 0, 0)
    D, a1, a2, a3 = 2 * top - 3 * P + 2, f2 * (top - P), f[1] * (2 * top - P - 2), f0 * (top - 2)
    # x^(k-3) holds c[t] in column 0 and c[t-1] in column 1 at k = p(t+1) + 2;
    # the walk ends with p steps past the last input, which adds nothing
    inputs = [(c[t] * s, c[t - 1] * s if t else 0)
              for t, s in zip(range(len(c) - 1, -1, -1), mults)] + [(0, 0)]
    count = p - 2
    for x0, x1 in inputs:
        for _ in range(count):
            g, h = u0 % M, w0 % M
            u0, u1, w0, w1 = D * u1 - g * a1, D * u2 - g * a2, D * w1 - h * a1, D * w2 - h * a2
            u2, w2 = -g * a3, -h * a3
            D, a1, a2, a3 = D - 2, a1 - f2, a2 - f1, a3 - f0
        u2, w2, count = u2 + x0, w2 + x1, p
    return ((u1 * inv % M, u0 * inv % M), (w1 * inv % M, w0 * inv % M)), e


def _series_cut(p, n):
    """The least K >= 0 with (K + 1) - floor(log_p(2K + 3)) >= n.

    Cutting the series for 1/sigma(y) after E^K then changes no class by
    more than O(p^n) (kedlaya_frobenius has the proof).  The left side is
    at most K + 1, so the search starts at n - 1 and takes about log_p(2n)
    steps, whatever n is; padic._cutoff would scan 2n terms before the step
    budget can refuse a huge n.
    """
    K = max(n - 1, 0)
    while True:
        m, lost = 2 * K + 3, 0
        while m >= p:
            m, lost = m // p, lost + 1
        if K + 1 - lost >= n:
            return K
        K += 1


# what kedlaya_frobenius needs of (p, n) alone: the cut K, the width W and
# M = p^W; the row scalars b_j p 4^-K mod M; per pole order P from p(2K+1)
# down to 3, the vertical step's (p^k, 2 ((P-2)/p^k)^-1 mod M, k) with
# k = v_p(P - 2); and the _row_walk's multipliers and per-row (U^-1, e)
_Plan = namedtuple("_Plan", "K W M scalars verticals mults rows")
_plans = {}


def _build_plan(p, n):
    """The _Plan of (p, n); PrecisionError over the step budget, before any work."""
    K = _series_cut(p, n)
    if p * (3 * K * K + 9 * K + 4) * (1 + n * p.bit_length() // 64) > _MAX_STEPS:
        raise PrecisionError("the Kedlaya step count at p = %d, precision %d exceeds the "
                             "configured maximum %d" % (p, n, _MAX_STEPS))
    W = n + _loss_count(p, K)
    M = p**W
    # with E = f(x^p) - y^(2p), 1/sigma(y) = y^-p (1 + E/y^(2p))^(-1/2); the
    # series cut at E^K is sum_j b_j f(x^p)^j / y^(p(2j+1)) with
    # b_j = sum_(j<=k<=K) binom(-1/2, k) binom(k, j) (-1)^(k-j), and
    # 4^K b_j = (-1)^j sum_k binom(2k, k) binom(k, j) 4^(K-k) is an integer;
    # sigma(x^i dx/y) = p x^(p(i+1)-1) dx / sigma(y), the p in scale
    scale = p * pow(4**K, -1, M)
    scalars = tuple((-1) ** j * scale * sum(comb(2 * k, k) * comb(k, j) * 4 ** (K - k)
                                            for k in range(j, K + 1)) % M
                    for j in range(K + 1))
    verticals = []
    for P in range(p * (2 * K + 1), 1, -2):
        k = _vp(P - 2, p)
        pk = p**k
        verticals.append((pk, 2 * pow((P - 2) // pk, -1, M), k))
    return _Plan(K, W, M, scalars, tuple(verticals), *_row_walk(K, p, M))


def kedlaya_frobenius(curve):
    """Frobenius matrix on {dx/y, x dx/y} to the curve's precision.

    The binomial series for 1/sigma(y) is cut after E^K, K = _series_cut(p, n).
    The cut is proven (Kedlaya, J. Ramanujan Math. Soc. 16 (2001), Lemmas 2
    and 3; Edixhoven, "Point counting after Kedlaya", 2003):
    - term k of the series is p binom(-1/2, k) E^k x^(p(i+1)-1) dx / y^(p(2k+1))
      with E = f(x^p) - f(x)^p = 0 mod p, so it is p^(k+1) times an integral
      form;
    - written f-adically, its numerator is sum_l A_l f^l with deg A_l <= 2,
      which splits the form into pieces A_l dx / y^s, s odd and at most
      p(2k+1); the pieces with s <= 0 have their poles at infinity only;
    - by Lemma 2 the class of a piece with s >= 3 has denominator at most
      p^floor(log_p(s - 2)), whatever path the reduction takes, since the
      class is unique; by Lemma 3, at infinity, the small |s| that occur
      here cost at most one digit;
    - as s - 2 < p(2k+1), the class of term k has valuation at least
      k - floor(log_p(2k+1)), which never decreases as k grows, so every
      term after K is O(p^n).
    Regrouped by powers of f(x^p), the cut series is a sum of
    K + 1 terms b_j f(x^p)^j / y^P, P = p(2j+1), each reduced horizontally
    at its own P, both columns in one pass, to join accumulators that fixed
    2x2 vertical steps carry from P to P - 2: O(pK^2) steps of constant size.
    Working mod p^W, the loop counts the digits e lost to the divisors
    2k - 3P + 2 and P - 2, so the result holds to absolute precision W - e.
    W is n plus that count, known before the reduction starts (_loss_count);
    PrecisionError is raised if W - e still falls below n.  Entries come
    back capped at n.  Its 2 sum_(j<=K) (3pj + 2p) horizontal and 2pK
    vertical column-steps, weighted as _MAX_STEPS says, are counted first;
    more raise PrecisionError.  K, W, the row scalars b_j p 4^-K, the
    divisors' products, inverses and p-parts are per (p, n) and come from
    the cached _Plan (a refused (p, n) is not cached); per curve are only
    the Bezout factor, the vertical maps, the powers f^j, the window walk
    and the joins.
    """
    p, n = curve.p, curve.n
    plan = _plans.get((p, n))
    if plan is None:
        plan = _plans[p, n] = _build_plan(p, n)
    K, W, M = plan.K, plan.W, plan.M

    f = list(curve.f)
    fpr = [f[i] * i for i in range(1, 4)]
    v = _bezout_factor(f, fpr, M)
    (t00, t01, s00, s01), (t10, t11, s10, s11) = _vertical_maps(f, fpr, v, M)
    rows, fj = [], [1]
    for j, scalar in enumerate(plan.scalars):
        if j:
            fj = _int_mul(fj, f, M)
        rows.append([scalar * a % M for a in fj])
    # (a0 + a1 x) dx / (p^e y^P) per column, carried down from the top pole order
    cols, e = ((0, 0), (0, 0)), 0
    for P, (pk, s, k) in zip(range(p * (2 * K + 1), 1, -2), plan.verticals):
        if P % (2 * p) == p:
            j = P // (2 * p)
            reduced, er = _horizontal(rows[j], P, f, p, M, plan.mults, plan.rows[j])
            # join over the common power p^max(e, er)
            up, down = p ** max(er - e, 0), p ** max(e - er, 0)
            cols = [(a0 * up + r0 * down, a1 * up + r1 * down)
                    for (a0, a1), (r0, r1) in zip(cols, reduced)]
            e = max(e, er)
        cols = [((pk * (a0 * t00 + a1 * t10) + s * (a0 * s00 + a1 * s10)) % M,
                 (pk * (a0 * t01 + a1 * t11) + s * (a0 * s01 + a1 * s11)) % M)
                for a0, a1 in cols]
        e += k
    if W - e < n:
        raise PrecisionError("working buffer exhausted: achieved absolute precision "
                             "%d is below the requested %d" % (W - e, n))
    entries = tuple(tuple(_capped(p, col[r], n, p**e) for col in cols) for r in (0, 1))
    return FrobeniusMatrix(entries=entries, curve=curve)


def frobenius_selftest(curve):
    """Check the matrix against the model y^2 = g(X) = f(X + 1).

    Frobenius on H^1 does not depend on the lift (Monsky-Washnitzer), and
    dx/y = dX/y, x dx/y = (X + 1) dX/y are the columns of B = [[1, 1], [0, 1]]
    in the basis {dX/y, X dX/y}, so F_f = B^-1 F_g B.  The shift keeps the
    discriminant, so the second run has the same cut and budget at the same n.
    Raises ArithmeticError when an entry moves below p^n.  The point-count
    certificate is the caller's, as for an unchecked matrix.
    """
    p, n = curve.p, curve.n
    base = kedlaya_frobenius(curve)
    c0, c1, c2 = curve.f[:3]
    shifted = EllipticCurveW((c0 + c1 + c2 + 1, c1 + 2 * c2 + 3, c2 + 3, 1), p, n)
    (a, b), (c, d) = kedlaya_frobenius(shifted).entries
    moved = ((a - c, a + b - c - d), (c, c + d))
    res = min(residual_valuation(x, y)
              for row, mrow in zip(base.entries, moved) for x, y in zip(row, mrow))
    if res < n:
        raise ArithmeticError("matrix digits moved under a change of model: the models "
                              "agree to %d of %d digits" % (res, n))
    return base


# residual valuations of trace - a_p and det - p against a target
CharpolyCertificate = namedtuple("CharpolyCertificate", "ok trace_valuation det_valuation")


def charpoly_certificate(matrix, a_p):
    """Check trace = a_p and det = p to the matrix's precision."""
    n = matrix.curve.n
    tv = residual_valuation(matrix.trace(), a_p)
    dv = residual_valuation(matrix.determinant(), matrix.curve.p)
    return CharpolyCertificate(ok=tv >= n and dv >= n, trace_valuation=tv, det_valuation=dv)

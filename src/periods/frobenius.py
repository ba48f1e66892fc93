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

The reduction runs on plain ints at the single modulus M = p^W.  Each term
is reduced horizontally at its pole order P to degree <= 1, both columns in
one pass that multiplies by 2k - 3P + 2 and reduces only its multipliers
mod M; two fixed 2x2 maps from the Bezout factor 1/f' mod f then carry both
from P to P - 2, multiplying by P - 2 where the form divides by it.  What
those products put on a class depends on (p, n) alone, so each row's scalar
takes it back in advance: the accumulators end at p^(W - n) times the
classes, and a curve's pass takes no inverse and counts no digit.
PadicElement appears only when the entries are read off.

Only f enters the Bezout factor, the vertical maps, the powers f^j and the
window walk; K, W, the row scalars and the window multipliers depend on
(p, n) alone and form one _Plan, kept in _plans.
"""

from collections import namedtuple
from math import comb, prod

from .arith import _quote, check_precision, check_prime, kronecker
from .padic import PrecisionError, _capped, _vp, _vp_factorial, residual_valuation

# p(3K^2 + 9K + 4) reduction steps at the proven cut K = _series_cut(p, n), times
# the 64-bit words of p^n: about a second
_MAX_STEPS = 5 * 10**5
# odd numbers per product in _odd_walk
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
    g = tuple(int(c) for c in f)
    if g != tuple(f):
        raise ValueError("f must have integer coefficients")
    if len(g) != 4 or g[3] != 1:
        raise ValueError("f must be a monic cubic, coefficients low to high")
    check_prime(p, least)
    if _discriminant(g) % p == 0:
        raise ValueError("bad reduction: the discriminant vanishes mod p")
    return g


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

def _loss_count(p, K):
    """Digits the divisors take from the classes at the cut K.

    The top row, at P = p(2K + 1), multiplies by 2k - 3P + 2, the odd numbers
    p down to 6 - 3P: one p from p itself and v_p((3P - 6)!!) from the rest.
    The vertical steps from P down to 3 multiply by P - 2, v_p((P - 2)!!) in
    all.  A lower row walks a prefix of the top row's divisors and passes
    fewer vertical steps, so it loses no more.  For odd m,
    m! = m!! 2^((m-1)/2) ((m-1)/2)!.
    """
    P = p * (2 * K + 1)
    return 1 + sum(_vp_factorial(m, p) - _vp_factorial(m // 2, p) for m in (3 * P - 6, P - 2))


def _vertical_maps(f, fpr, v, M):
    """Images of 1 and x under T and 2S' as (T0, T1, 2S'0, 2S'1), ints.

    With r = R*f + S*f' (S = r*v mod f), (P-2) r dx/y^P is (P-2) T(r) + 2 S'(r)
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
        images.append((T[0], T[1], 2 * S[1], 4 * S[2]))
    return images


def _odd_walk(d, step, counts, p, M):
    """(U, e) after each segment of the odd numbers d, d + step, d + 2 step, ...

    Segment i holds counts[i] of them, and the product of all of them so
    far is U p^e, U a unit mod M.  _CHUNK numbers per product keep each
    product short.
    """
    U, e = 1, 0
    for count in counts:
        end = d + step * count
        for lo in range(d, end, step * _CHUNK):
            x = prod(range(lo, end, step)[:_CHUNK])
            v = _vp(x, p)
            U, e = U * (x // p**v) % M, e + v
        d = end
        yield U, e


def _horizontal(c, P, f, p, M, mults):
    """Reduce x^(p(i+1)-1) C(x^p) dx/y^P, C = sum c[t] x^t, for i = 0 and 1.

    Twice d(x^(k-2)/y^(P-2)) is (2(k-2) x^(k-3) f - (P-2) x^(k-2) f') dx/y^P,
    D x^k + a1 x^(k-1) + a2 x^(k-2) + a3 x^(k-3) with D = 2k - 3P + 2.  A
    window per column holds the coefficients of x^k, x^(k-1), x^(k-2) times
    the product of the D so far: a step multiplies it by D and reduces only
    w0, the next multiplier, mod M.  Input t joins after k = p(t+1) + 2, the
    i-th input (i = 3j - t, P = p(2j+1)) times that product, which is
    mults[i] whatever the row.  Returns both columns' (r0, r1) of
    (r0 + r1 x) dx / y^P times the product of all the row's D, unreduced.
    """
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
    return (u1, u0), (w1, w0)


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


# what kedlaya_frobenius needs of (p, n) alone: the cut K, M = p^W, the row
# scalars, the 3K + 2 window multipliers every row shares, and p^(W - n), the
# power of p the accumulators end with
_Plan = namedtuple("_Plan", "K M scalars mults pe")
_plans = {}


def _build_plan(p, n):
    """The _Plan of (p, n); PrecisionError over the step budget, before any work,
    or when W leaves a row short of digits."""
    def over_budget(K):
        return p * (3 * K * K + 9 * K + 4) * (1 + n * p.bit_length() // 64) > _MAX_STEPS

    # the count grows with K, and K >= n - 1: that bound is priced before
    # _series_cut's log_p(2n) steps of big-int divisions
    K = max(n - 1, 0)
    if not over_budget(K):
        K = _series_cut(p, n)
    if over_budget(K):
        raise PrecisionError("the Kedlaya step count at p = %d, precision %s exceeds the "
                             "configured maximum %d" % (p, _quote(n), _MAX_STEPS))
    W = n + _loss_count(p, K)
    M = p**W
    # the window's D run from p down in 3K + 2 segments of odd numbers, p - 2
    # and then p each, with one multiple of p per p-segment; row j's walk ends
    # with segment 3j + 1.  The vertical steps at and below P = p(2j+1)
    # multiply by (P - 2)!!: (p - 1)/2 odd numbers, then p more per row
    walk = list(_odd_walk(p, -2, (p - 2,) + (p,) * (3 * K + 1), p, M))
    verticals = list(_odd_walk(1, 2, ((p - 1) // 2,) + (p,) * K, p, M))
    # with E = f(x^p) - y^(2p), 1/sigma(y) = y^-p (1 + E/y^(2p))^(-1/2); the
    # series cut at E^K is sum_j b_j f(x^p)^j / y^(p(2j+1)) with
    # b_j = sum_(j<=k<=K) binom(-1/2, k) binom(k, j) (-1)^(k-j), and
    # 4^K b_j = (-1)^j sum_k binom(2k, k) binom(k, j) 4^(K-k) is an integer;
    # sigma(x^i dx/y) = p x^(p(i+1)-1) dx / sigma(y).  Row j's window gains
    # U p^e and its vertical steps Q p^v, and every class is to end at
    # p^(W - n), so its scalar is b_j p^(1 + W - n - e - v) / (U Q)
    scalars = []
    for j in range(K, -1, -1):  # the top row loses the most, so it refuses first
        (U, e), (Q, v) = walk[3 * j + 1], verticals[j]
        spare = W - n - e - v
        if spare < 0:
            raise PrecisionError("working buffer exhausted: achieved absolute precision "
                                 "%d is below the requested %d" % (n + spare, n))
        b = (-1) ** j * sum(comb(2 * k, k) * comb(k, j) * 4 ** (K - k) for k in range(j, K + 1))
        scalars.append(b * p ** (1 + spare) * pow(4**K * U * Q, -1, M) % M)
    return _Plan(K, M, tuple(scalars[::-1]), tuple(U * p**e % M for U, e in walk), p ** (W - n))


def kedlaya_frobenius(f, p, n):
    """Frobenius matrix ((a, b), (c, d)) of y^2 = f(x) on {dx/y, x dx/y} to p^n.

    Column i is the image of basis element i.  f is a monic integer cubic with
    good reduction at the prime p >= 5, and n >= 1.

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
    Working mod M = p^W, the divisors 2k - 3P + 2 and P - 2 act as
    multipliers, and each row scalar of the _Plan divides out in advance
    what they will put on that row, so every class ends at p^(W - n).  W is
    n plus the digits those products hold (_loss_count), so the entries come
    back at absolute precision exactly n; _build_plan raises PrecisionError
    if W leaves a row short.  Its 2 sum_(j<=K) (3pj + 2p) horizontal and 2pK
    vertical column-steps, weighted as _MAX_STEPS says, are counted first;
    more raise PrecisionError.  K, W, the row scalars and the window
    multipliers are per (p, n) and come from the cached _Plan (a refused
    (p, n) is not cached); per curve are only the Bezout factor, the
    vertical maps, the powers f^j, the window walk and the joins.
    """
    f = list(_good_cubic(f, p, 5))
    check_precision(n)
    plan = _plans.get((p, n))
    if plan is None:
        plan = _plans[p, n] = _build_plan(p, n)
    K, M = plan.K, plan.M
    fpr = [f[i] * i for i in range(1, 4)]
    v = _bezout_factor(f, fpr, M)
    (t00, t01, s00, s01), (t10, t11, s10, s11) = _vertical_maps(f, fpr, v, M)
    rows, fj = [], [1]
    for j, scalar in enumerate(plan.scalars):
        if j:
            fj = _int_mul(fj, f, M)
        rows.append([scalar * a % M for a in fj])
    # (a0 + a1 x) dx / y^P per column, times p^(W - n) / (P - 2)!!: the step at
    # P multiplies by P - 2, and the row joining at P comes at the same scale
    cols = ((0, 0), (0, 0))
    for P in range(p * (2 * K + 1), 1, -2):
        if P % (2 * p) == p:
            reduced = _horizontal(rows[P // (2 * p)], P, f, p, M, plan.mults)
            cols = [(a0 + r0, a1 + r1) for (a0, a1), (r0, r1) in zip(cols, reduced)]
        cols = [(((P - 2) * (a0 * t00 + a1 * t10) + a0 * s00 + a1 * s10) % M,
                 ((P - 2) * (a0 * t01 + a1 * t11) + a0 * s01 + a1 * s11) % M)
                for a0, a1 in cols]
    return tuple(tuple(_capped(p, col[r], n, plan.pe) for col in cols) for r in (0, 1))


def frobenius_selftest(f, p, n):
    """kedlaya_frobenius(f, p, n), checked against the model y^2 = g(X) = f(X + 1).

    Frobenius on H^1 does not depend on the lift (Monsky-Washnitzer), and
    dx/y = dX/y, x dx/y = (X + 1) dX/y are the columns of B = [[1, 1], [0, 1]]
    in the basis {dX/y, X dX/y}, so F_f = B^-1 F_g B.  The shift keeps the
    discriminant, so the second run has the same cut and budget at the same n.
    Raises ArithmeticError when an entry moves below p^n.  The point-count
    certificate is the caller's, as for an unchecked matrix.
    """
    base = kedlaya_frobenius(f, p, n)
    c0, c1, c2 = f[:3]
    (a, b), (c, d) = kedlaya_frobenius((c0 + c1 + c2 + 1, c1 + 2 * c2 + 3, c2 + 3, 1), p, n)
    moved = ((a - c, a + b - c - d), (c, c + d))
    res = min(residual_valuation(x, y)
              for row, mrow in zip(base, moved) for x, y in zip(row, mrow))
    if res < n:
        raise ArithmeticError("matrix digits moved under a change of model: the models "
                              "agree to %d of %d digits" % (res, n))
    return base


def charpoly_certificate(matrix, a_p, p):
    """(trace, det, v(trace - a_p), v(det - p)) of a Frobenius matrix.

    The characteristic polynomial of Frobenius is x^2 - a_p x + p; the caller
    compares the two residuals with the matrix's precision.
    """
    (a, b), (c, d) = matrix
    trace, det = a + d, a * d - b * c
    return trace, det, residual_valuation(trace, a_p), residual_valuation(det, p)

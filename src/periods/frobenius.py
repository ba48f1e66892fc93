"""Frobenius matrices of elliptic curves, with a point-counting oracle.

The curve is y^2 = f(x) for a monic integer cubic f with good reduction
at an odd prime p >= 5.  Lifting Frobenius by x -> x^p and expanding
1/sigma(y) as a binomial series in (f(x^p) - f(x)^p)/f(x)^p gives a
differential with high-order poles along y = 0; pushing the pole order
back down with exact forms expresses the image of each basis element in
the basis {dx/y, x dx/y} again.  Counting points over F_p directly
supplies an independent value for the trace.

The reduction runs on plain ints at the single modulus p^W.  A numerator
is an int list A standing for A / p^e: a division by 2m - 1 = p^v * u
multiplies by u^-1 and adds v to the loss counter e, so the result is
known to absolute precision exactly W - e.  PadicElement appears only
when the finished entries are read off.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, kronecker
from .padic import PrecisionError, _capped, _vp


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


# -- rational polynomials, for the one-off Bezout pair ---------------------

def _frac_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _frac_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _frac_trim(out)


def _frac_sub(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _frac_trim(out)


def _frac_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    for top in range(len(a) - 1, db - 1, -1):
        c = a[top] / lead
        if c:
            q[top - db] = c
            for t in range(db + 1):
                a[top - db + t] -= c * b[t]
    return q, _frac_trim(a[:db])


def _bezout_unit(f, g):
    """u, v with u*f + v*g = 1, for coprime f, g with integer coefficients.

    The pair with deg u < deg g and deg v < deg f is unique, and its
    denominators divide the resultant; for a cubic of good reduction that
    keeps every coefficient p-integral.
    """
    r0 = [Fraction(c) for c in f]
    r1 = [Fraction(c) for c in g]
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _frac_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _frac_sub(u0, _frac_mul(q, u1))
        v0, v1 = v1, _frac_sub(v0, _frac_mul(q, v1))
    if len(r0) != 1:
        raise ValueError("polynomials share a factor")
    c = r0[0]
    return [x / c for x in u0], [x / c for x in v0]


# -- curves and the counting oracle -----------------------------------------

def _discriminant(f):
    """Discriminant of the monic cubic f, coefficients low to high."""
    c0, c1, c2 = f[0], f[1], f[2]
    return (18 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2
            - 4 * c1**3 - 27 * c0**2)


@dataclass(frozen=True)
class EllipticCurveW:
    """y^2 = f(x), f a monic integer cubic, p >= 5 of good reduction."""

    f: tuple
    p: int
    n: int

    def __post_init__(self):
        f = tuple(int(c) for c in self.f)
        object.__setattr__(self, "f", f)
        if len(f) != 4 or f[3] != 1:
            raise ValueError("f must be a monic cubic, coefficients low to high")
        if self.p < 5 or not is_prime(self.p):
            raise ValueError("p must be a prime >= 5")
        if self.n < 1:
            raise ValueError("precision must be at least 1")
        if self.discriminant() % self.p == 0:
            raise ValueError("bad reduction: the discriminant vanishes mod p")

    def discriminant(self):
        return _discriminant(self.f)


def count_points(f, p, method="character"):
    """Trace of Frobenius a_p = p + 1 - #E(F_p) by direct enumeration.

    Two independent loops are available: "character" sums the quadratic
    character of f(x), "table" counts square roots per x from a
    precomputed table of squares.  They must agree, and the result must
    sit inside the Weil bound; both are hard postconditions.
    """
    f = tuple(int(c) for c in f)
    if len(f) != 4 or f[3] != 1:
        raise ValueError("f must be a monic cubic, coefficients low to high")
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if _discriminant(f) % p == 0:
        raise ValueError("bad reduction: the discriminant vanishes mod p")
    c0, c1, c2 = f[0], f[1], f[2]
    values = [(x * x * x + c2 * x * x + c1 * x + c0) % p for x in range(p)]
    if method == "character":
        a_p = -sum(kronecker(v, p) for v in values)
    elif method == "table":
        roots = [0] * p
        for y in range(p):
            roots[y * y % p] += 1
        affine = sum(roots[v] for v in values)
        a_p = p - affine
    else:
        raise ValueError("method must be 'character' or 'table'")
    if a_p * a_p > 4 * p:
        raise ArithmeticError("point count violates the Weil bound")
    return a_p


# -- the Frobenius matrix ----------------------------------------------------

@dataclass(frozen=True)
class FrobeniusMatrix:
    """Action on the basis {dx/y, x dx/y}; column i is the image of basis i."""

    entries: tuple
    curve: EllipticCurveW
    precision: int

    def trace(self):
        return self.entries[0][0] + self.entries[1][1]

    def determinant(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c


def _default_buffer(p, m_init):
    # the loss counter reaches the sum of v_p(2m-1) over the pole steps
    # plus one for the degree-reduction division by p; this leaves three
    # more digits of slack
    return 4 + sum(_vp(2 * m - 1, p) for m in range(2, m_init + 1))


def _reduce_differential(A, m_init, f, fpr, v, p, M):
    """Rewrite A(x)/y^(2*m_init+1) dx as (a*dx/y + b*x dx/y) / p^e mod exact forms.

    A, f, f' = fpr and the Bezout factor v (v*f' = 1 mod f) are int lists
    mod M = p^W; returns a, b mod M and the loss counter e.
    """
    e = 0
    for m in range(m_init, 0, -1):
        # split A = R*f + S*f'; then S f'/y^(2m+1) dx is exact up to
        # (2/(2m-1)) S'/y^(2m-1) dx, and R f/y^(2m+1) loses a pole order.
        # With A = Q*f + r: S = r*v mod f and R = Q + (r - S*f')/f.
        Q, r = _divmod_cubic(A, f, M)
        S = _divmod_cubic(_int_mul(r, v, M), f, M)[1]
        w = [-c for c in _int_mul(S, fpr, M)]
        for t in range(3):
            w[t] += r[t]
        T, rem = _divmod_cubic(w, f, M)
        if any(rem):
            raise ArithmeticError("pole reduction left a nonzero remainder")
        k = _vp(2 * m - 1, p)
        pk = p**k
        s = 2 * pow((2 * m - 1) // pk, -1, M)
        A = [c * pk for c in Q] if k else Q
        A[0] += pk * T[0] + s * S[1]
        A[1] += pk * T[1] + 2 * s * S[2]
        e += k
    for j in range(len(A) - 1, 1, -1):
        # twice d(x^(j-2) y) is (2(j-2) x^(j-3) f + x^(j-2) f') dx/y, with
        # leading coefficient 2j-1 at x^j
        k = _vp(2 * j - 1, p)
        pk = p**k
        c = A[j] % M * pow((2 * j - 1) // pk, -1, M)
        A = [a * pk for a in A[:j]]
        if j >= 3:
            for t in range(3):
                A[j - 3 + t] -= c * 2 * (j - 2) * f[t]
        for t in range(2):
            A[j - 2 + t] -= c * fpr[t]
        e += k
    return A[0] % M, A[1] % M, e


def kedlaya_frobenius(curve, series_terms=None, buffer_digits=None):
    """Frobenius matrix on {dx/y, x dx/y} to the curve's precision.

    series_terms is the binomial truncation order K; the dropped tail
    carries valuation at least K+1 before reduction losses, so the
    default K = n + 3 leaves margin.  The reduction works on ints mod
    p^W, W = n + buffer_digits, and counts the digits e lost to the
    divisions by 2m - 1 and 2j - 1; the result holds to absolute
    precision W - e, and PrecisionError is raised when that is below n.
    The default buffer covers the exact worst case.  Entries come back
    capped at absolute precision n.
    """
    p, n = curve.p, curve.n
    K = series_terms if series_terms is not None else n + 3
    if K < n:
        raise ValueError("series truncation is below the target precision")
    m_init = p * K + (p - 1) // 2
    if buffer_digits is None:
        buffer_digits = _default_buffer(p, m_init)
    W = n + buffer_digits
    M = p**W

    f = list(curve.f)
    fp_int = [1]
    for _ in range(p):
        fp_int = _int_mul(fp_int, f, M)
    diff = [-c for c in fp_int]
    for i, c in enumerate(f):
        diff[i * p] += c
    if any(c % p for c in diff):
        raise ArithmeticError("Frobenius defect is not divisible by p")

    # G = sum_k binom(-1/2, k) diff^k fp^(K-k), cleared of the 4^K
    # denominator, by Horner's rule: G_k = G_(k-1)*fp + c_k*diff^k
    G = [4**K % M]
    dk = [1]
    binom = 1
    for k in range(1, K + 1):
        dk = _int_mul(dk, diff, M)
        binom = binom * (2 * k - 1) * (2 * k) // (k * k)
        coef = binom * 4 ** (K - k) * (-1 if k % 2 else 1)
        G = _int_mul(G, fp_int, M)
        for i, c in enumerate(dk):
            G[i] += coef * c

    fpr = [f[i] * i for i in range(1, 4)]
    v = [c.numerator * pow(c.denominator, -1, M) % M
         for c in _bezout_unit(f, fpr)[1]]
    scale = p * pow(4**K, -1, M)
    cols = []
    for i in (0, 1):
        num = [0] * (p - 1 + p * i) + [c * scale % M for c in G]
        a, b, e = _reduce_differential(num, m_init, f, fpr, v, p, M)
        if W - e < n:
            raise PrecisionError(
                "working buffer exhausted: achieved absolute precision "
                "%d is below the requested %d" % (W - e, n)
            )
        cols.append((_capped(p, a, n, e), _capped(p, b, n, e)))
    entries = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
    return FrobeniusMatrix(entries=entries, curve=curve, precision=n)


def frobenius_selftest(curve):
    """Recompute with a longer series and twice the buffer; digits must hold.

    Also gates the result against the point-counting oracle.  Raises
    PrecisionError if either probe disagrees, which is the signal that
    the empirical truncation defaults are inadequate for this input.
    """
    p, n = curve.p, curve.n
    K = n + 3
    b = _default_buffer(p, p * K + (p - 1) // 2)
    base = kedlaya_frobenius(curve, series_terms=K, buffer_digits=b)
    K2 = K + 3
    b2 = max(2 * b, _default_buffer(p, p * K2 + (p - 1) // 2))
    deep = kedlaya_frobenius(curve, series_terms=K2, buffer_digits=b2)
    for r in (0, 1):
        for c in (0, 1):
            d = base.entries[r][c] - deep.entries[r][c]
            if not (d.is_exact_zero() or (d.min_valuation() or 0) >= n):
                raise PrecisionError(
                    "matrix digits moved under a deeper recomputation"
                )
    cert = charpoly_certificate(base, count_points(curve.f, p))
    if not cert.ok:
        raise PrecisionError("matrix disagrees with the point count")
    return base


@dataclass(frozen=True)
class CharpolyCertificate:
    """Residual valuations of trace - a_p and det - p against a target."""

    ok: bool
    trace_valuation: object
    det_valuation: object
    precision: int


def charpoly_certificate(matrix, a_p):
    """Check trace = a_p and det = p to the matrix's precision.

    A residual valuation of None means the difference cancelled exactly.
    """
    n = matrix.precision
    tv = (matrix.trace() - a_p).min_valuation()
    dv = (matrix.determinant() - matrix.curve.p).min_valuation()
    ok = (tv is None or tv >= n) and (dv is None or dv >= n)
    return CharpolyCertificate(
        ok=ok, trace_valuation=tv, det_valuation=dv, precision=n
    )

"""Frobenius matrices of elliptic curves, with a point-counting oracle.

The curve is y^2 = f(x) for a monic integer cubic f with good reduction
at an odd prime p >= 5.  Lifting Frobenius by x -> x^p and expanding
1/sigma(y) as a binomial series in (f(x^p) - f(x)^p)/f(x)^p, regrouped by
powers of f(x^p), gives terms f(x^p)^j / y^(p(2j+1)) dx with poles along
y = 0; pushing the pole order down with exact forms, each term joining at
its own order, expresses the image of each basis element in the basis
{dx/y, x dx/y} again.  Counting points over F_p directly supplies an
independent value for the trace.

The reduction runs on plain ints at the single modulus p^W.  A numerator
is an int list A standing for A / p^e: a division by 2m - 1 = p^v * u
multiplies by u^-1 and adds v to the loss counter e, so the result is
known to absolute precision exactly W - e.  The Bezout factor 1/f' mod f
comes from Cramer's rule on the same ints.  PadicElement appears only
when the finished entries are read off.
"""

from dataclasses import dataclass
from math import comb

from .arith import is_prime, kronecker
from .padic import PrecisionError, _capped, _vp, residual_valuation


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


def count_points(f, p):
    """Trace of Frobenius a_p = p + 1 - #E(F_p) by direct enumeration.

    Sums the quadratic character of f(x) over F_p; the result must sit
    inside the Weil bound, a hard postcondition.
    """
    f = tuple(int(c) for c in f)
    if len(f) != 4 or f[3] != 1:
        raise ValueError("f must be a monic cubic, coefficients low to high")
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if _discriminant(f) % p == 0:
        raise ValueError("bad reduction: the discriminant vanishes mod p")
    c0, c1, c2 = f[0], f[1], f[2]
    a_p = -sum(kronecker((x * x * x + c2 * x * x + c1 * x + c0) % p, p)
               for x in range(p))
    if a_p * a_p > 4 * p:
        raise ArithmeticError("point count violates the Weil bound")
    return a_p


# -- the Frobenius matrix ----------------------------------------------------

@dataclass(frozen=True)
class FrobeniusMatrix:
    """Action on the basis {dx/y, x dx/y}; column i is the image of basis i."""

    entries: tuple
    curve: EllipticCurveW

    def trace(self):
        return self.entries[0][0] + self.entries[1][1]

    def determinant(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c


def _loss_count(p, m_init):
    # the digits the reduction of the second column loses: v_p(2m-1) for
    # each pole order m <= m_init, and one for its degree-reduction step
    # at 2j - 1 = p (the first column stops below that degree)
    return 1 + sum(_vp(2 * m - 1, p) for m in range(2, m_init + 1))


def _reduce_differential(terms, f, fpr, v, p, M):
    """Rewrite the sum of terms[m](x)/y^(2m+1) dx as (a*dx/y + b*x dx/y) / p^e.

    The equality holds mod exact forms.  Each numerator, f, f' = fpr and
    the Bezout factor v (v*f' = 1 mod f) are int lists mod M = p^W;
    returns a, b mod M and the loss counter e.
    """
    A, e = [0] * len(terms[max(terms)]), 0
    for m in range(max(terms), 0, -1):
        if m in terms:
            # A stands for A / p^e and is as long as the term: add term * p^e
            pe = p**e
            A = [a + c * pe for a, c in zip(A, terms[m], strict=True)]
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


def kedlaya_frobenius(curve):
    """Frobenius matrix on {dx/y, x dx/y} to the curve's precision.

    The binomial series for 1/sigma(y) is cut at K = n + 3 terms; the
    dropped tail carries valuation at least K + 1 before reduction
    losses.  Regrouped by powers of f(x^p), the cut series is a sum of
    K + 1 terms b_j f(x^p)^j / y^(p(2j+1)), and each term joins the pole
    reduction at its own pole order.  The reduction works on ints mod p^W
    and counts the digits e lost to the divisions by 2m - 1 and 2j - 1,
    so the result holds to absolute precision W - e.  W is n plus that
    count, which is known before the reduction starts (_loss_count);
    PrecisionError is raised if W - e still falls below n.  Entries come
    back capped at absolute precision n.
    """
    p, n = curve.p, curve.n
    K = n + 3
    W = n + _loss_count(p, p * K + (p - 1) // 2)
    M = p**W

    f = list(curve.f)
    fpr = [f[i] * i for i in range(1, 4)]
    v = _bezout_factor(f, fpr, M)
    # with E = f(x^p) - y^(2p), 1/sigma(y) = y^-p (1 + E/y^(2p))^(-1/2); the
    # series cut at E^K is sum_j b_j f(x^p)^j / y^(p(2j+1)) with
    # b_j = sum_(j<=k<=K) binom(-1/2, k) binom(k, j) (-1)^(k-j), and
    # 4^K b_j = (-1)^j sum_k binom(2k, k) binom(k, j) 4^(K-k) is an integer
    scale = p * pow(4**K, -1, M)
    terms, fj = ({}, {}), [1]
    for j in range(K + 1):
        if j:
            fj = _int_mul(fj, f, M)
        bj = sum(comb(2 * k, k) * comb(k, j) * 4 ** (K - k) for k in range(j, K + 1))
        c = [(-1) ** j * bj * scale * a % M for a in fj]
        for i in (0, 1):
            # sigma(x^i dx/y) = p x^(p(i+1)-1) dx / sigma(y), the p in scale
            num = [0] * (p * (i + 1) + 3 * p * j)
            num[p * (i + 1) - 1::p] = c
            terms[i][p * j + (p - 1) // 2] = num
    cols = []
    for i in (0, 1):
        a, b, e = _reduce_differential(terms[i], f, fpr, v, p, M)
        if W - e < n:
            raise PrecisionError(
                "working buffer exhausted: achieved absolute precision "
                "%d is below the requested %d" % (W - e, n)
            )
        cols.append((_capped(p, a, n, p**e), _capped(p, b, n, p**e)))
    entries = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
    return FrobeniusMatrix(entries=entries, curve=curve)


def frobenius_selftest(curve):
    """Recompute three digits deeper; the requested digits must hold.

    Also gates the result against the point-counting oracle.  Raises
    PrecisionError if either probe disagrees, an opt-in cross-check of
    the series cut and of the loss count.
    """
    p, n = curve.p, curve.n
    base = kedlaya_frobenius(curve)
    deep = kedlaya_frobenius(EllipticCurveW(curve.f, p, n + 3))
    for r in (0, 1):
        for c in (0, 1):
            if residual_valuation(base.entries[r][c], deep.entries[r][c]) < n:
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


def charpoly_certificate(matrix, a_p):
    """Check trace = a_p and det = p to the matrix's precision."""
    n = matrix.curve.n
    tv = residual_valuation(matrix.trace(), a_p)
    dv = residual_valuation(matrix.determinant(), matrix.curve.p)
    return CharpolyCertificate(ok=tv >= n and dv >= n, trace_valuation=tv, det_valuation=dv)

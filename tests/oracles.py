"""Helpers that tests build inputs and oracles with; no command uses them.

teichmuller, is_zero_at_precision and with_rel_prec work on PadicElement;
kummer_weight_matrix and perturbed_invariance on the rank-2 Kummer system
of periods.kummer; dense_kedlaya is the Frobenius matrix by the dense pole
reduction, and walked_loss_count its digit loss counted one pole order at a
time; cm_unramified_by_unit and cm_ramified_p3_by_unit are the CM Gamma products
built one unit at a time, with Fraction exponents and PadicElement powers;
REFERENCE_OPS holds the PadicElement operators as they were before they
read the slots directly: each operand went through _coerce, and every state
through the predicates; target_multiplicities counts the irreducible content
of the torus-invariant part of O(SL2) from its normal-form monomials;
wronskian_defect checks a hypergeometric solution pair by its Wronskian, and
exact_katz solves the same equation over Q from its first-order form.
"""

from fractions import Fraction
from math import comb, gcd, lcm

from periods.arith import is_prime, kronecker
from periods.cm import ExponentiatedProduct, _squarefree_kernel, field_discriminant, imag_quad_data
from periods.frobenius import _bezout_factor, _divmod_cubic, _int_mul
from periods.gamma import gamma_p
from periods.hypergeom import apply_D
from periods.kummer import KummerData, WeightBlockMatrix, check_frobenius_invariance
from periods.padic import PadicElement, _capped, _vp, make_padic


def teichmuller(x):
    """The (p-1)-st root of unity congruent to the unit x mod p.

    Each power y -> y^p gains a digit, so x^(p^(n-1)) = omega(x) mod p^n.
    """
    if not isinstance(x, PadicElement):
        raise TypeError("expected a PadicElement")
    if not x.is_unit():
        raise ValueError("Teichmuller lift needs a unit (valuation 0)")
    p, n = x.p, x.rel_prec
    return PadicElement(p, 0, pow(x.unit, p ** (n - 1), p**n), n)


def is_zero_at_precision(x):
    """True when the element x is indistinguishable from zero (the O(p^A) state)."""
    return x.val is not None and x.rel_prec == 0


def with_rel_prec(x, n):
    """x with its relative precision truncated (never extended) to n."""
    if x.rel_prec == 0 or n >= x.rel_prec:
        return x
    if n < 1:
        raise ValueError("relative precision must stay >= 1")
    return PadicElement(x.p, x.val, x.unit % x.p**n, n)


def _coerce(self, other):
    if isinstance(other, PadicElement):
        if self.p != other.p:
            raise ValueError("prime mismatch: %d vs %d" % (self.p, other.p))
        return other
    if isinstance(other, (int, Fraction)):
        if not other:
            return PadicElement(self.p, None, 0, 0)
        ap = 8 if self.val is None else self.abs_precision()
        return _capped(self.p, other.numerator, ap + 2, other.denominator)
    return NotImplemented


def _add(self, other):
    other = _coerce(self, other)
    if other is NotImplemented:
        return other
    a, b = self, other
    if a.is_exact_zero():
        return b
    if b.is_exact_zero():
        return a
    abs_a, abs_b = a.abs_precision(), b.abs_precision()
    target = min(abs_a, abs_b)
    v0 = min(a.val, b.val)
    window = target - v0
    if window <= 0:
        return PadicElement(self.p, target, 0, 0)
    mod = self.p**window
    ga, gb = a.val - v0, b.val - v0
    total = ((a.unit * self.p**ga if ga < window else 0)
             + (b.unit * self.p**gb if gb < window else 0)) % mod
    if total == 0:
        return PadicElement(self.p, target, 0, 0)
    k = _vp(total, self.p)
    val = v0 + k
    rel = target - val
    return PadicElement(self.p, val, (total // self.p**k) % self.p**rel, rel)


def _neg(self):
    mod = self.p**self.rel_prec
    return PadicElement(self.p, self.val, (-self.unit) % mod, self.rel_prec)


def _sub(self, other):
    other = _coerce(self, other)
    if other is NotImplemented:
        return other
    return _add(self, _neg(other))


def _rsub(self, other):
    return _add(_neg(self), other)


def _mul(self, other):
    other = _coerce(self, other)
    if other is NotImplemented:
        return other
    a, b = self, other
    if a.is_exact_zero() or b.is_exact_zero():
        return PadicElement(self.p, None, 0, 0)
    rel = min(a.rel_prec, b.rel_prec)
    mod = self.p**rel
    return PadicElement(self.p, a.val + b.val, (a.unit * b.unit) % mod, rel)


def _truediv(self, other):
    other = _coerce(self, other)
    if other is NotImplemented:
        return other
    a, b = self, other
    if b.is_exact_zero():
        raise ZeroDivisionError("division by exact zero")
    if b.rel_prec == 0:
        raise ZeroDivisionError(
            "divisor indistinguishable from zero at O(%d^%d)" % (b.p, b.val)
        )
    if a.is_exact_zero():
        return a
    rel = min(a.rel_prec, b.rel_prec)
    mod = self.p**rel
    inv = pow(b.unit % mod, -1, mod)
    return PadicElement(self.p, a.val - b.val, (a.unit * inv) % mod, rel)


def _rtruediv(self, other):
    coerced = _coerce(self, other)
    if coerced is NotImplemented:
        return coerced
    return _truediv(coerced, self)


# x.__add__(y) must equal REFERENCE_OPS["__add__"](x, y), and so on
REFERENCE_OPS = {
    "__add__": _add, "__radd__": _add, "__sub__": _sub, "__rsub__": _rsub,
    "__mul__": _mul, "__rmul__": _mul, "__truediv__": _truediv, "__rtruediv__": _rtruediv,
}


def kummer_weight_matrix(data):
    """The weight-ordered companion of the Kummer Frobenius.

    Dualizing [[1, L], [0, p]] (inverse transpose) and listing the mixed
    coordinate first gives [[1/p, -L/p], [0, 1]] with weights (-2, 0); its
    invariant vector with weight-0 part 1 is exactly period_vector_kummer.
    """
    ell = data.log_twist
    p = data.p
    one = make_padic(data.p, 1, data.n)
    zero = make_padic(data.p, 0, data.n)
    entries = (
        (one / p, -(ell / p)),
        (zero, one),
    )
    return WeightBlockMatrix(entries=entries, weights=(-2, 0))


def perturbed_invariance(data, k):
    """check_frobenius_invariance on a copy of data whose L is scaled by (1 + p^k).

    exp_p(-L(1 + p^k)) = a^(p-1) exp_p(-L p^k), so the residual valuation
    drops to exactly v(L) + k: a sensitivity control for the certificate.
    """
    bad = KummerData(data.a, data.p, data.n)
    vars(bad)["log_twist"] = data.log_twist * (1 + data.p**k)
    return check_frobenius_invariance(bad)


def _dense_reduction(terms, f, fpr, v, p, M):
    """Rewrite the sum of terms[m](x)/y^(2m+1) dx as (a*dx/y + b*x dx/y) / p^e.

    One pole order at a time: the whole numerator A is split as
    R*f + S*f' by a division by f, and a final loop kills the degrees
    above 1 with d(x^(j-2) y).  Returns a, b mod M = p^W and e.
    """
    A, e = [0] * len(terms[max(terms)]), 0
    for m in range(max(terms), 0, -1):
        if m in terms:
            pe = p**e
            A = [a + c * pe for a, c in zip(A, terms[m], strict=True)]
        # A = Q*f + r, S = r*v mod f, R = Q + (r - S*f')/f; then
        # S f'/y^(2m+1) dx is (2/(2m-1)) S'/y^(2m-1) dx up to an exact form
        Q, r = _divmod_cubic(A, f, M)
        S = _divmod_cubic(_int_mul(r, v, M), f, M)[1]
        w = [-c for c in _int_mul(S, fpr, M)]
        for t in range(3):
            w[t] += r[t]
        T, rem = _divmod_cubic(w, f, M)
        assert not any(rem)
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


def walked_loss_count(p, K):
    """The digits Kedlaya's reduction at the cut K loses, one pole order at a time.

    The counter both columns share, walked as the reduction walks: row j, at
    P = p(2j+1), divides by the odd 6 - 3P .. p, the multiples of p among
    them p*m for odd m = -(6j+1) .. 1, and joins with the max of the two
    counts; every vertical step divides by P - 2.
    """
    e = 0
    for P in range(p * (2 * K + 1), 1, -2):
        if P % (2 * p) == p:
            e = max(e, sum(_vp(d, p) for d in range(2 * p - 3 * P, p + 1, 2 * p)))
        e += _vp(P - 2, p)
    return e


def dense_kedlaya(f, p, n):
    """(val, unit, rel_prec) of the entries a, b, c, d of the Frobenius matrix.

    The series of periods.frobenius.kedlaya_frobenius, cut at K = n + 3 in
    place of its proven cut, so that it checks that cut as well, with terms
    regrouped by powers of f(x^p), reduced by a dense division by f at every
    pole order.  Its own buffer: v_p(2m - 1) for each pole order
    m <= pK + (p - 1)/2, and one digit for the degree step at 2j - 1 = p.
    """
    K = n + 3
    W = n + 1 + sum(_vp(2 * m - 1, p) for m in range(2, p * K + (p - 1) // 2 + 1))
    M = p**W
    f = list(f)
    fpr = [f[i] * i for i in range(1, 4)]
    v = _bezout_factor(f, fpr, M)
    scale = p * pow(4**K, -1, M)
    terms, fj = ({}, {}), [1]
    for j in range(K + 1):
        if j:
            fj = _int_mul(fj, f, M)
        bj = sum(comb(2 * k, k) * comb(k, j) * 4 ** (K - k) for k in range(j, K + 1))
        c = [(-1) ** j * bj * scale * a % M for a in fj]
        for i in (0, 1):
            num = [0] * (p * (i + 1) + 3 * p * j)
            num[p * (i + 1) - 1::p] = c
            terms[i][p * j + (p - 1) // 2] = num
    cols = []
    for i in (0, 1):
        a, b, e = _dense_reduction(terms[i], f, fpr, v, p, M)
        assert W - e >= n
        cols.append([_capped(p, x, n, p**e) for x in (a, b)])
    return tuple((x.val, x.unit, x.rel_prec)
                 for x in (cols[0][0], cols[1][0], cols[0][1], cols[1][1]))


def bracket(u, d):
    """The fraction r/d with r the representative of u mod d in (0, d]."""
    if gcd(u, d) != 1:
        raise ValueError("bracket needs gcd(u, d) = 1")
    return Fraction(u % d or d, d)


def eps(disc, u):
    """Quadratic character of discriminant disc at u, reduced mod 2 (0 or 1)."""
    k = kronecker(disc, u)
    if k == 0:
        raise ValueError("%d is not a unit modulo the conductor" % u)
    return 0 if k == 1 else 1


def is_ramified(p, d):
    return field_discriminant(d) % p == 0


def gamma_factors(p, n, modulus, mult, exponent):
    """(gamma_p(<mult u / modulus>), exponent(u)) for each unit u with exponent(u) != 0."""
    factors = []
    for u in range(1, modulus + 1):
        e = exponent(u) if gcd(u, modulus) == 1 else 0
        if e != 0:
            factors.append((gamma_p(make_padic(p, bracket(mult * u, modulus), n), n), e))
    return factors


def collapse(p, factors, rel_prec):
    """The product of base ^ (e * power) over factors, power the lcm of e's denominators."""
    power = lcm(*(e.denominator for _, e in factors)) if factors else 1
    acc = make_padic(p, 1, rel_prec)
    for base, e in factors:
        acc = acc * base ** int(e * power)
    return ExponentiatedProduct(factors=tuple(factors), power=power, collapsed=acc)


def cm_unramified_by_unit(d, p, n):
    """periods.cm.cm_period_unramified, one unit at a time."""
    data = imag_quad_data(d)
    if p == 2 or not is_prime(p):
        raise ValueError("odd prime required")
    if is_ramified(p, d):
        raise ValueError("p = %d ramifies in Q(sqrt(-%d))" % (p, d))
    exponent = lambda u: Fraction(-eps(data.disc, u) * data.w, 4 * data.h)
    return collapse(p, gamma_factors(p, n, data.conductor, p, exponent), n)


def cm_ramified_p3_by_unit(n0, n):
    """periods.cm.cm_period_ramified_p3, one unit at a time."""
    if n0 < 1:
        raise ValueError("n must be at least 1")
    if n0 % 3 == 0:
        raise ValueError("n must be coprime to 3")
    data = imag_quad_data(_squarefree_kernel(3 * n0))
    exponent = lambda u: Fraction(kronecker(n0, u) * data.w, 2 * data.h)
    return collapse(3, gamma_factors(3, n, n0, 1, exponent), n)


def target_multiplicities(cap):
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


def wronskian_defect(alpha, beta):
    """Orders where alpha D(beta) - beta D(alpha) provably differs from 1.

    The Wronskian of genuine solutions is the constant 1, so any coefficient
    with a certain nonzero digit convicts the solver; coefficients that are
    merely zero-to-their-precision are fine (precision decays with order,
    it does not lie).
    """
    a, b = alpha.coeffs, beta.coeffs
    da, db = apply_D(alpha).coeffs, apply_D(beta).coeffs
    bad = []
    for k in range(min(len(a), len(b), len(da), len(db))):
        # t^k of alpha D(beta) and of beta D(alpha), each summed in order
        left, right = a[0] * db[k], b[0] * da[k]
        for i in range(1, k + 1):
            left, right = left + a[i] * db[k - i], right + b[i] * da[k - i]
        w = left - right - 1 if k == 0 else left - right
        if w.rel_prec > 0:
            bad.append(k)
    return bad


def exact_katz(lam0, e, order):
    """The Fraction coefficients of alpha, beta, D(alpha) and D(beta) through order.

    lam0 and e are ints or Fractions.  With g = Df = q f' the equation
    D^2 f = -q f is the first-order system q f' = g, g' = -f, whose t^k
    coefficients give
        q0 (k+1) c_{k+1} = g_k - q1 k c_k - (k-1) c_{k-1},
        (k+1) g_{k+1} = -c_k,
    for q = q0 + q1 t + t^2; alpha starts from (c_0, g_0) = (1, e) and beta
    from (0, 1).  No PadicElement and no second-order recurrence is used.
    """
    lam0, e = Fraction(lam0), Fraction(e)
    q0, q1 = lam0 * (lam0 - 1), 2 * lam0 - 1
    out = []
    for c0, g0 in ((Fraction(1), e), (Fraction(0), Fraction(1))):
        c, g = [c0, g0 / q0], [g0, -c0]
        for k in range(1, order):
            c.append((g[k] - q1 * k * c[k] - (k - 1) * c[k - 1]) / (q0 * (k + 1)))
            g.append(-c[k] / (k + 1))
        out.append((tuple(c[:order + 1]), tuple(g[:order + 1])))
    (alpha, d_alpha), (beta, d_beta) = out
    return alpha, beta, d_alpha, d_beta

"""The ramified quadratic of Gauss-sum arithmetic: Z_p[pi] with pi^(p-1) = -p.

Elements are polynomials c_0 + c_1 pi + ... + c_{p-2} pi^(p-2) with PadicElement
coefficients, so precision bookkeeping rides on the scalar layer. The pi-adic
valuation of a nonzero element is min_i ((p-1) v_p(c_i) + i); the exponents in
different slots never collide mod p-1, which makes that formula exact whenever
the minimizing coefficient is exactly known.

zeta_p is Dwork's splitting function exp(pi(t - t^p)) at t = 1, summed on
plain ints up to a proven cutoff: no Newton iteration and no padding.

Conventions fixed here once and pinned by tests:
  * zeta_p = 1 + pi + O(pi^2)  (pairs the root of unity with the uniformizer)
  * gauss_sum(p, a) = sum_x omega(x)^(-a) zeta^x, valuation a, and
    gauss_sum(p, a) = -pi^a gamma_p(a / (p-1)) to working precision
    (Gross-Koblitz with this sign; nothing probes it at runtime).
"""

import math
from fractions import Fraction

from .gamma import gamma_p
from .padic import PadicElement, _capped, _vp, make_padic, teichmuller


class EisensteinElement:
    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        if len(coeffs) != p - 1:
            raise ValueError("need exactly p-1 coefficients")
        self.p = p
        self.coeffs = tuple(coeffs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, p):
        z = PadicElement(p, None, 0, 0)
        return cls(p, (z,) * (p - 1))

    @classmethod
    def from_scalar(cls, p, x, rel_prec=None):
        if isinstance(x, (int, Fraction)):
            if rel_prec is None:
                raise ValueError("rel_prec required for exact scalars")
            x = make_padic(p, x, rel_prec)
        z = PadicElement(p, None, 0, 0)
        return cls(p, (x,) + (z,) * (p - 2))

    @classmethod
    def pi(cls, p, rel_prec):
        z = PadicElement(p, None, 0, 0)
        one = make_padic(p, 1, rel_prec)
        return cls(p, (z, one) + (z,) * (p - 3))

    # -- bookkeeping --------------------------------------------------------

    def pi_precision(self):
        """The element is known modulo pi^(this). None means exact."""
        best = None
        for i, c in enumerate(self.coeffs):
            ap = c.abs_precision()
            if ap is None:
                continue
            cand = (self.p - 1) * ap + i
            if best is None or cand < best:
                best = cand
        return best

    def pi_valuation(self):
        """Provable lower bound on v_pi; None for the exact zero element."""
        best = None
        for i, c in enumerate(self.coeffs):
            v = c.min_valuation()
            if v is None:
                continue
            cand = (self.p - 1) * v + i
            if best is None or cand < best:
                best = cand
        return best

    def is_exact_zero(self):
        return all(c.is_exact_zero() for c in self.coeffs)

    # -- ring operations -----------------------------------------------------

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("prime mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, PadicElement)):
            other = _scalar_like(self, other)
        self._check(other)
        return EisensteinElement(
            self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return EisensteinElement(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, PadicElement)):
            other = _scalar_like(self, other)
        self._check(other)
        return EisensteinElement(
            self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicElement)):
            return EisensteinElement(self.p, tuple(c * other for c in self.coeffs))
        self._check(other)
        d = self.p - 1
        out = [PadicElement(self.p, None, 0, 0)] * d
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_exact_zero():
                    continue
                k = i + j
                term = a * b
                if k >= d:
                    k -= d
                    term = term * (-self.p)
                out[k] = out[k] + term
        return EisensteinElement(self.p, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        if result is None:
            # empty product; borrow a sensible precision from the base
            rel = max((c.rel_prec for c in self.coeffs), default=1) or 1
            return EisensteinElement.from_scalar(self.p, 1, rel)
        return result

    def mul_pi(self):
        cs = self.coeffs
        return EisensteinElement(self.p, (cs[-1] * (-self.p),) + cs[:-1])

    def conjugate(self):
        """The automorphism pi -> -pi (sends zeta_p to its inverse)."""
        return EisensteinElement(
            self.p, tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))
        )

    def __str__(self):
        return " + ".join(
            "(%s)*pi^%d" % (c, i)
            for i, c in enumerate(self.coeffs)
            if not c.is_exact_zero()
        ) or "0 (exact)"

    def __repr__(self):
        return "EisensteinElement(p=%d, %s)" % (self.p, list(self.coeffs))


def _scalar_like(elem, x):
    rel = max((c.rel_prec for c in elem.coeffs), default=1) or 1
    if isinstance(x, PadicElement):
        return EisensteinElement.from_scalar(elem.p, x)
    return EisensteinElement.from_scalar(elem.p, x, rel)


def residual_pi_valuation(a, b):
    """Lower bound on v_pi(a - b); None when the difference is exactly zero."""
    return (a - b).pi_valuation()


def zeta_p(p, m):
    """The p-th root of unity with zeta = 1 + pi + O(pi^2), mod pi^m.

    zeta = theta(1) for Dwork's splitting function theta(t) =
    exp(pi(t - t^p)) = sum_n lambda_n t^n, with lambda_n = sum over
    i + pj = n of (-1)^j pi^(i+j) / (i! j!).  Dwork's bound
    ord_p lambda_n >= n(p-1)/p^2 puts every n >= ceil(m p^2 / (p-1)^2)
    at pi-valuation >= m, so the sum stops there with no padding.  With
    i + j = q(p-1) + s a term is (-1)^j (-p)^q / (i! j!) in slot s, a
    p-adic integer since v_p(i! j!) <= (i+j)/(p-1); each slot is summed
    on ints mod p^W, W = ceil(m/(p-1)), and slot s is returned at
    absolute precision ceil((m-s)/(p-1)), the digits that fix zeta mod
    pi^m.
    """
    if p == 2 or p < 2:
        raise ValueError("odd p required")
    if m < 2:
        raise ValueError("pi-precision must be >= 2")
    d = p - 1
    top = -(-m * p * p // (d * d))
    width = -(-m // d)
    mod = p**width
    # v_p(k!) and the inverse of its unit part mod p^W, for k < top
    vals, invs = [0], [1]
    for k in range(1, top):
        v = _vp(k, p)
        vals.append(vals[-1] + v)
        invs.append(invs[-1] * pow(k // p**v, -1, mod) % mod)
    slots = [0] * d
    for j in range((top - 1) // p + 1):
        for i in range(top - p * j):
            q, s = divmod(i + j, d)
            e = q - vals[i] - vals[j]
            if e < width:
                term = p**e * invs[i] * invs[j]
                slots[s] += -term if (q + j) % 2 else term
    return EisensteinElement(
        p, tuple(_capped(p, x % mod, -((s - m) // d)) for s, x in enumerate(slots))
    )


def gauss_sum(p, a, m):
    """g_a = sum over units x of omega(x)^(-a) zeta_p^x, to pi-precision m.

    Its pi-adic valuation is a.
    """
    if not 1 <= a <= p - 2:
        raise ValueError("need 1 <= a <= p-2")
    z = zeta_p(p, m + 2)
    rel = max(c.rel_prec for c in z.coeffs)
    acc = EisensteinElement.zero(p)
    zx = EisensteinElement.from_scalar(p, 1, rel)
    for x in range(1, p):
        zx = zx * z
        w = teichmuller(make_padic(p, x, rel))
        acc = acc + zx * w**-a
    return acc


def gauss_sum_conjugate(p, a, m):
    """The complex-conjugate analog: character inverted and zeta inverted.

    Satisfies gauss_sum * gauss_sum_conjugate = p exactly (to precision).
    """
    if not 1 <= a <= p - 2:
        raise ValueError("need 1 <= a <= p-2")
    z = zeta_p(p, m + 2)
    rel = max(c.rel_prec for c in z.coeffs)
    zinv = z ** (p - 1)  # z^(p-1) = z^(-1) since z^p = 1
    acc = EisensteinElement.zero(p)
    zx = EisensteinElement.from_scalar(p, 1, rel)
    for x in range(1, p):
        zx = zx * zinv
        w = teichmuller(make_padic(p, x, rel))
        acc = acc + zx * w**a
    return acc


def _gk_candidate(p, a, m):
    # pi^a * gamma_p(a / (p-1)) at matching precision
    rel = m // (p - 1) + 2
    gamma = gamma_p(make_padic(p, Fraction(a, p - 1), rel), rel)
    out = EisensteinElement.from_scalar(p, gamma)
    for _ in range(a):
        out = out.mul_pi()
    return out


def gross_koblitz_residual(p, a, m):
    """v_pi lower bound of g_a + pi^a gamma_p(a/(p-1)), expected >= m.

    The sign is the fixed convention g_a = -pi^a gamma_p(a/(p-1)), pinned
    by a test rather than probed at runtime.  math.inf means the
    difference is exactly zero.
    """
    g = gauss_sum(p, a, m)
    v = (g + _gk_candidate(p, a, m + 2)).pi_valuation()
    return math.inf if v is None else v


"""Arbitrary-precision p-adic numbers with honest precision tracking.

A value is stored as p^val * unit with the unit known modulo p^rel_prec.
Three states are distinguished:

  * exact zero            val is None, unit 0, rel_prec 0
  * zero to precision     unit 0, rel_prec 0, val = A, meaning O(p^A):
                          the value has valuation >= A but nothing more
                          is known (typical cancellation outcome)
  * normal                unit u with p not dividing u, 0 < u < p^rel_prec,
                          val exact, value = p^val * u + O(p^(val+rel_prec))

Addition works at the minimum absolute precision of the operands and
detects cancellation from the digits; multiplication and division work
at the minimum relative precision. Nothing ever reports more precision
than those rules justify.

The operators read val, unit and rel_prec from the slots. Any other operand
goes through one method, _operand, which holds the cap of an exact operand
and embeds it by _embed, the embedding that _capped also uses.
tests/oracles.py keeps the operators that built every operand as an element
and read the state through the predicates; the tests hold these to them.

iwasawa_log and _exp_int (the exponential of exp_p and gamma_p, cached per
(p, n)) sum their series on plain ints mod p^(n+e), where p^e clears the
denominators of the terms kept, and keep the terms up to one proven cut-off
(_cutoff): every term after the last one of valuation below n vanishes mod p^n.
"""

import math
from fractions import Fraction

from .arith import check_precision, check_prime


class PrecisionError(ArithmeticError):
    """Requested precision cannot be attained (over a work budget, or a shortfall)."""


def _vp(n, p):
    # valuation of a nonzero int
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _vp_factorial(k, p):
    """v_p(k!) by Legendre's sum."""
    total = 0
    q = p
    while q <= k:
        total += k // q
        q *= p
    return total


def _cutoff(n, val):
    """The last k >= 1 with val(k) < n, or 0 when there is none.

    val(k) is the valuation of the k-th term of a series; every val cut here
    is at least k/2, so no k >= 2n qualifies: k*m - v_p(k) with m >= 1, and
    k*v - v_p(k!) with v_p(k!) <= (k-1)/(p-1), v >= 1.
    """
    return max((k for k in range(1, 2 * n) if val(k) < n), default=0)


def _embed(p, num, n, den=1, keep=None):
    """(val, unit, rel_prec) of num/den, known to absolute precision at least n, capped at n.

    The one embedding of a rational into Q_p: _capped and the int and
    Fraction operands of the operators go through it.  num = 0, or a
    valuation of n or more, gives O(p^n); otherwise the unit keeps the
    n - val digits below p^n.  Given keep, it keeps at most keep digits, and
    an int's unit is left unreduced: the * or / that asked reduces its result.
    """
    if not num:
        return n, 0, 0
    up = _vp(num, p) if num % p == 0 else 0
    down = _vp(den, p) if den % p == 0 else 0
    val = up - down
    if val >= n:
        return n, 0, 0
    rel = n - val
    if keep is not None and keep < rel:
        rel = keep
    unit = num // p**up if up else num
    if den != 1:
        mod = p**rel
        return val, unit * pow(den // p**down % mod, -1, mod) % mod, rel
    return val, unit if keep else unit % p**rel, rel


def _capped(p, num, n, den=1):
    """num/den as an element, by _embed: make_padic, iwasawa_log and the int kernels (den = p^e)."""
    return PadicElement(p, *_embed(p, num, n, den))


class PadicElement:
    __slots__ = ("p", "val", "unit", "rel_prec")

    def __init__(self, p, val, unit, rel_prec):
        self.p = p
        self.val = val
        self.unit = unit
        self.rel_prec = rel_prec

    # -- state predicates ------------------------------------------------

    def is_exact_zero(self):
        return self.val is None

    def is_unit(self):
        return self.val == 0 and self.rel_prec > 0

    def min_valuation(self):
        """Provable lower bound on the valuation.

        Exact for normal elements; the O() bound for cancelled results;
        math.inf for an exact zero.
        """
        return math.inf if self.val is None else self.val

    def abs_precision(self):
        """val + rel_prec: the O() exponent, math.inf for an exact zero."""
        return self.min_valuation() + self.rel_prec

    # -- integer views ----------------------------------------------------

    def lift(self):
        """Canonical integer representative in [0, p^abs_precision).

        Only defined for val >= 0 (p-adic integers) and for the zero states.
        """
        if self.rel_prec == 0:
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no integer lift")
        return self.unit * self.p**self.val

    def digits(self):
        """Base-p digits of the unit part, least significant first."""
        out = []
        u = self.unit
        for _ in range(self.rel_prec):
            out.append(u % self.p)
            u //= self.p
        return out

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other, keep=None):
        """other's (val, unit, rel_prec), or NotImplemented for another type.

        An element of the same prime is taken as it is, an int or Fraction 0
        is the exact zero, and any other int or Fraction goes through _embed
        at absolute precision ap + 2, or 10 against an exact zero.  That cap
        loses digits an exact p^v has (make_padic(5, 2, 3) * 5**6 is O(5^5)).
        * and / pass keep = max(rel_prec, 1): the result keeps no more digits,
        and the 1 keeps a zero state's O().
        """
        if isinstance(other, (int, Fraction)):
            if not other:
                return None, 0, 0
            n = 10 if self.val is None else self.val + self.rel_prec + 2
            return _embed(self.p, other.numerator, n, other.denominator, keep)
        if not isinstance(other, PadicElement):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("prime mismatch: %d vs %d" % (self.p, other.p))
        return other.val, other.unit, other.rel_prec

    def __add__(self, other):
        p = self.p
        if type(other) is not PadicElement or other.p != p:
            other = self._operand(other)
            if other is NotImplemented:
                return other
            other = PadicElement(p, *other)
        va, vb = self.val, other.val
        if va is None:
            return other
        if vb is None:
            return self
        ta, tb = va + self.rel_prec, vb + other.rel_prec
        target = ta if ta < tb else tb
        v0 = va if va < vb else vb
        window = target - v0
        if window <= 0:
            return PadicElement(p, target, 0, 0)
        # one gap is 0; a term whose gap reaches the window is 0 mod p^window,
        # so it is skipped rather than scaled by a p^gap of any size
        ga, gb = va - v0, vb - v0
        total = ((self.unit * p**ga if ga < window else 0)
                 + (other.unit * p**gb if gb < window else 0)) % p**window
        # total < p^window, so neither unit below needs another reduction
        if total % p:
            return PadicElement(p, v0, total, window)
        if total == 0:
            return PadicElement(p, target, 0, 0)
        k = _vp(total, p)
        return PadicElement(p, v0 + k, total // p**k, window - k)

    __radd__ = __add__

    def __neg__(self):
        mod = self.p**self.rel_prec
        return PadicElement(self.p, self.val, (-self.unit) % mod, self.rel_prec)

    def __sub__(self, other):
        # -other embeds as the negation of other's embedding, so + serves both
        if isinstance(other, (int, Fraction, PadicElement)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        p, va, ra = self.p, self.val, self.rel_prec
        if type(other) is PadicElement and other.p == p:
            vb, ub, rb = other.val, other.unit, other.rel_prec
        else:
            other = self._operand(other, ra or 1)
            if other is NotImplemented:
                return other
            vb, ub, rb = other
        if va is None or vb is None:
            return PadicElement(p, None, 0, 0)
        # a zero state has unit 0 and rel 0, so this gives O(p^(val_a + val_b))
        rel = ra if ra < rb else rb
        return PadicElement(p, va + vb, self.unit * ub % p**rel, rel)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p, va, ra = self.p, self.val, self.rel_prec
        if type(other) is PadicElement and other.p == p:
            vb, ub, rb = other.val, other.unit, other.rel_prec
        else:
            other = self._operand(other, ra or 1)
            if other is NotImplemented:
                return other
            vb, ub, rb = other
        if vb is None:
            raise ZeroDivisionError("division by exact zero")
        if rb == 0:
            raise ZeroDivisionError("divisor indistinguishable from zero at O(%d^%d)" % (p, vb))
        if va is None:
            return self
        # O(p^A) / b: mod is 1 and pow(b, -1, 1) == 0, so the unit stays 0
        rel = ra if ra < rb else rb
        mod = p**rel
        return PadicElement(p, va - vb, self.unit * pow(ub, -1, mod) % mod, rel)

    def __rtruediv__(self, other):
        other = self._operand(other, self.rel_prec or 1)
        if other is NotImplemented:
            return other
        return PadicElement(self.p, *other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if self.val is None:
            if k == 0:
                raise ZeroDivisionError("0**0 of an exact zero")
            if k < 0:
                raise ZeroDivisionError("negative power of exact zero")
            return self
        if k == 0:
            return PadicElement(self.p, 0, 1, max(self.rel_prec, 1))
        if self.rel_prec == 0:
            if k < 0:
                raise ZeroDivisionError("negative power of O(p^%d)" % self.val)
            return PadicElement(self.p, self.val * k, 0, 0)
        mod = self.p**self.rel_prec
        u = pow(self.unit, k, mod) if k > 0 else pow(pow(self.unit, -1, mod), -k, mod)
        return PadicElement(self.p, self.val * k, u, self.rel_prec)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        # structural: same state and same known digits
        if not isinstance(other, PadicElement):
            return NotImplemented
        return (
            self.p == other.p
            and self.val == other.val
            and self.unit == other.unit
            and self.rel_prec == other.rel_prec
        )

    # -- rendering ------------------------------------------------------------

    def __str__(self):
        if self.val is None:
            return "0 (exact)"
        if self.rel_prec == 0:
            return "O(%d^%d)" % (self.p, self.val)
        parts = []
        for i, d in enumerate(self.digits()):
            if i == 0:
                parts.append(str(d))
            elif i == 1:
                parts.append("%d*%d" % (d, self.p))
            else:
                parts.append("%d*%d^%d" % (d, self.p, i))
        return "%d^%d * (%s) + O(%d^%d)" % (
            self.p,
            self.val,
            " + ".join(parts),
            self.p,
            self.val + self.rel_prec,
        )

    def __repr__(self):
        return "PadicElement(p=%d, val=%r, unit=%d, rel_prec=%d)" % (
            self.p,
            self.val,
            self.unit,
            self.rel_prec,
        )

    def to_json(self):
        return {
            "p": self.p,
            "val": self.val,
            "digits": self.digits(),
            "rel_prec": self.rel_prec,
        }


def make_padic(p, x, rel_prec):
    """Canonical image of the rational x in Q_p to relative precision rel_prec."""
    check_prime(p)
    check_precision(rel_prec)
    x = Fraction(x)
    if not x:
        return PadicElement(p, None, 0, 0)
    num, den = x.numerator, x.denominator
    return _capped(p, num, _vp(num, p) - _vp(den, p) + rel_prec, den)


def residual_valuation(a, b):
    """Lower bound on v_p(a - b): an int, or math.inf when a - b is exactly zero.

    Every certificate reads its residual here, so a caller compares with
    ">= n" and nothing else; cli._res_json writes the inf as JSON null.
    """
    return (a - b).min_valuation()


def iwasawa_log(x):
    """Logarithm killing Teichmuller torsion: log(x) = log(x / omega(x)).

    Defined here for units at odd p; satisfies log(x*y) = log(x) + log(y) and
    log(a) = log(a^(1-p)) / (1-p) to the reported precision.  As
    omega(x)^(p-1) = 1, it is log(1 + s) / (p-1) with s = x^(p-1) - 1.
    """
    if not isinstance(x, PadicElement):
        raise TypeError("expected a PadicElement")
    if not x.is_unit():
        raise ValueError("iwasawa_log implemented for units only")
    p, n = x.p, x.rel_prec
    s = pow(x.unit, p - 1, p**n) - 1
    m = _vp(s, p) if s else n
    last = _cutoff(n, lambda k: k * m - _vp(k, p))
    e = max((_vp(k, p) for k in range(1, last + 1)), default=0)
    mod = p ** (n + e)
    s = pow(x.unit, p - 1, mod) - 1
    acc, power = 0, 1
    for k in range(1, last + 1):
        power = power * s % mod
        v = _vp(k, p)
        term = power * p ** (e - v) * pow(k // p**v, -1, mod)
        acc += term if k % 2 else -term
    return _capped(p, acc * pow(p - 1, -1, mod) % mod, n, p**e)


def _exp_cut(p, n):
    """(K, v_p(K!)): exp(x) mod p^n ends at x^K/K! when v(x) >= 1."""
    big_k = _cutoff(n, lambda k: k - _vp_factorial(k, p))
    return big_k, _vp_factorial(big_k, p)


_exp_consts = {}


def _exp_int(p, x, n):
    """exp(x) mod p^n for an int x with v(x) >= 1, known mod p^n.

    Sums (K!/k!) x^k mod p^(n+e) by Horner and divides by K! = p^e u; K, e,
    the K!/k! (successive products) and u^-1 are built once per (p, n).
    """
    consts = _exp_consts.get((p, n))
    if consts is None:
        big_k, e = _exp_cut(p, n)
        mod, scale = p ** (n + e), [1]
        for k in range(big_k, 0, -1):
            scale.append(scale[-1] * k % mod)
        consts = _exp_consts[p, n] = e, mod, scale, pow(scale[-1] // p**e, -1, p**n)
    e, mod, scale, unit_inv = consts
    acc = 0
    for s in scale:
        acc = (acc * x + s) % mod
    return acc // p**e * unit_inv % p**n


def exp_p(x):
    """p-adic exponential at odd p, for v(x) >= 1; O(p^A) lifts to 0, giving 1 + O(p^A)."""
    if not isinstance(x, PadicElement):
        raise TypeError("expected a PadicElement")
    p = x.p
    if x.is_exact_zero():
        return PadicElement(p, 0, 1, 8)
    if x.val < 1:
        raise ValueError("exp_p needs valuation >= 1 at p = %d" % p)
    n = x.abs_precision()
    return PadicElement(p, 0, _exp_int(p, x.lift(), n), n)

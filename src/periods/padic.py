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
"""

from fractions import Fraction

from .arith import is_prime


class PrecisionError(ArithmeticError):
    """Requested precision cannot be attained (term caps, config caps)."""


def _vp(n, p):
    # valuation of a nonzero int
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _capped(p, a, n, e=0):
    """The int a over p^e, known to absolute precision at least n, capped at n."""
    val = _vp(a, p) - e if a else n
    if val >= n:
        return PadicElement(p, n, 0, 0)
    rel = n - val
    return PadicElement(p, val, a // p ** (val + e) % p**rel, rel)


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

    def is_zero_at_precision(self):
        """True when the value is indistinguishable from zero (O(p^A) state)."""
        return self.val is not None and self.rel_prec == 0

    def is_unit(self):
        return self.val == 0 and self.rel_prec > 0

    def min_valuation(self):
        """Provable lower bound on the valuation.

        Exact for normal elements; the O() bound for cancelled results;
        None stands for +infinity (exact zero).
        """
        return self.val

    def abs_precision(self):
        # None means infinite (exact zero)
        if self.val is None:
            return None
        if self.rel_prec == 0:
            return self.val
        return self.val + self.rel_prec

    # -- construction helpers --------------------------------------------

    def _zero_at(self, abs_prec):
        return PadicElement(self.p, abs_prec, 0, 0)

    def with_rel_prec(self, n):
        """Truncate (never extend) the relative precision to n."""
        if self.val is None or self.rel_prec == 0:
            return self
        if n >= self.rel_prec:
            return self
        if n < 1:
            raise ValueError("relative precision must stay >= 1")
        return PadicElement(self.p, self.val, self.unit % self.p**n, n)

    # -- integer views ----------------------------------------------------

    def lift(self):
        """Canonical integer representative in [0, p^abs_precision).

        Only defined for val >= 0 (p-adic integers) and for the zero states.
        """
        if self.val is None:
            return 0
        if self.rel_prec == 0:
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no integer lift")
        return self.unit * self.p**self.val

    def digits(self):
        """Base-p digits of the unit part, least significant first."""
        if self.val is None or self.rel_prec == 0:
            return []
        out = []
        u = self.unit
        for _ in range(self.rel_prec):
            out.append(u % self.p)
            u //= self.p
        return out

    # -- arithmetic --------------------------------------------------------

    def _check_same_prime(self, other):
        if self.p != other.p:
            raise ValueError("prime mismatch: %d vs %d" % (self.p, other.p))

    def _coerce(self, other):
        if isinstance(other, PadicElement):
            self._check_same_prime(other)
            return other
        if isinstance(other, (int, Fraction)):
            ap = self.abs_precision()
            if ap is None:
                ap = self.rel_prec + 8
            return _embed_exact(self.p, Fraction(other), ap + 2)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
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
        total = 0
        if a.rel_prec > 0:
            total += a.unit * self.p ** (a.val - v0)
        if b.rel_prec > 0:
            total += b.unit * self.p ** (b.val - v0)
        total %= mod
        if total == 0:
            return PadicElement(self.p, target, 0, 0)
        k = _vp(total, self.p)
        val = v0 + k
        rel = target - val
        return PadicElement(self.p, val, (total // self.p**k) % self.p**rel, rel)

    __radd__ = __add__

    def __neg__(self):
        if self.val is None or self.rel_prec == 0:
            return self
        mod = self.p**self.rel_prec
        return PadicElement(self.p, self.val, (-self.unit) % mod, self.rel_prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        a, b = self, other
        if a.is_exact_zero() or b.is_exact_zero():
            return PadicElement(self.p, None, 0, 0)
        if a.rel_prec == 0 or b.rel_prec == 0:
            # O(p^A) * (p^v u + ...) = O(p^(A+v))
            return PadicElement(self.p, a.val + b.val, 0, 0)
        rel = min(a.rel_prec, b.rel_prec)
        mod = self.p**rel
        return PadicElement(self.p, a.val + b.val, (a.unit * b.unit) % mod, rel)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
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
        if a.rel_prec == 0:
            return PadicElement(self.p, a.val - b.val, 0, 0)
        rel = min(a.rel_prec, b.rel_prec)
        mod = self.p**rel
        inv = pow(b.unit % mod, -1, mod)
        return PadicElement(self.p, a.val - b.val, (a.unit * inv) % mod, rel)

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return coerced
        return coerced / self

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

    def __hash__(self):
        return hash((self.p, self.val, self.unit, self.rel_prec))

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


def _embed_exact(p, x, abs_prec):
    """Embed the exact Fraction x at the given absolute precision."""
    num, den = x.numerator, x.denominator
    if not num:
        return PadicElement(p, None, 0, 0)
    up, down = _vp(num, p), _vp(den, p)
    rel = abs_prec - up + down
    if rel < 1:
        return PadicElement(p, abs_prec, 0, 0)
    mod = p**rel
    unit = num // p**up % mod * pow(den // p**down % mod, -1, mod) % mod
    return PadicElement(p, up - down, unit, rel)


def make_padic(p, x, rel_prec, integral=False):
    """Canonical image of the rational x in Q_p to relative precision rel_prec."""
    if rel_prec < 1:
        raise ValueError("relative precision must be >= 1")
    if p < 2 or not is_prime(p):
        raise ValueError("%d is not prime" % p)
    x = Fraction(x)
    if integral and x.denominator % p == 0:
        raise ValueError("denominator divisible by %d in an integral context" % p)
    if not x:
        return PadicElement(p, None, 0, 0)
    return _embed_exact(p, x, _vp(x.numerator, p) - _vp(x.denominator, p) + rel_prec)


def compare(a, b):
    """Three-valued comparison: 'equal', 'distinct', or 'indistinguishable'.

    'equal' only for an exactly-zero difference; a difference that merely
    vanishes to the joint precision is 'indistinguishable', since more digits
    could still separate the values.
    """
    d = a - b
    if d.is_exact_zero():
        return "equal"
    if d.rel_prec > 0:
        return "distinct"
    return "indistinguishable"


def residual_valuation(a, b):
    """Lower bound on v_p(a - b); None means the difference is exactly zero."""
    return (a - b).min_valuation()


def teichmuller(x):
    """The (p-1)-st root of unity congruent to the unit x mod p.

    Frobenius iteration y <- y^p gains at least one digit per pass.
    """
    if not isinstance(x, PadicElement):
        raise TypeError("expected a PadicElement")
    if not x.is_unit():
        raise ValueError("Teichmuller lift needs a unit (valuation 0)")
    p, n = x.p, x.rel_prec
    mod = p**n
    y = x.unit % mod
    for _ in range(n + 2):
        y2 = pow(y, p, mod)
        if y2 == y:
            break
        y = y2
    return PadicElement(p, 0, y, n)


def _log_term_cap(m, target, p):
    # smallest n such that every dropped term t^k/k (k > n, v(t) = m) has
    # valuation k*m - v_p(k) >= target; uses v_p(k) <= floor(log_p k)
    n = 1
    logp = 0
    while True:
        while p ** (logp + 1) <= n + 1:
            logp += 1
        if (n + 1) * m - logp >= target:
            return n
        n += 1
        if n > 10**6:
            raise PrecisionError("series term cap exceeded")


def iwasawa_log(x):
    """Logarithm killing Teichmuller torsion: log(x) = log(x / omega(x)).

    Defined here for units; satisfies log(x*y) = log(x) + log(y) and
    log(a) = log(a^(1-p)) / (1-p) to the reported precision.
    """
    if not isinstance(x, PadicElement):
        raise TypeError("expected a PadicElement")
    if not x.is_unit():
        raise ValueError("iwasawa_log implemented for units only")
    p = x.p
    omega = teichmuller(x)
    t = x / omega - 1
    if t.is_exact_zero():
        return PadicElement(p, None, 0, 0)
    if t.is_zero_at_precision():
        return t
    m = t.val
    target = t.abs_precision() + 1
    n_max = _log_term_cap(m, target, p)
    # sum of (-1)^(k+1) t^k / k, Horner-free to keep precision tracking exact
    acc = PadicElement(p, None, 0, 0)
    power = t
    for k in range(1, n_max + 1):
        term = power / k
        acc = acc + (term if k % 2 == 1 else -term)
        if k < n_max:
            power = power * t
    return acc


def exp_p(x):
    """p-adic exponential, convergent for v(x) >= 1 (odd p; v >= 2 at p = 2)."""
    if not isinstance(x, PadicElement):
        raise TypeError("expected a PadicElement")
    p = x.p
    if x.is_exact_zero():
        return PadicElement(p, 0, 1, 8)
    need = 2 if p == 2 else 1
    if x.val < need:
        raise ValueError("exp_p needs valuation >= %d at p = %d" % (need, p))
    if x.is_zero_at_precision():
        # exp(O(p^A)) = 1 + O(p^A)
        return PadicElement(p, 0, 1, x.val)
    v = x.val
    target = x.abs_precision() + 1
    # dropped term k: v(x^k / k!) = k*v - (k - s_p(k))/(p-1) >= k*v - (k-1)/(p-1),
    # compared exactly (no floor) after clearing the p-1 denominator
    n_max = 1
    while ((n_max + 1) * v - target) * (p - 1) < n_max:
        n_max += 1
        if n_max > 10**6:
            raise PrecisionError("series term cap exceeded")
    one = PadicElement(p, 0, 1, x.rel_prec + v)
    acc = one
    term = one
    for k in range(1, n_max + 1):
        term = term * x / k
        acc = acc + term
    return acc

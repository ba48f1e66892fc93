"""Special-value products attached to imaginary quadratic fields.

The two period products computed here live in Q_p and are built from Morita
Gamma values at fractions with denominator the conductor:

  * unramified split/inert p:  prod over units u mod D of
        gamma_p(<p u / D>) ^ (-eps(u) w / 4h)
    where D = |disc|, eps is the quadratic character reduced mod 2, h the
    class number and w the number of roots of unity;
  * ramified p = 3, conductor 3n:  kappa = prod over units u mod n of
        gamma_3(<u / n>) ^ ((n|u) w / 2h).

Exponents are kept as exact fractions; only the lcm-cleared integer power is
ever evaluated p-adically (no root extraction behind the caller's back).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, kronecker
from .arith import rational_reconstruct as _reconstruct_int
from .gamma import gamma_p
from .padic import PadicElement, PrecisionError, make_padic


def _squarefree_kernel(d):
    """d >= 1 with every square factor divided out."""
    q = 2
    while q * q <= d:
        while d % (q * q) == 0:
            d //= q * q
        q += 1
    return d


def field_discriminant(d):
    """Discriminant of Q(sqrt(-d)) for squarefree d: -d or -4d."""
    if d <= 0 or _squarefree_kernel(d) != d:
        raise ValueError("%d is not squarefree" % d)
    return -d if d % 4 == 3 else -4 * d


def class_number(disc):
    """Count of reduced primitive binary quadratic forms of discriminant disc."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("need a negative discriminant, 0 or 1 mod 4")
    absd = -disc
    h = 0
    b = absd % 2
    while b * b <= absd // 3:
        quarter = (b * b + absd)
        if quarter % 4 == 0:
            ac = quarter // 4
            a = max(b, 1)
            while a * a <= ac:
                if ac % a == 0:
                    c = ac // a
                    if math.gcd(math.gcd(a, b), c) == 1:
                        h += 1 if b == 0 or a == b or a == c else 2
                a += 1
        b += 2
    return h


@dataclass(frozen=True)
class ImagQuadData:
    d: int
    disc: int
    conductor: int
    h: int
    w: int

    def eps(self, u):
        """Quadratic character of the field at u, reduced mod 2 (0 or 1)."""
        k = kronecker(self.disc, u)
        if k == 0:
            raise ValueError("%d is not a unit modulo the conductor" % u)
        return 0 if k == 1 else 1


def imag_quad_data(d):
    disc = field_discriminant(d)
    h = class_number(disc)
    if disc == -3:
        w = 6
    elif disc == -4:
        w = 4
    else:
        w = 2
    return ImagQuadData(d=d, disc=disc, conductor=-disc, h=h, w=w)


def bracket(u, d):
    """The fraction r/d with r the representative of u mod d in (0, d]."""
    if math.gcd(u, d) != 1:
        raise ValueError("bracket needs gcd(u, d) = 1")
    r = u % d
    if r == 0:
        r = d
    return Fraction(r, d)


def is_ramified(p, d):
    return field_discriminant(d) % p == 0


@dataclass(frozen=True)
class ExponentiatedProduct:
    """A product of p-adic units with exact rational exponents.

    collapsed = prod(base ^ (exp * power)) where power is the lcm of the
    exponent denominators, so collapsed is an honest integer-power value.
    """

    factors: tuple  # of (PadicElement, Fraction) pairs
    power: int
    collapsed: PadicElement

    def json_factors(self):
        return [
            {"base": b.to_json(), "exponent": [e.numerator, e.denominator]}
            for b, e in self.factors
        ]


def _collapse(p, factors, rel_prec):
    power = math.lcm(*(e.denominator for _, e in factors)) if factors else 1
    acc = make_padic(p, 1, rel_prec)
    for base, e in factors:
        k = e * power
        acc = acc * base ** int(k)
    return ExponentiatedProduct(factors=tuple(factors), power=power, collapsed=acc)


def cm_period_unramified(d, p, n):
    """The Gamma-product period of Q(sqrt(-d)) at an unramified odd p."""
    data = imag_quad_data(d)
    if p == 2 or not is_prime(p):
        raise ValueError("odd prime required")
    if is_ramified(p, d):
        raise ValueError("p = %d ramifies in Q(sqrt(-%d))" % (p, d))
    cond = data.conductor
    factors = []
    for u in range(1, cond + 1):
        if math.gcd(u, cond) != 1:
            continue
        e = Fraction(-data.eps(u) * data.w, 4 * data.h)
        if e == 0:
            continue
        base = gamma_p(make_padic(p, bracket(p * u, cond), n), n)
        factors.append((base, e))
    return _collapse(p, factors, n)


def cm_period_ramified_p3(n0, n):
    """Coleman's kappa for p = 3 and the field of sqrt(-3*n0), as a cleared power.

    The class data (h, w) comes from the field, so 3*n0 is reduced to its
    squarefree kernel first; the Gamma arguments u/n0 keep n0 as given.
    """
    if n0 < 1:
        raise ValueError("n must be at least 1")
    if n0 % 3 == 0:
        raise ValueError("n must be coprime to 3")
    data = imag_quad_data(_squarefree_kernel(3 * n0))
    factors = []
    for u in range(1, n0 + 1):
        if math.gcd(u, n0) != 1:
            continue
        sym = kronecker(n0, u)
        e = Fraction(sym * data.w, 2 * data.h)
        if e == 0:
            continue
        base = gamma_p(make_padic(3, bracket(u, n0), n), n)
        factors.append((base, e))
    return _collapse(3, factors, n)


def rational_reconstruct(x, height):
    """Bounded-height rational matching x mod p^(abs precision), or None.

    Needs p^A > 2 height^2 so that a match is unique.
    """
    if not isinstance(x, PadicElement):
        raise TypeError("expected a PadicElement")
    if x.min_valuation() < 0:
        raise ValueError("reconstruction implemented for p-adic integers")
    a = x.abs_precision()
    if a == math.inf:
        return Fraction(0)
    modulus = x.p**a
    if modulus <= 2 * height * height:
        raise PrecisionError(
            "absolute precision %d too low for height bound %d" % (a, height)
        )
    return _reconstruct_int(x.lift(), modulus, height)


def algebraicity_probe(x, height, max_power):
    """First k <= max_power with x^k a bounded-height rational, if any.

    Returns (k, Fraction) or None. Degree-one probe only: a None outcome
    says nothing about algebraicity of higher degree.
    """
    y = x
    for k in range(1, max_power + 1):
        hit = rational_reconstruct(y, height)
        if hit is not None:
            return k, hit
        y = y * x
    return None

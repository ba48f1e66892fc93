"""Special-value products attached to imaginary quadratic fields.

The two period products computed here live in Q_p and are built from Morita
Gamma values at fractions with denominator a modulus M:

  * unramified split/inert p, M = |disc|:  prod over units u mod M of
        gamma_p(<p u / M>) ^ (-[(disc|u) = -1] w / 4h)
    where h is the class number and w the number of roots of unity;
  * ramified p = 3, conductor 3n, M = n:  kappa = prod over units u mod n of
        gamma_3(<u / n>) ^ ((n|u) w / 2h).

Both run through one loop on ints.  Every nonzero exponent is +c or -c, so
the lcm-cleared power is c's denominator, and only that integer power is
evaluated p-adically (no root extraction behind the caller's back).  A
modulus M above 10^6 is refused before any work that grows with it.  A
period is a plain named tuple (factors, power, collapsed), and the JSON of
its factors is written by the command.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .arith import _quote, check_prime, kronecker
from .gamma import _admit, gamma_p
from .padic import PadicElement, PrecisionError, _capped

_MAX_MODULUS = 10**6


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
        raise ValueError("%s is not squarefree" % _quote(d))
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


ImagQuadData = namedtuple("ImagQuadData", "d disc conductor h w")


def imag_quad_data(d):
    disc = field_discriminant(d)
    w = {-3: 6, -4: 4}.get(disc, 2)
    return ImagQuadData(d=d, disc=disc, conductor=-disc, h=class_number(disc), w=w)


# factors holds (PadicElement, Fraction) pairs, and collapsed =
# prod(base ^ (exp * power)) where power is the lcm of the exponent
# denominators, so collapsed is an honest integer-power value
ExponentiatedProduct = namedtuple("ExponentiatedProduct", "factors power collapsed")


def _bounded(modulus):
    if modulus > _MAX_MODULUS:
        raise ValueError("Gamma-product modulus %s exceeds the configured maximum %d"
                         % (_quote(modulus), _MAX_MODULUS))
    return modulus


def _gamma_product(p, n, modulus, mult, chi, c):
    """prod over units u mod modulus of gamma_p(<mult u / modulus>) ^ (chi(u) c).

    chi(u) is 0 or +-1.  The Gamma values are units at relative precision
    n, so collapsed is pow(P+, k) pow(P-, -k) mod p^n, with k = c's
    numerator and P+- the product of the values with each sign.
    """
    _admit(p, n)  # checks n
    mod = p**n
    factors, prods, signed = [], {1: 1, -1: 1}, {1: c, -1: -c}
    for u in range(1, modulus + 1):
        s = chi(u) if math.gcd(u, modulus) == 1 else 0
        if s:
            base = gamma_p(_capped(p, mult * u % modulus or modulus, n, modulus), n)
            factors.append((base, signed[s]))
            prods[s] = prods[s] * base.unit % mod
    k = c.numerator
    unit = pow(prods[1], k, mod) * pow(prods[-1], -k, mod) % mod
    return ExponentiatedProduct(factors=tuple(factors), power=c.denominator,
                                collapsed=PadicElement(p, 0, unit, n))


def cm_period_unramified(d, p, n):
    """The Gamma-product period of Q(sqrt(-d)) at an unramified odd p."""
    _bounded(d if d % 4 == 3 else 4 * d)
    check_prime(p)
    data = imag_quad_data(d)
    if data.disc % p == 0:
        raise ValueError("p = %d ramifies in Q(sqrt(-%d))" % (p, d))
    return _gamma_product(p, n, data.conductor, p, lambda u: -(kronecker(data.disc, u) == -1),
                          Fraction(data.w, 4 * data.h))


def cm_period_ramified_p3(n0, n):
    """Coleman's kappa for p = 3 and the field of sqrt(-3*n0), as a cleared power.

    The class data (h, w) comes from the field, so 3*n0 is reduced to its
    squarefree kernel first; the Gamma arguments u/n0 keep n0 as given.
    """
    if n0 < 1:
        raise ValueError("n must be at least 1")
    if n0 % 3 == 0:
        raise ValueError("n must be coprime to 3")
    data = imag_quad_data(_squarefree_kernel(3 * _bounded(n0)))
    return _gamma_product(3, n, n0, 1, lambda u: kronecker(n0, u), Fraction(data.w, 2 * data.h))


def rational_reconstruct(x, height):
    """Bounded-height rational matching x mod p^(abs precision), or None.

    Needs p^A > 2 height^2 so that a match is unique: a fraction num/den
    with |num|, |den| <= height and num = den * x mod p^A.
    """
    if height < 1:
        raise ValueError("height must be >= 1, got %s" % _quote(height))
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
            "absolute precision %d too low for height bound %s" % (a, _quote(height))
        )
    # lattice {(u, v): u = v*x mod p^A}; shortest vector by the Euclid walk
    r0, t0 = modulus, 0
    r1, t1 = x.lift() % modulus, 1
    while r1 > height:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > height or t1 == 0:
        return None
    num, den = r1, t1
    if den < 0:
        num, den = -num, -den
    if math.gcd(num, den) != 1:
        return None
    # the walk keeps r_i = t_i * x mod p^A at every step, so num = den * x mod p^A
    return Fraction(num, den)


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

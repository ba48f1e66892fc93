"""Integer number theory shared by the rest of the package.

Everything here is exact: Python ints and fractions.Fraction only.
"""

import math
from fractions import Fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # these bases are a proven witness set for n < 3_317_044_064_679_887_385_961_981
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a, b):
    """Kronecker symbol (a|b), defined for all integers b.

    Extends the Jacobi symbol by (a|2) = 0, 1, -1 for a even, a = +-1 mod 8,
    a = +-3 mod 8, and (a|-1) = sign handling, with (a|0) = 1 iff a = +-1.
    """
    if b == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if b < 0:
        b = -b
        if a < 0:
            sign = -1
    # factor out twos from b
    v = 0
    while b % 2 == 0:
        b //= 2
        v += 1
    if v % 2 == 1:
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    # now b odd positive: Jacobi symbol loop
    a %= b
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                sign = -sign
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            sign = -sign
        a %= b
    return sign if b == 1 else 0


def rational_reconstruct(x, m, height):
    """Recover a fraction num/den from x mod m with |num|, |den| <= height.

    Returns a Fraction, or None when no candidate exists in the box.
    Uniqueness needs m > 2*height^2; we enforce that and raise otherwise,
    since a non-unique "reconstruction" is worse than none.
    """
    if m <= 2 * height * height:
        raise ValueError(
            "modulus %d too small for height %d (need m > 2*height^2)" % (m, height)
        )
    x %= m
    # lattice {(u, v): u = v*x mod m}; shortest vector by the Euclid walk
    r0, t0 = m, 0
    r1, t1 = x, 1
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
    if (num - den * x) % m != 0:
        return None
    return Fraction(num, den)


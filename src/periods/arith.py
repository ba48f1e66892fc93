"""Integer number theory shared by the rest of the package.

Primality, the one prime and precision checks, and Kronecker symbols.
Everything here is exact: Python ints only.
"""

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the bases above are a proven witness set for every n below it
_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981


def _quote(n):
    """n as %d writes it, for an error text; past 40 digits its first 20 and its length.

    The length and the first digits come from powers of 10, so an int past
    the int-string limit, which %d refuses, is quoted too.
    """
    m = abs(n)
    if m < 10**40:
        return "%d" % n
    k = int((m.bit_length() - 1) * 0.30102999)  # at most log10(m), 0.30102999 < log10(2)
    while 10 ** (k + 1) <= m:
        k += 1
    return "%s%d...(%d digits)" % ("-" * (n < 0), m // 10 ** (k - 19), k + 1)


def is_prime(n):
    """Deterministic Miller-Rabin for n < psi_13 = 3317044064679887385961981.

    Raises ValueError at and above psi_13, where no answer is proven.
    """
    if n >= _PROVEN_BELOW:
        raise ValueError("primality of %s is not proven (limit %d)" % (_quote(n), _PROVEN_BELOW))
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


_PRIMES_FROM = {3: "an odd prime", 5: "a prime >= 5"}


def check_prime(p, least=3):
    """The one prime check: ValueError unless p is a prime >= least (3 or 5)."""
    if p < least or not is_prime(p):
        raise ValueError("p = %s is not %s" % (_quote(p), _PRIMES_FROM[least]))


def check_precision(n):
    """The one precision check: ValueError unless n >= 1."""
    if n < 1:
        raise ValueError("precision must be >= 1")


def kronecker(a, b):
    """Kronecker symbol (a|b) for an integer b >= 1.

    Extends the Jacobi symbol to even b by (a|2) = 0, 1, -1 for a even,
    a = +-1 mod 8, a = +-3 mod 8.  ValueError for b < 1.
    """
    if b < 1:
        raise ValueError("kronecker needs b >= 1, got %d" % b)
    sign = 1
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

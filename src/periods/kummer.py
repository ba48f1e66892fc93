"""Frobenius matrices and invariant vectors for logarithm-type extensions.

kummer_period(a, p, n) is the concrete two-dimensional case, which pairs
the unit 1 with log(a): Frobenius acts by [[1, L], [0, p]] where
L = iwasawa_log(a^(1-p)), and the associated invariant vector is
(L/(1-p), 1), whose first entry collapses to iwasawa_log(a).  The
certificate checks exp_p(-L) = a^(p-1), so a wrong digit of L shows as a
residual below the precision.

solve_mixed_period works on matrices that are block upper-triangular with
respect to a weight labelling: the weight-0 coordinates are prescribed and
every lower-weight block is recovered by back-substitution, using that
(diagonal block - identity) is invertible away from weight 0.
"""

from fractions import Fraction

from .arith import check_precision, check_prime
from .padic import exp_p, iwasawa_log, make_padic, residual_valuation


def kummer_period(a, p, n):
    """(Frobenius matrix, period vector, invariance residual) of the unit a at p, precision n.

    L = iwasawa_log(a^(1-p)) is computed once.  The residual is the valuation
    of exp_p(-L) - a^(p-1): exp_p's series runs against iwasawa_log's, and
    an L wrong from p^k on leaves exactly k.
    """
    a = Fraction(a)
    if a == 0 or a == 1 or a == -1:
        raise ValueError("a must be a rational other than 0 and +-1")
    check_prime(p)
    if a.numerator % p == 0 or a.denominator % p == 0:
        raise ValueError("a must be a unit at p")
    check_precision(n)
    x = make_padic(p, a, n)
    ell = iwasawa_log(x ** (1 - p))
    one = make_padic(p, 1, n)
    matrix = [[one, ell], [make_padic(p, 0, n), make_padic(p, p, n)]]
    return matrix, (ell / (1 - p), one), residual_valuation(exp_p(-ell), x ** (p - 1))


def _solve_dense(matrix, rhs):
    """Gaussian elimination with minimal-valuation pivoting.

    matrix is a list of rows of PadicElement, rhs a list; both are consumed.
    Raises ArithmeticError when no usable pivot remains, which is how a
    singular-to-precision block surfaces.
    """
    n = len(rhs)
    for col in range(n):
        pivot, best = None, None
        for r in range(col, n):
            e = matrix[r][col]
            if e.rel_prec == 0:
                continue
            if best is None or e.val < best:
                pivot, best = r, e.val
        if pivot is None:
            raise ArithmeticError("matrix is singular at working precision")
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for r in range(n):
            if r == col:
                continue
            e = matrix[r][col]
            if e.rel_prec == 0:
                continue
            factor = e / matrix[col][col]
            for c in range(col, n):
                matrix[r][c] = matrix[r][c] - factor * matrix[col][c]
            rhs[r] = rhs[r] - factor * rhs[col]
    return [rhs[i] / matrix[i][i] for i in range(n)]


def _dot(row, v, idx):
    """The sum of row[j] * v[j] over the nonempty index list idx, added in order."""
    acc = row[idx[0]] * v[idx[0]]
    for j in idx[1:]:
        acc = acc + row[j] * v[j]
    return acc


def solve_mixed_period(entries, weights, v0):
    """The unique invariant vector of the square matrix entries whose weight-0 part is v0.

    entries[i][j] may be nonzero only when weights[i] <= weights[j], and the
    weight-0 coordinates must be present since they anchor the solve.
    Invariance means entries * V = V (columns are period vectors).  The weight-0
    rows are a consistency condition on v0 and are checked, not solved; each
    negative-weight block is solved, by elimination, against the
    already-known higher-weight coordinates.
    """
    n = len(weights)
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("matrix shape does not match the weight list")
    if 0 not in weights:
        raise ValueError("no weight-0 coordinate")
    if any(w > 0 for w in weights):
        raise ValueError("weights must be <= 0")
    for i in range(n):
        for j in range(n):
            if weights[i] > weights[j] and entries[i][j].rel_prec > 0:
                raise ValueError("entry (%d, %d) violates weight triangularity" % (i, j))
    zero_idx = [i for i in range(n) if weights[i] == 0]
    if len(v0) != len(zero_idx):
        raise ValueError("v0 length does not match the weight-0 coordinates")

    v = [None] * n
    for i, x in zip(zero_idx, v0):
        v[i] = x

    # consistency: the weight-0 rows of (entries - I) annihilate v0
    for i in zero_idx:
        if (_dot(entries[i], v, zero_idx) - v[i]).rel_prec > 0:
            raise ArithmeticError("weight-0 block does not fix v0")

    for weight in sorted({w for w in weights if w != 0}, reverse=True):
        block = [i for i in range(n) if weights[i] == weight]
        known = [j for j in range(n) if weights[j] > weight]
        rows = [[entries[i][j] for j in block] for i in block]
        for k in range(len(block)):
            rows[k][k] = rows[k][k] - 1
        sol = _solve_dense(rows, [-_dot(entries[i], v, known) for i in block])
        for k, i in enumerate(block):
            v[i] = sol[k]
    return v

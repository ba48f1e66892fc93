"""Frobenius matrices and invariant vectors for logarithm-type extensions.

The concrete two-dimensional case pairs the unit 1 with log(a): Frobenius
acts by [[1, L], [0, p]] where L = iwasawa_log(a^(1-p)), and the associated
invariant vector is (L/(1-p), 1), whose first entry collapses to
iwasawa_log(a).  The certificate checks exp_p(-L) = a^(p-1), so a wrong
digit of L shows as a residual below the precision.

The general solver works on matrices that are block upper-triangular with
respect to a weight labelling: the weight-0 coordinates are prescribed and
every lower-weight block is recovered by back-substitution, using that
(diagonal block - identity) is invertible away from weight 0.
"""

import functools
from fractions import Fraction

from .arith import check_precision, check_prime
from .padic import exp_p, iwasawa_log, make_padic, residual_valuation


class KummerData:
    def __init__(self, a, p, n):
        a = Fraction(a)
        if a == 0 or a == 1 or a == -1:
            raise ValueError("a must be a rational other than 0 and +-1")
        check_prime(p)
        if a.numerator % p == 0 or a.denominator % p == 0:
            raise ValueError("a must be a unit at p")
        check_precision(n)
        self.a, self.p, self.n = a, p, n

    @functools.cached_property
    def log_twist(self):
        """L = iwasawa_log(a^(1-p)), the (1,2) entry of the Frobenius matrix, computed once."""
        return iwasawa_log(make_padic(self.p, self.a, self.n) ** (1 - self.p))


def frobenius_matrix_kummer(data):
    one = make_padic(data.p, 1, data.n)
    zero = make_padic(data.p, 0, data.n)
    return [
        [one, data.log_twist],
        [zero, make_padic(data.p, data.p, data.n)],
    ]


def period_vector_kummer(data):
    return (data.log_twist / (1 - data.p), make_padic(data.p, 1, data.n))


def check_frobenius_invariance(data):
    """Residual valuation of exp_p(-L) - a^(p-1), L = data.log_twist = (1-p) log(a).

    exp_p's series runs against iwasawa_log's; an L wrong from p^k on leaves exactly k.
    """
    a = make_padic(data.p, data.a, data.n)
    return residual_valuation(exp_p(-data.log_twist), a ** (data.p - 1))


class WeightBlockMatrix:
    """Square p-adic matrix, upper-triangular with respect to weights.

    entries[i][j] may be nonzero only when weights[i] <= weights[j]; the
    weight-0 coordinates must be present since they anchor the solve.
    """

    def __init__(self, entries, weights):
        self.entries = rows = tuple(tuple(row) for row in entries)
        self.weights = weights = tuple(weights)
        n = len(weights)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("matrix shape does not match the weight list")
        if 0 not in weights:
            raise ValueError("no weight-0 coordinate")
        if any(w > 0 for w in weights):
            raise ValueError("weights must be <= 0")
        for i in range(n):
            for j in range(n):
                if weights[i] > weights[j] and rows[i][j].rel_prec > 0:
                    raise ValueError(
                        "entry (%d, %d) violates weight triangularity" % (i, j)
                    )

    def size(self):
        return len(self.weights)


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


def solve_mixed_period(phi, v0):
    """The unique phi-invariant vector whose weight-0 part is v0.

    Invariance means phi V = V (columns are period vectors).  The weight-0
    rows are a consistency condition on v0 and are checked, not solved; each
    negative-weight block is solved, by elimination, against the
    already-known higher-weight coordinates.
    """
    n = phi.size()
    zero_idx = [i for i in range(n) if phi.weights[i] == 0]
    if len(v0) != len(zero_idx):
        raise ValueError("v0 length does not match the weight-0 coordinates")

    v = [None] * n
    for i, x in zip(zero_idx, v0):
        v[i] = x

    # consistency: the weight-0 rows of (phi - I) annihilate v0
    for i in zero_idx:
        acc = None
        for j in zero_idx:
            term = phi.entries[i][j] * v[j]
            acc = term if acc is None else acc + term
        acc = acc - v[i]
        if acc.rel_prec > 0:
            raise ArithmeticError("weight-0 block does not fix v0")

    for weight in sorted({w for w in phi.weights if w != 0}, reverse=True):
        block = [i for i in range(n) if phi.weights[i] == weight]
        known = [j for j in range(n) if phi.weights[j] > weight]
        rows = [[phi.entries[i][j] for j in block] for i in block]
        for k in range(len(block)):
            rows[k][k] = rows[k][k] - 1
        rhs = []
        for i in block:
            acc = None
            for j in known:
                term = phi.entries[i][j] * v[j]
                acc = term if acc is None else acc + term
            rhs.append(-acc)
        sol = _solve_dense(rows, rhs)
        for k, i in enumerate(block):
            v[i] = sol[k]
    return v


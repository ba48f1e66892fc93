"""Local power-series solutions of D^2 f = -q f with D = q(t) d/dt.

Here q(t) = (t + lam0)(t + lam0 - 1) is the quadratic that turns d/dt into
the operator lam(lam - 1) d/dlam in the coordinate t = lam - lam0.  The two
normalized solutions alpha (value 1, D-derivative e at the base point) and
beta (value 0, D-derivative 1) generate the solution space, and the matrix

    [[D(beta), -D(alpha)], [-beta, alpha]]

evaluated near the base point has determinant 1 by the Wronskian argument.

Coefficients live in Q_p and the recurrence divides by (k+1)(k+2) at each
order, so valuations can sink like -v_p(k!); evaluation accounts for that
through a tail bound proven from the equation instead of pretending the
series converges like a unit-coefficient one.
"""

from collections import namedtuple

from .arith import check_prime
from .padic import PadicElement, PrecisionError, _vp_factorial, make_padic


class FormalSeries(namedtuple("FormalSeries", "lam0 coeffs")):
    """Truncated power series in t = lam - lam0: coeffs holds c_0 .. c_order."""

    __slots__ = ()

    @property
    def p(self):
        return self.lam0.p

    def order(self):
        return len(self.coeffs) - 1

    def evaluate(self, lam):
        """Value at lam, with the truncation tail folded into the precision.

        Requires v(t) >= 1, t = lam - lam0.  For a solution f with an integral
        (value, D-value) pair, and for g = Df, v(c_k) >= -v_p(k!): the
        equation reads f' = g/q, g' = -f with 1/q in Z_p[[t]] (q(0) is a
        unit), so k! c_k and k! g_k are integral by induction on k.  Order k
        thus adds at valuation >= k v(t) - v_p(k!); the O()s of the computed
        coefficients already ride in the Horner value.  The tail is that
        bound at k = T + 1, which is NOT proven to be the minimum over k > T:
        it drops at multiples of p^(v(t)+1), and
        test_tail_minimum_past_the_next_order pins a digit it gets wrong.
        Adding O(p^tail) caps the value: the result is O(p^tail) when the
        tail reaches its valuation, and otherwise keeps the digits below it.
        """
        t = lam - self.lam0
        vt = t.min_valuation()
        if vt < 1:
            raise ValueError("evaluation point is outside the unit disc")
        acc = self.coeffs[-1]
        for k in range(self.order() - 1, -1, -1):
            acc = acc * t + self.coeffs[k]
        kk = self.order() + 1
        tail = kk * vt - _vp_factorial(kk, self.p)
        return acc + PadicElement(self.p, tail, 0, 0)


def apply_D(f):
    """q(t) f'(t) for q(t) = (t + lam0)(t + lam0 - 1), order drops by one."""
    lam0, c = f.lam0, f.coeffs
    q0 = lam0 * (lam0 - 1)
    q1 = 2 * lam0 - 1
    # a constant's derivative is c0 - c0, zero at c0's own precision
    d = [(k + 1) * c[k + 1] for k in range(len(c) - 1)] or [c[0] - c[0]]
    out = []
    for k in range(len(d)):
        acc = q0 * d[k]
        if k >= 1:
            acc = acc + q1 * d[k - 1]
        if k >= 2:
            acc = acc + d[k - 2]
        out.append(acc)
    return FormalSeries(lam0, tuple(out))


def solve_second_order(lam0, pairs, order, n):
    """The solutions of D^2 f = -q f, one per (value, D-value) pair at the base.

    Works order-by-order: writing u = Df, the t^k coefficient of
    Du + q f = 0 pins c_{k+2} after dividing by q0^2 (k+1)(k+2), which is
    where v_p((k+2)!)-style precision loss enters.  Each order forms its
    multipliers once and applies them to every solution.
    """
    if not isinstance(lam0, PadicElement):
        raise TypeError("base point must be a p-adic element")
    p = lam0.p
    check_prime(p)  # the tail bound of evaluate needs v(t) >= 1 > 1/(p-1)
    q0 = lam0 * (lam0 - 1)
    if not q0.is_unit():
        raise ValueError("lam0 (lam0 - 1) must be a unit")
    if order < 2:
        raise ValueError("order must be at least 2")
    q1, q0sq = 2 * lam0 - 1, q0 * q0
    sols = []
    for i, pair in enumerate(pairs):
        value, d_value = (x if isinstance(x, PadicElement) else make_padic(p, x, n) for x in pair)
        # evaluate's tail bound starts from an integral pair
        v = min(value.min_valuation(), d_value.min_valuation())
        if v < 0:
            raise ValueError("(value, D-value) pair %d has valuation %d; it must be integral"
                             % (i, v))
        c = [value, d_value / q0]
        sols.append((c, [q0 * c[1]]))
    for k in range(order - 1):
        q0a, q1a, q1k = q0 * (k + 1), q1 * (k + 1), q1 * k
        den, q0b = q0sq * ((k + 1) * (k + 2)), q0 * (k + 2)
        for c, u in sols:
            # the terms of c_{k-1}, c_{k-2} and u_{k-1} start once they exist
            b, kc = q1a * c[k + 1], k * c[k]
            rest = q0a * (b + kc) + q1k * u[k]
            if k:
                rest = rest + (k - 1) * u[k - 1]
            rest = rest + q0 * c[k]
            if k:
                rest = rest + q1 * c[k - 1]
            if k > 1:
                rest = rest + c[k - 2]
            ck2 = -rest / den
            c.append(ck2)
            u.append(q0b * ck2 + b + kc)
    return tuple(FormalSeries(lam0, tuple(c)) for c, _ in sols)


def solve_katz_ode(lam0, e, order, n):
    """The normalized solution pair (alpha, beta) through the given order.

    alpha has value 1 and D-derivative e at the base point, beta value 0 and
    D-derivative 1.
    """
    return solve_second_order(lam0, ((1, e), (0, 1)), order, n)


class HypergeomPeriodMatrix(namedtuple("HypergeomPeriodMatrix", "entries")):
    # entries: ((D beta, -D alpha), (-beta, alpha)) evaluated
    __slots__ = ()

    def determinant(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def achieved_precision(self):
        """The lowest absolute precision of an entry."""
        return min(x.abs_precision() for row in self.entries for x in row)


def period_matrix_hypergeom(sol, lam):
    """Evaluate [[D beta, -D alpha], [-beta, alpha]] at lam.

    A matrix without one certified digit (a shortfall from the truncation
    tail or the coefficient divisions) raises PrecisionError naming the
    achievable precision.
    """
    alpha, beta = sol
    matrix = HypergeomPeriodMatrix((
        (apply_D(beta).evaluate(lam), -apply_D(alpha).evaluate(lam)),
        (-beta.evaluate(lam), alpha.evaluate(lam)),
    ))
    got = matrix.achieved_precision()
    if got < 1:
        raise PrecisionError("achievable absolute precision %d is below the requested 1" % got)
    return matrix

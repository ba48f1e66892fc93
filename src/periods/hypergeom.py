"""Local power-series solutions of D^2 f = -q f with D = q(t) d/dt.

Here q(t) = (t + lam0)(t + lam0 - 1) is the quadratic that turns d/dt into
the operator lam(lam - 1) d/dlam in the coordinate t = lam - lam0.  The two
normalized solutions alpha (value 1, D-derivative e at the base point) and
beta (value 0, D-derivative 1) generate the solution space, and the matrix

    [[D(beta), -D(alpha)], [-beta, alpha]]

evaluated near the base point has determinant 1 by the Wronskian argument.

Coefficients live in Q_p and the recurrence divides by (k+1)(k+2) at each
order, so valuations can sink like -v_p(k!); evaluation accounts for that
through an explicit tail bound instead of pretending the series converges
like a unit-coefficient one.
"""

from collections import namedtuple

from .arith import check_prime
from .padic import PadicElement, PrecisionError, _vp_factorial, make_padic


class FormalSeries:
    """Truncated power series in t = lam - lam0 with p-adic coefficients.

    coeffs holds c_0 .. c_order; tail_slack records how far the computed
    coefficients dip below the -v_p(k!) growth model (0 when they respect
    it), and feeds the evaluation tail bound.
    """

    def __init__(self, lam0, coeffs):
        self.lam0, self.coeffs = lam0, tuple(coeffs)
        slack = 0
        for k, c in enumerate(self.coeffs):
            slack = max(slack, -c.min_valuation() - _vp_factorial(k, lam0.p))
        self.tail_slack = slack

    @property
    def p(self):
        return self.lam0.p

    def order(self):
        return len(self.coeffs) - 1

    def evaluate(self, lam):
        """Value at lam, with the truncation tail folded into the precision.

        Requires v(lam - lam0) >= 1.  The dropped orders k > T contribute at
        valuation >= k v(t) - v_p(k!) - tail_slack, which is minimized at
        k = T + 1 because v(t) >= 1 > 1/(p-1).  The Horner value is capped
        there by adding O(p^tail): addition keeps the lower absolute
        precision, so the result is O(p^tail) when the tail reaches the
        value's valuation, and otherwise keeps the digits below the tail.
        """
        t = lam - self.lam0
        vt = t.min_valuation()
        if vt < 1:
            raise ValueError("evaluation point is outside the unit disc")
        acc = self.coeffs[-1]
        for k in range(self.order() - 1, -1, -1):
            acc = acc * t + self.coeffs[k]
        kk = self.order() + 1
        tail = kk * vt - _vp_factorial(kk, self.p) - self.tail_slack
        # v_p(k!) <= (k-1)/(p-1) < k vt keeps later terms above this bound,
        # so the whole dropped tail is O(p^tail); adding it caps acc there
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
    return FormalSeries(lam0, out)


def solve_second_order(lam0, value, d_value, order, n):
    """One solution of D^2 f = -q f with prescribed f and Df at the base.

    Works order-by-order: writing u = Df, the t^k coefficient of
    Du + q f = 0 pins c_{k+2} after dividing by q0^2 (k+1)(k+2), which is
    where v_p((k+2)!)-style precision loss enters.
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
    zero = make_padic(p, 0, n)
    q1 = 2 * lam0 - 1
    if not isinstance(value, PadicElement):
        value = make_padic(p, value, n)
    if not isinstance(d_value, PadicElement):
        d_value = make_padic(p, d_value, n)

    c = [value, d_value / q0]
    u = [q0 * c[1]]
    for k in range(order - 1):
        cm1 = c[k - 1] if k >= 1 else zero
        cm2 = c[k - 2] if k >= 2 else zero
        um1 = u[k - 1] if k >= 1 else zero
        rest = (
            q0 * (k + 1) * (q1 * (k + 1) * c[k + 1] + k * c[k])
            + q1 * k * u[k]
            + (k - 1) * um1
            + q0 * c[k]
            + q1 * cm1
            + cm2
        )
        ck2 = -rest / (q0 * q0 * ((k + 1) * (k + 2)))
        c.append(ck2)
        u.append(q0 * (k + 2) * ck2 + q1 * (k + 1) * c[k + 1] + k * c[k])
    return FormalSeries(lam0, c)


def solve_katz_ode(lam0, e, order, n):
    """The normalized solution pair (alpha, beta) through the given order.

    alpha has value 1 and D-derivative e at the base point, beta value 0 and
    D-derivative 1.
    """
    p = lam0.p if isinstance(lam0, PadicElement) else None
    if isinstance(e, PadicElement):
        if e.min_valuation() < 0:
            raise ValueError("e must be integral")
    elif p is not None:
        e = make_padic(p, e, n, integral=True)
    alpha = solve_second_order(lam0, 1, e, order, n)
    beta = solve_second_order(lam0, 0, 1, order, n)
    return alpha, beta


class HypergeomPeriodMatrix(namedtuple("HypergeomPeriodMatrix", "entries")):
    # entries: ((D beta, -D alpha), (-beta, alpha)) evaluated
    __slots__ = ()

    def determinant(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def achieved_precision(self):
        """The lowest absolute precision of an entry, math.inf when all are exact zeros."""
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

"""Independent cross-checks used only by the test suite.

Nothing here imports the package under test: the point is to have a
second opinion computed by a different method.
"""

import math

import numpy as np


def _opposite_signs(u, v):
    """Strictly opposite signs, compared directly: the product u * v
    underflows to -0.0 when both are tiny (below ~1e-154)."""
    return (u < 0.0 < v) or (v < 0.0 < u)


def bisect_scan_roots(monic_coeffs, samples=20001, tol=1e-13):
    """All real roots of a monic polynomial by dense sign scan + bisection.

    monic_coeffs are ascending (constant first, leading 1).  The scan
    covers [-R, R] with R the classical coefficient bound 1 + max|c_k|,
    so every real root is bracketed; each sign change is bisected down
    to an interval of width tol.  Roots of even multiplicity produce no
    sign change and are deliberately out of scope for this oracle.
    """
    cs = np.asarray(monic_coeffs, dtype=float)
    if cs[-1] != 1.0:
        raise ValueError("expected a monic polynomial")
    radius = 1.0 + float(np.max(np.abs(cs[:-1])))
    xs = np.linspace(-radius, radius, samples)
    vals = np.polynomial.polynomial.polyval(xs, cs)
    roots = []
    for i in range(samples - 1):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(float(a))
            continue
        if _opposite_signs(fa, fb):
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = float(np.polynomial.polynomial.polyval(mid, cs))
                if fm == 0.0 or (b - a) < tol:
                    a = b = mid
                    break
                if _opposite_signs(fa, fm):
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def trapezoid_cumulative(xs, ys):
    """Plain cumulative trapezoid, anchored at 0 for the first node."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.zeros_like(xs)
    out[1:] = np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))
    return out


def taylor_power_sum(coeffs, g):
    """Taylor coefficients of a polynomial about g, by the plain power sum.

    coeffs are ascending.  Entry k is (1/k!) p^(k)(g) computed as
    sum_{j>=k} C(j, k) c_j g^(j-k) term by term (no Horner).  Returns
    (values, scales): scales[k] is the sum of the absolute terms, the
    magnitude against which rounding differences between summation orders
    are measured.
    """
    n = len(coeffs) - 1
    values, scales = [], []
    for k in range(n + 1):
        terms = [math.comb(j, k) * coeffs[j] * g ** (j - k) for j in range(k, n + 1)]
        values.append(math.fsum(terms))
        scales.append(math.fsum(abs(t) for t in terms))
    return values, scales


class WalkError(Exception):
    """The reference walk stopped at x, for the reason in message."""

    def __init__(self, message, x):
        super().__init__(f"{message} at x={x!r}")
        self.message, self.x = message, x


def reference_walk(xs, roots_at, midpoint, threshold=1e-12, jump=0.25):
    """The branch continuation rule, one point at a time in plain Python.

    roots_at(x) lists the real roots at x in ascending order.  The walk
    starts at the smallest root above threshold at xs[0].  At each next
    abscissa it takes the root nearest the last value (the first of equally
    near roots), or the smallest root above threshold if the nearest one is
    at or below it; no such root means the branch vanished there.  A move
    of more than jump * (1 + |last|) is retried once through
    midpoint(previous x, x); a move that is still too long, into or out of
    the midpoint, loses the branch.  Returns the abscissae (midpoints
    included) and the values; raises WalkError where continuation stops.
    """

    def move(last, x):
        roots = roots_at(x)
        chosen = None
        for r in roots:
            if chosen is None or abs(r - last) < abs(chosen - last):
                chosen = r
        if chosen is None or chosen <= threshold:
            chosen = next((r for r in roots if r > threshold), None)
        if chosen is None:
            raise WalkError("equilibrium branch vanished", x)
        return chosen, abs(chosen - last) > jump * (1.0 + abs(last))

    start = next((r for r in roots_at(xs[0]) if r > threshold), None)
    if start is None:
        raise WalkError("no positive equilibrium at the first grid point", xs[0])
    out_xs, values = [xs[0]], [start]
    for previous, x in zip(xs, xs[1:]):
        value, jumped = move(values[-1], x)
        if jumped:
            mid = midpoint(previous, x)
            mid_value, jumped = move(values[-1], mid)
            if jumped:
                raise WalkError("branch lost (jump beyond threshold)", mid)
            out_xs.append(mid)
            values.append(mid_value)
            value, jumped = move(mid_value, x)
            if jumped:
                raise WalkError("branch lost (jump beyond threshold)", x)
        out_xs.append(x)
        values.append(value)
    return out_xs, values


def slope_in_y(row, y):
    """dF/dy at y of the monic row (ascending coefficients), by Horner on
    the derivative coefficients k c_k."""
    acc = 0.0
    for k in range(len(row) - 1, 0, -1):
        acc = acc * y + k * row[k]
    return acc

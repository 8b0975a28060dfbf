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


class ReferenceNewtonFailure(Exception):
    """The reference stage solve failed; the message is the integrator's."""


def _radau_floats():
    """A (row by row), b and c of the three-stage Radau IIA method, solved
    from the collocation conditions sum_j A_ij c_j^(q-1) = c_i^q / q, and
    the Cayley-Hamilton matrices P1 = A - tr(A) I and
    P2 = A^2 - tr(A) A + (tr(A)^2 - tr(A^2))/2 I, all as Python floats."""
    s6 = math.sqrt(6.0)
    c = np.array([(4.0 - s6) / 10.0, (4.0 + s6) / 10.0, 1.0])
    powers = np.vander(c, 3, increasing=True).T
    A = [np.linalg.solve(powers, np.array([ci ** q / q for q in (1, 2, 3)])).tolist()
         for ci in c]
    A2 = [[sum(A[i][m] * A[m][j] for m in range(3)) for j in range(3)] for i in range(3)]
    trace = A[0][0] + A[1][1] + A[2][2]
    trace2 = A2[0][0] + A2[1][1] + A2[2][2]
    half_gap = 0.5 * (trace * trace - trace2)
    eye = [[float(i == j) for j in range(3)] for i in range(3)]
    P1 = [[A[i][j] - trace * eye[i][j] for j in range(3)] for i in range(3)]
    P2 = [[A2[i][j] - trace * A[i][j] + half_gap * eye[i][j] for j in range(3)]
          for i in range(3)]
    return A, list(A[2]), c.tolist(), eye, P1, P2


def _horner(coefficients, y):
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * y + c
    return acc


def _reference_solve(row, x, y, h, config, tableau):
    """Simplified Newton for the three stage slopes, one stage at a time:
    the predictor f(x, y) and J = df/dy(x, y) from a fresh row(x), the
    inverse of I - hJ A as (I + z P1 + z^2 P2) / det(I - zA), the stage
    rows sampled at the first iteration whose stage values are finite."""
    A, _, c, eye, P1, P2 = tableau
    start = row(x)
    z = h * _horner([k * start[k] for k in range(1, len(start))], y)
    q = 1.0 - (3.0 / 5.0) * z + (3.0 / 20.0) * z * z - (1.0 / 60.0) * z * z * z
    scale = 1.0 / q if q != 0.0 and math.isfinite(q) else math.nan
    M = [[(eye[i][j] + z * P1[i][j] + z * z * P2[i][j]) * scale for j in range(3)]
         for i in range(3)]
    k = [_horner(start, y)] * 3
    threshold = config.newton_tol * (config.atol / h + config.rtol * abs(y))
    stage_rows = None
    for iterations in range(1, config.newton_max_iters + 1):
        s = [y + h * (A[i][0] * k[0] + A[i][1] * k[1] + A[i][2] * k[2]) for i in range(3)]
        size = math.inf
        if all(math.isfinite(v) for v in s):
            if stage_rows is None:
                stage_rows = [row(x + ci * h) for ci in c]
            r = [k[i] - _horner(stage_rows[i], s[i]) for i in range(3)]
            d = [-(M[i][0] * r[0] + M[i][1] * r[1] + M[i][2] * r[2]) for i in range(3)]
            if all(math.isfinite(v) for v in d):
                k = [k[i] + d[i] for i in range(3)]
                size = max(abs(v) for v in d)
        if not math.isfinite(size):
            raise ReferenceNewtonFailure(
                f"non-finite stage update in iteration {iterations} at x={x!r}, h={h!r}")
        if size <= threshold:
            return k, iterations
    raise ReferenceNewtonFailure(
        f"no stage convergence in {config.newton_max_iters} iterations at x={x!r}, h={h!r}")


def reference_attempt(row, x, y, h, config):
    """One Radau IIA step attempt with step doubling, in plain Python.

    row(x) gives the ascending coefficients in y of f(x, y); config is read
    for atol, rtol, newton_tol and newton_max_iters.  Each of the three
    basic steps (h, then h/2 twice) solves its own stages from scratch.
    Returns (y_next, err_est, newton_iters, stages) of the full step and
    the error estimate |y_h - y_{h/2,h/2}| / 31; raises
    ReferenceNewtonFailure with the integrator's message when a stage
    solve fails.
    """
    tableau = _radau_floats()
    b = tableau[1]
    y, h = float(y), float(h)

    def basic(x, y, h):
        k, iterations = _reference_solve(row, x, y, h, config, tableau)
        return y + h * (b[0] * k[0] + b[1] * k[1] + b[2] * k[2]), iterations, tuple(k)

    y_coarse, iters, stages = basic(x, y, h)
    half = 0.5 * h
    y_half, iters2, _ = basic(x, y, half)
    y_fine, iters3, _ = basic(x + half, y_half, half)
    err = abs(y_coarse - y_fine) / (2.0 ** 5 - 1.0)
    return y_coarse, err, iters + iters2 + iters3, stages

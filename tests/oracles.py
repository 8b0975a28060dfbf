"""Independent cross-checks used only by the test suite.

Nothing here imports the package under test: the point is to have a
second opinion computed by a different method.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import solve_ivp


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


def log_damped_trapezoid(values, xs, log_phi, dps=50):
    """log int_{x_0}^{x_i} values / Phi ds by the trapezoid rule, at dps digits.

    The same increments (w_i / 2) (v_{i-1} / Phi_{i-1} + v_i / Phi_i) as the
    kernel under test, but each formed from the float inputs in mpmath, with
    w_i = x_i - x_{i-1} unrounded, and summed in place instead of in logs.
    Returns floats: log I_0 = -inf, and -inf wherever the sum is still 0.
    """
    with mpmath.workdps(dps):
        damped = [mpmath.mpf(float(v)) * mpmath.exp(-mpmath.mpf(float(lp)))
                  for v, lp in zip(values, log_phi)]
        total, out = mpmath.mpf(0), [-math.inf]
        for i in range(1, len(damped)):
            w = mpmath.mpf(float(xs[i])) - mpmath.mpf(float(xs[i - 1]))
            total += w / 2 * (damped[i - 1] + damped[i])
            out.append(float(mpmath.log(total)) if total > 0 else -math.inf)
    return np.array(out)


def simpson_log_phi(xs, leading, eigenvalues, a_n, points):
    """int_{x_0}^{x} a_n Lambda ds by composite Simpson, the rule log Phi
    was computed by before it read the branch table alone, frozen here as
    a reference.

    xs, leading and eigenvalues are the branch's grid, a_n and Lambda
    there; a_n(array) evaluates a_n, read at each cell's midpoint with
    Lambda the chord of the cell's ends.  points is (x, a_n(x), Lambda(x))
    arrays at the abscissae asked for, each inside [xs[0], xs[-1]]: the
    prefix at grid points, plus a partial Simpson on [xs[i], x] elsewhere,
    with a_n evaluated and Lambda interpolated at that cell's midpoint.
    """
    xs, eigenvalues = np.asarray(xs, dtype=float), np.asarray(eigenvalues, dtype=float)
    g = np.asarray(leading, dtype=float) * eigenvalues
    g_mid = a_n(0.5 * xs[:-1] + 0.5 * xs[1:]) * (0.5 * (eigenvalues[:-1] + eigenvalues[1:]))
    cells = np.diff(xs) / 6.0 * (g[:-1] + 4.0 * g_mid + g[1:])
    prefix = np.concatenate(([0.0], np.cumsum(cells)))
    x, g_x = np.asarray(points[0], dtype=float), points[1] * points[2]
    i = np.searchsorted(xs, x, side="right") - 1
    out = prefix[i]
    part = x != xs[i]
    i, x = i[part], x[part]
    mid = 0.5 * xs[i] + 0.5 * x
    g_mid = a_n(mid) * np.interp(mid, xs, eigenvalues)
    out[part] += (x - xs[i]) / 6.0 * (g[i] + 4.0 * g_mid + g_x[part])
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
    return _horner([k * row[k] for k in range(1, len(row))], y)


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
    """Horner's rule from the leading coefficient (0.0 for an empty row), the
    package's operation order: acc = c_{m-1}, then acc = acc y + c_k."""
    if not coefficients:
        return 0.0
    acc = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        acc = acc * y + c
    return acc


def _jacobian(row, y):
    """df/dy at y by Horner on the k c_k; where that is not finite, Horner
    on the k (c_k 2^-e), times 2^e, for the e that brings the m - 1 terms
    k c_k 2^-e and their sum where |y| <= 1 below 2^1024 in whole powers of
    two: the exponent of the largest finite |c_k| (k >= 1) plus the bit
    length of (m - 1)^2, less 1024 (no rescaling where e <= 0)."""
    slope = _horner([k * row[k] for k in range(1, len(row))], y)
    finite = [abs(c) for c in row[1:] if math.isfinite(c)]
    e = math.frexp(max(finite, default=0.0))[1] + ((len(row) - 1) ** 2).bit_length() - 1024
    if math.isfinite(slope) or e <= 0:
        return slope
    return _horner([k * (row[k] * 2.0 ** -e) for k in range(1, len(row))], y) * 2.0 ** e


def _slope_seeds(c, k, shift):
    """The full step's collocation slope polynomial, the quadratic through
    (c_j, k_j), at the half step nodes shift + c_i/2, by Lagrange weights
    w_ij = prod_{m != j} (t_i - c_m) / (c_j - c_m), each seed summed as
    w_i0 k_0 + w_i1 k_1 + w_i2 k_2."""
    seeds = []
    for ci in c:
        t = shift + 0.5 * ci
        w = []
        for j in range(3):
            m, n = [i for i in range(3) if i != j]
            w.append(((t - c[m]) / (c[j] - c[m])) * ((t - c[n]) / (c[j] - c[n])))
        seeds.append(w[0] * k[0] + w[1] * k[1] + w[2] * k[2])
    return seeds


def _reference_solve(row, x, y, h, config, tableau, seeds=None):
    """Simplified Newton for the three stage slopes, one stage at a time,
    from the given starting slopes (f(x, y) three times by default):
    J = df/dy(x, y) (_jacobian) from a fresh row(x), the
    inverse of I - hJ A as (I + z P1 + z^2 P2) / det(I - zA), or where
    det(I - zA) overflows at a finite z as (I w^3 + P1 w^2 + P2 w) /
    (det(I - zA) w^3) with w = 1/z, the stage rows sampled at the first
    iteration whose stage values are finite."""
    A, _, c, eye, P1, P2 = tableau
    start = row(x)
    z = h * _jacobian(start, y)
    q = 1.0 - (3.0 / 5.0) * z + (3.0 / 20.0) * z * z - (1.0 / 60.0) * z * z * z
    if math.isfinite(q) or not math.isfinite(z):
        scale = 1.0 / q if q != 0.0 and math.isfinite(q) else math.nan
        M = [[(eye[i][j] + z * P1[i][j] + z * z * P2[i][j]) * scale for j in range(3)]
             for i in range(3)]
    else:
        w = 1.0 / z
        scale = 1.0 / (w * w * w - (3.0 / 5.0) * (w * w) + (3.0 / 20.0) * w - (1.0 / 60.0))
        M = [[(eye[i][j] * (w * w * w) + P1[i][j] * (w * w) + P2[i][j] * w) * scale
              for j in range(3)] for i in range(3)]
    k = [_horner(start, y)] * 3 if seeds is None else list(seeds)
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
    for atol, rtol, newton_tol and newton_max_iters.  The full step starts
    its stages at f(x, y); the two half steps start theirs at the full
    step's collocation slope polynomial at their nodes (_slope_seeds).
    Returns (y_next, err_est, newton_iters, stages) of the full step and
    the error estimate |y_h - y_{h/2,h/2}| / 31; raises
    ReferenceNewtonFailure with the integrator's message when a stage
    solve fails.
    """
    tableau = _radau_floats()
    b, c = tableau[1], tableau[2]
    y, h = float(y), float(h)

    def basic(x, y, h, seeds=None):
        k, iterations = _reference_solve(row, x, y, h, config, tableau, seeds)
        return y + h * (b[0] * k[0] + b[1] * k[1] + b[2] * k[2]), iterations, tuple(k)

    y_coarse, iters, stages = basic(x, y, h)
    half = 0.5 * h
    y_half, iters2, _ = basic(x, y, half, _slope_seeds(c, stages, 0.0))
    y_fine, iters3, _ = basic(x + half, y_half, half, _slope_seeds(c, stages, 0.5))
    err = abs(y_coarse - y_fine) / (2.0 ** 5 - 1.0)
    return y_coarse, err, iters + iters2 + iters3, stages


def scipy_radau(row, y0, xs):
    """y at each of xs of y' = f(x, y), y(xs[0]) = y0, where row(x) gives the
    ascending coefficients in y of f: scipy's Radau IIA at rtol = 1e-13 and
    atol = 1e-16 with the analytic Jacobian (slope_in_y), read off its dense
    output between its own steps."""
    run = solve_ivp(lambda x, y: [_horner(row(x), y[0])], (xs[0], xs[-1]), [y0],
                    method="Radau", t_eval=xs, rtol=1e-13, atol=1e-16,
                    jac=lambda x, y: [[slope_in_y(row(x), y[0])]])
    if run.status != 0:
        raise RuntimeError(f"scipy's Radau failed: {run.message}")
    return run.y[0]


def reference_integrate(row, x0, y0, x_end, config, checkpoints=None):
    """The adaptive loop of radau.integrate_rhs in plain Python, on top of
    reference_attempt.

    h starts at config.h0 (default 1e-3 (x_end - x0)), capped at h_max
    (default (x_end - x0) / 10).  Each attempt aims at the next checkpoint
    in (x0, x_end] or at x_end, and lands on it exactly when h reaches
    (1 - 1e-12) of the distance.  A stage-solve failure is a rejection
    that halves the step; otherwise the attempt is accepted when
    err <= atol + rtol |y|, and the next h is h clamp(0.9 (tol/err)^(1/6),
    0.2, 5) (5 when err = 0), capped at h_max.  The run stops with
    "step-failure" before attempt max_steps + 1, before an attempt whose
    x + h rounds back to x or whose h/2 is 0, or once h falls below h_min, and with
    "newton-failure" once a halved step does.  Returns
    the IntegrationResult fields as a dict of plain Python values.
    """
    span = x_end - x0
    h_max = span / 10.0 if config.h_max is None else config.h_max
    h = min(1e-3 * span if config.h0 is None else config.h0, h_max)
    marks = {float(x_end)} | {float(p) for p in checkpoints or () if x0 < p <= x_end}
    xs, ys, hs, iters = [x0], [y0], [0.0], [0]
    x, y = x0, y0
    rejected = newton_failures = total_iters = attempts = 0
    status, message = "completed", ""
    while x < x_end:
        if attempts == config.max_steps:
            status, message = "step-failure", f"max_steps={config.max_steps} exceeded"
            break
        attempts += 1
        target = min(p for p in marks if p > x)
        truncated = h >= (target - x) * (1.0 - 1e-12)
        h_try = target - x if truncated else h
        if x + h_try == x:
            status, message = "step-failure", f"step size {h_try!r} does not advance x={x!r}"
            break
        if 0.5 * h_try == 0.0:
            status, message = "step-failure", f"step size {h_try!r} has no half step at x={x!r}"
            break
        try:
            y_next, err, newton_iters, _ = reference_attempt(row, x, y, h_try, config)
        except ReferenceNewtonFailure as failure:
            rejected += 1
            newton_failures += 1
            h = 0.5 * h_try
            if h < config.h_min:
                status, message = "newton-failure", str(failure)
                break
            continue
        total_iters += newton_iters
        tol = config.atol + config.rtol * abs(y)
        if err <= tol:
            x = target if truncated else x + h_try
            y = y_next
            xs.append(x)
            ys.append(y)
            hs.append(h_try)
            iters.append(newton_iters)
        else:
            rejected += 1
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** (1.0 / 6.0)))
        h = min(h_try * factor, h_max)
        if h < config.h_min:
            status, message = "step-failure", f"step size {h!r} below h_min at x={x!r}"
            break
    return {"xs": xs, "ys": ys, "h_used": hs, "newton_per_step": iters,
            "n_accepted": len(xs) - 1, "n_rejected": rejected,
            "n_newton_failures": newton_failures, "n_newton_iters": total_iters,
            "final_x": xs[-1], "final_y": ys[-1], "status": status, "message": message}


class ReferenceSyntaxError(Exception):
    """reference_parse refused its text: message and UTF-8 byte offset are
    formatted as ExprSyntaxError formats them."""

    def __init__(self, message, source, position):
        offset = len(source[:position].encode("utf-8"))
        super().__init__(f"{message} at byte {offset} in {source!r}")
        self.offset = offset


_REFERENCE_DEPTH = 100
_REFERENCE_FUNCTIONS = ("exp", "log", "sqrt", "abs")
_REFERENCE_CONSTANTS = ("pi", "e")


class _ReferenceParser:
    """The character-at-a-time tokenizer and five-level recursive descent
    that expr.parse used until it read a token list, kept as they were."""

    def __init__(self, source):
        self.source, self.pos = source, 0

    def error(self, message, position=None):
        return ReferenceSyntaxError(message, self.source, self.pos if position is None else position)

    def peek(self):
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1
        return self.source[self.pos] if self.pos < len(self.source) else None

    def take_operator(self, chars):
        ch = self.peek()
        if ch is not None and ch in chars:
            self.pos += 1
            return ch
        return None

    def expect(self, ch):
        if self.take_operator(ch) is None:
            raise self.error(f"expected {ch!r}")

    def take_number(self):
        self.peek()
        src, i = self.source, self.pos
        start = i
        while i < len(src) and src[i].isdigit():
            i += 1
        if i < len(src) and src[i] == ".":
            i += 1
            while i < len(src) and src[i].isdigit():
                i += 1
        if i == start or (i == start + 1 and src[start] == "."):
            return None
        if i < len(src) and src[i] in "eE":
            j = i + 1
            if j < len(src) and src[j] in "+-":
                j += 1
            if j < len(src) and src[j].isdigit():
                while j < len(src) and src[j].isdigit():
                    j += 1
                i = j
        text = src[start:i]
        self.pos = i
        try:
            return float(text)
        except ValueError:
            raise self.error(f"bad number {text!r}", start) from None

    def take_name(self):
        self.peek()
        src, i = self.source, self.pos
        start = i
        while i < len(src) and (src[i].isalpha() or src[i] == "_"):
            i += 1
        if i == start:
            return None
        self.pos = i
        return src[start:i], start

    def limit(self, depth):
        if depth > _REFERENCE_DEPTH:
            raise self.error(f"expression nested deeper than {_REFERENCE_DEPTH} levels")
        return depth

    def parse(self):
        node, _ = self.parse_expr(0)
        if self.peek() is not None:
            raise self.error("unexpected trailing input")
        return node

    def parse_expr(self, level):
        node, height = self.parse_term(level)
        while True:
            op = self.take_operator("+-")
            if op is None:
                return node, height
            right, right_height = self.parse_term(level)
            node = ("bin", op, node, right)
            height = self.limit(1 + max(height, right_height))

    def parse_term(self, level):
        node, height = self.parse_factor(level)
        while True:
            op = self.take_operator("*/")
            if op is None:
                return node, height
            right, right_height = self.parse_factor(level)
            node = ("bin", op, node, right)
            height = self.limit(1 + max(height, right_height))

    def parse_factor(self, level):
        if self.take_operator("-"):
            operand, height = self.parse_factor(self.limit(level + 1))
            return ("neg", operand), self.limit(height + 1)
        return self.parse_power(level)

    def parse_power(self, level):
        base, height = self.parse_atom(level)
        if self.take_operator("^"):
            exponent, exp_height = self.parse_factor(self.limit(level + 1))
            return ("bin", "^", base, exponent), self.limit(1 + max(height, exp_height))
        return base, height

    def parse_atom(self, level):
        number = self.take_number()
        if number is not None:
            return ("num", number), 1
        if self.take_operator("("):
            node = self.parse_expr(self.limit(level + 1))
            self.expect(")")
            return node
        name_token = self.take_name()
        if name_token is not None:
            name, start = name_token
            if name in _REFERENCE_FUNCTIONS:
                self.expect("(")
                argument, height = self.parse_expr(self.limit(level + 1))
                self.expect(")")
                return ("call", name, argument), self.limit(height + 1)
            if name == "x":
                return ("x",), 1
            if name in _REFERENCE_CONSTANTS:
                return ("const", name), 1
            raise self.error(f"unknown identifier {name!r}", start)
        raise self.error("expected a number, name or parenthesis")


def reference_parse(source):
    """The syntax tree expr.parse gives source, as nested tuples: ("num", value),
    ("x",), ("const", name), ("neg", operand), ("bin", op, left, right) and
    ("call", name, argument); or the ReferenceSyntaxError it raises.

    It walks the text one character at a time: whitespace is str.isspace,
    digits str.isdigit and name letters str.isalpha or "_", so non-ASCII
    text lexes by the same rules as ASCII.  Nesting of parentheses, calls,
    unary minuses and "^" deeper than 100, or a tree more than 100 high,
    is refused where the parser stands when it counts the 101st level.
    """
    if not isinstance(source, str):
        raise ReferenceSyntaxError("expression must be a string", str(source), 0)
    if not source.strip():
        raise ReferenceSyntaxError("empty expression", source, 0)
    return _ReferenceParser(source).parse()


#: the sign steps' bracket width target and its frexp parts, frozen
_REFERENCE_BISECT_TOL = 1e-12
_REFERENCE_TOL_MANTISSA, _REFERENCE_TOL_EXPONENT = math.frexp(_REFERENCE_BISECT_TOL)


def reference_bisect(rows, r, lo, hi, flo):
    """The root in each bracket [lo, hi] of the monic rows rows[r] (flo the
    value at lo), as equilibrium._bisect gave it before Newton's prediction:
    a frozen copy of the lockstep sign steps alone, kept as reference_parse
    is kept for the parser.

    A bracket across 0 is cut to the side where F changes sign, read from
    F(0) = c_0.  A bracket of width w is then its end o nearest 0, the
    offset y of its midpoint and the signed width; step k moves y by
    -sign(F(o + y)) s w 2^-(k+2), s = +1 where F(lo) < 0, for
    ceil(log2(w / 1e-12)) steps, capped where the steps left move x by
    less than a quarter ulp of o.  Needs numpy errors on overflow and
    invalid operations ignored, as the kernel runs.
    """
    across = (lo < 0.0) & (0.0 < hi)
    f0 = np.sign(rows[r, 0])
    right = f0 == np.sign(flo)
    lo = np.where(across & (right | (f0 == 0.0)), 0.0, lo)
    hi = np.where(across & ~right, 0.0, hi)
    width = hi - lo
    nearer = np.abs(lo) <= np.abs(hi)
    origin = np.where(nearer, lo, hi)
    mantissa, exponent = np.frexp(width)
    steps = exponent - _REFERENCE_TOL_EXPONENT + (mantissa > _REFERENCE_TOL_MANTISSA)
    steps = np.minimum(steps, exponent - np.frexp(origin)[1] + 54)
    steps = np.where(width > 0.0, np.maximum(steps, 0), 0)
    order = np.argsort(-steps, kind="stable")
    steps, origin = steps[order], origin[order]
    offset = (np.where(nearer, 0.5, -0.5) * width)[order]
    step = (0.25 * np.copysign(width, -flo))[order]
    cols = rows[r[order]].T
    stop = np.append(steps, 0)
    counts = np.flatnonzero(stop[1:] < stop[:-1])[::-1] + 1
    xs, work = np.empty_like(offset), np.empty_like(offset)
    for m, first, last in zip(counts.tolist(), stop[counts].tolist(),
                              stop[counts - 1].tolist()):
        o, y, s, top = origin[:m], offset[:m], step[:m], cols[-2, :m]
        x, f = xs[:m], work[:m]
        rest = [c[:m] for c in cols[-3::-1]]
        for _ in range(first, last):
            np.add(o, y, out=x)
            np.add(x, top, out=f)
            for c in rest:
                f *= x
                f += c
            np.sign(f, out=f)
            f *= s
            y -= f
            s *= 0.5
    root = np.empty_like(offset)
    root[order] = origin + offset
    return root


#: the root kernel's polish tolerance, rounding margin, positive threshold
#: and jump fraction, frozen with reference_isolate and reference_moves
_REFERENCE_RESIDUAL_TOL = 1e-13
_REFERENCE_MARGIN = 2.0
_REFERENCE_THRESHOLD = 1e-12
_REFERENCE_JUMP = 0.25


def _reference_rounding_bound(cols, t):
    n = len(cols) - 1
    gamma = 2 * n * 2.0 ** -53 / (1.0 - 2 * n * 2.0 ** -53)
    return _REFERENCE_MARGIN * gamma * _horner([np.abs(c) for c in cols], np.abs(t))


def _reference_bracket_roots(rows, r, lo, hi, flo, tol, bisect):
    """bisect's roots of the brackets of rows[r], then the Newton polish of
    every bracket: at most 5 steps kept inside [lo, hi] that lower |F|."""
    if not r.size:
        return lo
    cols = rows.T.take(r, axis=1)
    dcols = [k * c for k, c in enumerate(cols)][1:]
    root = bisect(cols, dcols, lo, hi, flo)
    fr = _horner(list(cols), root)
    live = np.ones(root.shape, dtype=bool)
    for _ in range(5):
        live &= ~(np.abs(fr) <= tol)
        d = _horner(dcols, root)
        live &= d != 0.0
        candidate = root - fr / np.where(live, d, 1.0)
        live &= (lo <= candidate) & (candidate <= hi)
        fc = _horner(list(cols), candidate)
        live &= ~(np.abs(fc) >= np.abs(fr))
        if not live.any():
            break
        root = np.where(live, candidate, root)
        fr = np.where(live, fc, fr)
    return root


def reference_isolate(rows, bisect, floor=-math.inf):
    """Real roots of every monic row of rows (N, m+1), ascending and
    NaN-padded (N, w), as equilibrium._isolate gave them while it worked on
    rows: a frozen copy of its row-major passes, kept as reference_bisect
    is kept for the sign steps.  The partition sorts [-R, the critical
    points inside (-R, R), R] per row; every bracket is polished; the
    candidates (multiple roots, -R, brackets, R) are stably sorted per row
    and merged by one 2-D assignment per candidate column.

    bisect(cols, dcols, lo, hi, flo) locates the roots of the brackets
    [lo, hi] of the polynomials with coefficient columns cols to 1e-12 (the
    package's equilibrium._bisect, or any frozen copy).  Needs numpy errors
    on overflow, invalid operations and division ignored, as the kernel
    runs.
    """
    n, width = rows.shape
    if width == 2:
        return -rows[:, :1]
    if n > 1:
        bits = rows.view(np.int64)
        first = np.append(True, np.any(bits[1:] != bits[:-1], axis=1))
        if not first.all():
            return reference_isolate(rows[first], bisect, floor)[np.cumsum(first) - 1]
    deriv = np.stack([k * c for k, c in enumerate(rows.T)][1:], axis=1)
    critical = reference_isolate(deriv / deriv[:, -1:], bisect)

    bound = (2.0 * (1.0 + np.max(np.abs(rows[:, :-1]), axis=1)))[:, None]
    inside = (-bound < critical) & (critical < bound)
    pts = np.sort(np.hstack([-bound, np.where(inside, critical, np.nan), bound]), axis=1)
    vals = _horner(list(rows.T[:, :, None]), pts)
    scale = 1.0 + np.max(np.abs(rows), axis=1)

    mid_vals = vals[:, 1:-1]
    near_zero = _reference_rounding_bound(list(rows.T[:, :, None]), pts[:, 1:-1])
    multiple = (
        (np.abs(mid_vals) <= near_zero) & np.isfinite(near_zero)
        & (vals[:, :-2] * mid_vals >= 0.0)
        & (mid_vals * vals[:, 2:] >= 0.0)
    )
    f_end = vals[np.arange(n), np.count_nonzero(~np.isnan(pts), axis=1) - 1]
    fa, fb = vals[:, :-1], vals[:, 1:]
    bracket = (pts[:, 1:] >= floor) & (fa != 0.0) & (fb != 0.0) & ~(fa * fb > 0.0)
    r, j = np.nonzero(bracket)
    root = _reference_bracket_roots(rows, r, pts[:, :-1][r, j], pts[:, 1:][r, j], fa[r, j],
                                    _REFERENCE_RESIDUAL_TOL * scale[r], bisect)
    polished = np.full(fa.shape, np.nan)
    polished[r, j] = root
    found = np.sort(
        np.hstack([
            np.where(multiple, pts[:, 1:-1], np.nan),
            np.where(vals[:, :1] == 0.0, -bound, np.nan),
            polished,
            np.where(f_end[:, None] == 0.0, bound, np.nan),
        ]),
        axis=1, kind="stable",
    )
    merged = np.full(found.shape, np.nan)
    count = np.zeros(n, dtype=np.intp)
    last = np.full(n, np.nan)
    for candidate in found.T:
        keep = ~np.isnan(candidate) & ~(
            np.abs(candidate - last) <= 4.0 * _REFERENCE_BISECT_TOL
            * np.maximum(1.0, np.abs(candidate)))
        merged[keep, count[keep]] = candidate[keep]
        count += keep
        last = np.where(keep, candidate, last)
    return merged[:, : count.max(initial=0)]


def reference_moves(prev, nxt):
    """Where each root of each row of prev (M, w) moves in the same row of
    nxt (M, w'), as equilibrium._moves gave it for whole tables in one
    (M, w, w') broadcast: the column of the nearest root (the first of
    equally near ones), or of the smallest root above 1e-12 if the nearest
    is at or below it, -1 where there is none; and whether the move jumps
    by more than 0.25 (1 + |prev|).  A frozen copy."""
    if nxt.shape[1] == 0:
        nxt = np.full((len(nxt), 1), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        distance = np.abs(nxt[:, None, :] - prev[:, :, None])
        nearest = np.argmin(np.where(np.isnan(distance), np.inf, distance), axis=2)
        positive = nxt > _REFERENCE_THRESHOLD
        smallest = np.where(positive.any(axis=1), positive.argmax(axis=1), -1)[:, None]
        move = np.where(np.take_along_axis(nxt, nearest, axis=1) > _REFERENCE_THRESHOLD,
                        nearest, smallest)
        chosen = np.take_along_axis(nxt, np.maximum(move, 0), axis=1)
        jump = (move >= 0) & (np.abs(chosen - prev)
                              > _REFERENCE_JUMP * (1.0 + np.abs(prev)))
    return move, jump


def exact_sign(row, t):
    """The sign (-1, 0 or 1) of the exact polynomial with the ascending float
    coefficients row at the rational t: each coefficient as a Fraction
    c_k = C_k / D, t = p / q, and Horner on the integers
    A_k = A_{k+1} p + C_k q^(n-k), so A_0 = D q^n F(t) exactly."""
    ratios = [Fraction(c) for c in row]
    scale = math.lcm(*(c.denominator for c in ratios))
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    acc, power = 0, 1
    for c in reversed(ratios):
        acc = acc * p + c.numerator * (scale // c.denominator) * power
        power *= q
    return (acc > 0) - (acc < 0)


def polyroots_60(row):
    """Every complex root of the polynomial with the ascending float
    coefficients row, by mpmath.polyroots at 60 digits, or None where it
    does not converge."""
    with mpmath.workdps(60):
        try:
            return mpmath.polyroots([mpmath.mpf(c) for c in reversed(row)],
                                    maxsteps=200, extraprec=60)
        except mpmath.libmp.NoConvergence:
            return None


def reference_check_pivot(row_at, pivot, xs, kind):
    """The degree reduction's pivot check as two per-abscissa loops, one per
    pivot kind, frozen: row_at(x) is the base row [a_0(x), ..., a_n(x)].
    Returns (refusal, scales): the message of the refusal it would raise,
    or None where it accepts, and the coefficient scale
    1 + sum_k |a_k| |g|^k at each abscissa whose residual it tested."""
    scales = []
    if kind == "equilibrium":
        values = [pivot(x) for x in xs]
        for x, value in zip(xs, values):
            if not math.isfinite(value):
                return f"pivot value {value!r} is not finite at x={x!r}", scales
        center = values[0]
        spread = max(values) - min(values)
        if not spread <= 1e-10 * (1.0 + abs(center)):
            return (f"equilibrium pivot is not constant: spread {spread:.3e} "
                    "across the checked abscissae"), scales
        for x, value in zip(xs, values):
            row = row_at(x)
            residual = _horner(row, value)
            scales.append(1.0 + _horner([abs(v) for v in row], abs(value)))
            if not abs(residual) <= 1e-8 * scales[-1]:
                return (f"pivot value {value!r} is not a root at x={x!r}: "
                        f"residual {residual:.3e}"), scales
        return None, scales
    for x in xs:
        h = 1e-5 * (1.0 + abs(x))
        derivative = (pivot(x + h) - pivot(x - h)) / (2.0 * h)
        value = pivot(x)
        row = row_at(x)
        residual = derivative - _horner(row, value)
        scales.append(1.0 + _horner([abs(v) for v in row], abs(value)))
        if not abs(residual) <= 1e-6 * scales[-1]:
            return f"pivot is not a solution at x={x!r}: residual {residual:.3e}", scales
    return None, scales


class _IllConditioned(Exception):
    """reference_slope does not judge this point."""


_FLOAT_CALLS = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt, "abs": abs}
_MP_CALLS = {"exp": mpmath.exp, "log": mpmath.log, "sqrt": mpmath.sqrt, "abs": abs}
_FLOAT_CONSTANTS = {"pi": math.pi, "e": math.e}


def _has_x(tree):
    return tree[0] == "x" or any(isinstance(t, tuple) and _has_x(t) for t in tree[1:])


def _mp_value(tree, t):
    """The expression at the mpf t in mpmath, every number and constant the
    float the parser reads, so the function is the one floats approximate."""
    kind = tree[0]
    if kind == "num":
        return mpmath.mpf(tree[1])
    if kind == "x":
        return t
    if kind == "const":
        return mpmath.mpf(_FLOAT_CONSTANTS[tree[1]])
    if kind == "neg":
        return 0 - _mp_value(tree[1], t)
    if kind == "call":
        return _MP_CALLS[tree[1]](_mp_value(tree[2], t))
    op, a, b = tree[1], _mp_value(tree[2], t), _mp_value(tree[3], t)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return mpmath.power(a, b)


def _apart_from_kinks(value, scale):
    """A kink or pole of the node at value = 0 lies more than 1e-15 times
    its derivative scale from x: far outside mpmath.diff's steps."""
    if not (value != 0 and abs(value) > 1e-15 * scale):
        raise _IllConditioned


def _node(tree, x):
    """(float value, exact value, derivative scale) of the subtree at x.

    The float value is the tree walk's (Python floats, math functions).  The
    scale bounds |d/dx| of the node by the chain rule on absolute values:
    each rule of the forward mode's rounding is a sum of terms no larger.
    Raises _IllConditioned where the float value is off its exact value by
    more than 1e-12 relative, a value or scale is nonzero outside
    [1e-150, 1e150] (so no product of two of them under- or overflows), or
    x is near a kink, pole or branch cut of a node."""
    kind = tree[0]
    if kind == "num":
        f, v, d = tree[1], mpmath.mpf(tree[1]), mpmath.mpf(0)
    elif kind == "x":
        f, v, d = x, mpmath.mpf(x), mpmath.mpf(1)
    elif kind == "const":
        f = _FLOAT_CONSTANTS[tree[1]]
        v, d = mpmath.mpf(f), mpmath.mpf(0)
    elif kind == "neg":
        fu, vu, d = _node(tree[1], x)
        f, v = 0.0 - fu, 0 - vu
    elif kind == "call":
        name = tree[1]
        fu, vu, du = _node(tree[2], x)
        if name == "log" and not vu > 0:
            raise _IllConditioned
        if name != "exp":
            _apart_from_kinks(vu, du)
        try:
            f = _FLOAT_CALLS[name](fu)
        except (OverflowError, ValueError):
            raise _IllConditioned from None
        v = _MP_CALLS[name](vu)
        if name == "exp":
            d = abs(v) * du
        elif name == "log":
            d = du / abs(vu)
        elif name == "sqrt":
            d = du / (2 * abs(v))
        else:
            d = du
    else:
        op = tree[1]
        fa, va, da = _node(tree[2], x)
        fb, vb, db = _node(tree[3], x)
        try:
            if op == "+":
                f, v, d = fa + fb, va + vb, da + db
            elif op == "-":
                f, v, d = fa - fb, va - vb, da + db
            elif op == "*":
                f, v, d = fa * fb, va * vb, da * abs(vb) + abs(va) * db
            elif op == "/":
                _apart_from_kinks(vb, db)
                f, v = fa / fb, va / vb
                d = da / abs(vb) + abs(va) * db / vb ** 2
            else:
                f = math.pow(fa, fb)
                if _has_x(tree[3]):
                    if not va > 0:
                        raise _IllConditioned
                    _apart_from_kinks(va, da)
                    v = mpmath.power(va, vb)
                    d = abs(v) * (db * (abs(mpmath.log(va)) + 1) + abs(vb) * da / abs(va))
                else:
                    if not (vb >= 0 and vb == int(vb)):
                        if va < 0 and vb != int(vb):
                            raise _IllConditioned
                        _apart_from_kinks(va, da)
                    v = mpmath.power(va, vb)
                    d = abs(vb) * abs(mpmath.power(va, vb - 1)) * da if da else mpmath.mpf(0)
        except (OverflowError, ValueError, ZeroDivisionError):
            raise _IllConditioned from None
    if not math.isfinite(f) or isinstance(v, mpmath.mpc):
        raise _IllConditioned
    for value in (v, d):
        if value != 0 and not 1e-150 <= abs(value) <= 1e150:
            raise _IllConditioned
    if not abs(mpmath.mpf(f) - v) <= 1e-12 * abs(v):
        raise _IllConditioned
    return f, v, d


#: digits mpmath.diff carries beyond the dps it must get right: it differences
#: f(x + h) and f(x - h), which cancel down to f' h, and _node bounds every
#: node's value by 1e150 and the scale by 1e-150 from below
_DIFF_GUARD_DIGITS = 300


def reference_slope(source, x, dps=50):
    """(d/dx of the expression at x by mpmath.diff to dps digits, the scale
    its float forward-mode slope is judged against), or None where the
    point is ill-conditioned for floats or near a kink (see _node)."""
    tree = reference_parse(source)
    with mpmath.workdps(dps):
        try:
            _, _, scale = _node(tree, float(x))
        except _IllConditioned:
            return None
    if scale == 0:
        # the scale bounds |d/dx|, so the slope is exactly 0, where
        # mpmath.diff's own error would remain (9.5e-709 for x^3 at 0)
        return mpmath.mpf(0), scale
    with mpmath.workdps(dps + _DIFF_GUARD_DIGITS):
        exact = mpmath.diff(lambda t: _mp_value(tree, t), mpmath.mpf(x))
    if isinstance(exact, mpmath.mpc):
        return None
    return exact, scale

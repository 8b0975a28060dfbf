"""Three-stage Radau IIA integrator for scalar stiff initial value problems.

The collocation nodes are c = ((4 - sqrt(6))/10, (4 + sqrt(6))/10, 1):
the roots of d^2/dx^2 [ x^2 (x - 1)^3 ] rescaled to (0, 1), plus the
right endpoint.  Rows of A solve the collocation conditions

    sum_j A_ij c_j^{q-1} = c_i^q / q,   q = 1..3,

and b is the last row of A (stiffly accurate), giving a fifth-order,
L-stable method with stability function

    R(z) = (1 + (2/5) z + (1/20) z^2)
         / (1 - (3/5) z + (3/20) z^2 - (1/60) z^3).

The right-hand side is a polynomial in y, given as a function row(x)
returning its ascending coefficients at x.  Implicit stages are solved by
simplified Newton in plain floats.  The start row gives the predictor and,
through its derivative row, the analytic scalar Jacobian J; the iteration
matrix I - zA (z = hJ) is inverted once per stage solve by Cayley-Hamilton,

    (I - zA)^-1 = (I + z P1 + z^2 P2) / Q(z),
    P1 = A - tr(A) I,  P2 = A^2 - tr(A) A + (tr(A)^2 - tr(A^2))/2 I,

with Q(z) = det(I - zA) the denominator of R(z); a zero or non-finite Q is
a NewtonFailure.  The local error is estimated by step doubling
(err = |y_h - y_{h/2,h/2}| / (2^5 - 1)), and the step size follows
h_new = h * clamp(0.9 (tol/err)^{1/6}, 0.2, 5.0).  Each abscissa is
sampled once per attempt: the full step and the first half step share the
start row, the first half step's last stage row (at x + h/2) starts the
second, and the full step's last stage row (at x + h) starts the next
attempt, so an attempt samples nine new rows.

Characteristics:
    * scalar problems only, dense output deliberately absent
    * adaptive runs are deterministic: same inputs, bit-identical grids
    * optional checkpoints force steps to land on given abscissae exactly
      (the same truncation used to hit x_end exactly)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AbelEquation, _derivative_row, _horner

__all__ = [
    "ButcherTableau",
    "SolverConfig",
    "StepResult",
    "IntegrationResult",
    "NewtonFailure",
    "PoleError",
    "OrderTestError",
    "radau_tableau",
    "stability_value",
    "step",
    "integrate",
    "integrate_rhs",
    "integrate_fixed_rhs",
    "empirical_order",
]

STEP_DOUBLING_DENOM = 2.0**5 - 1.0  # order 5


class NewtonFailure(RuntimeError):
    """Stage iteration did not converge within newton_max_iters."""


class PoleError(ZeroDivisionError):
    """Stability function evaluated exactly at a pole."""


class OrderTestError(RuntimeError):
    """Reference or fixed-step run failed during the order measurement."""


@dataclass(frozen=True)
class ButcherTableau:
    stages: int
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int


def radau_tableau() -> ButcherTableau:
    """Construct the 3-stage Radau IIA tableau from the collocation conditions."""
    s6 = math.sqrt(6.0)
    c = np.array([(4.0 - s6) / 10.0, (4.0 + s6) / 10.0, 1.0])
    # row i solves V^T a_i = (c_i, c_i^2/2, c_i^3/3) with V_qj = c_j^{q-1}
    powers = np.vander(c, 3, increasing=True).T  # powers[q-1, j] = c_j^{q-1}
    A = np.empty((3, 3))
    for i in range(3):
        rhs = np.array([c[i] ** q / q for q in (1, 2, 3)])
        A[i] = np.linalg.solve(powers, rhs)
    b = A[-1].copy()  # stiffly accurate
    A.setflags(write=False)
    b.setflags(write=False)
    c.setflags(write=False)
    return ButcherTableau(3, A, b, c, 5)


_TABLEAU = radau_tableau()


def _tableau_floats():
    """A, b, c, I and the Cayley-Hamilton matrices P1, P2 (module docstring)
    as tuples of floats, matrices row by row.  A^2 is summed in floats: a
    first numpy matrix product maps about 0.4 MB that no step would use."""
    A = _TABLEAU.A.tolist()
    A2 = [[sum(A[i][m] * A[m][j] for m in range(3)) for j in range(3)] for i in range(3)]
    trace, trace2 = (M[0][0] + M[1][1] + M[2][2] for M in (A, A2))
    half_gap = 0.5 * (trace * trace - trace2)
    cells = [(i, j) for i in range(3) for j in range(3)]
    eye = tuple(float(i == j) for i, j in cells)
    P1 = tuple(A[i][j] - trace * e for (i, j), e in zip(cells, eye))
    P2 = tuple(A2[i][j] - trace * A[i][j] + half_gap * e for (i, j), e in zip(cells, eye))
    return (tuple(A[i][j] for i, j in cells), tuple(_TABLEAU.b.tolist()),
            tuple(_TABLEAU.c.tolist()), eye, P1, P2)


_A, _B, _C, _EYE, _P1, _P2 = _tableau_floats()


def _stability_denominator(z):
    """Q(z) = det(I - z A), the denominator of R(z)."""
    return 1.0 - (3.0 / 5.0) * z + (3.0 / 20.0) * z * z - (1.0 / 60.0) * z * z * z


def _newton_inverse(z: float) -> list[float]:
    """(I - z A)^-1 row by row, as (I + z P1 + z^2 P2) / Q(z) by Cayley-Hamilton.

    Every entry is NaN where Q(z) is zero or not finite, so the Newton
    update built from it is non-finite and the stage solve fails cleanly.
    """
    q = _stability_denominator(z)
    scale = 1.0 / q if q != 0.0 and math.isfinite(q) else math.nan
    zz = z * z
    return [(e + z * p1 + zz * p2) * scale for e, p1, p2 in zip(_EYE, _P1, _P2)]


def stability_value(z: complex) -> complex:
    """Stability function R(z); raises PoleError on an exact pole."""
    z = complex(z)
    num = 1.0 + (2.0 / 5.0) * z + (1.0 / 20.0) * z * z
    den = _stability_denominator(z)
    if den == 0.0:
        raise PoleError(f"stability function pole at z={z!r}")
    return num / den


def _require_finite(**values) -> None:
    """Raise ValueError naming the first value that is not a finite number
    (None stands for a default and passes)."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and guards for the adaptive loop.

    h0 defaults to 1e-3 (x_end - x0) and h_max to (x_end - x0)/10 at
    integrate() time when left as None.
    """

    atol: float = 1e-9
    rtol: float = 1e-9
    h0: float | None = None
    h_min: float = 1e-12
    h_max: float | None = None
    newton_tol: float = 1e-2
    newton_max_iters: int = 10
    max_steps: int = 10_000_000

    def __post_init__(self):
        _require_finite(atol=self.atol, rtol=self.rtol, h0=self.h0, h_min=self.h_min,
                        h_max=self.h_max, newton_tol=self.newton_tol)
        if self.atol <= 0.0 or self.rtol < 0.0:
            raise ValueError("atol must be positive and rtol non-negative")
        for name in ("h0", "h_min", "h_max", "newton_tol"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.newton_max_iters < 1:
            raise ValueError("newton_max_iters must be >= 1")


@dataclass(frozen=True)
class StepResult:
    y_next: float
    err_est: float
    newton_iters: int
    stages: tuple[float, float, float]


def _solve_stages(start, row, x, y, h, config):
    """Simplified Newton for the stage slopes k_i = f(x + c_i h, y + h sum A_ij k_j),
    where f(x, y) is the polynomial in y with ascending coefficients row(x).

    start = row(x) gives the constant predictor and the Jacobian
    J = df/dy(x, y) frozen at the step start; the iteration matrix I - h J A
    is inverted in closed form (_newton_inverse), so an iteration is a few
    float multiply-adds.  The stage rows are sampled once, at the first
    iteration whose stage values are finite, and later iterations run Horner
    on them.  Returns (stages, iterations, stage rows); raises NewtonFailure
    when the iterations run out or a stage value or update is non-finite
    (it cannot converge).
    """
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = _A
    y, h = float(y), float(h)
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = _newton_inverse(
        h * _horner(_derivative_row(start), y))
    k0 = k1 = k2 = _horner(start, y)  # constant predictor
    threshold = config.newton_tol * (config.atol / h + config.rtol * abs(y))
    stage_rows = None
    for iterations in range(1, config.newton_max_iters + 1):
        # plain floats: an overflowing stage value or update is a silent
        # inf or nan, and it fails like any non-finite update
        s0 = y + h * (a00 * k0 + a01 * k1 + a02 * k2)
        s1 = y + h * (a10 * k0 + a11 * k1 + a12 * k2)
        s2 = y + h * (a20 * k0 + a21 * k1 + a22 * k2)
        size = math.inf
        if math.isfinite(s0) and math.isfinite(s1) and math.isfinite(s2):
            if stage_rows is None:
                stage_rows = [row(x + c * h) for c in _C]
            r0 = k0 - _horner(stage_rows[0], s0)
            r1 = k1 - _horner(stage_rows[1], s1)
            r2 = k2 - _horner(stage_rows[2], s2)
            d0 = -(m00 * r0 + m01 * r1 + m02 * r2)
            d1 = -(m10 * r0 + m11 * r1 + m12 * r2)
            d2 = -(m20 * r0 + m21 * r1 + m22 * r2)
            if math.isfinite(d0) and math.isfinite(d1) and math.isfinite(d2):
                k0, k1, k2 = k0 + d0, k1 + d1, k2 + d2
                size = max(abs(d0), abs(d1), abs(d2))
        if not math.isfinite(size):
            raise NewtonFailure(
                f"non-finite stage update in iteration {iterations} at x={x!r}, h={h!r}"
            )
        if size <= threshold:
            return (k0, k1, k2), iterations, stage_rows
    raise NewtonFailure(
        f"no stage convergence in {config.newton_max_iters} iterations at x={x!r}, h={h!r}")


def _basic_step(start, row, x, y, h, config):
    """One plain Radau step from start = row(x); returns (y_next, newton_iters,
    stages, end), where end is the row at x + h (the last stage's abscissa)."""
    (k0, k1, k2), iters, stage_rows = _solve_stages(start, row, x, y, h, config)
    b0, b1, b2 = _B
    return y + h * (b0 * k0 + b1 * k1 + b2 * k2), iters, (k0, k1, k2), stage_rows[2]


def _attempt(start, row, x, y, h, config):
    """One step attempt from start = row(x): the full step plus two half
    steps for the step-doubling error estimate err = |y_h - y_{h/2,h/2}| / 31.

    The first half step starts from the same row, and its last stage row is
    the row at x + h/2 where the second half step starts.  Returns
    (StepResult, row at x + h).
    """
    y_coarse, iters, stages, end = _basic_step(start, row, x, y, h, config)
    half = 0.5 * h
    y_half, iters2, _, middle = _basic_step(start, row, x, y, half, config)
    y_fine, iters3, _, _ = _basic_step(middle, row, x + half, y_half, half, config)
    err = abs(y_coarse - y_fine) / STEP_DOUBLING_DENOM
    return StepResult(y_coarse, err, iters + iters2 + iters3, stages), end


def step(row, x, y, h, config=None) -> StepResult:
    """One adaptive-quality step of y' = f(x, y), row(x) giving the
    ascending coefficients in y of f: full step plus two half steps for
    the step-doubling error estimate err = |y_h - y_{h/2,h/2}| / 31."""
    return _attempt(row(x), row, x, y, h, config or SolverConfig())[0]


@dataclass
class IntegrationResult:
    """Accepted trajectory plus counters.

    status is "completed", "step-failure" (h under h_min), or
    "newton-failure" (stages diverged even at h_min); message carries the
    detail (including a max_steps overrun, reported as step-failure).
    n_rejected counts every rejected attempt; n_newton_failures those whose
    stage solve failed, the rest failed the error test.
    """

    xs: np.ndarray
    ys: np.ndarray
    h_used: np.ndarray
    newton_per_step: np.ndarray
    n_accepted: int
    n_rejected: int
    n_newton_failures: int
    n_newton_iters: int
    final_x: float
    final_y: float
    status: str
    message: str = ""

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def interp(self, x) -> np.ndarray | float:
        return np.interp(x, self.xs, self.ys)


def _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters, status, message=""):
    return IntegrationResult(
        np.array(xs),
        np.array(ys),
        np.array(hs),
        np.array(iters, dtype=int),
        len(xs) - 1,
        rejected,
        newton_failures,
        total_iters,
        xs[-1],
        ys[-1],
        status,
        message,
    )


def integrate_rhs(
    row,
    x0: float,
    y0: float,
    x_end: float,
    config: SolverConfig | None = None,
    checkpoints=None,
) -> IntegrationResult:
    """Adaptive integration of y' = f(x, y) from (x0, y0) to x_end, where
    row(x) returns the ascending coefficients in y of f at x.

    checkpoints, if given, are interior abscissae every accepted grid must
    contain exactly; steps are truncated to land on them.  row is sampled
    once per abscissa: an attempt starts from the row its predecessor
    ended on (or was rejected from), and a new row is sampled only where a
    truncated step lands off x + h.
    """
    config = config or SolverConfig()
    _require_finite(x0=x0, y0=y0, x_end=x_end)
    if not x_end > x0:
        raise ValueError("x_end must exceed x0")
    span = x_end - x0
    h_max = config.h_max if config.h_max is not None else span / 10.0
    h = config.h0 if config.h0 is not None else 1e-3 * span
    h = min(h, h_max)

    marks = [float(x_end)]
    if checkpoints is not None:
        marks = sorted({float(p) for p in checkpoints if x0 < p <= x_end} | {float(x_end)})
    mark_idx = 0

    xs, ys, hs, iters = [x0], [y0], [0.0], [0]
    x, y = x0, y0
    start = row(x0)
    rejected = newton_failures = 0
    total_iters = 0
    steps_taken = 0

    while x < x_end:
        if steps_taken >= config.max_steps:
            return _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters,
                           "step-failure", f"max_steps={config.max_steps} exceeded")
        steps_taken += 1

        while mark_idx < len(marks) and marks[mark_idx] <= x:
            mark_idx += 1
        target = marks[mark_idx]
        # snap-to-target guard: avoids a float sum creeping past the mark
        truncated = h >= (target - x) * (1.0 - 1e-12)
        h_try = target - x if truncated else h

        try:
            result, end = _attempt(start, row, x, y, h_try, config)
        except NewtonFailure as failure:
            rejected += 1
            newton_failures += 1
            h = 0.5 * h_try
            if h < config.h_min:
                return _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters,
                               "newton-failure", str(failure))
            continue

        total_iters += result.newton_iters
        tol = config.atol + config.rtol * abs(y)
        if result.err_est <= tol:
            x_step = x + h_try
            x = target if truncated else x_step
            y = result.y_next
            start = end if x == x_step else row(x)
            xs.append(x)
            ys.append(y)
            hs.append(h_try)
            iters.append(result.newton_iters)
        else:
            rejected += 1

        if result.err_est == 0.0:
            factor = 5.0
        else:
            factor = min(5.0, max(0.2, 0.9 * (tol / result.err_est) ** (1.0 / 6.0)))
        h = min(h_try * factor, h_max)
        if h < config.h_min:
            return _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters,
                           "step-failure", f"step size {h!r} below h_min at x={x!r}")

    return _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters, "completed")


def integrate(
    equation: AbelEquation,
    y0: float,
    x_end: float,
    config: SolverConfig | None = None,
    checkpoints=None,
) -> IntegrationResult:
    """Integrate an equation from (equation.x0, y0) to x_end."""
    return integrate_rhs(equation.row, equation.x0, y0, x_end, config, checkpoints)


def integrate_fixed_rhs(
    row,
    x0: float,
    y0: float,
    x_end: float,
    h: float,
    config: SolverConfig | None = None,
) -> IntegrationResult:
    """Fixed-step integration (error control off; the last step is truncated).

    Stage divergence raises NewtonFailure since there is no step to halve.
    """
    config = config or SolverConfig()
    _require_finite(x0=x0, y0=y0, x_end=x_end, h=h)
    if h <= 0.0:
        raise ValueError("h must be positive")
    xs, ys, hs, iters = [x0], [y0], [0.0], [0]
    x, y = x0, y0
    start = row(x0)
    total_iters = 0
    while x < x_end:
        h_try = min(h, x_end - x)
        # the row at x + h_try starts the next step (a truncated step is the last)
        y, step_iters, _, start = _basic_step(start, row, x, y, h_try, config)
        x = x_end if h_try < h else x + h
        total_iters += step_iters
        xs.append(x)
        ys.append(y)
        hs.append(h_try)
        iters.append(step_iters)
    return _finish(xs, ys, hs, iters, 0, 0, total_iters, "completed")


def empirical_order(
    equation: AbelEquation,
    y0: float,
    x_end: float,
    h_list,
    config: SolverConfig | None = None,
) -> tuple[float, list[float]]:
    """Observed convergence order from fixed-step runs against a reference
    run of the same method at min(h_list)/16.

    A same-method fine-step reference keeps the comparison clean: its own
    error is 16^5 times below the smallest measured one, so the measured
    errors are not floored by an unrelated tolerance.  Returns
    (least-squares slope of log error vs log h, per-h errors).
    """
    if not h_list:
        raise OrderTestError("h_list must be nonempty")
    h_ref = min(float(h) for h in h_list) / 16.0
    try:
        reference = integrate_fixed_rhs(equation.row, equation.x0, y0, x_end, h_ref, config)
    except NewtonFailure as failure:
        raise OrderTestError(f"reference run failed: {failure}") from None
    errors = []
    for h in h_list:
        try:
            run = integrate_fixed_rhs(equation.row, equation.x0, y0, x_end, float(h), config)
        except NewtonFailure as failure:
            raise OrderTestError(f"fixed-step run failed at h={h!r}: {failure}") from None
        errors.append(abs(run.final_y - reference.final_y))
    usable = [(h, e) for h, e in zip(h_list, errors) if e > 0.0]
    if len(usable) < 2:
        raise OrderTestError("errors vanished; order not measurable")
    log_h = np.log([h for h, _ in usable])
    log_e = np.log([e for _, e in usable])
    slope = float(np.polyfit(log_h, log_e, 1)[0])
    return slope, errors

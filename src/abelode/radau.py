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
simplified Newton; each stage solve samples row once at the step start,
where the derivative row of the same sample gives the analytic scalar
Jacobian, and once at each stage abscissa.  The local error is estimated
by step doubling (err = |y_h - y_{h/2,h/2}| / (2^5 - 1)), and the step
size follows h_new = h * clamp(0.9 (tol/err)^{1/6}, 0.2, 5.0).

Characteristics:
    * scalar problems only, dense output deliberately absent
    * adaptive runs are deterministic: same inputs, bit-identical grids
    * optional checkpoints force steps to land on given abscissae exactly
      (the same truncation used to hit x_end exactly)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def stability_value(z: complex) -> complex:
    """Stability function R(z); raises PoleError on an exact pole."""
    z = complex(z)
    num = 1.0 + (2.0 / 5.0) * z + (1.0 / 20.0) * z * z
    den = 1.0 - (3.0 / 5.0) * z + (3.0 / 20.0) * z * z - (1.0 / 60.0) * z * z * z
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


def _solve_stages(row, x, y, h, config):
    """Simplified Newton for the stage slopes k_i = f(x + c_i h, y + h sum A_ij k_j),
    where f(x, y) is the polynomial in y with ascending coefficients row(x).

    Each abscissa is sampled once.  row(x) gives the constant predictor and
    the Jacobian J = df/dy(x, y) frozen at the step start (iteration matrix
    I - h J A); the stage rows are sampled at the first iteration whose
    stage values are finite, and later iterations run Horner on them.
    Returns (stages, iterations); raises NewtonFailure when the iterations
    run out or a stage value or update is non-finite (it cannot converge).
    """
    A, c = _TABLEAU.A, _TABLEAU.c
    start = row(x)
    newton_matrix = np.eye(3) - (h * _horner(_derivative_row(start), y)) * A
    k = np.full(3, _horner(start, y))  # constant predictor
    threshold = config.newton_tol * (config.atol / h + config.rtol * abs(y))
    iterations = 0
    y_float, h_float = float(y), float(h)
    stage_rows = None
    for _ in range(config.newton_max_iters):
        iterations += 1
        # Python floats: an overflowing stage value is a silent inf, and it
        # fails like a non-finite update
        stage_y = [y_float + h_float * v for v in (A @ k).tolist()]
        size = math.inf
        if all(map(math.isfinite, stage_y)):
            if stage_rows is None:
                stage_rows = [row(x + float(c[i]) * h) for i in range(3)]
            residual = k - np.array([_horner(r, v) for r, v in zip(stage_rows, stage_y)])
            delta = np.linalg.solve(newton_matrix, -residual)
            k = k + delta
            size = float(np.max(np.abs(delta)))
        if not math.isfinite(size):
            raise NewtonFailure(
                f"non-finite stage update in iteration {iterations} at x={x!r}, h={h!r}"
            )
        if size <= threshold:
            return k, iterations
    raise NewtonFailure(f"no stage convergence in {iterations} iterations at x={x!r}, h={h!r}")


def _basic_step(row, x, y, h, config):
    """One plain Radau step; returns (y_next, newton_iters, stages)."""
    k, iters = _solve_stages(row, x, y, h, config)
    return y + h * float(_TABLEAU.b @ k), iters, k


def step(row, x, y, h, config=None) -> StepResult:
    """One adaptive-quality step of y' = f(x, y), row(x) giving the
    ascending coefficients in y of f: full step plus two half steps for
    the step-doubling error estimate err = |y_h - y_{h/2,h/2}| / 31."""
    config = config or SolverConfig()
    y_coarse, iters, stages = _basic_step(row, x, y, h, config)
    y_half, iters2, _ = _basic_step(row, x, y, 0.5 * h, config)
    y_fine, iters3, _ = _basic_step(row, x + 0.5 * h, y_half, 0.5 * h, config)
    err = abs(y_coarse - y_fine) / STEP_DOUBLING_DENOM
    return StepResult(y_coarse, err, iters + iters2 + iters3, tuple(stages))


@dataclass
class IntegrationResult:
    """Accepted trajectory plus counters.

    status is "completed", "step-failure" (h under h_min), or
    "newton-failure" (stages diverged even at h_min); message carries the
    detail (including a max_steps overrun, reported as step-failure).
    """

    xs: np.ndarray
    ys: np.ndarray
    h_used: np.ndarray
    newton_per_step: np.ndarray
    n_accepted: int
    n_rejected: int
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


def _finish(xs, ys, hs, iters, rejected, total_iters, status, message=""):
    return IntegrationResult(
        np.array(xs),
        np.array(ys),
        np.array(hs),
        np.array(iters, dtype=int),
        len(xs) - 1,
        rejected,
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
    contain exactly; steps are truncated to land on them.
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
    rejected = 0
    total_iters = 0
    steps_taken = 0

    while x < x_end:
        if steps_taken >= config.max_steps:
            return _finish(xs, ys, hs, iters, rejected, total_iters,
                           "step-failure", f"max_steps={config.max_steps} exceeded")
        steps_taken += 1

        while mark_idx < len(marks) and marks[mark_idx] <= x:
            mark_idx += 1
        target = marks[mark_idx]
        # snap-to-target guard: avoids a float sum creeping past the mark
        truncated = h >= (target - x) * (1.0 - 1e-12)
        h_try = target - x if truncated else h

        try:
            result = step(row, x, y, h_try, config)
        except NewtonFailure as failure:
            rejected += 1
            h = 0.5 * h_try
            if h < config.h_min:
                return _finish(xs, ys, hs, iters, rejected, total_iters,
                               "newton-failure", str(failure))
            continue

        total_iters += result.newton_iters
        tol = config.atol + config.rtol * abs(y)
        if result.err_est <= tol:
            x = target if truncated else x + h_try
            y = result.y_next
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
            return _finish(xs, ys, hs, iters, rejected, total_iters,
                           "step-failure", f"step size {h!r} below h_min at x={x!r}")

    return _finish(xs, ys, hs, iters, rejected, total_iters, "completed")


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
    total_iters = 0
    while x < x_end:
        h_try = min(h, x_end - x)
        y, step_iters, _ = _basic_step(row, x, y, h_try, config)
        x = x_end if h_try < h else x + h
        total_iters += step_iters
        xs.append(x)
        ys.append(y)
        hs.append(h_try)
        iters.append(step_iters)
    return _finish(xs, ys, hs, iters, 0, total_iters, "completed")


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

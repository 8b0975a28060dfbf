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
simplified Newton in plain floats.  Horner over the start row and over its
derivative row gives f(x, y) and the analytic scalar Jacobian
J = df/dy(x, y), each started at its leading coefficient as core._horner
starts, and a J that overflows (some k c_k past the floats) summed again
by core._rescaled_entry.  The full step starts its three stage slopes at
f(x, y).  The two half steps of the error estimate start theirs at the
full step's collocation slope polynomial u', the quadratic through
(c_j, k_j), at their own nodes: u'(c_i/2) and u'(1/2 + c_i/2), nine
Lagrange weights each (_FIRST_HALF_SEEDS, _SECOND_HALF_SEEDS), the
standard starting values of simplified Newton in Radau IIA codes (Hairer
and Wanner, Solving ODEs II, 2nd ed., section IV.8).  On the stiff
benchmark's equations this cuts the half steps' iterations by about a
quarter and all iterations by about 16%.  The iteration matrix I - zA
(z = hJ) is inverted once per stage solve by Cayley-Hamilton,

    (I - zA)^-1 = (I + z P1 + z^2 P2) / Q(z),
    P1 = A - tr(A) I,  P2 = A^2 - tr(A) A + (tr(A)^2 - tr(A^2))/2 I,

with Q(z) = det(I - zA) the denominator of R(z).  Where Q overflows at a
finite z the same inverse is formed in w = 1/z (_inverse_lines); a zero
Q, or a z that is not finite, is a NewtonFailure.  The first row of a
run fixes its length m: every row sampled later must have m coefficients
too (ValueError naming x if not), and an empty first row is a
ValueError.  The step attempt and its stage solve, two generated
functions per row length m, are made on first use (_step_attempt,
_stage_solver) as straight-line float code: rows unpacked into locals,
Horner one flat statement per coefficient from the leading one
(_horner_lines), the inverse nine statements with the tableau as
literals, and the finiteness and convergence tests chained comparisons.
Written for rows of any length, an attempt spent most of its time on
interpreter overhead (loops, calls, tuple unpacking), not arithmetic.
The generated code runs the same IEEE operations in the same order as
plain loops whose Horner also starts at the leading coefficient, so
results are bit for bit theirs (reference_attempt and reference_integrate
in tests/oracles.py).  A Horner seeded at 0.0 gives the same bits wherever
a row's leading coefficient is nonzero; it differs only in the sign of a
zero from a row of zeros led by -0.0 (core._horner).  Flat statements,
unlike one nested Horner expression, compile for any degree: the nested
form fails past 200 coefficients, the parser's limit on nested
parentheses.

Step doubling gives err = |y_h - y_{h/2,h/2}| / (2^5 - 1), the estimated
local error of the two half steps y_{h/2,h/2}.  The run keeps the full
step y_h, whose local error is about 2^5 err: 32.0-32.1 err on y' = -y
and on case 1's row for h from 0.1 to 0.4.  The error test err <= tol
and the step size rule h_new = h * clamp(0.9 (tol/err)^{1/6}, 0.2, 5.0)
both use err.

Each abscissa is sampled once per attempt: the full step and the first
half step share the start row and the Jacobian computed from it, the
first half step's last stage row (at x + h/2) gives the second its
Jacobian, and the full step's last stage row (at x + h) is the second
half step's last stage row where (x + h/2) + h/2 == x + h and starts the
next attempt.  So an attempt samples eight new rows, or nine where
(x + h/2) + h/2 rounds to another float than x + h.

Characteristics:
    * scalar problems only, dense output deliberately absent
    * adaptive runs are deterministic: same inputs, bit-identical grids
    * optional checkpoints force steps to land on given abscissae exactly
      (the same truncation used to hit x_end exactly)
    * every run ends in bounded time: x_end - x0 must be finite, and both
      loops stop at max_steps and where a step would not move x
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (AbelEquation, NewtonFailure, OrderTestError, SolverConfig, _derivative_row,
                   _horner, _rescaled_entry, _require_finite)
from .expr import _compile

__all__ = [
    "ButcherTableau",
    "StepResult",
    "IntegrationResult",
    "PoleError",
    "radau_tableau",
    "stability_value",
    "step",
    "integrate",
    "integrate_rhs",
    "integrate_fixed_rhs",
    "empirical_order",
]

STEP_DOUBLING_DENOM = 2.0**5 - 1.0  # order 5


class PoleError(ZeroDivisionError):
    """Stability function evaluated exactly at a pole."""


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


def _seed_weights(t: float) -> tuple[float, float, float]:
    """The Lagrange weights w_j with u'(t) = w_0 k_0 + w_1 k_1 + w_2 k_2 for
    the quadratic u' through the collocation points (c_j, k_j)."""
    c = _C
    return tuple(((t - c[m]) / (c[j] - c[m])) * ((t - c[n]) / (c[j] - c[n]))
                 for j, m, n in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))


#: the weights at the half steps' stage nodes, one row per stage: at c_i / 2
#: for the first half step, at 1/2 + c_i / 2 for the second
_FIRST_HALF_SEEDS = tuple(_seed_weights(0.5 * ci) for ci in _C)
_SECOND_HALF_SEEDS = tuple(_seed_weights(0.5 + 0.5 * ci) for ci in _C)


#: Q(z) = det(I - z A), the denominator of R(z), as code for a float or complex z
_DENOMINATOR = "1.0 - (3.0 / 5.0) * z + (3.0 / 20.0) * z * z - (1.0 / 60.0) * z * z * z"

#: Q(z) w^3 with w = 1/z, as code in w, ww = w^2 and www = w^3
_REVERSED_DENOMINATOR = "www - (3.0 / 5.0) * ww + (3.0 / 20.0) * w - (1.0 / 60.0)"


def _define(title, signature, lines, **names):
    """The function `def signature:` with the given body lines, compiled as
    <title>; its globals are inf, ninf and nan plus names."""
    namespace = {"inf": math.inf, "ninf": -math.inf, "nan": math.nan, **names}
    source = "\n    ".join([f"def {signature}:", *lines])
    exec(_compile(source, f"<{title}>"), namespace)
    return namespace[signature[:signature.index("(")]]


def _inverse_lines():
    """Statements setting m00 .. m22 to (I - z A)^-1 row by row from z, as
    (I + z P1 + z^2 P2) / Q(z) by Cayley-Hamilton, the tableau as literals
    (repr round-trips a finite float; the 0.0 + and 1.0 + terms keep the
    sign of a zero).  Where Q(z) overflows at a finite z (|z| past about
    2.2e103) the same matrix is formed in w = 1/z, as (I w^3 + P1 w^2 +
    P2 w) / (Q(z) w^3).  Every entry is NaN where Q(z) is zero or z is not
    finite, so the Newton update built from it is non-finite and the stage
    solve fails cleanly."""
    cells = list(zip([f"m{i}{j}" for i in range(3) for j in range(3)], _EYE, _P1, _P2))
    return [f"q = {_DENOMINATOR}",
            "if ninf < q < inf or not ninf < z < inf:",
            "    scale = 1.0 / q if q != 0.0 and ninf < q < inf else nan",
            "    zz = z * z",
            *(f"    {m} = ({e!r} + z * {u!r} + zz * {v!r}) * scale" for m, e, u, v in cells),
            "else:",
            "    w = 1.0 / z",
            "    ww = w * w",
            "    www = ww * w",
            f"    scale = 1.0 / ({_REVERSED_DENOMINATOR})",
            *(f"    {m} = ({e!r} * www + {u!r} * ww + {v!r} * w) * scale"
              for m, e, u, v in cells)]


_stability_denominator = _define("stability denominator", "Q(z)", [f"return {_DENOMINATOR}"])
_newton_inverse = _define("Newton inverse", "inverse(z)", [
    *_inverse_lines(), f"return {', '.join(f'm{i}{j}' for i in range(3) for j in range(3))}"])


def stability_value(z: complex) -> complex:
    """Stability function R(z); raises PoleError on an exact pole."""
    z = complex(z)
    num = 1.0 + (2.0 / 5.0) * z + (1.0 / 20.0) * z * z
    den = _stability_denominator(z)
    if den == 0.0:
        raise PoleError(f"stability function pole at z={z!r}")
    return num / den


def _span(x0, y0, x_end) -> float:
    """x_end - x0, which must be finite and positive, for finite real x0, y0
    and x_end (ValueError)."""
    _require_finite(x0=x0, y0=y0, x_end=x_end)
    if not x_end > x0:
        raise ValueError("x_end must exceed x0")
    if not math.isfinite(float(x_end) - float(x0)):  # numpy scalars would warn
        raise ValueError(f"x_end - x0 overflows for x0={x0!r}, x_end={x_end!r}")
    return x_end - x0


@dataclass(frozen=True)
class StepResult:
    """One step attempt: y_next is the full step y_h, solved from f(x, y)
    as every full step is; err_est and newton_iters also cover the two
    half steps, started from the full step's slope polynomial; stages are
    the full step's k_i."""

    y_next: float
    err_est: float
    newton_iters: int
    stages: tuple[float, float, float]


def _first_row(row, x):
    """row(x), which fixes the run's row length; ValueError if it is empty."""
    start = row(x)
    if len(start) == 0:
        raise ValueError(f"the coefficient row at x={x!r} is empty")
    return start


def _require_length(coefficients, x, m):
    """The row sampled at x, which must have the run's length m (ValueError)."""
    if len(coefficients) != m:
        raise ValueError(f"the coefficient row at x={x!r} has {len(coefficients)} entries,"
                         f" the run's rows {m}")
    return coefficients


def _horner_lines(name: str, coefficients: list[str], y: str) -> list[str]:
    """Statements setting name to the value at y of the polynomial whose
    ascending coefficients are the expressions given: core._horner's
    operations unrolled, one flat statement per coefficient, the first
    step from the leading coefficient (name = 0.0 for none)."""
    if not coefficients:
        return [f"{name} = 0.0"]
    top, *rest = reversed(coefficients)
    lines, term = [], top
    for c in rest:
        lines.append(f"{name} = {term} * {y} + {c}")
        term = name
    return lines or [f"{name} = {top}"]


def _start_lines(m: int, row: str, y: str, value: bool = True) -> list[str]:
    """Statements setting slope to df/dy(x, y), and with value also value to
    f(x, y), from the row of length m >= 1 named row: core._horner on the
    row and on its derivative row (_horner_lines), each from its leading
    coefficient; a slope that is not finite is summed again by
    core._rescaled_entry."""
    names = [f"c_{k}" for k in range(m)]
    return [f"[{', '.join(names)}] = {row}", *(_horner_lines("value", names, y) if value else []),
            *_horner_lines("slope", [f"{k} * c_{k}" for k in range(1, m)], y),
            f"if not ninf < slope < inf: slope = _rescaled_entry({row}, {y}, 1, slope)"]


def _seed_lines(name: str, weights) -> list[str]:
    """Statements setting name0, name1, name2 to the full step's slope
    polynomial at a half step's three nodes, w_i0 k0 + w_i1 k1 + w_i2 k2 with
    the weights as literals (repr round-trips a finite float)."""
    return [f"{name}{i} = {w0!r} * k0 + {w1!r} * k1 + {w2!r} * k2"
            for i, (w0, w1, w2) in enumerate(weights)]


@functools.cache
def _stage_solver(m: int):
    """The stage solve for rows of length m, generated on first use and
    cached: solve(k0, k1, k2, slope, row, x, y, h, threshold, last, end)
    runs simplified Newton for the stage slopes k_i = f(x + c_i h, y + h sum
    A_ij k_j), f(x, y) the polynomial in y with ascending coefficients
    row(x), from the starting slopes k0, k1, k2 and the frozen Jacobian
    slope = df/dy, until every update is at most threshold in size or
    iteration last fails to get there.

    The stage rows are sampled once the first iteration's stage values
    are finite, and unpacked into m locals each; end, when not None, is
    the row at x + h already sampled by the caller and stands in for the
    last stage row.  A row of another length is a ValueError naming its
    abscissa and both lengths, raised where its unpack fails.  An
    iteration is straight-line code: Horner from the leading coefficient,
    one statement per coefficient and stage (_horner_lines), the update
    d = M r through the inline inverse M and k = k - d (k + (-d) bit for
    bit), and the finiteness and convergence tests as chained comparisons
    (the latter equal to max|d_i| <= threshold: the updates are finite
    there and threshold is not negative).  Returns (y + h sum b_i k_i, k0,
    k1, k2, iterations, row at x + h); raises NewtonFailure when the
    iterations run out or a stage value or update is non-finite (it cannot
    converge).
    """
    # the tableau enters the code as literals: repr round-trips a finite float
    a, b, c = [repr(v) for v in _A], [repr(v) for v in _B], [repr(v) for v in _C]
    stage_values = [f"s{i} = y + h * ({a[3 * i]} * k0 + {a[3 * i + 1]} * k1 + {a[3 * i + 2]} * k2)"
                    for i in range(3)]
    non_finite = ('raise NewtonFailure(f"non-finite stage update in iteration {iterations}'
                  ' at x={x!r}, h={h!r}")')
    finite_stages = "if not (ninf < s0 < inf and ninf < s1 < inf and ninf < s2 < inf):"
    iteration = [
        *(line for i in range(3)
          for line in _horner_lines(f"f{i}", [f"c{i}_{k}" for k in range(m)], f"s{i}")),
        *(f"r{i} = k{i} - f{i}" for i in range(3)),
        *(f"d{i} = m{i}0 * r0 + m{i}1 * r1 + m{i}2 * r2" for i in range(3)),
        "if not (ninf < d0 < inf and ninf < d1 < inf and ninf < d2 < inf):",
        f"    {non_finite}",
        *(f"k{i} = k{i} - d{i}" for i in range(3)),
        "if low <= d0 <= threshold and low <= d1 <= threshold and low <= d2 <= threshold:",
        f"    return y + h * ({b[0]} * k0 + {b[1]} * k1 + {b[2]} * k2),"
        " k0, k1, k2, iterations, p2",
        "if iterations == last:",
        '    raise NewtonFailure(f"no stage convergence in {last} iterations'
        ' at x={x!r}, h={h!r}")',
        "iterations += 1",
        *stage_values,
        finite_stages,
        f"    {non_finite}",
    ]
    body = [
        "z = h * slope",
        *_inverse_lines(),
        "low = -threshold",
        "iterations = 1",
        *stage_values,
        finite_stages,
        f"    {non_finite}",
        *(f"t{i} = x + {c[i]} * h" for i in range(3)),
        "p0, p1 = row(t0), row(t1)",
        "p2 = row(t2) if end is None else end",
        "try:",
        *(f"    [{', '.join(f'c{i}_{k}' for k in range(m))}] = p{i}" for i in range(3)),
        "except ValueError:",
        *(f"    _require_length(p{i}, t{i}, {m})" for i in range(3)),
        "    raise",
        "while True:",
        *(f"    {line}" for line in iteration),
    ]
    return _define(f"stage solver, rows of length {m}",
                   "solve(k0, k1, k2, slope, row, x, y, h, threshold, last, end)", body,
                   NewtonFailure=NewtonFailure, _require_length=_require_length)


@functools.cache
def _step_attempt(m: int):
    """The step attempt for rows of length m, generated on first use and
    cached: attempt(start, row, x, y, h, config) from start = row(x) runs
    the full step and two half steps for the step-doubling error estimate
    err = |y_h - y_{h/2,h/2}| / 31 as straight-line code, reading config
    once.  The full step starts its three stages at f(x, y); each half step
    starts them at the full step's collocation slope polynomial u', the
    quadratic through (c_j, k_j), at its own nodes: u'(c_i/2) for the
    first, u'(1/2 + c_i/2) for the second (_FIRST_HALF_SEEDS,
    _SECOND_HALF_SEEDS).  The full step and the first half step share the
    Jacobian from start; the second half step's comes from the first's last
    stage row, at x + h/2, and its own last stage row is the full step's
    where (x + h/2) + h/2 == x + h.  Returns (y_h, err, newton iterations
    of all three steps, the full step's stages, row at x + h).
    """
    return _define(f"step attempt, rows of length {m}", "attempt(start, row, x, y, h, config)", [
        "y, h = float(y), float(h)",
        *_start_lines(m, "start", "y"),
        "newton_tol, atol, rtol = config.newton_tol, config.atol, config.rtol",
        "last = config.newton_max_iters",
        "scaled = rtol * abs(y)  # the Newton threshold is newton_tol (atol / h + rtol |y|)",
        "y_coarse, k0, k1, k2, iters, end = solve(",
        "    value, value, value, slope, row, x, y, h, newton_tol * (atol / h + scaled), last,",
        "    None)",
        "half = 0.5 * h",
        *_seed_lines("u", _FIRST_HALF_SEEDS),
        "y_half, _, _, _, iters2, middle = solve(",
        "    u0, u1, u2, slope, row, x, y, half, newton_tol * (atol / half + scaled), last, None)",
        *_start_lines(m, "middle", "y_half", value=False),
        *_seed_lines("v", _SECOND_HALF_SEEDS),
        "x_half = x + half",
        "y_fine, _, _, _, iters3, _ = solve(",
        "    v0, v1, v2, slope, row, x_half, y_half, half,",
        "    newton_tol * (atol / half + rtol * abs(y_half)), last,",
        "    end if x_half + half == x + h else None)",
        f"err = abs(y_coarse - y_fine) / {STEP_DOUBLING_DENOM!r}",
        "return y_coarse, err, iters + iters2 + iters3, (k0, k1, k2), end",
    ], solve=_stage_solver(m), _rescaled_entry=_rescaled_entry)


def step(row, x, y, h, config=None) -> StepResult:
    """One adaptive-quality step of y' = f(x, y), row(x) giving the
    ascending coefficients in y of f: full step plus two half steps for
    the step-doubling error estimate err = |y_h - y_{h/2,h/2}| / 31.
    y_next is the full step y_h; err_est estimates the local error of the
    two half steps, and y_h's is about 32 err_est (module docstring).  The
    half steps start their Newton iterations from the full step's
    collocation slope polynomial, so err_est and newton_iters depend on
    the full step's stages as well as on the half steps' own.

    x, y and h must be finite real numbers and h positive, and row(x)
    must not be empty (ValueError).
    """
    _require_finite(x=x, y=y, h=h)
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h!r}")
    start = _first_row(row, x)
    return StepResult(*_step_attempt(len(start))(start, row, x, y, h, config or SolverConfig())[:4])


@dataclass
class IntegrationResult:
    """Accepted trajectory plus counters.

    status is "completed", "step-failure" (h under h_min, a step too small
    to change x, or max_steps attempts used), or "newton-failure" (stages
    diverged even at h_min); message carries the detail.
    n_rejected counts every rejected attempt; n_newton_failures those whose
    stage solve failed, the rest failed the error test.
    """

    xs: np.ndarray
    ys: np.ndarray
    h_used: np.ndarray
    newton_per_step: np.ndarray
    n_rejected: int
    n_newton_failures: int
    n_newton_iters: int
    status: str
    message: str = ""

    @property
    def n_accepted(self) -> int:
        return len(self.xs) - 1

    @property
    def final_x(self) -> float:
        return float(self.xs[-1])

    @property
    def final_y(self) -> float:
        return float(self.ys[-1])

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def interp(self, x) -> np.ndarray | float:
        return np.interp(x, self.xs, self.ys)


def _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters, status, message=""):
    return IntegrationResult(np.array(xs), np.array(ys), np.array(hs), np.array(iters, dtype=int),
                             rejected, newton_failures, total_iters, status, message)


def integrate_rhs(row, x0: float, y0: float, x_end: float, config: SolverConfig | None = None,
                  checkpoints=None) -> IntegrationResult:
    """Adaptive integration of y' = f(x, y) from (x0, y0) to x_end, where
    row(x) returns the ascending coefficients in y of f at x.

    checkpoints, if given, are interior abscissae every accepted grid must
    contain exactly; steps are truncated to land on them.  row is sampled
    once per abscissa: an attempt starts from the row its predecessor
    ended on (or was rejected from), and a new row is sampled only where a
    truncated step lands off x + h.
    """
    config = config or SolverConfig()
    span = _span(x0, y0, x_end)
    h_max = config.h_max if config.h_max is not None else span / 10.0
    h = config.h0 if config.h0 is not None else 1e-3 * span
    h = min(h, h_max)

    marks = [float(x_end)]
    if checkpoints is not None:
        marks = sorted({float(p) for p in checkpoints if x0 < p <= x_end} | {float(x_end)})
    mark_idx = 0

    xs, ys, hs, iters = [x0], [y0], [0.0], [0]
    x, y = x0, y0
    start = _first_row(row, x0)
    m = len(start)
    attempt = _step_attempt(m)
    atol, rtol, h_min, max_steps = config.atol, config.rtol, config.h_min, config.max_steps
    rejected = newton_failures = total_iters = steps_taken = 0

    while x < x_end:
        if steps_taken >= max_steps:
            return _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters,
                           "step-failure", f"max_steps={max_steps} exceeded")
        steps_taken += 1

        while mark_idx < len(marks) and marks[mark_idx] <= x:
            mark_idx += 1
        target = marks[mark_idx]
        # snap-to-target guard: avoids a float sum creeping past the mark
        truncated = h >= (target - x) * (1.0 - 1e-12)
        h_try = target - x if truncated else h
        if x + h_try == x:
            return _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters,
                           "step-failure", f"step size {h_try!r} does not advance x={x!r}")

        try:
            y_next, err, newton_iters, _, end = attempt(start, row, x, y, h_try, config)
        except NewtonFailure as failure:
            rejected += 1
            newton_failures += 1
            h = 0.5 * h_try
            if h < h_min:
                return _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters,
                               "newton-failure", str(failure))
            continue

        total_iters += newton_iters
        tol = atol + rtol * abs(y)
        if err <= tol:
            x_step = x + h_try
            x = target if truncated else x_step
            y = y_next
            start = end if x == x_step else _require_length(row(x), x, m)
            xs.append(x)
            ys.append(y)
            hs.append(h_try)
            iters.append(newton_iters)
        else:
            rejected += 1

        if err == 0.0:
            factor = 5.0
        else:
            factor = min(5.0, max(0.2, 0.9 * (tol / err) ** (1.0 / 6.0)))
        h = min(h_try * factor, h_max)
        if h < h_min:
            return _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters,
                           "step-failure", f"step size {h!r} below h_min at x={x!r}")

    return _finish(xs, ys, hs, iters, rejected, newton_failures, total_iters, "completed")


def integrate(equation: AbelEquation, y0: float, x_end: float,
              config: SolverConfig | None = None, checkpoints=None) -> IntegrationResult:
    """Integrate an equation from (equation.x0, y0) to x_end."""
    return integrate_rhs(equation.row, equation.x0, y0, x_end, config, checkpoints)


def integrate_fixed_rhs(row, x0: float, y0: float, x_end: float, h: float,
                        config: SolverConfig | None = None) -> IntegrationResult:
    """Fixed-step integration (error control off; the last step is truncated).

    Stage divergence raises NewtonFailure since there is no step to halve;
    a run of more than config.max_steps steps (refused before its first
    step) or a step that would not move x is a ValueError naming its size.
    """
    config = config or SolverConfig()
    span = _span(x0, y0, x_end)
    _require_finite(h=h)
    if h <= 0.0:
        raise ValueError("h must be positive")
    h = float(h)
    if float(span) / h > config.max_steps:
        raise ValueError(f"step size h={h!r} needs more than max_steps={config.max_steps}"
                         f" steps over x_end - x0 = {span!r}")
    xs, ys, hs, iters = [x0], [y0], [0.0], [0]
    x, y = x0, float(y0)
    start = _first_row(row, x0)
    solve = _stage_solver(len(start))
    newton_tol, atol, rtol = config.newton_tol, config.atol, config.rtol
    last = config.newton_max_iters
    total_iters = 0
    while x < x_end:
        h_try = min(h, float(x_end - x))
        if x + h_try == x:
            raise ValueError(f"step size {h_try!r} does not advance x={x!r}")
        slope = _horner(_derivative_row(start), y)
        if not math.isfinite(slope):  # as _start_lines rescales it
            slope = _rescaled_entry(start, y, 1, slope)
        value = _horner(start, y)
        # the row at x + h_try starts the next step (a truncated step is the last)
        y, _, _, _, step_iters, start = solve(
            value, value, value, slope, row, x, y, h_try,
            newton_tol * (atol / h_try + rtol * abs(y)), last, None)
        x = x_end if h_try < h else x + h
        total_iters += step_iters
        xs.append(x)
        ys.append(y)
        hs.append(h_try)
        iters.append(step_iters)
    return _finish(xs, ys, hs, iters, 0, 0, total_iters, "completed")


def empirical_order(equation: AbelEquation, y0: float, x_end: float, h_list,
                    config: SolverConfig | None = None) -> tuple[float, list[float]]:
    """Observed convergence order from fixed-step runs against a reference
    run of the same method at min(h_list)/16.

    A same-method fine-step reference keeps the comparison clean: its own
    error is 16^5 times below the smallest measured one, so the measured
    errors are not floored by an unrelated tolerance.  Returns
    (least-squares slope of log error vs log h, per-h errors).  A step
    size that is not finite, real and positive, or whose reference run
    at h/16 would need more than config.max_steps steps, is a ValueError
    naming h_list[i], raised before any run.
    """
    h_list = list(h_list)  # an iterator would be used up by the checks
    if not h_list:
        raise OrderTestError("h_list must be nonempty")
    for i, h in enumerate(h_list):
        _require_finite(**{f"h_list[{i}]": h})
        if not h > 0.0:
            raise ValueError(f"h_list[{i}] must be positive, got {h!r}")
    span = _span(equation.x0, y0, x_end)
    i = min(range(len(h_list)), key=lambda i: float(h_list[i]))
    h_ref = float(h_list[i]) / 16.0
    max_steps = (config or SolverConfig()).max_steps
    if not h_ref > 0.0 or float(span) / h_ref > max_steps:  # h/16 may underflow
        raise ValueError(f"h_list[{i}]={h_list[i]!r} needs more than max_steps={max_steps}"
                         " steps of h/16 in its reference run")
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

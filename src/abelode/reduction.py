"""Degree-preserving reduction around a known solution.

If g(x) solves y' = sum_k a_k(x) y^k, the deviation v = y - g solves
another equation of the same degree with no constant term,

    v' = sum_{k=1}^{n} c_k(x) v^k,
    c_k(x) = sum_{j=k}^{n} binom(j, k) a_j(x) g(x)^{j-k},

because the right-hand side is a polynomial in y and the shift is its
Taylor expansion at g.  The leading coefficient is preserved: c_n = a_n.

The pivot g must actually be a solution, otherwise a spurious constant
term is silently dropped; ``reduce_about`` therefore checks it at the
abscissae its caller works on (the command line's reduce.csv rows,
roundtrip_check's x0 and marks), so a coefficient undefined outside that
range is never evaluated, and refuses at the first that fails.  An
equilibrium (a constant, finite and the same everywhere) is a solution
whose derivative is 0: the residual rhs(x, g), or g' - rhs(x, g) with g'
by central difference, must be within a tolerance of the scale
1 + sum_k |a_k| |g|^k, and that scale finite (an overflow proves nothing).
The pivot is sampled one abscissa at a time and the base rows by one
AbelEquation.grid call, before any residual is tested; the residual and
its scale are array arithmetic over all abscissae.

At every degree n >= 1 the reduced form converts, by w = 1/v, to the
second-kind form (at n = 3 the Abel equation of the second kind):

    -w' = c_1(x) w + c_2(x) + c_3(x) / w + ... + c_n(x) / w^(n-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import (AbelEquation, SolverConfig, _horner, _require_real, _require_span,
                   _taylor_entry)
from .expr import compile_dual, compile_row

if TYPE_CHECKING:
    from .radau import IntegrationResult

__all__ = [
    "ReductionError",
    "NotASolutionError",
    "ReducedEquation",
    "SecondKindForm",
    "reduce_about",
    "roundtrip_check",
]

# pivot acceptance tolerances, relative to a coefficient-magnitude scale
EQUILIBRIUM_RESIDUAL_TOL = 1e-8
SOLUTION_RESIDUAL_TOL = 1e-6
CONSTANCY_TOL = 1e-10

_FD_STEP = 1e-5

# the residual tolerance and the refusal of each pivot kind
_PIVOT_KINDS = {
    "equilibrium": (EQUILIBRIUM_RESIDUAL_TOL, "pivot value {!r} is not a root"),
    "solution": (SOLUTION_RESIDUAL_TOL, "pivot is not a solution"),
}


class ReductionError(ValueError):
    pass


class NotASolutionError(ReductionError):
    """The proposed pivot fails the residual check at a checked abscissa."""


@dataclass(frozen=True)
class ReducedEquation:
    """v' = sum_{k=1}^{degree} c_k(x) v^k for the deviation v = y - pivot."""

    base: AbelEquation
    pivot: Callable[[float], float]

    @property
    def degree(self) -> int:
        return self.base.degree

    @cached_property
    def _tail_row(self):
        """x -> [a_1(x), ..., a_n(x)]: one compiled function, built on first use."""
        return compile_row(self.base.coeffs[1:])

    @cached_property
    def _tail_grid(self):
        """xs -> (a_1..a_n columns, x-slopes): expr.compile_dual, built on first use."""
        return compile_dual(self.base.coeffs[1:])

    def coefficients(self, xs) -> np.ndarray:
        """c_1..c_degree at each abscissa of xs, shape (N, degree): one pass of
        a_1..a_n, the pivot as a float once per abscissa, and one array
        _taylor_entry per c_k.  It is the stacked row(x)[1:] bit for bit, and
        a failing coefficient is raised before any pivot call, as row(x)
        raises it at one abscissa."""
        xs = np.asarray(xs, dtype=float)
        tail, _ = self._tail_grid(xs)
        g = np.array([self.pivot(x) for x in xs.tolist()], dtype=float)
        columns = [None, *tail]  # entry 0, a_0, is never read
        with np.errstate(over="ignore", invalid="ignore"):  # as on floats: inf or NaN, no warning
            return np.column_stack([_taylor_entry(columns, g, k) for k in range(1, len(columns))])

    def row(self, x: float) -> list[float]:
        """[0, c_1(x), ..., c_degree(x)]: the ascending coefficients in v of v',
        entries 1..degree of the Taylor expansion at the pivot (the constant
        a_0 is left out, so entry 0 is not formed)."""
        coefficients, g = [0.0] + self._tail_row(x), self.pivot(x)
        return [0.0] + [_taylor_entry(coefficients, g, k) for k in range(1, len(coefficients))]


@dataclass(frozen=True)
class SecondKindForm:
    """-w' = c_1(x) w + c_2(x) + c_3(x)/w + ... + c_n(x)/w^(n-2) with w = 1/v."""

    reduced: ReducedEquation

    def rhs(self, x: float, w: float) -> float:
        """The terms past c_2 are summed from c_n down, dividing by w at each
        step, so a cubic's value is -(c1 * w + c2 + c3 / w) as written."""
        if w == 0.0:
            raise ZeroDivisionError("second-kind variable hit zero")
        row = self.reduced.row(x)
        value = row[1] * w
        if len(row) > 2:
            value += row[2]
        if len(row) > 3:
            tail = row[-1]
            for c in row[-2:2:-1]:  # c_{n-1} down to c_3
                tail = tail / w + c
            value += tail / w
        return -value

    def residual(self, x: float, w: float, w_prime: float) -> float:
        return w_prime - self.rhs(x, w)


def _check_pivot(equation: AbelEquation, pivot, xs: list[float], kind: str) -> None:
    """Raise NotASolutionError at the first abscissa of xs where the pivot
    fails the check of its kind (see the module docstring)."""
    tol, refusal = _PIVOT_KINDS[kind]
    values = np.array([pivot(x) for x in xs], dtype=float)
    if kind == "equilibrium":
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = bad[0]
            raise NotASolutionError(f"pivot value {values[i].item()!r} is not finite at x={xs[i]!r}")
        spread = values.max().item() - values.min().item()  # inf, not a warning, past the range
        if not spread <= CONSTANCY_TOL * (1.0 + abs(values[0])):
            raise NotASolutionError(
                f"equilibrium pivot is not constant: spread {spread:.3e} "
                "across the checked abscissae"
            )
    else:
        grid = np.array(xs)
        h = _FD_STEP * (1.0 + abs(grid))
        with np.errstate(over="ignore"):  # x -+ h past the largest float is -+inf
            ahead_xs, behind_xs = (grid + h).tolist(), (grid - h).tolist()
        ahead = np.array([pivot(x) for x in ahead_xs], dtype=float)
        behind = np.array([pivot(x) for x in behind_xs], dtype=float)
    columns, _ = equation.grid(xs)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below: the scale is not finite
        residual = _horner(columns, values)
        if kind == "solution":
            residual = (ahead - behind) / (2.0 * h) - residual
        scale = 1.0 + _horner(abs(columns), abs(values))
    bad = np.flatnonzero(~(np.isfinite(scale) & (abs(residual) <= tol * scale)))
    if bad.size:
        i = bad[0]
        raise NotASolutionError(f"{refusal.format(values[i].item())} at x={xs[i]!r}: "
                                f"residual {residual[i].item():.3e}")


def reduce_about(
    equation: AbelEquation,
    pivot,
    xs,
    kind: str = "equilibrium",
) -> ReducedEquation:
    """Build the deviation equation around a pivot verified at each
    abscissa of xs, in order (a refusal names the first failing one).

    pivot is a callable or a constant: any real number but a bool (an int,
    a float, a numpy real, a Fraction); anything else raises a ValueError
    before a coefficient is evaluated.  kind selects the residual check:
    "equilibrium" for constant roots, "solution" for explicit solutions.
    """
    xs = [float(x) for x in xs]
    if not xs:
        raise ValueError("no abscissa to check the pivot at")
    if callable(pivot):
        pivot_fn = pivot
    else:
        _require_real("pivot", pivot)
        value = float(pivot)
        pivot_fn = lambda x, _v=value: _v  # noqa: E731
    if kind not in _PIVOT_KINDS:
        raise ValueError(f"unknown pivot kind {kind!r}")
    _check_pivot(equation, pivot_fn, xs, kind)
    return ReducedEquation(equation, pivot_fn)


def roundtrip_check(
    equation: AbelEquation,
    pivot,
    y0: float,
    x_end: float,
    kind: str = "equilibrium",
    config: SolverConfig | None = None,
    checkpoints=None,
) -> tuple[float, IntegrationResult, IntegrationResult]:
    """Integrate the original and the reduced equation, compare on a
    shared checkpoint grid.

    Returns (max |y - (pivot + v)| over checkpoints, original run,
    reduced run).  Both runs are forced to land on the checkpoints so no
    interpolation error enters the comparison.  [x0, x_end] is refused
    (ValueError) before anything is evaluated; the pivot is checked at x0
    and at every checkpoint, x_end the last.
    """
    from .radau import integrate, integrate_rhs

    x0 = equation.x0
    span = _require_span(x0=x0, x_end=x_end)
    if checkpoints is None:
        count = 9
        checkpoints = [x0 + span * (i + 1) / (count + 1) for i in range(count)]
    marks = sorted({float(p) for p in checkpoints if x0 < p <= x_end} | {float(x_end)})
    reduced = reduce_about(equation, pivot, [x0, *marks], kind)

    original = integrate(equation, y0, x_end, config, checkpoints=marks)
    v0 = y0 - reduced.pivot(x0)
    deviation = integrate_rhs(reduced.row, x0, v0, x_end, config, checkpoints=marks)
    if not (original.completed and deviation.completed):
        raise ReductionError(
            "roundtrip integrations did not both complete: "
            f"{original.status} / {deviation.status}"
        )

    pivot_values = np.array([reduced.pivot(mark) for mark in marks], dtype=float)
    gap = original.interp(marks) - (pivot_values + deviation.interp(marks))
    return abs(gap).max().item(), original, deviation

"""Degree-preserving reduction around a known solution.

If g(x) solves y' = sum_k a_k(x) y^k, the deviation v = y - g solves
another equation of the same degree with no constant term,

    v' = sum_{k=1}^{n} c_k(x) v^k,
    c_k(x) = sum_{j=k}^{n} binom(j, k) a_j(x) g(x)^{j-k},

because the right-hand side is a polynomial in y and the shift is its
Taylor expansion at g.  The leading coefficient is preserved: c_n = a_n.

The pivot g must actually be a solution, otherwise a spurious constant
term is silently dropped; ``reduce`` therefore verifies the pivot at
probe points first and refuses otherwise.  Two pivot kinds are
supported:

  * "equilibrium": a constant c that is a root of the right-hand side
    for every x (checked algebraically at the probes, plus constancy),
  * "solution": an explicit function, checked by finite-difference
    residual g'(x) - rhs(x, g(x)) at the probes.

For cubic equations the reduced form converts to an Abel equation of
the second kind in w = 1/v:

    -w' = c_1(x) w + c_2(x) + c_3(x) / w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .core import (
    AbelEquation,
    _PROBE_OFFSETS,
    _horner,
    _taylor_shift,
    eval_rhs,
)
from .expr import compile_row
from .radau import IntegrationResult, SolverConfig, integrate, integrate_rhs

__all__ = [
    "ReductionError",
    "NotASolutionError",
    "WrongDegreeError",
    "ReducedEquation",
    "SecondKindForm",
    "reduce_about",
    "to_second_kind",
    "roundtrip_check",
]

# pivot acceptance tolerances, relative to a coefficient-magnitude scale
EQUILIBRIUM_RESIDUAL_TOL = 1e-8
SOLUTION_RESIDUAL_TOL = 1e-6
CONSTANCY_TOL = 1e-10

_FD_STEP = 1e-5


class ReductionError(ValueError):
    pass


class NotASolutionError(ReductionError):
    """The proposed pivot fails the residual check at a probe point."""


class WrongDegreeError(ReductionError):
    """Second-kind conversion is only defined for cubic equations."""


@dataclass(frozen=True)
class ReducedEquation:
    """v' = sum_{k=1}^{degree} c_k(x) v^k for the deviation v = y - pivot."""

    base: AbelEquation
    pivot: Callable[[float], float]

    @property
    def degree(self) -> int:
        return self.base.degree

    def c(self, k: int, x: float) -> float:
        if not 1 <= k <= self.degree:
            raise ValueError(f"coefficient index {k} outside 1..{self.degree}")
        return self.coefficients(x)[k - 1]

    @cached_property
    def _tail_row(self):
        """x -> [a_1(x), ..., a_n(x)]: one compiled function, built on first use."""
        return compile_row(self.base.coeffs[1:])

    def coefficients(self, x: float) -> list[float]:
        """[c_1(x), ..., c_degree(x)]: the base row Taylor-shifted to the pivot.

        a_0 enters only the dropped c_0 (the pivot residual): not evaluated.
        """
        return _taylor_shift([0.0] + self._tail_row(x), self.pivot(x))[1:]

    def rhs(self, x: float, v: float) -> float:
        return _horner(self.row(x), v)

    def row(self, x: float) -> list[float]:
        """[0, c_1(x), ..., c_degree(x)]: the ascending coefficients in v of v'."""
        return [0.0] + self.coefficients(x)


@dataclass(frozen=True)
class SecondKindForm:
    """-w' = c1(x) w + c2(x) + c3(x)/w with w = 1/v."""

    reduced: ReducedEquation

    def c1(self, x: float) -> float:
        return self.reduced.c(1, x)

    def c2(self, x: float) -> float:
        return self.reduced.c(2, x)

    def c3(self, x: float) -> float:
        return self.reduced.c(3, x)

    def rhs(self, x: float, w: float) -> float:
        if w == 0.0:
            raise ZeroDivisionError("second-kind variable hit zero")
        c1, c2, c3 = self.reduced.coefficients(x)
        return -(c1 * w + c2 + c3 / w)

    def residual(self, x: float, w: float, w_prime: float) -> float:
        return w_prime - self.rhs(x, w)


def _probe_points(equation: AbelEquation) -> list[float]:
    return [equation.x0 + d for d in _PROBE_OFFSETS]


def _coefficient_scale(equation: AbelEquation, x: float, y: float) -> float:
    return 1.0 + _horner([abs(value) for value in equation.row(x)], abs(y))


def _check_equilibrium_pivot(equation: AbelEquation, pivot, probes) -> None:
    values = [pivot(x) for x in probes]
    for x, value in zip(probes, values):
        if not math.isfinite(value):
            raise NotASolutionError(f"pivot value {value!r} is not finite at x={x!r}")
    center = values[0]
    spread = max(values) - min(values)
    if not spread <= CONSTANCY_TOL * (1.0 + abs(center)):
        raise NotASolutionError(
            f"equilibrium pivot is not constant: spread {spread:.3e} across probes"
        )
    for x, value in zip(probes, values):
        residual = eval_rhs(equation, x, value)
        scale = _coefficient_scale(equation, x, value)
        if not abs(residual) <= EQUILIBRIUM_RESIDUAL_TOL * scale:
            raise NotASolutionError(
                f"pivot value {value!r} is not a root at x={x!r}: "
                f"residual {residual:.3e}"
            )


def _check_solution_pivot(equation: AbelEquation, pivot, probes) -> None:
    for x in probes:
        h = _FD_STEP * (1.0 + abs(x))
        derivative = (pivot(x + h) - pivot(x - h)) / (2.0 * h)
        value = pivot(x)
        residual = derivative - eval_rhs(equation, x, value)
        scale = _coefficient_scale(equation, x, value)
        if not abs(residual) <= SOLUTION_RESIDUAL_TOL * scale:
            raise NotASolutionError(
                f"pivot is not a solution at x={x!r}: residual {residual:.3e}"
            )


def reduce_about(
    equation: AbelEquation,
    pivot,
    kind: str = "equilibrium",
) -> ReducedEquation:
    """Build the deviation equation around a verified pivot.

    pivot is a constant (float) or callable; kind selects the residual
    check: "equilibrium" for constant roots, "solution" for explicit
    solutions.
    """
    if isinstance(pivot, (int, float)):
        value = float(pivot)
        pivot_fn = lambda x, _v=value: _v  # noqa: E731
    else:
        pivot_fn = pivot
    probes = _probe_points(equation)
    if kind == "equilibrium":
        _check_equilibrium_pivot(equation, pivot_fn, probes)
    elif kind == "solution":
        _check_solution_pivot(equation, pivot_fn, probes)
    else:
        raise ValueError(f"unknown pivot kind {kind!r}")
    return ReducedEquation(equation, pivot_fn)


def to_second_kind(reduced: ReducedEquation) -> SecondKindForm:
    if reduced.degree != 3:
        raise WrongDegreeError(
            f"second-kind form needs a cubic equation, got degree {reduced.degree}"
        )
    return SecondKindForm(reduced)


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
    interpolation error enters the comparison.
    """
    reduced = reduce_about(equation, pivot, kind)
    x0 = equation.x0
    if checkpoints is None:
        count = 9
        span = x_end - x0
        checkpoints = [x0 + span * (i + 1) / (count + 1) for i in range(count)]
    marks = sorted({float(p) for p in checkpoints if x0 < p <= x_end} | {float(x_end)})

    original = integrate(equation, y0, x_end, config, checkpoints=marks)
    v0 = y0 - reduced.pivot(x0)
    deviation = integrate_rhs(reduced.row, x0, v0, x_end, config, checkpoints=marks)
    if not (original.completed and deviation.completed):
        raise ReductionError(
            "roundtrip integrations did not both complete: "
            f"{original.status} / {deviation.status}"
        )

    worst = 0.0
    for mark in marks:
        y_direct = original.interp(mark)
        y_via = reduced.pivot(mark) + deviation.interp(mark)
        worst = max(worst, abs(y_direct - y_via))
    return worst, original, deviation

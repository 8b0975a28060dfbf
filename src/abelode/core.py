"""Equation types for first-order polynomial ODEs y' = sum_k a_k(x) y^k.

An AbelEquation of degree n holds the n+1 coefficients a_0..a_n, each a
parsed Expr called at x, on a half-line [x0, inf); a_k is named by its
position k.  Dividing through by the leading coefficient gives the monic
normal form

    F(x, y) = y^n + sum_{k<n} lambda_k(x) y^k,   lambda_k = a_k / a_n,

with the convention lambda_n == 1.  The normal form is what root finding
and stability work on; the integrator consumes the raw right-hand side
as the row AbelEquation.row(x).

Every polynomial in y is handled as one coefficient row (ascending
powers) evaluated once per abscissa; _horner, _derivative_row and
_taylor_shift do the arithmetic on such a row.  _horner starts at the
leading coefficient, which gives what a 0.0 seed gives wherever that
coefficient is nonzero and y finite (see _horner).  The integrator runs
_horner's operations inline, bit for bit: radau generates its start values
and its stage solve per row length as flat Horner statements, each from
the leading coefficient too.

Scalar rows come from one compiled function per equation,
AbelEquation.row (see expr.compile_row), which NormalForm.sample reads
too.  Where it cannot give a finite row, it raises the tree walk's
ExprDomainError, which names the failing operation and x; sample then
walks a_n alone, so a failing a_n, or a vanishing one
(LeadingCoefficientError), is reported before the row's own error.
NormalForm.sample_grid samples a grid, with the mask of where sample
raises, by Expr.eval_array (compile_row's code run on the whole grid).
These are the only checks of a_n: normalize evaluates nothing, so a zero
of a_n outside the abscissae a run samples is never met.

All types are immutable after construction and can be shared freely
across threads; the only state they hold beyond their fields is the
compiled row, built on first use and the same whichever thread builds it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import Expr, ExprDomainError, compile_row, parse

__all__ = [
    "AbelEquation",
    "NormalForm",
    "LeadingCoefficientError",
    "BranchError",
    "ZeroEigenvalueError",
    "build_equation",
    "normalize",
    "eval_rhs",
    "eval_drhs",
]


class LeadingCoefficientError(ValueError):
    """Leading coefficient vanished at some x; no normal form exists there."""


class BranchError(RuntimeError):
    """Branch continuation or root isolation failed; carries the offending x."""

    def __init__(self, message: str, x: float):
        super().__init__(f"{message} at x={x!r}")
        self.x = x


class ZeroEigenvalueError(RuntimeError):
    """dF/dy vanished on the branch; implicit derivative undefined."""

    def __init__(self, x: float):
        super().__init__(f"dF/dy vanishes at x={x!r}; branch derivative undefined")
        self.x = x


@dataclass(frozen=True)
class AbelEquation:
    """y' = sum_{k=0}^{degree} coeffs[k](x) y^k on [x0, inf), each
    coefficient a parsed Expr."""

    coeffs: tuple[Expr, ...]  # ascending order a_0 .. a_n
    x0: float

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Expr:
        return self.coeffs[-1]

    @cached_property
    def row(self):
        """x -> [a_0(x), ..., a_n(x)], evaluated in that order: one compiled
        function, built on first use."""
        return compile_row(self.coeffs)


def build_equation(coeff_sources: list[str] | tuple[str, ...], x0: float) -> AbelEquation:
    """Build an equation from coefficient strings in ascending order a_0..a_n."""
    return AbelEquation(tuple(map(parse, coeff_sources)), float(x0))


@dataclass(frozen=True)
class NormalForm:
    """Monic view of an equation: lambda_k = a_k/a_n for k < degree."""

    equation: AbelEquation = field(repr=False)

    @property
    def degree(self) -> int:
        return self.equation.degree

    def _nonzero_leading(self, x: float, an: float | None = None) -> float:
        """a_n(x) (evaluated unless given), raising LeadingCoefficientError
        where it vanishes."""
        if an is None:
            an = self.equation.leading(x)
        if an == 0.0:
            raise LeadingCoefficientError(
                f"leading coefficient a{self.degree} vanishes at x={x!r}"
            )
        return an

    def sample(self, x: float) -> tuple[float, list[float]]:
        """a_n(x) and the monic row [lambda_0(x), ..., lambda_{n-1}(x), 1.0],
        from one evaluation of each coefficient."""
        try:
            row = self.equation.row(x)
        except ExprDomainError:
            # a_n and its zero check come first; else the row's error is
            # the first failing a_0..a_{n-1}
            self._nonzero_leading(x)
            raise
        an = self._nonzero_leading(x, row[-1])
        return an, [v / an for v in row[:-1]] + [1.0]

    def sample_grid(self, xs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """sample at every abscissa of xs as arrays: a_n with shape (N,), the
        monic rows with shape (N, n+1) and the mask of abscissae where
        sample(x) returns; the stacked sample(x) there, bit for bit, and NaN
        where it raises.  One eval_array pass per coefficient where every
        one evaluates and a_n vanishes nowhere, else sample point by point.
        The rows are the transpose of contiguous coefficient columns, so a
        column (rows.T[k]) is read without a stride."""
        xs = np.asarray(xs, dtype=float)
        try:
            *values, leading = [c.eval_array(xs) for c in self.equation.coeffs]
            if leading.all():
                with np.errstate(over="ignore"):
                    monic = [v / leading for v in values]
                rows = np.stack(monic + [np.ones(xs.size)]).T
                return leading, rows, np.ones(xs.size, dtype=bool)
        except ExprDomainError:
            pass
        leading, rows = np.full(xs.size, np.nan), np.full((self.degree + 1, xs.size), np.nan).T
        defined = np.zeros(xs.size, dtype=bool)
        for i, x in enumerate(xs.tolist()):
            try:
                leading[i], rows[i] = self.sample(x)
            except (ExprDomainError, LeadingCoefficientError):
                continue
            defined[i] = True
        return leading, rows, defined


def normalize(equation: AbelEquation) -> NormalForm:
    """The monic normal form of equation.  Nothing is evaluated here: a
    vanishing or failing a_n is refused where a stage samples it (sample
    raises, sample_grid masks)."""
    return NormalForm(equation)


def _require_real(name: str, value) -> None:
    """Raise ValueError naming name unless value is a real number: an int,
    a float or a numpy real, but not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _horner(coefficients: list[float], y: float) -> float:
    """Value at y of the polynomial with ascending coefficients c_0..c_{m-1}
    (floats, or arrays that broadcast with y), by Horner's rule from the
    leading coefficient: acc = c_{m-1}, then acc = acc y + c_k for k from
    m-2 down to 0 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 5.1).  An empty row is 0.0; a one-coefficient row is
    c_0, as a new array in the broadcast shape of c_0 and y where either is
    an array.

    A seed acc = 0.0 would spend one multiply and one add on 0 y + c_{m-1},
    which is c_{m-1} bit for bit wherever c_{m-1} is nonzero and y finite,
    so both seeds give the same result there.  They differ in the sign of
    a zero result where c_{m-1} is -0.0 and the rest of the row is zero,
    and where y is not finite (0 inf is NaN).  The seed is never updated in
    place: on the array paths it is the caller's column.
    """
    if len(coefficients) == 0:
        return 0.0
    acc = coefficients[-1]
    for c in coefficients[-2::-1]:
        acc = acc * y + c
    if len(coefficients) == 1 and (np.ndim(acc) or np.ndim(y)):
        return np.full(np.broadcast_shapes(np.shape(acc), np.shape(y)), acc)
    return acc


def _derivative_row(coefficients: list[float]) -> list[float]:
    """Ascending coefficients of the y-derivative: [k c_k for k >= 1]."""
    return [k * c for k, c in enumerate(coefficients)][1:]


def _taylor_shift(coefficients: list, g):
    """Ascending coefficients in v of the polynomial at y = g + v.

    Entry k is (1/k!) d^k/dy^k at g = sum_{j>=k} binom(j, k) c_j g^{j-k},
    summed by Horner in g from the highest power down.  Coefficients and g
    may be floats or equal-length arrays (one polynomial per entry, the
    same operations element-wise).
    """
    n = len(coefficients)
    return [
        _horner([math.comb(j, k) * coefficients[j] for j in range(k, n)], g)
        for k in range(n)
    ]


def eval_rhs(equation: AbelEquation, x: float, y: float) -> float:
    """Right-hand side sum_k a_k(x) y^k via Horner."""
    return _horner(equation.row(x), y)


def eval_drhs(equation: AbelEquation, x: float, y: float) -> float:
    """d/dy of the right-hand side: sum_{k>=1} k a_k(x) y^{k-1}."""
    return _horner(_derivative_row(equation.row(x)), y)


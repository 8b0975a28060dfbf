"""Equation types for first-order polynomial ODEs y' = sum_k a_k(x) y^k.

An AbelEquation of degree n holds the n+1 coefficient functions a_0..a_n
on a half-line [x0, inf).  Dividing through by the leading coefficient
gives the monic normal form

    F(x, y) = y^n + sum_{k<n} lambda_k(x) y^k,   lambda_k = a_k / a_n,

with the convention lambda_n == 1.  The normal form is what root finding
and stability work on; the integrator consumes the raw right-hand side
as the row AbelEquation.row(x).

Every polynomial in y is handled as one coefficient row (ascending
powers) evaluated once per abscissa; _horner, _derivative_row and
_taylor_shift do the arithmetic on such a row.  The integrator runs
_horner's operations inline, bit for bit: radau generates its start values
and its stage solve per row length as flat Horner statements.

Scalar rows come from one compiled function per equation,
AbelEquation.row (see expr.compile_row), which NormalForm.sample reads
too.  Where it cannot give a finite row, it raises the tree walk's
ExprDomainError, which names the failing operation and x; sample then
re-runs the walk a_n first, so a vanishing a_n raises
LeadingCoefficientError before a_0..a_{n-1} are evaluated.  Grids go
through Expr.eval_array, compile_row's code run on the whole grid.

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
    "CoefficientFn",
    "AbelEquation",
    "NormalForm",
    "LeadingCoefficientError",
    "build_equation",
    "normalize",
    "eval_rhs",
    "eval_drhs",
    "eval_F",
    "eval_dF",
]


class LeadingCoefficientError(ValueError):
    """Leading coefficient vanished at some x; no normal form exists there."""


@dataclass(frozen=True)
class CoefficientFn:
    """One coefficient a_k: a parsed expression with its label."""

    expr: Expr
    label: str

    def __call__(self, x: float) -> float:
        return self.expr.eval(x)


@dataclass(frozen=True)
class AbelEquation:
    """y' = sum_{k=0}^{degree} coeffs[k](x) y^k on [x0, inf)."""

    coeffs: tuple[CoefficientFn, ...]  # ascending order a_0 .. a_n
    x0: float
    description: str = ""

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> CoefficientFn:
        return self.coeffs[-1]

    @cached_property
    def row(self):
        """x -> [a_0(x), ..., a_n(x)], evaluated in that order: one compiled
        function, built on first use."""
        return compile_row(c.expr for c in self.coeffs)


def build_equation(
    coeff_sources: list[str] | tuple[str, ...],
    x0: float,
    description: str = "",
) -> AbelEquation:
    """Build an equation from coefficient strings in ascending order a_0..a_n."""
    coeffs = tuple(
        CoefficientFn(parse(src), f"a{k}")
        for k, src in enumerate(coeff_sources)
    )
    return AbelEquation(coeffs, float(x0), description)


@dataclass(frozen=True)
class NormalForm:
    """Monic view of an equation: lambda_k = a_k/a_n for k < degree."""

    equation: AbelEquation = field(repr=False)

    @property
    def degree(self) -> int:
        return self.equation.degree

    def a_n(self, x: float) -> float:
        return self.equation.leading(x)

    def _nonzero_leading(self, x: float, an: float | None = None) -> float:
        """a_n(x) (evaluated unless given), raising LeadingCoefficientError
        where it vanishes."""
        if an is None:
            an = self.equation.leading(x)
        if an == 0.0:
            raise LeadingCoefficientError(
                f"leading coefficient {self.equation.leading.label} vanishes at x={x!r}"
            )
        return an

    def sample(self, x: float) -> tuple[float, list[float]]:
        """a_n(x) and the monic row [lambda_0(x), ..., lambda_{n-1}(x), 1.0],
        from one evaluation of each coefficient."""
        try:
            row = self.equation.row(x)
        except ExprDomainError:
            # the tree walk explains the failure: a_n and its zero check
            # first, then a_0..a_{n-1}
            an = self._nonzero_leading(x)
            return an, [c(x) / an for c in self.equation.coeffs[:-1]] + [1.0]
        an = self._nonzero_leading(x, row[-1])
        return an, [v / an for v in row[:-1]] + [1.0]

    def a_n_grid(self, xs) -> np.ndarray:
        """a_n at every abscissa of xs, as a_n gives it point by point."""
        return self.equation.leading.expr.eval_array(xs)

    def sample_grid(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """sample at every abscissa of xs as arrays: a_n with shape (N,) and
        the monic rows with shape (N, n+1), bit for bit the stacked sample(x),
        or the error that the first failing sample(x) raises."""
        xs = np.asarray(xs, dtype=float)
        try:
            values = [c.expr.eval_array(xs) for c in self.equation.coeffs]
        except ExprDomainError:
            values = None
        if values is None or not values[-1].all():
            # point by point, so a_n, its zero check and a_0..a_{n-1} fail
            # in the order sample meets them
            leading, rows = zip(*(self.sample(x) for x in xs.tolist()))
            return np.array(leading), np.array(rows)
        leading = values[-1]
        with np.errstate(over="ignore"):
            monic = [v / leading for v in values[:-1]]
        return leading, np.stack(monic + [np.ones(xs.size)], axis=1)

    def lam(self, k: int, x: float) -> float:
        """lambda_k(x); k == degree returns the monic leading 1."""
        return 1.0 if k == self.degree else self.sample(x)[1][k]

    def lambdas(self, x: float) -> list[float]:
        """[lambda_0(x), ..., lambda_{n-1}(x)]."""
        return self.sample(x)[1][:-1]


# Probe offsets past x0 used to reject a leading coefficient that vanishes
# somewhere obvious; a zero elsewhere raises LeadingCoefficientError from
# the normal form at the abscissa where it is met.
_PROBE_OFFSETS = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)


def normalize(equation: AbelEquation) -> NormalForm:
    """Return the monic normal form, probing a_n != 0 near x0."""
    nf = NormalForm(equation)
    for offset in _PROBE_OFFSETS:
        nf._nonzero_leading(equation.x0 + offset)
    return nf


def _require_real(name: str, value) -> None:
    """Raise ValueError naming name unless value is a real number: an int,
    a float or a numpy real, but not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _horner(coefficients: list[float], y: float) -> float:
    """Value at y of the polynomial with ascending coefficients."""
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * y + c
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


def eval_F(nf: NormalForm, x: float, y: float) -> float:
    """Monic polynomial F(x, y) = y^n + sum_{k<n} lambda_k(x) y^k."""
    return _horner(nf.sample(x)[1], y)


def eval_dF(nf: NormalForm, x: float, y: float) -> float:
    """dF/dy = n y^{n-1} + sum_{1<=k<n} k lambda_k(x) y^{k-1} (lambda_n == 1)."""
    return _horner(_derivative_row(nf.sample(x)[1]), y)

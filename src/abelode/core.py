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

Coefficient rows come from two compiled functions per equation:
AbelEquation.row (expr.compile_row) at one x, which NormalForm.sample
reads, and AbelEquation.grid (expr.compile_grid) for a whole grid, the
only way a table is built.  Where a row is not finite, both raise the
tree walk's ExprDomainError, which names the failing operation and x;
sample then walks a_n alone, so a failing a_n, or a vanishing one
(LeadingCoefficientError), is reported before the row's own error, and
NormalForm.sample_grid masks where sample raises.  These are the only
checks of a_n: normalize evaluates nothing, so a zero of a_n outside the
abscissae a run samples is never met.

SolverConfig, the integrator's tolerances and guards, and the exceptions
every stage raises (BranchError, ZeroEigenvalueError, NewtonFailure and
OrderTestError) live here beside the equation types, so that a caller
which only builds a configuration or names an exception loads no stage
module: radau, the only module that integrates, is loaded by the first
integration.

All types are immutable after construction and can be shared freely
across threads; the only state they hold beyond their fields is the
compiled row and grid, built on first use, alike whichever thread builds them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import Expr, ExprDomainError, compile_grid, compile_row, parse

__all__ = [
    "AbelEquation",
    "NormalForm",
    "LeadingCoefficientError",
    "BranchError",
    "ZeroEigenvalueError",
    "NewtonFailure",
    "OrderTestError",
    "SolverConfig",
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


class NewtonFailure(RuntimeError):
    """Stage iteration did not converge within newton_max_iters."""


class OrderTestError(RuntimeError):
    """Reference or fixed-step run failed during the order measurement."""


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

    @cached_property
    def grid(self):
        """xs -> the (n+1, N) array of the columns row(x), built on first use."""
        return compile_grid(self.coeffs)


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
        where it raises.  One equation.grid call where every coefficient
        evaluates and a_n vanishes nowhere, else sample point by point.
        The rows are the transpose of contiguous coefficient columns, so a
        column (rows.T[k]) is read without a stride."""
        xs = np.asarray(xs, dtype=float)
        try:
            columns = self.equation.grid(xs)
            leading = columns[-1].copy()
            if leading.all():
                with np.errstate(over="ignore"):
                    columns[:-1] /= leading
                columns[-1] = 1.0
                return leading, columns.T, np.ones(xs.size, dtype=bool)
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


def _require_finite(**values) -> None:
    """Raise ValueError naming the first value that is not a finite real
    number."""
    for name, value in values.items():
        _require_real(name, value)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and guards for both integration loops.

    h0 defaults to 1e-3 (x_end - x0) and h_max to (x_end - x0)/10 at
    integrate() time when left as None.  The fixed-step loop reads the
    Newton settings (atol and rtol through the Newton threshold) and
    max_steps, its limit on (x_end - x0) / h.
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
        for name in ("atol", "rtol", "h0", "h_min", "h_max", "newton_tol"):
            value = getattr(self, name)
            if value is not None or name not in ("h0", "h_max"):  # None: the default
                _require_finite(**{name: value})
        if self.atol <= 0.0 or self.rtol < 0.0:
            raise ValueError("atol must be positive and rtol non-negative")
        for name in ("h0", "h_min", "h_max", "newton_tol"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in ("newton_max_iters", "max_steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.newton_max_iters < 1:
            raise ValueError("newton_max_iters must be >= 1")


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
    same operations element-wise).  Where an entry is not finite, it is
    summed again with every c_j pre-scaled by the same exact power of two,
    chosen so that no binom(j, k) c_j overflows, and scaled back
    (_rescaled_entry); a finite entry is never touched.
    """
    n = len(coefficients)
    shifted = []
    for k in range(n):
        entry = _horner([math.comb(j, k) * coefficients[j] for j in range(k, n)], g)
        finite = math.isfinite(entry) if isinstance(entry, float) else np.isfinite(entry).all()
        shifted.append(entry if finite else _rescaled_entry(coefficients, g, k, entry))
    return shifted


def _rescaled_entry(coefficients: list, g, k: int, entry):
    """Entry k of _taylor_shift where its plain sum gave entry, not finite:
    the sum again from the c_j times 2^-e, then times 2^e, with e the least
    shift that keeps the n - k terms binom(j, k) c_j 2^-e, and their sum
    where |g| <= 1, inside the float range (entry itself where e <= 0: no
    term overflowed).  Both scalings are exact unless a scaled c_j is
    subnormal.  An array entry keeps entry wherever that is finite."""
    n = len(coefficients)
    peak = max(float(np.max(np.abs(c), where=np.isfinite(c), initial=0.0))
               for c in coefficients[k:])
    shift = math.frexp(peak)[1] + (math.comb(n - 1, k) * (n - k)).bit_length() - 1023
    if shift <= 0:
        return entry
    down, up = 2.0 ** -shift, 2.0 ** shift
    with np.errstate(over="ignore", invalid="ignore"):
        rescaled = _horner([math.comb(j, k) * (coefficients[j] * down) for j in range(k, n)],
                           g) * up
    if isinstance(entry, float):
        return rescaled
    return np.where(np.isfinite(entry), entry, rescaled)


def eval_rhs(equation: AbelEquation, x: float, y: float) -> float:
    """Right-hand side sum_k a_k(x) y^k via Horner."""
    return _horner(equation.row(x), y)


def eval_drhs(equation: AbelEquation, x: float, y: float) -> float:
    """d/dy of the right-hand side: sum_{k>=1} k a_k(x) y^{k-1} via Horner
    on the k a_k; a result that is not finite (some k a_k past the floats)
    is summed again by _rescaled_entry, as the integrator's Jacobian is."""
    row = equation.row(x)
    slope = _horner(_derivative_row(row), y)
    if not math.isfinite(slope):
        slope = _rescaled_entry(row, y, 1, slope)
    return slope


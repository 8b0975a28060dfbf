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
powers) evaluated once per abscissa; _horner and _taylor_entry do the
arithmetic on such a row.  _horner gives the value, and _taylor_entry
entry k of the Taylor expansion in y, (1/k!) d^k/dy^k: the y-derivative
(k = 1) for Lambda = dF/dy and the integrator's Jacobian, the entries
k >= 2 for the rate bound's remainder constant and the entries k >= 1 for
the reduction about a solution.  _horner starts at the leading
coefficient, which gives what a 0.0 seed gives wherever that coefficient
is nonzero and y finite (see _horner).  The integrator runs _horner's
operations inline, bit for bit: radau generates its start values and its
stage solve per row length as flat Horner statements, each from the
leading coefficient too.

Coefficient rows come from compiled functions per equation:
AbelEquation.row (expr.compile_row) at one x, which NormalForm.sample
reads, and AbelEquation.grid (expr.compile_dual) for a whole grid, the
only way a table is built: one pass gives the table and its
x-derivatives, and NormalForm.sample_grid forms the monic rows and their
x-slopes from it.  Where a row is not finite, both raise the tree walk's
ExprDomainError, which names the failing operation and x; sample then
walks a_n alone, so a failing a_n, or a vanishing one
(LeadingCoefficientError), is reported before the row's own error, and
sample_grid masks where sample raises: it samples each abscissa's row
once and runs the pass again on those where it evaluates.  These are the
only checks of a_n: normalize evaluates nothing, so a zero of a_n
outside the abscissae a run samples is never met.

SolverConfig, the integrator's tolerances and guards, GridSpec, the grid
a branch is continued on, and the exceptions every stage raises
(BranchError, ZeroEigenvalueError, NewtonFailure and OrderTestError) live
here beside the equation types, so that a caller which only builds a
configuration or a grid or names an exception loads no stage module.
_require_span is the one check of an interval [x0, x_end], made before
anything is evaluated on it, under the bound names the caller's user
knows (a case run's x_max, a grid's x_start).

All types are immutable after construction and can be shared freely
across threads; the only state they hold beyond their fields is the
compiled row and grid, built on first use, alike whichever thread builds
them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import Expr, ExprDomainError, compile_dual, compile_row, parse

__all__ = [
    "AbelEquation",
    "NormalForm",
    "LeadingCoefficientError",
    "BranchError",
    "ZeroEigenvalueError",
    "NewtonFailure",
    "OrderTestError",
    "SolverConfig",
    "GridSpec",
    "build_equation",
    "normalize",
    "eval_rhs",
    "eval_drhs",
]


class LeadingCoefficientError(ValueError):
    """Leading coefficient vanished at some x; no normal form exists there."""

    def __init__(self, degree: int, x: float):
        super().__init__(f"leading coefficient a{degree} vanishes at x={x!r}")
        self.degree = degree
        self.x = x


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
        """xs -> (values, slopes): the (n+1, N) array of the columns row(x)
        and the coefficients' x-derivatives at xs (an (N,) array each, the
        float 0.0 for a coefficient without x); one compiled function
        (expr.compile_dual), built on first use."""
        return compile_dual(self.coeffs)


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
            raise LeadingCoefficientError(self.degree, x)
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

    def sample_grid(self, xs) -> tuple[np.ndarray, np.ndarray, list, np.ndarray]:
        """sample at every abscissa of xs as arrays, and the x-slopes of the
        monic row: a_n with shape (N,), the monic rows with shape (N, n+1),
        the slopes [lambda_0', ..., lambda_{n-1}', 0.0] and the mask of
        abscissae where sample(x) returns; the stacked sample(x) there, bit
        for bit, and NaN where it raises.  lambda_k' = (a_k' - lambda_k a_n')
        / a_n (a_k' / a_n where a_n has no x) is an (N,) array, or the float
        0.0 where neither a_k nor a_n has x, and NaN where sample raises or
        a coefficient's x-derivative is not finite.  One equation.grid pass
        where every coefficient evaluates; else each abscissa's row is
        sampled once, and the pass runs on the abscissae where it evaluates.
        The rows are the transpose of contiguous coefficient columns, so a
        column (rows.T[k]) is read without a stride."""
        xs = np.asarray(xs, dtype=float)
        defined = np.ones(xs.size, dtype=bool)
        try:
            columns, slopes = self.equation.grid(xs)
        except ExprDomainError:
            for i, x in enumerate(xs.tolist()):
                try:
                    self.equation.row(x)
                except ExprDomainError:
                    defined[i] = False

            def spread(part):
                full = np.full(part.shape[:-1] + xs.shape, np.nan)
                full[..., defined] = part
                return full

            part, part_slopes = self.equation.grid(xs[defined])
            columns = spread(part)
            slopes = [spread(s) if isinstance(s, np.ndarray) else s for s in part_slopes]
        leading = columns[-1].copy()
        defined &= leading != 0.0
        leading[~defined] = np.nan
        no_slope = ~defined
        for slope in slopes:
            if isinstance(slope, np.ndarray):
                no_slope |= ~np.isfinite(slope)
        with np.errstate(all="ignore"):
            columns[:-1] /= leading
            lead_slope = slopes[-1]
            if isinstance(lead_slope, np.ndarray):
                monic = [(s - lam * lead_slope) / leading for lam, s in zip(columns, slopes[:-1])]
            else:
                monic = [s / leading if isinstance(s, np.ndarray) else 0.0 for s in slopes[:-1]]
        for slope in monic:
            if isinstance(slope, np.ndarray):
                slope[no_slope] = np.nan
        columns[-1] = 1.0
        columns[:, ~defined] = np.nan
        return leading, columns.T, [*monic, 0.0], defined


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


def _require_span(**bounds) -> float:
    """end - start for two keyword bounds, start first, each named by its
    keyword: ValueError unless both are finite real numbers
    (_require_finite), end exceeds start and end - start is finite."""
    _require_finite(**bounds)
    (start, u), (end, v) = bounds.items()
    if not v > u:
        raise ValueError(f"{end}={v!r} must exceed {start}={u!r}")
    if not math.isfinite(float(v) - float(u)):  # numpy scalars would warn
        raise ValueError(f"{end} - {start} overflows for {start}={u!r}, {end}={v!r}")
    return v - u


@dataclass(frozen=True)
class GridSpec:
    """A sampling grid on [x_start, x_end], linear or logarithmic."""

    x_start: float
    x_end: float
    count: int
    spacing: str = "linear"  # "linear" | "log"

    def __post_init__(self):
        if not isinstance(self.count, (int, np.integer)):
            raise ValueError(f"grid count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")
        _require_span(x_start=self.x_start, x_end=self.x_end)
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and self.x_start <= 0.0:
            raise ValueError("log spacing needs x_start > 0")

    def xs(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.x_start, self.x_end, self.count)
        return np.linspace(self.x_start, self.x_end, self.count)

    def midpoint(self, a: float, b: float) -> float:
        # refinement midpoint in the grid's own metric; sqrt(a) sqrt(b) only
        # where a * b overflows or leaves the normal floats, and 0.5 a + 0.5 b
        # only where a + b overflows (the span check admits such a grid)
        if self.spacing == "log":
            product = a * b
            if sys.float_info.min <= product < math.inf:
                return math.sqrt(product)
            return math.sqrt(a) * math.sqrt(b)
        total = a + b
        if math.isfinite(total):
            return 0.5 * total
        return 0.5 * a + 0.5 * b


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
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


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
    and where y is not finite (0 inf is NaN).

    An array result is one new array: the first step c_{m-1} y + c_{m-2}
    allocates it, and each later step multiplies and adds into it in place
    (on floats, acc *= y is acc = acc * y).  Those are the rounded
    operations of acc = acc * y + c, so no bit of a number differs, and the
    caller's columns and y are never written.  A NaN result's sign and
    payload are not fixed: where a NaN product meets a NaN coefficient
    (0 inf + nan), numpy's in-place add keeps the coefficient's NaN and the
    allocating add the product's.  No output shows them: CSV writes nan
    and JSON null.  acc holds y's shape and type from the first step on,
    so only adding a c can be refused: a c with more dimensions, one that
    widens a size-1 axis of acc, or one numpy will not cast into acc (a
    float c on integer rows); that step allocates.  A float32 acc would
    take a float64 c at its own precision, so rows are float64 arrays or
    floats.
    """
    if len(coefficients) == 0:
        return 0.0
    if len(coefficients) == 1:
        acc = coefficients[0]
        if np.ndim(acc) or np.ndim(y):
            return np.full(np.broadcast_shapes(np.shape(acc), np.shape(y)), acc)
        return acc
    acc = coefficients[-1] * y + coefficients[-2]
    for c in coefficients[-3::-1]:
        acc *= y
        try:
            acc += c
        except (TypeError, ValueError):  # numpy refused to write c into acc
            acc = acc + c
    return acc


def _taylor_entry(coefficients: list, g, k: int):
    """Entry k of the row's Taylor expansion at g, (1/k!) d^k/dy^k at g =
    sum_{j>=k} binom(j, k) c_j g^{j-k}: _horner on the binom(j, k) c_j, from
    the leading term.  Coefficients and g may be floats or equal-length
    arrays (one polynomial per element, the same operations element-wise).

    A finite entry is returned as summed.  One that is not finite is summed
    again from the c_j times 2^-e, then times 2^e, with e the least shift
    that keeps the n - k terms binom(j, k) c_j 2^-e, and their sum where
    |g| <= 1, inside the float range; where e <= 0 no term overflowed and
    the plain sum stands.  Both scalings are exact unless a scaled c_j is
    subnormal.  An array entry keeps the plain sum wherever that is finite
    and takes each element's own e from that element's c_j, so every
    element is the scalar entry bit for bit.
    """
    n = len(coefficients)
    entry = _horner([math.comb(j, k) * coefficients[j] for j in range(k, n)], g)
    if math.isfinite(entry) if isinstance(entry, float) else np.isfinite(entry).all():
        return entry
    # |c_j| per element, the non-finite ones as 0, and the largest of them
    terms = np.abs(np.broadcast_arrays(*coefficients[k:], entry)[:-1])
    peak = np.max(terms, axis=0, where=np.isfinite(terms), initial=0.0)
    shift = np.maximum(np.frexp(peak)[1] + (math.comb(n - 1, k) * (n - k)).bit_length() - 1023, 0)
    if not shift.any():
        return entry
    down, up = np.ldexp(1.0, -shift), np.ldexp(1.0, shift)  # 2^-e, 2^e; 1.0 where e <= 0
    if isinstance(entry, float):
        down, up = float(down), float(up)
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
    """d/dy of the right-hand side: sum_{k>=1} k a_k(x) y^{k-1}, entry 1 of
    the row's Taylor expansion (_taylor_entry), as the integrator's
    Jacobian is."""
    return _taylor_entry(equation.row(x), y, 1)

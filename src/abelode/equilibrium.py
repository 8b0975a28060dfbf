"""Equilibrium roots and branch continuation for the monic form F(x, y).

At fixed x the equilibria are the real roots of the monic polynomial
F(x, .).  Roots are isolated by recursing on the derivative polynomial:
the real critical points split the line into intervals where F is
strictly monotone, so every real root inside the Cauchy-type bound
R = 2 (1 + max_k |lambda_k(x)|) is caught by a sign change (or sits at a
critical point, for multiple roots).  Sign changes are bisected to 1e-12
and polished with at most 5 Newton steps.  One kernel does this for a
whole stack of rows in lockstep (every bracket of every row bisected at
once), with each row's roots bit-identical to what it gives alone; a
single abscissa is a stack of one.

A branch E(x) is continued across a grid: every grid row is sampled and
isolated up front, then the smallest positive root is taken at the first
point and the nearest root afterwards, with a fallback to the smallest
positive root if the nearest root crosses zero.  A jump larger than
0.25 (1 + E_prev) triggers one local grid refinement before the branch
is declared lost.  Each branch point records the stability eigenvalue
Lambda(x) = dF/dy (x, E(x)).

The branch slope E' = -(dF/dx) / Lambda comes from branch_slopes for
all points at once: dF/dx is a finite difference of rows sampled at
x +- h, one-sided where the coefficients fail on one side (a domain
edge), undefined where they fail on both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LeadingCoefficientError,
    NormalForm,
    _derivative_row,
    _horner,
)
from .expr import ExprDomainError

__all__ = [
    "GridSpec",
    "BranchPoint",
    "EquilibriumBranch",
    "BranchError",
    "ZeroEigenvalueError",
    "real_roots",
    "smallest_positive_root",
    "continue_branch",
    "branch_derivative",
    "branch_slopes",
    "branch_limit",
]

#: roots at or below this count as zero (a branch value of 0 at a domain
#: endpoint is admitted but never selected as "positive")
POSITIVE_THRESHOLD = 1e-12

#: bisection interval width target
BISECT_TOL = 1e-12

#: |F| <= NEWTON_RESIDUAL_TOL * scale stops the Newton polish
NEWTON_RESIDUAL_TOL = 1e-13

#: relative jump allowed between consecutive branch values
JUMP_FRACTION = 0.25

#: tail window and relative spread for the numerical limit estimate
LIMIT_TAIL_WINDOW = 16
LIMIT_TOL = 1e-7


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
class GridSpec:
    """A sampling grid on [x_start, x_end], linear or logarithmic."""

    x_start: float
    x_end: float
    count: int
    spacing: str = "linear"  # "linear" | "log"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("grid needs at least 2 points")
        if not (math.isfinite(self.x_start) and math.isfinite(self.x_end)):
            raise ValueError(f"grid bounds must be finite, got [{self.x_start!r}, {self.x_end!r}]")
        if not self.x_end > self.x_start:
            raise ValueError("x_end must exceed x_start")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and self.x_start <= 0.0:
            raise ValueError("log spacing needs x_start > 0")

    def xs(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.x_start, self.x_end, self.count)
        return np.linspace(self.x_start, self.x_end, self.count)

    def midpoint(self, a: float, b: float) -> float:
        # refinement midpoint in the grid's own metric
        if self.spacing == "log":
            return math.sqrt(a * b)
        return 0.5 * (a + b)


@dataclass(frozen=True)
class BranchPoint:
    x: float
    E: float
    Lambda: float

    @property
    def stable(self) -> bool:
        return self.Lambda < 0.0


@dataclass
class EquilibriumBranch:
    """Continued equilibrium branch with per-point stability eigenvalues.

    points includes any refinement midpoints inserted during continuation,
    so consecutive E values always satisfy the jump bound.  ambiguous_count
    is the number of grid points where a second positive stable root
    coexisted with the tracked one.  leading (shape (N,)) and rows (shape
    (N, n+1)) are a_n and the monic row [lambda_0, ..., lambda_{n-1}, 1] at
    each point, as sampled by the continuation.
    """

    points: list[BranchPoint]
    grid: GridSpec
    L: float | None
    ambiguous_count: int = 0
    note: str = ""
    leading: np.ndarray = field(kw_only=True)
    rows: np.ndarray = field(kw_only=True)
    _xs: np.ndarray = field(init=False, repr=False, default=None)
    _es: np.ndarray = field(init=False, repr=False, default=None)
    _lams: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self._xs = np.array([p.x for p in self.points])
        self._es = np.array([p.E for p in self.points])
        self._lams = np.array([p.Lambda for p in self.points])
        self.leading = np.asarray(self.leading, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float)
        if self.leading.shape != self._xs.shape or self.rows.shape[:1] != self._xs.shape:
            raise ValueError("leading and rows must have one entry per branch point")

    @property
    def xs(self) -> np.ndarray:
        return self._xs

    @property
    def values(self) -> np.ndarray:
        return self._es

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._lams

    @property
    def x_start(self) -> float:
        return float(self._xs[0])

    @property
    def x_end(self) -> float:
        return float(self._xs[-1])

    def covers(self, x: float) -> bool:
        return self.x_start <= x <= self.x_end

    def interp_E(self, x) -> np.ndarray | float:
        return np.interp(x, self._xs, self._es)

    def interp_Lambda(self, x) -> np.ndarray | float:
        return np.interp(x, self._xs, self._lams)

    @property
    def sup_E(self) -> float:
        return float(self._es.max())


def _check_rows(xs, rows: np.ndarray) -> None:
    """Raise BranchError at the first lambda_k that is not finite, or so
    large that the root bound 2 (1 + max |lambda_k|) or a derivative row
    2 n lambda_k overflows; rows is (N, n+1), xs the matching abscissae."""
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(2.0 * (rows.shape[1] - 1) * rows)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        value = float(rows[i, k])
        problem = "is not finite" if not math.isfinite(value) else "overflows root isolation"
        raise BranchError(f"lambda_{k} = {value!r} {problem}", float(xs[i]))


def _bracket_roots(rows: np.ndarray, deriv: np.ndarray, r: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray, flo: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Roots of the polynomials rows[r] in the brackets [lo, hi] (row r[k]
    for bracket k, flo its value at lo), bisected to BISECT_TOL and then
    polished by at most 5 Newton steps (deriv holds the derivative rows)
    kept inside the bracket, stopping where |F| <= tol.

    Every bracket steps at once; each bisection iteration runs over the
    brackets still open only.  A bracket closes when it is narrow enough,
    when its midpoint no longer splits it, or when the polynomial is exactly
    0 there.  rows and deriv are indexed by bracket once per phase, and the
    copies are gone when this returns.
    """
    root = 0.5 * (lo + hi)
    open_ = np.flatnonzero(hi - lo > BISECT_TOL)
    cols, a, b, fa = rows[r[open_]].T, lo[open_], hi[open_], flo[open_]
    while open_.size:
        mid = 0.5 * (a + b)
        split = (mid > a) & (mid < b)
        fm = _horner(cols, mid)
        zero = split & (fm == 0.0)
        step = split & ~zero
        same = (fm > 0.0) == (fa > 0.0)
        a = np.where(zero | (step & same), mid, a)
        fa = np.where(step & same, fm, fa)
        b = np.where(zero | (step & ~same), mid, b)
        done = ~step | ~(b - a > BISECT_TOL)
        if done.any():
            root[open_[done]] = 0.5 * (a[done] + b[done])
            left = ~done
            open_, cols, a, b, fa = open_[left], cols[:, left], a[left], b[left], fa[left]

    cols, dcols = rows[r].T, deriv[r].T
    fr = _horner(cols, root)
    live = np.ones(root.shape, dtype=bool)
    for _ in range(5):
        live &= ~(np.abs(fr) <= tol)
        d = _horner(dcols, root)
        live &= d != 0.0
        candidate = root - fr / np.where(live, d, 1.0)
        live &= (lo <= candidate) & (candidate <= hi)
        fc = _horner(cols, candidate)
        live &= ~(np.abs(fc) >= np.abs(fr))
        if not live.any():
            break
        root = np.where(live, candidate, root)
        fr = np.where(live, fc, fr)
    return root


def _isolate(rows: np.ndarray) -> np.ndarray:
    """Real roots of every monic row of rows (N, m+1), ascending coefficients
    with a leading 1: an (N, w) array, each row ascending and NaN-padded.

    The rows step in lockstep through one algorithm.  The roots of the
    derivative rows (recursively) split [-R, R], R = 2 (1 + max |lambda_k|),
    into intervals where the row is monotone; a critical point where the row
    is ~0 without changing sign is a multiple root, an exact 0 at +-R is a
    root, and every sign change is bisected and then polished by at most 5
    Newton steps kept inside its bracket (_bracket_roots).  Roots within
    4 BISECT_TOL (relative) of the previous one are merged.  Rows must
    pass _check_rows.
    """
    n, width = rows.shape
    if width == 2:
        return -rows[:, :1]
    deriv = np.stack(_derivative_row(rows.T), axis=1)
    critical = _isolate(deriv / deriv[:, -1:])

    bound = (2.0 * (1.0 + np.max(np.abs(rows[:, :-1]), axis=1)))[:, None]
    inside = (-bound < critical) & (critical < bound)
    # partition [-R, interior critical points, R], NaN-padded on the right
    pts = np.sort(np.hstack([-bound, np.where(inside, critical, np.nan), bound]), axis=1)
    vals = _horner(rows.T[:, :, None], pts)
    scale = 1.0 + np.max(np.abs(rows), axis=1)

    # a critical point with |F| ~ 0 is a multiple root when F does not
    # change sign through it (a sign change is bisected below)
    mid_vals = vals[:, 1:-1]
    multiple = (
        (np.abs(mid_vals) <= (1e-12 * scale)[:, None])
        & (vals[:, :-2] * mid_vals >= 0.0)
        & (mid_vals * vals[:, 2:] >= 0.0)
    )
    # an exact zero at a partition point is left to the critical-point rule
    # or the neighbouring interval, except at the ends +-R
    f_end = vals[np.arange(n), np.count_nonzero(~np.isnan(pts), axis=1) - 1]
    fa, fb = vals[:, :-1], vals[:, 1:]
    bracket = ~np.isnan(pts[:, 1:]) & (fa != 0.0) & (fb != 0.0) & ~(fa * fb > 0.0)
    r, j = np.nonzero(bracket)
    root = _bracket_roots(rows, deriv, r, pts[:, :-1][r, j], pts[:, 1:][r, j], fa[r, j],
                          NEWTON_RESIDUAL_TOL * scale[r])

    polished = np.full(fa.shape, np.nan)
    polished[r, j] = root
    # a stable sort over a fixed candidate order (multiple roots, -R, the
    # brackets left to right, R) decides which of two equal roots, 0.0 and
    # -0.0, is kept
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
            np.abs(candidate - last) <= 4.0 * BISECT_TOL * np.maximum(1.0, np.abs(candidate))
        )
        merged[keep, count[keep]] = candidate[keep]
        count += keep
        last = np.where(keep, candidate, last)
    return merged[:, : count.max(initial=0)]


def _isolate_roots(xs, rows: np.ndarray) -> np.ndarray:
    """Real roots of the monic rows (N, n+1) sampled at xs, as _isolate
    gives them, after _check_rows.  Overflow inside the kernel gives inf
    silently, as it does in Python float arithmetic."""
    _check_rows(xs, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        return _isolate(rows)


def _row_roots(x: float, row: list[float]) -> list[float]:
    """Real roots of one monic row sampled at x: a stack of one."""
    return _isolate_roots([x], np.array([row]))[0].tolist()


def real_roots(nf: NormalForm, x: float) -> list[float]:
    """All real equilibria of F(x, .) in ascending order."""
    return _row_roots(x, nf.sample(x)[1])


def smallest_positive_root(nf: NormalForm, x: float) -> float | None:
    """Smallest root strictly above POSITIVE_THRESHOLD, or None."""
    for r in real_roots(nf, x):
        if r > POSITIVE_THRESHOLD:
            return r
    return None


def _select_root(roots: list[float], previous: float) -> float | None:
    """Nearest root to the previous value; smallest positive if it crossed zero."""
    if not roots:
        return None
    nearest = min(roots, key=lambda r: abs(r - previous))
    if nearest <= POSITIVE_THRESHOLD:
        for r in roots:
            if r > POSITIVE_THRESHOLD:
                return r
        return None
    return nearest


def _count_positive_stable(rows: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Per row of the table, the roots above POSITIVE_THRESHOLD where dF/dy < 0."""
    slope = _horner([c[:, None] for c in _derivative_row(rows.T)], roots)
    return np.count_nonzero((roots > POSITIVE_THRESHOLD) & (slope < 0.0), axis=1)


def continue_branch(nf: NormalForm, grid: GridSpec) -> EquilibriumBranch:
    """Continue the smallest-positive-root branch across the grid.

    Every grid point is sampled once, up front, and the roots of all rows
    are isolated in one lockstep call; what stays sequential is picking
    the nearest root and refining jumps, each refinement midpoint sampled
    and isolated on its own.  The sampled a_n and rows, midpoints included,
    are kept as the branch's table; the root table is not.

    Raises BranchError if a sampled lambda_k is not finite, if the first
    grid point has no positive root or if a jump survives one local
    refinement.
    """
    xs = grid.xs().tolist()
    leading, rows = nf.sample_grid(xs)
    table = _isolate_roots(xs, rows)
    counts = np.count_nonzero(~np.isnan(table), axis=1).tolist()
    roots = [row[:k] for row, k in zip(table.tolist(), counts)]

    first = next((r for r in roots[0] if r > POSITIVE_THRESHOLD), None)
    if first is None:
        raise BranchError("no positive equilibrium at the first grid point", xs[0])

    def advance(e_prev: float, x: float, roots: list[float]) -> float:
        value = _select_root(roots, e_prev)
        if value is None:
            raise BranchError("equilibrium branch vanished", x)
        if abs(value - e_prev) > JUMP_FRACTION * (1.0 + abs(e_prev)):
            return math.nan  # signal: too far
        return value

    branch_xs, values = [xs[0]], [first]
    midpoints = []  # (grid index it precedes, a_n, row)
    for i in range(1, len(xs)):
        x = xs[i]
        value = advance(values[-1], x, roots[i])
        if math.isnan(value):
            # refine once: step through the midpoint in the grid metric
            mid = grid.midpoint(branch_xs[-1], x)
            mid_an, mid_row = nf.sample(mid)
            mid_value = advance(values[-1], mid, _row_roots(mid, mid_row))
            if math.isnan(mid_value):
                raise BranchError("branch lost (jump beyond threshold)", mid)
            branch_xs.append(mid)
            values.append(mid_value)
            midpoints.append((i, mid_an, mid_row))
            value = advance(mid_value, x, roots[i])
            if math.isnan(value):
                raise BranchError("branch lost (jump beyond threshold)", x)
        branch_xs.append(x)
        values.append(value)

    with np.errstate(over="ignore", invalid="ignore"):
        ambiguous = int(np.count_nonzero(_count_positive_stable(rows, table) > 1))
        if midpoints:
            at, mid_leading, mid_rows = zip(*midpoints)
            leading = np.insert(leading, at, mid_leading)
            rows = np.insert(rows, at, mid_rows, axis=0)
        lambdas = _horner(_derivative_row(rows.T), np.array(values)).tolist()
    points = [BranchPoint(*p) for p in zip(branch_xs, values, lambdas)]

    branch = EquilibriumBranch(points, grid, None, ambiguous, leading=leading, rows=rows)
    branch.L = branch_limit(branch)
    if ambiguous:
        branch.note = (
            f"{ambiguous} grid point(s) had a second positive stable root; "
            "the continuation kept the nearest root"
        )
    return branch


def _F_where_defined(nf: NormalForm, xs: np.ndarray, ys: np.ndarray):
    """F(x, y) at each point, and the mask of points where the coefficients
    evaluate (F is NaN elsewhere)."""
    try:
        rows = nf.sample_grid(xs)[1]
    except (ExprDomainError, LeadingCoefficientError):
        if xs.size == 1:
            return np.full(1, np.nan), np.zeros(1, dtype=bool)
        # halve until the failing points are alone: a domain edge costs a
        # few array passes, not one scalar pass per point
        half = xs.size // 2
        parts = [_F_where_defined(nf, xs[s], ys[s]) for s in (slice(half), slice(half, None))]
        return tuple(np.concatenate(p) for p in zip(*parts))
    return _horner(list(rows.T), ys), np.ones(xs.size, dtype=bool)


def _dF_dx(nf: NormalForm, xs: np.ndarray, es: np.ndarray):
    """dF/dx at each point (x, E), E held fixed, and the mask of points where
    it is undefined (NaN there).

    A centred difference with h = max(1e-6, 1e-8 |x|) where the coefficients
    evaluate at both x - h and x + h.  At a domain edge, where only one side
    evaluates, the one-sided difference between that side and x itself;
    undefined where neither side evaluates, or x itself does not.
    """
    h = np.maximum(1e-6, 1e-8 * np.abs(xs))
    f_hi, hi = _F_where_defined(nf, xs + h, es)
    f_lo, lo = _F_where_defined(nf, xs - h, es)
    f_at, at = np.full(xs.size, np.nan), np.zeros(xs.size, dtype=bool)
    edge = hi != lo
    if edge.any():
        f_at[edge], at[edge] = _F_where_defined(nf, xs[edge], es[edge])
    centred = hi & lo
    values = np.where(
        centred, (f_hi - f_lo) / (2.0 * h),
        np.where(hi, (f_hi - f_at) / h, (f_at - f_lo) / h),
    )
    undefined = ~centred & ~at
    return np.where(undefined, np.nan, values), undefined


def _undefined_slope(x: float) -> str:
    """Why E' has no value at x (the mask branch_slopes returns)."""
    return (f"branch derivative undefined at x={x!r}: "
            "the coefficients do not evaluate on either side")


def branch_slopes(nf: NormalForm, xs, es, lams):
    """Implicit derivative E' = -(dF/dx) / Lambda at each point (x, E, Lambda),
    all points at once, and the mask of points where dF/dx is undefined
    (see _dF_dx).  E' is NaN there and where Lambda == 0."""
    xs, es, lams = (np.asarray(v, dtype=float) for v in (xs, es, lams))
    with np.errstate(all="ignore"):
        dfdx, undefined = _dF_dx(nf, xs, es)
        slopes = np.where(lams == 0.0, np.nan, -dfdx / lams)
    return slopes, undefined


def branch_derivative(nf: NormalForm, point: BranchPoint) -> float:
    """E'(x) at one branch point: branch_slopes on a stack of one (NaN where
    dF/dx is undefined)."""
    if point.Lambda == 0.0:
        raise ZeroEigenvalueError(point.x)
    return float(branch_slopes(nf, [point.x], [point.E], [point.Lambda])[0][0])


def branch_limit(branch: EquilibriumBranch) -> float | None:
    """Tail-window limit estimate: mean of the last 16 E values if their
    spread is below 1e-7 relative to the mean, else None."""
    if len(branch.points) < LIMIT_TAIL_WINDOW:
        return None
    tail = branch.values[-LIMIT_TAIL_WINDOW:]
    mean = float(tail.mean())
    spread = float(tail.max() - tail.min())
    denom = abs(mean) if mean != 0.0 else 1.0
    if spread <= LIMIT_TOL * denom:
        return mean
    return None

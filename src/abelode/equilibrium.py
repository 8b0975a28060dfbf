"""Equilibrium roots and branch continuation for the monic form F(x, y).

At fixed x the equilibria are the real roots of the monic polynomial
F(x, .).  Roots are isolated by recursing on the derivative polynomial:
the real critical points split the line into intervals where F is
strictly monotone, so every real root inside the Cauchy-type bound
R = 2 (1 + max_k |lambda_k(x)|) is caught by a sign change (or sits at a
critical point, for multiple roots).  Each sign change is bisected to
1e-12 and polished with at most 5 Newton steps.

A branch E(x) is continued across a grid: smallest positive root at the
first point, nearest root afterwards, with a fallback to the smallest
positive root if the nearest root crosses zero.  A jump larger than
0.25 (1 + E_prev) triggers one local grid refinement before the branch
is declared lost.  Each branch point records the stability eigenvalue
Lambda(x) = dF/dy (x, E(x)).
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
    eval_F,
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
    """Branch continuation failed; carries the offending x."""

    def __init__(self, message: str, x: float):
        super().__init__(f"{message} at x={x!r}")
        self.x = x


class ZeroEigenvalueError(RuntimeError):
    """dF/dy vanished on the branch; implicit derivative undefined."""


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


def _poly_real_roots(coeffs: list[float]) -> list[float]:
    """Real roots of a monic polynomial, ascending coefficients, coeffs[-1] == 1.

    Recursive derivative isolation: monotone between critical points, so a
    sign scan over the critical-point partition of [-R, R] is exhaustive.
    """
    if len(coeffs) == 2:
        return [-coeffs[0]]

    deriv = _derivative_row(coeffs)
    lead = deriv[-1]
    critical = _poly_real_roots([c / lead for c in deriv])

    bound = 2.0 * (1.0 + max(abs(c) for c in coeffs[:-1]))
    pts = [-bound] + sorted(c for c in critical if -bound < c < bound) + [bound]
    vals = [_horner(coeffs, p) for p in pts]
    scale = 1.0 + max(abs(c) for c in coeffs)
    zero_tol = 1e-12 * scale

    roots: list[float] = []
    for i in range(1, len(pts) - 1):
        # a critical point with |F| ~ 0 is a multiple root; report it once,
        # but only when F does not change sign through it (a genuine sign
        # change is already covered by the bisection below)
        if abs(vals[i]) <= zero_tol and vals[i - 1] * vals[i] >= 0.0 and vals[i] * vals[i + 1] >= 0.0:
            roots.append(pts[i])
    for a, b, fa, fb in zip(pts, pts[1:], vals, vals[1:]):
        if fa == 0.0 or fb == 0.0:
            # exact zero at a partition point; the critical-point rule or the
            # neighbouring interval handles it
            if fa == 0.0 and a == pts[0]:
                roots.append(a)
            if fb == 0.0 and b == pts[-1]:
                roots.append(b)
            continue
        if fa * fb > 0.0:
            continue
        lo, hi, flo = a, b, fa
        while hi - lo > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            fm = _horner(coeffs, mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0.0) == (flo > 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        # Newton polish, at most 5 steps, kept inside the bracket
        fr = _horner(coeffs, root)
        for _ in range(5):
            if abs(fr) <= NEWTON_RESIDUAL_TOL * scale:
                break
            d = _horner(deriv, root)
            if d == 0.0:
                break
            step = fr / d
            candidate = root - step
            if not (a <= candidate <= b):
                break
            fc = _horner(coeffs, candidate)
            if abs(fc) >= abs(fr):
                break
            root, fr = candidate, fc
        roots.append(root)

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 4.0 * BISECT_TOL * max(1.0, abs(r)):
            continue
        merged.append(r)
    return merged


def real_roots(nf: NormalForm, x: float) -> list[float]:
    """All real equilibria of F(x, .) in ascending order."""
    return _poly_real_roots(nf.sample(x)[1])


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


def _count_positive_stable(roots: list[float], slope: list[float]) -> int:
    return sum(
        1
        for r in roots
        if r > POSITIVE_THRESHOLD and _horner(slope, r) < 0.0
    )


def continue_branch(nf: NormalForm, grid: GridSpec) -> EquilibriumBranch:
    """Continue the smallest-positive-root branch across the grid.

    Each abscissa, refinement midpoints included, is sampled once: its
    coefficient row gives the roots, Lambda and the second-stable-root
    count, and is kept with a_n in the branch's table.

    Raises BranchError if the first grid point has no positive root or if a
    jump survives one local refinement.
    """
    points: list[BranchPoint] = []
    leading: list[float] = []
    rows: list[list[float]] = []

    def sample(x: float):
        """a_n, the monic row, its real roots and its dF/dy row at x."""
        an, row = nf.sample(x)
        return an, row, _poly_real_roots(row), _derivative_row(row)

    def keep(x: float, value: float, an: float, row: list[float], slope: list[float]) -> None:
        points.append(BranchPoint(x, value, _horner(slope, value)))
        leading.append(an)
        rows.append(row)

    xs = grid.xs()
    x0 = float(xs[0])
    an0, row0, roots0, slope0 = sample(x0)
    first = next((r for r in roots0 if r > POSITIVE_THRESHOLD), None)
    if first is None:
        raise BranchError("no positive equilibrium at the first grid point", x0)

    keep(x0, first, an0, row0, slope0)
    ambiguous = 1 if _count_positive_stable(roots0, slope0) > 1 else 0

    def advance(e_prev: float, x: float, roots: list[float]) -> float:
        value = _select_root(roots, e_prev)
        if value is None:
            raise BranchError("equilibrium branch vanished", x)
        if abs(value - e_prev) > JUMP_FRACTION * (1.0 + abs(e_prev)):
            return math.nan  # signal: too far
        return value

    for x_raw in xs[1:]:
        x = float(x_raw)
        prev = points[-1]
        an, row, roots, slope = sample(x)
        value = advance(prev.E, x, roots)
        if math.isnan(value):
            # refine once: step through the midpoint in the grid metric
            mid = grid.midpoint(prev.x, x)
            mid_an, mid_row, mid_roots, mid_slope = sample(mid)
            mid_value = advance(prev.E, mid, mid_roots)
            if math.isnan(mid_value):
                raise BranchError("branch lost (jump beyond threshold)", mid)
            keep(mid, mid_value, mid_an, mid_row, mid_slope)
            value = advance(mid_value, x, roots)
            if math.isnan(value):
                raise BranchError("branch lost (jump beyond threshold)", x)
        keep(x, value, an, row, slope)
        if _count_positive_stable(roots, slope) > 1:
            ambiguous += 1

    branch = EquilibriumBranch(points, grid, None, ambiguous, leading=leading, rows=rows)
    branch.L = branch_limit(branch)
    if ambiguous:
        branch.note = (
            f"{ambiguous} grid point(s) had a second positive stable root; "
            "the continuation kept the nearest root"
        )
    return branch


def _dF_dx(nf: NormalForm, x: float, y: float) -> float:
    """dF/dx at fixed y, centered difference with h = max(1e-6, 1e-8 |x|)."""
    h = max(1e-6, 1e-8 * abs(x))
    try:
        return (eval_F(nf, x + h, y) - eval_F(nf, x - h, y)) / (2.0 * h)
    except (ExprDomainError, LeadingCoefficientError):
        # domain edge (coefficient undefined just below x); fall back one-sided
        return (eval_F(nf, x + h, y) - eval_F(nf, x, y)) / h


def branch_derivative(nf: NormalForm, point: BranchPoint) -> float:
    """Implicit derivative E'(x) = -(dF/dx) / Lambda along the branch."""
    if point.Lambda == 0.0:
        raise ZeroEigenvalueError(
            f"dF/dy vanishes at x={point.x!r}; branch derivative undefined"
        )
    return -_dF_dx(nf, point.x, point.E) / point.Lambda


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

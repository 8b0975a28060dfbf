"""Equilibrium roots and branch continuation for the monic form F(x, y).

At fixed x the equilibria are the real roots of the monic polynomial
F(x, .).  Roots are isolated by recursing on the derivative polynomial:
the real critical points split the line into intervals where F is
strictly monotone, so every real root inside the Cauchy-type bound
R = 2 (1 + max_k |lambda_k(x)|) is caught by a sign change (or sits at a
critical point where |F| is within Higham's Horner error bound of 0, for
multiple roots, where that bound is finite).  Each sign change is
located to 1e-12 (_bisect): Newton's prediction from the bracket's
midpoint is kept where a certificate proves it (Horner's F at x -+ 2^-41
has opposite signs, each beyond the same rounding bound), and the other
brackets (none on the bundled cases) are bisected in sign-step form.
At most 5 Newton steps polish each root, except a prediction certified
at a fixed point of the Newton step, which the polish cannot move.  One
kernel does this for a stack of rows in lockstep, every pass a ufunc
over coefficient columns (rows.T, read without a stride), and returns
root columns; each row's roots are bit-identical to what it gives alone,
and a run of bitwise-identical adjacent rows is isolated once.  A stack
with one distinct row (a single abscissa, a refinement midpoint, the
derivative levels of a table whose rows differ only in lambda_0, a
constant table) runs the same steps, the sign steps aside (the lockstep
_sign_steps on a one-column stack), on Python floats, bit for bit: a
ufunc over one column moves one number, and numpy's cost per call, over
the kernel's few hundred passes, is most of its time.

A branch E(x) is continued across a grid: every grid row is sampled and
isolated up front, skipping (on grid rows and refinement midpoints) the
brackets that end below a floor a few BISECT_TOL under 0
(_branch_floor), which hold no root the branch can select.  The branch
starts at the smallest positive root and walks the root table by runs of
one column.  The first time it reaches a column, _moves finds where each
of its roots moves in the next row (the nearest root, or the smallest
positive root if the nearest crosses zero), one pass per column of the
next rows; the run ends where the move leaves the column, jumps or
vanishes.  A jump larger than 0.25 (1 + E_prev) triggers one local grid
refinement before the branch is declared lost; a midpoint is sampled
as a stack of one.  The branch stores x, E, the stability eigenvalue
Lambda(x) = dF/dy (x, E(x)) and the branch slope E' as arrays.  The
first grid point where NormalForm.sample_grid's mask says the
coefficients fail raises what NormalForm.sample raises there.

The branch slope E' = -(dF/dx) / Lambda is exact up to rounding: dF/dx =
sum_k lambda_k' E^k is one Horner over the x-slopes of the monic row
that the samples' one forward-mode pass gives (NormalForm.sample_grid),
undefined where a coefficient or its derivative does not evaluate.  The
continuation forms it at every branch point from the samples it takes,
so B3 and branch.csv evaluate no coefficient.  branch_at, the one reader
between grid points, forms a_n and E' by one pass there and reads E and
Lambda as chords of the branch's values and eigenvalues.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import BranchError, NormalForm, _horner, _require_real, _taylor_entry
from .expr import ExprDomainError

__all__ = [
    "GridSpec",
    "BranchPoint",
    "EquilibriumBranch",
    "real_roots",
    "continue_branch",
    "branch_at",
    "branch_limit",
]

#: roots at or below this count as zero (a branch value of 0 at a domain
#: endpoint is admitted but never selected as "positive")
POSITIVE_THRESHOLD = 1e-12

#: bisection interval width target
BISECT_TOL = 1e-12
_TOL_MANTISSA, _TOL_EXPONENT = math.frexp(BISECT_TOL)

#: |F| <= NEWTON_RESIDUAL_TOL * scale stops the Newton polish
NEWTON_RESIDUAL_TOL = 1e-13

#: Newton steps of _bisect's prediction, and the half width 2^-41 of the
#: bracket that certifies it (2^-40 < BISECT_TOL wide)
PREDICTION_STEPS = 12
CERTIFIED_HALF_WIDTH = 2.0 ** -41

#: factor on Higham's Horner error bound, for both the certificate and the
#: multiple-root rule (_rounding_bound)
ROUNDING_MARGIN = 2.0

#: relative jump allowed between consecutive branch values
JUMP_FRACTION = 0.25

#: tail window and relative spread for the numerical limit estimate
LIMIT_TAIL_WINDOW = 16
LIMIT_TOL = 1e-7


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
        _require_real("x_start", self.x_start)
        _require_real("x_end", self.x_end)
        if not (math.isfinite(self.x_start) and math.isfinite(self.x_end)):
            raise ValueError(f"grid bounds must be finite, got [{self.x_start!r}, {self.x_end!r}]")
        if not self.x_end > self.x_start:
            raise ValueError("x_end must exceed x_start")
        if not math.isfinite(float(self.x_end) - float(self.x_start)):
            raise ValueError(f"grid span overflows for [{self.x_start!r}, {self.x_end!r}]")
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
class BranchPoint:
    x: float
    E: float
    Lambda: float


@dataclass
class EquilibriumBranch:
    """Continued equilibrium branch with per-point stability eigenvalues.

    xs, values and eigenvalues (shape (N,)) are x, E and Lambda = dF/dy at
    each point, refinement midpoints included, so consecutive E values
    satisfy the jump bound; points builds BranchPoints from them on each
    read.  ambiguous_count is the number of grid points where a second
    positive stable root coexisted with the tracked one, and note says so
    when there are any; refinements is the number of midpoints.  leading
    (N,) and rows (N, n+1) are a_n and the monic row [lambda_0, ..., 1] at
    each point, as sampled by the continuation.  slopes (N,) is the branch
    slope E' = -(dF/dx) / Lambda at each point, from the x-slopes of the
    same samples, and undefined_slopes (N,) the mask of the points where
    dF/dx is undefined (a coefficient or its x-derivative does not evaluate
    there); E' is NaN there and where Lambda = 0 (see branch_at).  L is
    branch_limit's estimate from the values.  covers(x) is
    x_start <= x <= x_end, for a float or element-wise for an array.
    """

    xs: np.ndarray
    values: np.ndarray
    eigenvalues: np.ndarray
    grid: GridSpec
    ambiguous_count: int = 0
    leading: np.ndarray = field(kw_only=True)
    rows: np.ndarray = field(kw_only=True)
    slopes: np.ndarray = field(kw_only=True)
    undefined_slopes: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        columns = (self.xs, self.values, self.eigenvalues, self.leading, self.rows, self.slopes)
        self.xs, self.values, self.eigenvalues, self.leading, self.rows, self.slopes = (
            np.asarray(a, dtype=float) for a in columns)
        self.undefined_slopes = np.asarray(self.undefined_slopes, dtype=bool)
        if any(a.shape[:1] != self.xs.shape for a in (self.values, self.eigenvalues, self.leading,
                                                      self.rows, self.slopes,
                                                      self.undefined_slopes)):
            raise ValueError("values, eigenvalues, leading, rows, slopes and undefined_slopes "
                             "must have one entry per x")

    @property
    def L(self) -> float | None:
        return branch_limit(self)

    @property
    def note(self) -> str:
        return (f"{self.ambiguous_count} grid point(s) had a second positive stable root; "
                "the continuation kept the nearest root") if self.ambiguous_count else ""

    @property
    def refinements(self) -> int:
        """The refinement midpoints among xs."""
        return int(self.xs.size) - self.grid.count

    # perfbench's branch observer (perfbench/tracing.py) counts len(points);
    # points and BranchPoint can go once it reads xs.size instead
    @property
    def points(self) -> list[BranchPoint]:
        return [BranchPoint(*p) for p in zip(
            self.xs.tolist(), self.values.tolist(), self.eigenvalues.tolist())]

    @property
    def x_start(self) -> float:
        return float(self.xs[0])

    @property
    def x_end(self) -> float:
        return float(self.xs[-1])

    def covers(self, x) -> np.ndarray | bool:
        return (self.x_start <= x) & (x <= self.x_end)

    def interp_E(self, x) -> np.ndarray | float:
        return np.interp(x, self.xs, self.values)

    @property
    def sup_E(self) -> float:
        return float(self.values.max())


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


def _cut(c0: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray):
    """The brackets [lo, hi] (flo the value at lo) with each one across 0 cut
    to the side where F changes sign, read from F(0) = c0, the constant
    coefficient of its row; a bracket with F(0) = 0 keeps [0, hi].  A cut
    bracket is cut no further."""
    across = (lo < 0.0) & (0.0 < hi)
    f0 = np.sign(c0)
    right = f0 == np.sign(flo)
    return (np.where(across & (right | (f0 == 0.0)), 0.0, lo),
            np.where(across & ~right, 0.0, hi))


def _rounding_bound(magnitudes, t):
    """ROUNDING_MARGIN times Higham's a-priori bound gamma_{2n} sum |c_k| |t|^k
    on the rounding error of Horner's rule from the leading coefficient at t,
    for the polynomials whose ascending coefficient columns have the
    magnitudes |c_k| given (degree n = len(magnitudes) - 1; Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 5.1), gamma_m =
    m u / (1 - m u), u = 2^-53.  magnitudes and t are arrays, or one row's
    floats and a float.  The caller forms the |c_k| once for all the points
    it bounds: both ends of every certificate of one _predict call (one
    bracket's on the one-row path), or the critical points of one kernel
    level where the multiple-root rule needs a bound.  |c| is exact, so
    where it is formed changes no bit.

    The sum is itself Horner's rule, on |c_k| and |t|, so it is at least the
    computed |F(t)|, and inf wherever that overflows: an inf bound
    certifies no root and makes no multiple root.  The margin covers its
    own rounding, and the underflow the bound leaves out: for a monic row
    and |t| >= 2^-41 each underflow adds at most 2^-1075 |t|^j, j < n, far
    below gamma_{2n} |t|^n; at t = 0 Horner gives c_0 exactly.
    """
    n = len(magnitudes) - 1
    gamma = 2 * n * 2.0 ** -53 / (1.0 - 2 * n * 2.0 ** -53)
    return ROUNDING_MARGIN * gamma * _horner(magnitudes, abs(t))


def _predict(cols, dcols, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray):
    """Newton's prediction x of the root in each cut bracket [lo, hi] of the
    monic polynomials with coefficient columns cols and derivative columns
    dcols (flo the value at lo), the mask of the brackets where it is
    certified and the mask of those where x is a fixed point of the step.

    x starts at the bracket's midpoint and takes PREDICTION_STEPS Newton
    steps, F and F' by Horner from the leading coefficient, each clamped to
    the bracket.  The loop ends early once every x has reached a fixed
    point or a 2-cycle of the step, which repeat at every later step, and a
    2-cycle ends on its lower point, so no x depends on when the loop ended.
    x is certified where u = x - CERTIFIED_HALF_WIDTH and
    v = x + CERTIFIED_HALF_WIDTH, each rounded toward x, lie in the bracket,
    and Horner's F(u) and -F(v) have the sign of flo, each by more than
    _rounding_bound: the exact polynomial of the row then changes sign in
    (u, v), so it has a root within CERTIFIED_HALF_WIDTH of x (Rump,
    Verification methods, Acta Numerica 19, 2010).  A NaN x is not
    certified, nor one so large that u = x = v.  Each bracket's x and masks
    depend on its own data only.  The |c_k| of the bracket columns are
    formed once, for both ends.
    """
    x = lo + 0.5 * (hi - lo)
    prev = np.full_like(x, np.nan)
    for _ in range(PREDICTION_STEPS):
        step = np.minimum(np.maximum(x - _horner(cols, x) / _horner(dcols, x), lo), hi)
        fixed = step == x
        settled = fixed | (step == prev)
        prev, x = x, step
        if settled.all():
            break
    x = np.where(settled, np.minimum(x, prev), x)
    # u and v rounded toward x where x -+ CERTIFIED_HALF_WIDTH is not a float;
    # x - u and v - x are exact where u, v lie in the bracket (Sterbenz)
    u, v = x - CERTIFIED_HALF_WIDTH, x + CERTIFIED_HALF_WIDTH
    low, high = x - u > CERTIFIED_HALF_WIDTH, v - x > CERTIFIED_HALF_WIDTH
    u[low], v[high] = np.nextafter(u[low], x[low]), np.nextafter(v[high], x[high])
    sign, magnitudes = np.sign(flo), np.abs(cols)
    certified = (lo <= u) & (v <= hi)
    certified &= sign * _horner(cols, u) > _rounding_bound(magnitudes, u)
    certified &= -sign * _horner(cols, v) > _rounding_bound(magnitudes, v)
    return x, certified, fixed


def _sign_steps(cols, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray) -> np.ndarray:
    """Bisect the cut brackets [lo, hi] (_cut) of the monic polynomials with
    coefficient columns cols (flo the value at lo) to BISECT_TOL, in
    sign-step form.

    A bracket of width w is its end o nearest 0, the offset y of its
    midpoint x = o + y, and the signed width s w, s = +1 where F(lo) < 0;
    step k moves y by -sign(F(x)) s w 2^-(k+2).  Stepping x itself would
    round it to the precision of the far end, out of reach of a root
    nearer o than that; y halves toward o exactly.  Bracket k takes the
    ceil(log2(w_k / BISECT_TOL)) steps that leave x the midpoint of a
    bracket at most BISECT_TOL wide, or fewer where the steps left would
    move x by less than a quarter ulp of o (the result by at most one ulp).
    Ordered by descending step count, the brackets that still step are a
    prefix: each step evaluates F on slices.  An exact 0 of F stops x.
    """
    width = hi - lo
    nearer = np.abs(lo) <= np.abs(hi)
    mantissa, exponent = np.frexp(width)
    # ceil(log2(w / BISECT_TOL)) from the exponents, without the quotient,
    # which overflows for w above about 1.8e296
    steps = exponent - _TOL_EXPONENT + (mantissa > _TOL_MANTISSA)
    # |x| >= |o|, where floats are at least ulp(o) apart, and the steps from
    # k on move x by less than w 2^-(k+1): below ulp(o) / 4 from
    # k = exponent(w) - exponent(o) + 54 on (o = 0 caps nothing)
    origin = np.where(nearer, lo, hi)
    steps = np.minimum(steps, exponent - np.frexp(origin)[1] + 54)
    steps = np.where(width > 0.0, np.maximum(steps, 0), 0)
    order = np.argsort(-steps, kind="stable")
    cols, origin = cols.take(order, axis=1), origin[order]
    offset = (np.where(nearer, 0.5, -0.5) * width)[order]
    step = (0.25 * np.copysign(width, -flo))[order]
    # step k moves the first m brackets, those with more than k steps
    for m in np.searchsorted(-steps[order], -np.arange(steps.max())).tolist():
        offset[:m] -= np.sign(_horner(cols[:, :m], origin[:m] + offset[:m])) * step[:m]
        step[:m] *= 0.5
    root = np.empty_like(origin)
    root[order] = origin + offset
    return root


def _bisect(cols, dcols, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray):
    """The root in each bracket [lo, hi] of the monic polynomials with
    coefficient columns cols and derivative columns dcols (flo the value at
    lo) to BISECT_TOL, and the mask of the roots Newton's polish may move:
    each bracket across 0 is cut (_cut), Newton predicts its root and a
    rounding-error bound certifies it within CERTIFIED_HALF_WIDTH <
    BISECT_TOL / 2 (_predict); the sign steps bisect the others, each as it
    would be alone.  A prediction certified at a fixed point is final: it
    lies inside its bracket, so its unclamped step x - F/F' is x, the
    polish's own candidate, which the polish refuses (|F| does not fall).
    """
    lo, hi = _cut(cols[0], lo, hi, flo)
    root, certified, fixed = _predict(cols, dcols, lo, hi, flo)
    rest = ~certified
    if rest.any():
        root[rest] = _sign_steps(cols.compress(rest, axis=1), lo[rest], hi[rest], flo[rest])
    return root, ~(certified & fixed)


def _bracket_roots(cols: np.ndarray, deriv: np.ndarray, r: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray, flo: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Roots of the monic polynomials with coefficient columns cols[:, r] in
    the brackets [lo, hi] (column r[k] for bracket k, flo its value at lo),
    located to BISECT_TOL by _bisect, all brackets at once, and polished
    where _bisect allows by at most 5 Newton steps kept inside the bracket,
    stopping where |F| <= tol.  deriv holds the derivative columns of cols,
    k c_k, as _isolate forms them for its recursion; the bracket columns of
    both are gathered once, and every phase reads them."""
    if not r.size:  # no sign change in any row
        return lo
    cols, dcols = cols.take(r, axis=1), deriv.take(r, axis=1)
    root, polish = _bisect(cols, dcols, lo, hi, flo)
    at = np.flatnonzero(polish)
    x, cols, dcols = root[at], cols.take(at, axis=1), dcols.take(at, axis=1)
    lo, hi, tol = lo[at], hi[at], tol[at]
    fx = _horner(cols, x)
    live = np.ones(x.shape, dtype=bool)
    for _ in range(5):
        if not live.any():
            break
        live &= ~(np.abs(fx) <= tol)
        d = _horner(dcols, x)
        live &= d != 0.0
        candidate = x - fx / np.where(live, d, 1.0)
        live &= (lo <= candidate) & (candidate <= hi)
        fc = _horner(cols, candidate)
        live &= ~(np.abs(fc) >= np.abs(fx))
        x = np.where(live, candidate, x)
        fx = np.where(live, fc, fx)
    root[at] = x
    return root


def _isolate(cols: np.ndarray, floor: float = -math.inf) -> np.ndarray:
    """Real roots of every monic polynomial with coefficient columns cols
    (m+1, N), ascending with a leading row of ones: (w, N) root columns,
    each polynomial's roots ascending down its column, NaN-padded.  A
    bracket whose upper end lies below floor is neither bisected nor
    polished, so its root is missing; the derivative levels keep every root.

    The roots of the derivatives (recursively) split [-R, R],
    R = 2 (1 + max |lambda_k|), into intervals where F is monotone.  They
    come back ascending and within their own bound R' <= R, none at -R'
    (where |F'| exceeds half its leading term), so the partition is -R, the
    critical columns up to the first at or above R, and R.  A critical point where |F| is within a finite
    _rounding_bound of 0 and F does not change sign is a multiple root, an
    exact 0 at +-R is a root, and every sign change is located by
    _bracket_roots.  The candidates are taken in ascending order, as a
    stable sort of [multiple roots, -R, brackets, R] would order them
    (equal ones differ in bits only at 0, where a multiple root has
    F(0) = 0 and so no bracket next to it), and merged into the last kept
    one within 4 BISECT_TOL (relative).  Only the first of each run of
    bitwise-identical adjacent polynomials is isolated; the others copy its
    bytes.  A stack with one distinct polynomial runs these steps, the
    sign steps aside (_sign_steps on one column), on its Python floats
    (_isolate_row), bit for bit, in about an eighth of the time numpy's
    passes over one column take.  The rows of cols.T must pass
    _check_rows.

    Three passes whose results are known are skipped; none changes a bit.
    The rounding bound is formed only at the critical points where F
    keeps its sign on both sides, since every other point fails the rule
    whatever the bound is.  The merge skips a candidate that holds no
    entry in any column (the ends +-R without an exact zero, critical
    points without a multiple root, a bracket row below the floor or
    without a sign change): its NaNs keep nothing and move no last kept
    value.  F(R) is read from the partition's values, not formed again.
    """
    width, n = cols.shape
    if width == 2:
        return -cols[:1]
    if n > 1:
        # compare bits: rows with 0.0 and -0.0 have different roots
        bits = cols.view(np.int64)
        first = np.append(True, np.logical_or.reduce(bits[:, 1:] != bits[:, :-1]))
        if not first.all():
            return _isolate(cols.compress(first, axis=1), floor).take(np.cumsum(first) - 1, axis=1)
    if n == 1:
        return np.array(_isolate_row(cols[:, 0].tolist(), floor))[:, None]
    deriv = cols[1:] * np.arange(1.0, width)[:, None]
    critical = _isolate(deriv / deriv[-1])
    k = len(critical)

    top = np.max(np.abs(cols[:-1]), axis=0)
    bound, scale = 2.0 * (1.0 + top), 1.0 + np.maximum(top, np.abs(cols[-1]))
    # partition [-R, critical points inside (-R, R), R], NaN-padded below;
    # none lies at or below -R, so the ones inside lead each column
    inside = critical < bound
    j, below = np.arange(k + 1)[:, None], inside.sum(axis=0)
    inner = np.vstack([np.where(inside, critical, np.nan), np.full(n, np.nan)])
    pts = np.vstack([-bound, np.where(j == below, bound, inner)])
    vals = _horner(cols, pts)

    # a critical point where |F| is within the rounding bound of 0 is a
    # multiple root when F does not change sign through it (a sign change
    # is bisected below); a bound that overflows proves nothing.  The bound
    # is formed only at the points where F keeps its sign, from their
    # columns' |c_k|: elsewhere it decides nothing
    mid_vals = vals[1:-1]
    multiple = (vals[:-2] * mid_vals >= 0.0) & (mid_vals * vals[2:] >= 0.0)
    kept = np.flatnonzero(multiple)
    if kept.size:
        near_zero = _rounding_bound(np.abs(cols.take(kept % n, axis=1)), pts[1:-1].flat[kept])
        multiple.flat[kept] = (np.abs(mid_vals.flat[kept]) <= near_zero) & np.isfinite(near_zero)
    # an exact zero at a partition point is left to the critical-point rule
    # or the neighbouring interval, except at the ends +-R
    fa, fb = vals[:-1], vals[1:]
    at = np.flatnonzero((pts[1:] >= floor) & (fa != 0.0) & (fb != 0.0) & ~(fa * fb > 0.0))
    polished = np.full((k + 1, n), np.nan)
    polished.flat[at] = _bracket_roots(cols, deriv, at % n, pts.ravel()[at],
                                       pts.ravel()[at + n], fa.ravel()[at],
                                       NEWTON_RESIDUAL_TOL * scale[at % n])

    # the candidates in ascending order: -R, bracket 0, critical point 1,
    # bracket 1, ..., R (each bracket root lies in its bracket), each only
    # if some column holds an entry of it; F(R) is vals' entry at R, in row
    # below + 1
    slot = np.arange(n)
    low, high = vals[0] == 0.0, vals[below + 1, slot] == 0.0
    bracketed = np.zeros(k + 1, dtype=bool)
    bracketed[at // n] = True
    repeated = multiple.any(axis=1).tolist()
    candidates = [np.where(low, -bound, np.nan)] if low.any() else []
    for i, bisected in enumerate(bracketed.tolist()):
        if bisected:
            candidates.append(polished[i])
        if i < k and repeated[i]:
            candidates.append(np.where(multiple[i], pts[i + 1], np.nan))
    if high.any():
        candidates.append(np.where(high, bound, np.nan))

    merged = np.full(len(candidates) * n, np.nan)
    count, last = np.zeros(n, dtype=np.intp), np.full(n, np.nan)
    for candidate in candidates:
        keep = ~np.isnan(candidate) & ~(
            np.abs(candidate - last) <= 4.0 * BISECT_TOL * np.maximum(1.0, np.abs(candidate))
        )
        if keep.any():
            merged[(slot + count * n)[keep]] = candidate[keep]
            count += keep
            last = np.where(keep, candidate, last)
    w = count.max(initial=0)
    return merged[:w * n].reshape(w, n)


# The one-row path: _isolate's steps on one row of Python floats, in the
# same order, so each gives the lockstep kernel's bits (the sign steps are
# _sign_steps itself, on a one-column stack).  Python floats round as
# numpy's do; where Python differs (a division by zero, np.sign,
# and np.maximum and np.minimum, which keep NaN), this code gives numpy's
# results.

def _sign(t: float) -> float:
    """np.sign of a float: 0.0 for either zero, NaN for NaN."""
    return 1.0 if t > 0.0 else -1.0 if t < 0.0 else 0.0 if t == 0.0 else t


def _quotient(a: float, b: float) -> float:
    """a / b as numpy divides: +-inf or NaN where b is a zero."""
    if b != 0.0:
        return a / b
    if a == 0.0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _predict_row(row: list, drow: list, lo: float, hi: float, flo: float):
    """_predict for one cut bracket [lo, hi] of the monic row (drow its
    derivative, flo the value at lo): x, whether it is certified, whether
    it is a fixed point.  The clamps keep NaN, as np.maximum and np.minimum
    do, and return the bound where the step equals it.  The row's |c_k| are
    formed once, for both ends, and only where both lie in the bracket: the
    rounding bounds decide nothing where they do not."""
    x, prev = lo + 0.5 * (hi - lo), math.nan
    for _ in range(PREDICTION_STEPS):
        step = x - _quotient(_horner(row, x), _horner(drow, x))
        step = step if step > lo or step != step else lo
        step = step if step < hi or step != step else hi
        fixed = step == x
        settled = fixed or step == prev
        prev, x = x, step
        if settled:
            x = x if x < prev else prev
            break
    u, v = x - CERTIFIED_HALF_WIDTH, x + CERTIFIED_HALF_WIDTH
    if x - u > CERTIFIED_HALF_WIDTH:
        u = math.nextafter(u, x)
    if v - x > CERTIFIED_HALF_WIDTH:
        v = math.nextafter(v, x)
    certified = lo <= u and v <= hi
    if certified:
        sign, magnitudes = _sign(flo), [abs(c) for c in row]
        certified = (sign * _horner(row, u) > _rounding_bound(magnitudes, u)
                     and -sign * _horner(row, v) > _rounding_bound(magnitudes, v))
    return x, certified, fixed


def _bisect_row(row: list, drow: list, lo: float, hi: float, flo: float):
    """_bisect for one bracket [lo, hi] of the monic row: its root to
    BISECT_TOL and whether Newton's polish may move it.  A bracket the
    certificate refuses takes _sign_steps as a stack of one column."""
    if lo < 0.0 < hi:  # _cut
        f0 = _sign(row[0])
        right = f0 == _sign(flo)
        lo, hi = (0.0 if right or f0 == 0.0 else lo), (hi if right else 0.0)
    root, certified, fixed = _predict_row(row, drow, lo, hi, flo)
    if not certified:
        root = float(_sign_steps(np.array(row)[:, None], np.array([lo]), np.array([hi]),
                                 np.array([flo]))[0])
    return root, not (certified and fixed)


def _bracket_root_row(row: list, drow: list, lo: float, hi: float, flo: float,
                      tol: float) -> float:
    """_bracket_roots for one bracket [lo, hi] of the monic row: _bisect_row's
    root, polished where it allows inside [lo, hi] as given."""
    x, polish = _bisect_row(row, drow, lo, hi, flo)
    if polish:
        fx = _horner(row, x)
        for _ in range(5):
            d = _horner(drow, x)
            if abs(fx) <= tol or d == 0.0:
                break
            candidate = x - fx / d
            if not lo <= candidate <= hi:
                break
            fc = _horner(row, candidate)
            if abs(fc) >= abs(fx):
                break
            x, fx = candidate, fc
    return x


def _isolate_row(row: list, floor: float = -math.inf) -> list:
    """_isolate on one monic row of floats (floor as there): its real roots,
    ascending, from the same partition, brackets, candidates and merge.
    As there, the multiple-root rule forms its bound only where F keeps its
    sign through a critical point, from the row's |c_k|, formed once for
    the level when first needed."""
    if len(row) == 2:
        return [-row[0]]
    deriv = [k * c for k, c in enumerate(row[1:], 1)]
    critical = _isolate_row([d / deriv[-1] for d in deriv])
    top = max(abs(c) for c in row[:-1])
    bound, tol = 2.0 * (1.0 + top), NEWTON_RESIDUAL_TOL * (1.0 + max(top, abs(row[-1])))
    pts = [-bound] + [c for c in critical if c < bound] + [bound]
    vals = [_horner(row, t) for t in pts]
    # candidates in ascending order, as _isolate takes them
    candidates, magnitudes = [-bound] if vals[0] == 0.0 else [], None
    for i in range(1, len(pts)):
        lo, hi, fa, fb = pts[i - 1], pts[i], vals[i - 1], vals[i]
        if hi >= floor and fa != 0.0 and fb != 0.0 and not fa * fb > 0.0:
            candidates.append(_bracket_root_row(row, deriv, lo, hi, fa, tol))
        if i < len(pts) - 1 and fa * fb >= 0.0 and fb * vals[i + 1] >= 0.0:
            magnitudes = magnitudes or [abs(c) for c in row]
            near_zero = _rounding_bound(magnitudes, hi)
            if abs(fb) <= near_zero and math.isfinite(near_zero):
                candidates.append(hi)
    if vals[-1] == 0.0:
        candidates.append(bound)
    roots = []
    for c in candidates:
        if c == c and not (roots and abs(c - roots[-1]) <= 4.0 * BISECT_TOL * max(1.0, abs(c))):
            roots.append(c)
    return roots


def _isolate_roots(xs, rows: np.ndarray, floor: float = -math.inf) -> np.ndarray:
    """Real roots of the monic rows (N, n+1) sampled at xs, after
    _check_rows, as _isolate gives them (floor as there) but transposed to
    one row per x (N, w).  Overflow inside the kernel gives inf silently,
    as in Python float arithmetic, and so does a Newton prediction's
    division by F' = 0 (inf or NaN, which the certificate refuses)."""
    _check_rows(xs, rows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _isolate(np.ascontiguousarray(rows.T), floor).T


def _branch_floor(n: int) -> float:
    """The floor below which continue_branch leaves the roots of degree-n
    rows out: dropping them changes no root above POSITIVE_THRESHOLD.

    _isolate keeps a candidate unless it lies within the merge distance
    4 BISECT_TOL max(1, |c|) of the last kept one.  Leave out a root d
    below the floor, and the decisions after it can change only along a
    chain of candidates, each within the merge distance of the one
    before: the first candidate farther than that from its predecessor is
    kept with or without d (the last kept value is at most its
    predecessor either way), and from there on both runs agree.  A row
    has at most 2n + 1 candidates (n - 1 critical points, the ends -R and
    R, n brackets), so such a chain has at most 2n links above d.  Up to
    its first positive member, which lies below 1 since its predecessor
    does not exceed POSITIVE_THRESHOLD, every member is in [d, 1], and
    every link climbs at most 4 BISECT_TOL max(1, |d|) (1 + 2^-51),
    rounding of the merge test included.  From d < -1, 2n links climb
    less than |d|; from d in [-1, 0), less than 4 (2n + 1) BISECT_TOL.
    So from below -4 (2n + 1) BISECT_TOL no chain reaches 0, and only
    roots at or below POSITIVE_THRESHOLD can change.  The walk never
    selects such a root: if the nearest root was one, it falls back to
    the smallest positive root, which is then also the nearest positive
    root.
    """
    return -4.0 * (2 * n + 1) * BISECT_TOL


def real_roots(nf: NormalForm, x: float) -> list[float]:
    """All real equilibria of F(x, .) in ascending order: a stack of one,
    isolated on _isolate's one-row path."""
    return _isolate_roots([x], np.array([nf.sample(x)[1]]))[0].tolist()


def _moves(prev: np.ndarray, nxt: np.ndarray):
    """Where each root of the root column prev (M,) moves in the next rows'
    root columns nxt (w', M), one pass per column of nxt: the column of the
    nearest root (the first of equally near ones), or of the smallest root
    above POSITIVE_THRESHOLD if the nearest is at or below it, -1 where
    there is none (the branch vanished); and whether that move jumps by
    more than JUMP_FRACTION (1 + |prev|).  prev's NaN padding means nothing."""
    nearest, smallest = np.zeros(prev.shape, dtype=np.intp), np.full(prev.shape, -1)
    near, low, best = (np.full(prev.shape, v) for v in (np.nan, np.nan, np.inf))
    with np.errstate(over="ignore", invalid="ignore"):
        for c, roots in enumerate(nxt):
            distance = np.abs(roots - prev)
            distance[np.isnan(distance)] = np.inf
            closer = (distance < best) | (c == 0)
            best = np.where(closer, distance, best)
            nearest, near = np.where(closer, c, nearest), np.where(closer, roots, near)
            first = (roots > POSITIVE_THRESHOLD) & (smallest < 0)
            smallest, low = np.where(first, c, smallest), np.where(first, roots, low)
        far = near > POSITIVE_THRESHOLD
        move, chosen = np.where(far, nearest, smallest), np.where(far, near, low)
        jump = (move >= 0) & (np.abs(chosen - prev) > JUMP_FRACTION * (1.0 + np.abs(prev)))
    return move, jump


def _hop(prev: float, nxt: np.ndarray, x: float) -> int:
    """The root column of nxt (w, 1) that the root prev moves to; raises
    BranchError at x if the branch vanishes or jumps there."""
    move, jump = _moves(np.array([prev]), nxt)
    if move[0] < 0:
        raise BranchError("equilibrium branch vanished", x)
    if jump[0]:
        raise BranchError("branch lost (jump beyond threshold)", x)
    return int(move[0])


def continue_branch(nf: NormalForm, grid: GridSpec) -> EquilibriumBranch:
    """Continue the smallest-positive-root branch across the grid.

    Every grid point is sampled once, up front, and the roots of all rows
    are isolated in one lockstep call, as root columns, bisecting only the
    brackets that end at or above _branch_floor (so is each midpoint); the
    branch is the one the full table gives.  The walk goes by runs of one
    root column: the first time it reaches a column, _moves maps that
    column into the next rows' columns and np.flatnonzero finds the rows
    whose move leaves it, jumps or vanishes; searchsorted ends each run.  A
    refining jump samples, isolates and hops through its midpoint on its
    own.  The sampled a_n and rows, midpoints included, are the branch's
    table; the root table is not kept.  The grid stays an array: only an x
    that goes into an error or a midpoint is made a Python float, where
    float() gives the bits tolist() would.

    Raises what NormalForm.sample raises at the first grid point where it
    fails.  Raises BranchError if a sampled lambda_k is not finite, if the
    first grid point has no positive root, if the branch vanishes or if a
    jump survives one local refinement.
    """
    grid_xs = grid.xs()
    leading, rows, slopes, defined = nf.sample_grid(grid_xs)
    if not defined.all():
        nf.sample(float(grid_xs[defined.argmin()]))  # raises the first failing point's error
    floor = _branch_floor(rows.shape[1] - 1)
    table = _isolate_roots(grid_xs, rows, floor).T

    positive = table[:, 0] > POSITIVE_THRESHOLD
    if not positive.any():
        raise BranchError("no positive equilibrium at the first grid point", float(grid_xs[0]))
    col = int(positive.argmax())

    # walk by runs: in column col from row i through the next row whose
    # move out of col changes column, jumps or vanishes (or the last row)
    last = grid_xs.size - 1
    runs = {}  # column -> its moves, jumps, and those rows then last
    cols = np.empty(grid_xs.size, dtype=np.intp)
    midpoints = []  # (grid index it precedes, x, a_n, row, E)
    i = 0
    while True:
        if col not in runs:
            move, jump = _moves(table[col, :-1], table[:, 1:])
            runs[col] = move, jump, np.append(np.flatnonzero((move != col) | jump), last)
        move, jump, stops = runs[col]
        end = int(stops[stops.searchsorted(i)])
        cols[i:end + 1] = col
        if end == last:
            break
        i = end + 1
        nxt = int(move[end])
        if nxt < 0:
            raise BranchError("equilibrium branch vanished", float(grid_xs[i]))
        if jump[end]:
            # refine once: step through the midpoint in the grid metric
            x = float(grid_xs[i])
            mid = grid.midpoint(float(grid_xs[end]), x)
            mid_an, mid_rows, mid_slopes, mid_defined = nf.sample_grid([mid])
            if not mid_defined[0]:
                nf.sample(mid)  # raises its error
            mid_roots = _isolate_roots([mid], mid_rows, floor).T
            at = _hop(table[col, end], mid_roots, mid)
            nxt = _hop(mid_roots[at, 0], table[:, i:i + 1], x)
            midpoints.append((i, mid, mid_an[0], mid_rows[0], mid_slopes, mid_roots[at, 0]))
        col = nxt

    values = table[cols, np.arange(grid_xs.size)]
    coefficients = rows.T
    with np.errstate(over="ignore", invalid="ignore"):
        # grid points with more than one positive root where dF/dy < 0
        slope = _taylor_entry(coefficients, table, 1)
        stable = np.count_nonzero((table > POSITIVE_THRESHOLD) & (slope < 0.0), axis=0)
        ambiguous = int(np.count_nonzero(stable > 1))
        if midpoints:
            at, mid_xs, mid_leading, mid_rows, mid_slopes, mid_values = zip(*midpoints)
            grid_xs = np.insert(grid_xs, at, mid_xs)
            values = np.insert(values, at, mid_values)
            leading = np.insert(leading, at, mid_leading)
            coefficients = np.insert(coefficients, at, np.transpose(mid_rows), axis=1)
            slopes = [np.insert(s, at, [m[k][0] for m in mid_slopes])
                      if isinstance(s, np.ndarray) else s for k, s in enumerate(slopes)]
        lambdas = _taylor_entry(coefficients, values, 1)
    # every branch point is defined: continuation raised at the first that is not
    e_prime, undefined = _implicit_slopes(slopes, np.ones(values.size, dtype=bool), values,
                                          lambdas)

    return EquilibriumBranch(grid_xs, values, lambdas, grid, ambiguous, leading=leading,
                             rows=coefficients.T, slopes=e_prime, undefined_slopes=undefined)


def _implicit_slopes(slopes, defined, es, lams):
    """E' = -(dF/dx) / Lambda at each point (E, Lambda), from the x-slopes
    of the monic row and the mask of points where the row is defined there
    (NormalForm.sample_grid's), and the mask of the points where dF/dx is
    undefined: the row or a slope is.  E' is NaN there and where Lambda is
    0 or not finite, which no quotient by Lambda may be formed from.
    dF/dx = sum_k lambda_k' E^k is one Horner up to the last lambda_k with
    x; with none, it is +0.0."""
    varying = [k for k, slope in enumerate(slopes) if isinstance(slope, np.ndarray)]
    undefined = ~defined
    for k in varying:
        undefined |= np.isnan(slopes[k])
    with np.errstate(all="ignore"):
        dfdx = _horner(slopes[:varying[-1] + 1], es) if varying else np.zeros(np.shape(es))
        e_prime = -dfdx / lams
    e_prime[undefined | (lams == 0.0) | ~np.isfinite(lams)] = np.nan
    return e_prime, undefined


#: branch_at's read of a branch, under the branch's own field names
BranchReading = namedtuple("BranchReading", "xs leading values eigenvalues slopes undefined_slopes")


def branch_at(nf: NormalForm, branch: EquilibriumBranch, xs) -> BranchReading:
    """The branch at the abscissae xs, refused (ValueError) before any
    evaluation unless covered: a_n, and E' = -(dF/dx) / Lambda with its
    undefined mask, from one sample_grid pass (a_n alone where the row
    does not evaluate: its value or its error); E and Lambda the chords of
    the branch's values and eigenvalues, its own arrays at its own points."""
    xs = np.asarray(xs, dtype=float)
    outside = np.flatnonzero(~branch.covers(xs))
    if outside.size:
        raise ValueError(f"x={float(xs[outside[0]])!r} outside the branch range "
                         f"[{branch.x_start!r}, {branch.x_end!r}]")
    leading, _, slopes, defined = nf.sample_grid(xs)
    for i, x in zip(np.flatnonzero(~defined).tolist(), xs[~defined].tolist()):
        leading[i] = nf.equation.leading(x)
    values, lams = branch.interp_E(xs), np.interp(xs, branch.xs, branch.eigenvalues)
    return BranchReading(xs, leading, values, lams, *_implicit_slopes(slopes, defined, values, lams))


def branch_limit(branch: EquilibriumBranch) -> float | None:
    """Tail-window limit estimate: mean of the last 16 E values if their
    spread is below 1e-7 relative to the mean, else None."""
    if branch.values.size < LIMIT_TAIL_WINDOW:
        return None
    tail = branch.values[-LIMIT_TAIL_WINDOW:]
    mean = float(tail.mean())
    spread = float(tail.max() - tail.min())
    denom = abs(mean) if mean != 0.0 else 1.0
    if spread <= LIMIT_TOL * denom:
        return mean
    return None

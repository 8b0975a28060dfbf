"""Decay envelope and plateau diagnostics for trajectories near a branch.

Writing z = y - E for a trajectory below a stable branch, the deviation
obeys |z(x)| <= Phi(x) K(x) with the fundamental damping factor

    Phi(x) = exp( int_{x0}^{x} a_n(s) Lambda(s) ds )

and the envelope amplitude

    K(x) = |z(x0)| + int Phi^{-1} |E'| ds
         + C_R M_E int Phi^{-1} |z| a_n ds,

where M_E = sup E and C_R bounds the Taylor remainder of F around the
branch:  C_R = max_x sum_{k>=2} |d^k F/dy^k (x, E)| / k! * M_E^{k-2}.

log_phi integrates a_n * Lambda by the trapezoid rule over the branch's
stored table, plus a partial cell off the grid from the point's own a_n
and Lambda, so that Phi evaluates no coefficient and re-based factors
Phi(x2)/Phi(x1) are consistent by construction.  Lambda is a chord in
each cell, so this is Simpson's sum wherever a_n has no x; for y' =
a_n(x) P(y) it is second order, not fourth (a_n = 1/(1+x), 2,001 points
on [0, 20]: log Phi off by 1.4e-5, not 3.5e-11), still far below the
trapezoid errors of the K integrals that Phi multiplies.  The
integrals of K are trapezoid sums of v / Phi kept as logs, summed by one
np.logaddexp.accumulate pass (damped_drift; rate_bound and B3 read it).
Two guards remain: a log Phi that is not finite, or Phi or its growth
over one cell past the float range, raises OverflowError before E' is
read; and a damped drift Phi_N I_N below the normal floats is a lost
total: with B2 the damped drift tends to |E'| / (a_n |Lambda|), so E'
has left the normal floats there too, and an E' that underflows to 0
stops a divergent integral from growing.  E' is exact, so this happens
only where E' itself underflows, no longer below the 2e-10 that a finite
difference resolved; the guard stays until B3 decides from the tail's
growth rate instead of the sum.  log_phi and damped_drift read points:
the branch itself (B3, which evaluates nothing) or a branch_at reading
of it, rate_bound's one row pass on its accepted points (|y - E|, the
feedback's a_n, the drift's E', and Phi's partial cells).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (LeadingCoefficientError, NormalForm, SolverConfig, ZeroEigenvalueError,
                   _taylor_entry)
from .equilibrium import BranchReading, EquilibriumBranch, branch_at
from .expr import ExprDomainError

if TYPE_CHECKING:
    from .radau import IntegrationResult

__all__ = [
    "RateBound",
    "PlateauDiagnostics",
    "damped_drift",
    "log_phi",
    "remainder_constant",
    "rate_bound",
    "diagnose",
]

#: factor on (atol + rtol |y|) for the trapping and monotonicity slack
GUARD_FACTOR = 10.0

#: plateau window fraction of the x-range and absolute settling tolerance
PLATEAU_WINDOW_FRACTION = 0.1
PLATEAU_TOL = 1e-8

#: log of the largest float: math.exp overflows exactly above it
LOG_MAX = math.log(sys.float_info.max)


def log_phi(branch: EquilibriumBranch,
            points: EquilibriumBranch | BranchReading) -> np.ndarray:
    """int_{x_start}^{x} a_n Lambda ds at every x of points (the branch, or
    a branch_at reading of it): the trapezoid prefix sum of g = a_n Lambda
    over the branch's table, plus (x - x_i) / 2 (g_i + g(x)) on a partial
    cell [x_i, x], g(x) from the reading (see the module docstring).  Where
    the sums leave the floats they are infinite or NaN, with no warning:
    damped_drift refuses them.

    Read at the branch itself (B3's call) whose abscissae strictly
    increase, the result is the prefix itself: every x is then its own
    x_i, so the lookup and the partial cells, all empty, add nothing.  A
    repeated abscissa takes the general read, which gives it the prefix
    at the last of its copies (a zero-width cell can add -0.0 or NaN)."""
    xs = branch.xs
    with np.errstate(over="ignore", invalid="ignore"):
        g = branch.leading * branch.eigenvalues
        widths = np.diff(xs)
        prefix = np.concatenate(([0.0], np.cumsum(0.5 * widths * (g[:-1] + g[1:]))))
    if points is branch and (widths > 0.0).all():
        return prefix
    i = np.searchsorted(xs, points.xs, side="right") - 1
    out = prefix[i]
    part = np.flatnonzero(points.xs != xs[i])
    i, x = i[part], points.xs[part]
    with np.errstate(all="ignore"):
        out[part] += 0.5 * (x - xs[i]) * (g[i] + points.leading[part] * points.eigenvalues[part])
    return out


def remainder_constant(branch: EquilibriumBranch) -> float:
    """C_R = max over the branch grid of sum_{k>=2} |(1/k!) d^k F/dy^k| M_E^{k-2};
    the (1/k!) d^k F/dy^k at (x, E) are the entries k >= 2 of the branch's
    own rows' Taylor expansions at E (core._taylor_entry), all points at
    once, so no coefficient is evaluated again."""
    m_e = branch.sup_E
    columns = list(branch.rows.T)
    terms = [np.abs(_taylor_entry(columns, branch.values, k)) * m_e ** (k - 2)
             for k in range(2, len(columns))]
    return float(np.max(sum(terms, np.zeros(branch.xs.size)), initial=0.0))


@dataclass
class RateBound:
    """Envelope Phi(x) K(x) evaluated on a trajectory's accepted points."""

    xs: np.ndarray
    Phi: np.ndarray
    bound: np.ndarray
    C_R: float
    M_E: float
    B3_integral: float
    note: str = ""


def _undefined_slope(x: float) -> str:
    """Why E' has no value at x (the mask undefined_slopes)."""
    return (f"branch derivative undefined at x={x!r}: "
            "a coefficient or its x-derivative does not evaluate there")


def damped_drift(branch: EquilibriumBranch, points: EquilibriumBranch | BranchReading):
    """The drift term of K at points (the branch, or a branch_at reading of
    it), as logs: (log Phi re-based to 0 at the first point, log
    int_{x_0}^{x_i} Phi^{-1} |E'| ds by the trapezoid rule, -inf where it
    is 0; see _log_cumtrapz).  Raises OverflowError where log Phi is not
    finite or Phi, or a one-cell ratio Phi_i / Phi_{i-1}, exceeds the
    float range, before E' is read; then, at the first point where E' has
    no value, LeadingCoefficientError where a_n = 0 (NormalForm.sample's),
    ZeroEigenvalueError where Lambda = 0, else ExprDomainError.
    """
    logs = log_phi(branch, points)
    with np.errstate(over="ignore", invalid="ignore"):
        logs -= logs[0]
        growth = max(logs.max(), np.diff(logs).max(initial=0.0))
    if not (np.isfinite(logs).all() and growth <= LOG_MAX):
        raise OverflowError("Phi or its growth over one cell exceeds the float range")
    stop = np.flatnonzero((points.eigenvalues == 0.0) | points.undefined_slopes)
    if stop.size:
        x = float(points.xs[stop[0]])
        if points.leading[stop[0]] == 0.0:
            raise LeadingCoefficientError(branch.rows.shape[1] - 1, x)
        if points.eigenvalues[stop[0]] == 0.0:
            raise ZeroEigenvalueError(x)
        raise ExprDomainError(_undefined_slope(x))
    return logs, _log_cumtrapz(np.abs(points.slopes), points.xs, logs)


def _drift_integral(log_phi: np.ndarray, log_drift: np.ndarray) -> float:
    """int Phi^{-1} |E'| ds from damped_drift's logs: 0, inf beyond the float
    range, or NaN where Phi_N I_N falls below the normal floats (lost)."""
    log_total = float(log_drift[-1])
    if log_total > -math.inf and log_phi[-1] + log_total < math.log(sys.float_info.min):
        return math.nan
    return math.exp(log_total) if log_total <= LOG_MAX else math.inf


def rate_bound(
    nf: NormalForm, branch: EquilibriumBranch, result: IntegrationResult
) -> RateBound:
    """Evaluate the envelope on the accepted points covered by the branch.

    All three K terms use cumulative trapezoid sums on the accepted grid, so
    the bound is monotone in its integral terms by construction.  The sums
    are carried as logs (see _log_cumtrapz) and multiplied by Phi as
    exp(log Phi + log I), so the bound stays finite where Phi underflows to
    0.  B3_integral is the undamped drift integral (see _drift_integral).
    The accepted points are read once (branch_at): E, a_n and E' there.
    """
    mask = branch.covers(result.xs)
    xs = result.xs[mask]
    ys = result.ys[mask]
    if xs.size < 2:
        raise ValueError("trajectory and branch share fewer than two points")

    points = branch_at(nf, branch, xs)
    logs, log_drift = damped_drift(branch, points)
    phi_vals = np.array(list(map(math.exp, logs.tolist())))
    z_abs = np.abs(ys - points.values)
    log_feedback = _log_cumtrapz(z_abs * np.abs(points.leading), xs, logs)
    with np.errstate(all="ignore"):
        drift = np.exp(logs + log_drift)
        feedback = np.exp(logs + log_feedback)

    c_r = remainder_constant(branch)
    m_e = branch.sup_E
    bound = phi_vals * z_abs[0] + drift + c_r * m_e * feedback

    note = ""
    if bound[-1] > 0.0 and (c_r * m_e * feedback[-1]) > 0.5 * bound[-1]:
        note = (
            "remainder term exceeds 50% of the envelope amplitude; "
            "the linear bound is loose here"
        )
    return RateBound(xs, phi_vals, bound, c_r, m_e, _drift_integral(logs, log_drift), note)


def _log_cumtrapz(values: np.ndarray, xs: np.ndarray, log_phi: np.ndarray) -> np.ndarray:
    """log int_{x_0}^{x_i} values / Phi ds by the trapezoid rule, every i at
    once: each cell's increment (w_i / 2) (v_{i-1} / Phi_{i-1} + v_i / Phi_i)
    formed as its log, and np.logaddexp.accumulate summing them, so the sums
    never decrease and stay in the floats; log I_0 = -inf exactly."""
    with np.errstate(all="ignore"):
        terms = np.log(values) - log_phi
        steps = np.log(0.5 * np.diff(xs)) + np.logaddexp(terms[:-1], terms[1:])
        return np.concatenate(([-math.inf], np.logaddexp.accumulate(steps)))


@dataclass
class PlateauDiagnostics:
    trapping_ok: bool
    monotone_ok: bool
    L_numeric: float
    converged: bool
    max_violation: float


def diagnose(
    result: IntegrationResult,
    branch: EquilibriumBranch | None,
    config: SolverConfig | None = None,
) -> PlateauDiagnostics:
    """Check trapping 0 <= y <= E and monotone growth, and estimate the plateau.

    Trapping and monotonicity allow a slack of 10 (atol + rtol |y|); trapping
    is checked at accepted points the branch covers (everywhere it exists).
    converged means the run completed and the trajectory moved at most 1e-8
    over the last 10% of its x-range: a run that stopped early (not
    result.completed) never converged, even where it ended without
    advancing, so that its window is empty.  L_numeric is the final value
    of a completed run and NaN for one that stopped early, whose last value
    estimates no plateau.
    """
    config = config or SolverConfig()
    xs, ys = result.xs, result.ys
    tol = GUARD_FACTOR * (config.atol + config.rtol * np.abs(ys))

    violations = [0.0]
    low = np.maximum(-ys - tol, 0.0)
    violations.append(float(low.max()))
    trapping_ok = bool(low.max() == 0.0)
    if branch is not None:
        mask = branch.covers(xs)
        if mask.any():
            excess = ys[mask] - branch.interp_E(xs[mask]) - tol[mask]
            over = np.maximum(excess, 0.0)
            violations.append(float(over.max()))
            trapping_ok = trapping_ok and bool(over.max() == 0.0)

    drops = np.maximum(ys[:-1] - ys[1:] - tol[:-1], 0.0) if ys.size > 1 else np.zeros(1)
    monotone_ok = bool(drops.max() == 0.0)
    violations.append(float(drops.max()))

    window = PLATEAU_WINDOW_FRACTION * (xs[-1] - xs[0])
    y_before = float(result.interp(xs[-1] - window))
    converged = result.completed and abs(result.final_y - y_before) <= PLATEAU_TOL

    return PlateauDiagnostics(
        trapping_ok,
        monotone_ok,
        result.final_y if result.completed else math.nan,
        converged,
        max(violations),
    )

"""Decay envelope and plateau diagnostics for trajectories near a branch.

Writing z = y - E for a trajectory below a stable branch, the deviation
obeys |z(x)| <= Phi(x) K(x) with the fundamental damping factor

    Phi(x) = exp( int_{x0}^{x} a_n(s) Lambda(s) ds )

and the envelope amplitude

    K(x) = |z(x0)| + int Phi^{-1} |E'| ds
         + C_R M_E int Phi^{-1} |z| a_n ds,

where M_E = sup E and C_R bounds the Taylor remainder of F around the
branch:  C_R = max_x sum_{k>=2} |d^k F/dy^k (x, E)| / k! * M_E^{k-2}.

log_phi integrates a_n * Lambda by composite Simpson over the branch grid
(Lambda linearly interpolated inside each cell, a_n read from the
branch's table at grid points and evaluated exactly at cell midpoints):
one prefix sum, plus a partial cell off the grid, so that re-based
factors Phi(x2)/Phi(x1) are consistent by construction.  The integrals
of K are trapezoid sums of v / Phi kept as logs, summed by one
np.logaddexp.accumulate pass (damped_drift; rate_bound and B3 read it).
Two guards remain: Phi, or its growth over one cell, past the float
range raises OverflowError before E' is formed; and a damped drift
Phi_N I_N below the normal floats is a lost total: the finite-difference
E' is exactly 0 below about 2e-10, so a divergent integral stops growing
there.  Every a_n and E' outside the branch's table is evaluated for all
points at once (NormalForm.a_n_grid, branch_slopes).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import NormalForm, _taylor_shift
from .equilibrium import EquilibriumBranch, ZeroEigenvalueError, branch_slopes
from .expr import ExprDomainError
from .radau import IntegrationResult, SolverConfig

__all__ = [
    "RateBound",
    "PlateauDiagnostics",
    "damped_drift",
    "log_phi",
    "phi",
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


def log_phi(nf: NormalForm, branch: EquilibriumBranch, x) -> np.ndarray:
    """int_{x_start}^{x} a_n Lambda ds at every abscissa of the 1-D x, each
    inside the branch range: the Simpson prefix sum at grid points, plus a
    partial Simpson on [xs[i], x] (Lambda linear within the parent cell)
    elsewhere."""
    xs, lams = branch.xs, branch.eigenvalues
    g = branch.leading * lams
    g_mid = nf.a_n_grid(0.5 * xs[:-1] + 0.5 * xs[1:]) * (0.5 * (lams[:-1] + lams[1:]))
    cells = np.diff(xs) / 6.0 * (g[:-1] + 4.0 * g_mid + g[1:])
    prefix = np.concatenate(([0.0], np.cumsum(cells)))

    x = np.asarray(x, dtype=float)
    outside = np.flatnonzero(~branch.covers(x))
    if outside.size:
        raise ValueError(
            f"x={float(x[outside[0]])!r} outside the branch range "
            f"[{branch.x_start!r}, {branch.x_end!r}]"
        )
    i = np.searchsorted(xs, x, side="right") - 1
    out = prefix[i]
    part = np.flatnonzero((i < xs.size - 1) & (x != xs[i]))
    if part.size:
        i, x = i[part], x[part]
        mid = 0.5 * xs[i] + 0.5 * x
        # a_n at mid and x interleaved: a failing point raises as it
        # would if the points were taken one by one
        an = nf.a_n_grid(np.stack([mid, x], axis=1).ravel()).reshape(-1, 2)
        with np.errstate(all="ignore"):
            g_mid = an[:, 0] * branch.interp_Lambda(mid)
            g_hi = an[:, 1] * branch.interp_Lambda(x)
            out[part] += (x - xs[i]) / 6.0 * (g[i] + 4.0 * g_mid + g_hi)
    return out


def phi(nf: NormalForm, branch: EquilibriumBranch, x: float, x_from: float | None = None) -> float:
    """Damping factor Phi(x), optionally re-based to start at x_from.

    Multiplicative by construction:
    phi(x2) == phi(x1) * phi(x2, x_from=x1) up to floating-point rounding.
    """
    start = branch.x_start if x_from is None else x_from
    a, b = log_phi(nf, branch, [start, x]).tolist()
    return math.exp(b - a)


def remainder_constant(branch: EquilibriumBranch) -> float:
    """C_R = max over the branch grid of sum_{k>=2} |(1/k!) d^k F/dy^k| M_E^{k-2};
    the (1/k!) d^k F/dy^k at (x, E) are the branch's own rows Taylor-shifted
    to E, all points at once, so no coefficient is evaluated again."""
    m_e = branch.sup_E
    shifted = _taylor_shift(list(branch.rows.T), branch.values)
    terms = [np.abs(t) * m_e ** i for i, t in enumerate(shifted[2:])]
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
    """Why E' has no value at x (the mask branch_slopes returns)."""
    return (f"branch derivative undefined at x={x!r}: "
            "the coefficients do not evaluate on either side")


def damped_drift(nf: NormalForm, branch: EquilibriumBranch, xs: np.ndarray):
    """The drift term of K at the abscissae xs of the branch range, as logs:
    (log Phi re-based to 0 at xs[0], log int_{x_0}^{x_i} Phi^{-1} |E'| ds by
    the trapezoid rule, -inf where it is 0; see _log_cumtrapz).  Raises
    OverflowError where Phi, or a one-cell ratio Phi_i / Phi_{i-1}, exceeds
    the float range, before E' is formed; then, at the first point where E'
    has no value, ZeroEigenvalueError where Lambda = 0, else ExprDomainError.
    """
    logs = log_phi(nf, branch, xs)
    logs -= logs[0]
    if max(logs.max(), np.diff(logs).max(initial=0.0)) > LOG_MAX:
        raise OverflowError("Phi or its growth over one cell exceeds the float range")
    e_vals = branch.interp_E(xs)
    lam_vals = branch.interp_Lambda(xs)

    # |E'| via the branch's implicit derivative; the interpolants return
    # the stored values exactly at branch grid points
    e_prime, undefined = branch_slopes(nf, xs, e_vals, lam_vals)
    stop = np.flatnonzero((lam_vals == 0.0) | undefined)
    if stop.size:
        x = float(xs[stop[0]])
        if lam_vals[stop[0]] == 0.0:
            raise ZeroEigenvalueError(x)
        raise ExprDomainError(_undefined_slope(x))
    return logs, _log_cumtrapz(np.abs(e_prime), xs, logs)


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
    """
    mask = branch.covers(result.xs)
    xs = result.xs[mask]
    ys = result.ys[mask]
    if xs.size < 2:
        raise ValueError("trajectory and branch share fewer than two points")

    logs, log_drift = damped_drift(nf, branch, xs)
    phi_vals = np.array(list(map(math.exp, logs.tolist())))
    z_abs = np.abs(ys - branch.interp_E(xs))
    log_feedback = _log_cumtrapz(z_abs * np.abs(nf.a_n_grid(xs)), xs, logs)
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
    converged means the trajectory moved at most 1e-8 over the last 10% of
    the x-range.
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
    converged = abs(result.final_y - y_before) <= PLATEAU_TOL

    return PlateauDiagnostics(
        trapping_ok,
        monotone_ok,
        result.final_y,
        converged,
        max(violations),
    )

"""Decay envelope and plateau diagnostics for trajectories near a branch.

Writing z = y - E for a trajectory below a stable branch, the deviation
obeys |z(x)| <= Phi(x) K(x) with the fundamental damping factor

    Phi(x) = exp( int_{x0}^{x} a_n(s) Lambda(s) ds )

and the envelope amplitude

    K(x) = |z(x0)| + int Phi^{-1} |E'| ds
         + C_R M_E int Phi^{-1} |z| a_n ds,

where M_E = sup E and C_R bounds the Taylor remainder of F around the
branch:  C_R = max_x sum_{k>=2} |d^k F/dy^k (x, E)| / k! * M_E^{k-2}.

Phi integrates a_n * Lambda by composite Simpson over the branch grid
(Lambda linearly interpolated inside each cell, a_n read from the
branch's table at grid points and evaluated exactly at cell midpoints),
accumulated once so that re-based factors Phi(x2)/Phi(x1) are consistent
by construction.  Every a_n and E' outside the branch's table is
evaluated for all points at once (NormalForm.a_n_grid, branch_slopes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NormalForm, _taylor_shift
from .equilibrium import (
    EquilibriumBranch,
    ZeroEigenvalueError,
    branch_slopes,
    _undefined_slope,
)
from .expr import ExprDomainError
from .radau import IntegrationResult, SolverConfig

__all__ = [
    "PhiAccumulator",
    "RateBound",
    "PlateauDiagnostics",
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


class PhiAccumulator:
    """Cumulative integral of a_n * Lambda along a branch, Simpson per cell."""

    def __init__(self, nf: NormalForm, branch: EquilibriumBranch):
        self.nf = nf
        self.branch = branch
        xs = branch.xs
        lams = branch.eigenvalues
        mids = 0.5 * (xs[:-1] + xs[1:])
        an_mid = nf.a_n_grid(mids)
        lam_mid = 0.5 * (lams[:-1] + lams[1:])
        g = branch.leading * lams
        g_mid = an_mid * lam_mid
        widths = np.diff(xs)
        cells = widths / 6.0 * (g[:-1] + 4.0 * g_mid + g[1:])
        self._xs = xs
        self._g = g
        self._prefix = np.concatenate(([0.0], np.cumsum(cells)))

    def integrals(self, x) -> np.ndarray:
        """int_{x_start}^{x} a_n Lambda ds at every abscissa of the 1-D x,
        each inside the branch range: the prefix sum at grid points, plus a
        partial Simpson on [xs[i], x] (Lambda linear within the parent cell)
        elsewhere."""
        xs = self._xs
        x = np.asarray(x, dtype=float)
        outside = np.flatnonzero(~((xs[0] <= x) & (x <= xs[-1])))
        if outside.size:
            raise ValueError(
                f"x={float(x[outside[0]])!r} outside the branch range "
                f"[{xs[0]!r}, {xs[-1]!r}]"
            )
        i = np.searchsorted(xs, x, side="right") - 1
        out = self._prefix[i]
        part = np.flatnonzero((i < xs.size - 1) & (x != xs[i]))
        if part.size:
            i, x = i[part], x[part]
            mid = 0.5 * (xs[i] + x)
            # a_n at mid and x interleaved: a failing point raises as it
            # would if the points were taken one by one
            an = self.nf.a_n_grid(np.stack([mid, x], axis=1).ravel()).reshape(-1, 2)
            lam_at = self.branch.interp_Lambda
            with np.errstate(all="ignore"):
                g_mid = an[:, 0] * lam_at(mid)
                g_hi = an[:, 1] * lam_at(x)
                out[part] += (x - xs[i]) / 6.0 * (self._g[i] + 4.0 * g_mid + g_hi)
        return out

    def integral(self, x: float) -> float:
        """int_{x_start}^{x} a_n Lambda ds for x inside the branch range."""
        return float(self.integrals([x])[0])

    def value(self, x: float, x_from: float | None = None) -> float:
        start = self.integral(x_from) if x_from is not None else 0.0
        return math.exp(self.integral(x) - start)


def phi(nf: NormalForm, branch: EquilibriumBranch, x: float, x_from: float | None = None) -> float:
    """Damping factor Phi(x), optionally re-based to start at x_from.

    Multiplicative by construction:
    phi(x2) == phi(x1) * phi(x2, x_from=x1) up to floating-point rounding.
    """
    return PhiAccumulator(nf, branch).value(x, x_from)


def remainder_constant(nf: NormalForm, branch: EquilibriumBranch) -> float:
    """C_R = max over the branch grid of sum_{k>=2} |(1/k!) d^k F/dy^k| M_E^{k-2};
    the (1/k!) d^k F/dy^k at (x, E) are the branch's rows Taylor-shifted to E,
    all points at once."""
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


def rate_bound(
    nf: NormalForm, branch: EquilibriumBranch, result: IntegrationResult
) -> RateBound:
    """Evaluate the envelope on the accepted points covered by the branch.

    All three K terms use cumulative trapezoid sums on the accepted grid, so
    the bound is monotone in its integral terms by construction.  The sums
    are carried already multiplied by Phi (see _damped_cumtrapz), so Phi^{-1}
    is never formed and the bound stays finite where Phi underflows to 0.
    B3_integral is the undamped drift integral; it is inf where that
    exceeds the float range.
    """
    mask = (result.xs >= branch.x_start) & (result.xs <= branch.x_end)
    xs = result.xs[mask]
    ys = result.ys[mask]
    if xs.size < 2:
        raise ValueError("trajectory and branch share fewer than two points")

    accumulator = PhiAccumulator(nf, branch)
    log_phi = accumulator.integrals(xs)
    log_phi = (log_phi - log_phi[0]).tolist()
    phi_vals = np.array([math.exp(v) for v in log_phi])
    ratios = [math.exp(b - a) for a, b in zip(log_phi, log_phi[1:])]
    e_vals = branch.interp_E(xs)
    lam_vals = branch.interp_Lambda(xs)
    z_abs = np.abs(ys - e_vals)

    # |E'| at the accepted points, via the branch's implicit derivative; the
    # interpolants return the stored values exactly at branch grid points
    e_prime, undefined = branch_slopes(nf, xs, e_vals, lam_vals)
    stop = np.flatnonzero((lam_vals == 0.0) | undefined)
    if stop.size:
        x = float(xs[stop[0]])
        if lam_vals[stop[0]] == 0.0:
            raise ZeroEigenvalueError(x)
        raise ExprDomainError(_undefined_slope(x))
    e_prime = np.abs(e_prime)
    an_vals = nf.a_n_grid(xs)

    drift = _damped_cumtrapz(e_prime, xs, ratios)
    feedback = _damped_cumtrapz(z_abs * np.abs(an_vals), xs, ratios)

    c_r = remainder_constant(nf, branch)
    m_e = branch.sup_E
    bound = phi_vals * z_abs[0] + drift + c_r * m_e * feedback

    note = ""
    if bound[-1] > 0.0 and (c_r * m_e * feedback[-1]) > 0.5 * bound[-1]:
        note = (
            "remainder term exceeds 50% of the envelope amplitude; "
            "the linear bound is loose here"
        )
    # Python floats: a quotient beyond the float range is inf, without a warning
    drift_end, phi_end = float(drift[-1]), float(phi_vals[-1])
    b3 = drift_end / phi_end if phi_end > 0.0 else (math.inf if drift_end else 0.0)
    return RateBound(xs, phi_vals, bound, c_r, m_e, b3, note)


def _damped_cumtrapz(values: np.ndarray, xs: np.ndarray, ratios: list[float]) -> np.ndarray:
    """Phi_i * int_{x_0}^{x_i} values / Phi ds by the trapezoid rule.

    The plain rule multiplied through by Phi_i, with r_i = Phi_i / Phi_{i-1}:
    S_i = r_i S_{i-1} + (w_i / 2) (r_i v_{i-1} + v_i).
    """
    out = np.zeros(xs.size)
    for i, r in enumerate(ratios, start=1):
        width = float(xs[i] - xs[i - 1])
        out[i] = r * out[i - 1] + 0.5 * width * (r * values[i - 1] + values[i])
    return out


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
        mask = (xs >= branch.x_start) & (xs <= branch.x_end)
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

"""Credit-spread model with polynomial volatility shape.

A structural default model (Merton-type asset dynamics) with volatility
sigma(x)^2 = sigma0_sq * Q(x), Q(x) = 1 + eta1*x + eta2*x^2, turns the
term structure of the credit spread s(x) into a cubic equation

    s'(x) = s^3 + lambda2(x) s^2 + lambda1(x) s + lambda0(x)

after normalization.  This module provides the exact coefficient
formulas (both the raw a_k and the normalized lambda_k, cross-checkable
against each other), the explicit stable root omega of the underlying
quadratic with its small-spread Taylor expansion, a calibration probe
against the constant triple (1, -3, 1), and the spread-curve pipeline
with the plateau reported in basis points.

Two curve modes exist because the constant triple is not exactly
attainable from the parametric formulas (lambda_k inherit x-dependence
through Q): "parametric" builds the coefficients from MertonParams,
"literal" runs the constant-coefficient equation as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .cases import Analysis, get_case
from .core import AbelEquation, build_equation
from .equilibrium import GridSpec
from .radau import SolverConfig

__all__ = [
    "MertonParams",
    "SpreadCurve",
    "CalibrationReport",
    "CASE1_TARGET",
    "volatility_factor",
    "spread_coefficients",
    "spread_normal_form",
    "omega_exact",
    "omega_expansion",
    "quadratic_residual",
    "case1_calibration_check",
    "literal_case1_equation",
    "parametric_equation",
    "spread_curve",
]

#: constant normal-form triple (lambda2, lambda1, lambda0) of the
#: reference constant-coefficient equation
CASE1_TARGET = (1.0, -3.0, 1.0)

LITERAL_X0 = 0.0
PARAMETRIC_X0 = 0.01  # 1/x factors make the raw coefficients singular at 0


@dataclass(frozen=True)
class MertonParams:
    """Model parameters: variance scale, drift, short rate, volatility shape."""

    sigma0_sq: float
    mu: float
    r: float = 0.0
    eta1: float = 0.0
    eta2: float = 0.0

    def __post_init__(self):
        for name in ("sigma0_sq", "mu", "r", "eta1", "eta2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.sigma0_sq > 0.0:
            raise ValueError(f"sigma0_sq must be positive, got {self.sigma0_sq!r}")
        if self.mu == 0.0:
            raise ValueError("mu must be nonzero")
        if self.r < 0.0:
            raise ValueError(f"r must be nonnegative, got {self.r!r}")

    def Q(self, x: float) -> float:
        return 1.0 + self.eta1 * x + self.eta2 * x * x

    def volatility_positive_on(self, xs) -> bool:
        """Q > 0 at every abscissa of xs (true for none), Q evaluated on the
        whole array with the float operations of Q(x); a NaN fails."""
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(np.all(self.Q(np.asarray(xs, dtype=float)) > 0.0))


def volatility_factor(p: MertonParams, x: float) -> float:
    """sigma(x)^2 = sigma0_sq * Q(x)."""
    return p.sigma0_sq * p.Q(x)


def spread_coefficients(p: MertonParams, x: float) -> tuple[float, float, float, float]:
    """Raw cubic coefficients (a3, a2, a1, a0) of the spread equation at x."""
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x!r}")
    ss = p.sigma0_sq
    mu = p.mu
    r = p.r
    q = p.Q(x)
    mu3 = mu**3
    mu5 = mu**5
    ssq = ss * q
    ss2q2 = ss * ss * q * q
    a3 = ss2q2 / (2.0 * mu5 * x)
    a2 = -ssq / (2.0 * mu3 * x) + 3.0 * r * ss2q2 / (2.0 * mu5 * x)
    a1 = (
        1.0 / (mu * x)
        - r * ssq / (mu3 * x)
        + 3.0 * r * r * ss2q2 / (2.0 * mu5 * x)
    )
    a0 = (
        r / (mu * x)
        - r * r * ssq / (2.0 * mu3 * x)
        + r**3 * ss2q2 / (2.0 * mu5 * x)
    )
    return a3, a2, a1, a0


def spread_normal_form(p: MertonParams, x: float) -> tuple[float, float, float]:
    """Normalized coefficients (lambda2, lambda1, lambda0) = (a2, a1, a0)/a3."""
    ss = p.sigma0_sq
    mu = p.mu
    r = p.r
    q = p.Q(x)
    if q == 0.0:
        raise ValueError(f"volatility factor vanishes at x={x!r}")
    mu2 = mu * mu
    u = mu2 / (ss * q)
    lam2 = -u + 3.0 * r
    lam1 = 2.0 * u * u - 2.0 * u * r + 3.0 * r * r
    lam0 = 2.0 * u * u * r - u * r * r + r**3
    return lam2, lam1, lam0


def omega_exact(p: MertonParams, x: float, s: float) -> float:
    """Stable root of the pricing quadratic at spread s."""
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x!r}")
    sq = volatility_factor(p, x)
    disc = p.mu * p.mu + 2.0 * sq * (s + p.r)
    if disc < 0.0:
        raise ValueError(f"negative discriminant {disc!r} at x={x!r}, s={s!r}")
    return (-p.mu + math.sqrt(disc)) / (sq * x)


def omega_expansion(p: MertonParams, x: float, s: float) -> float:
    """Third-order small-spread expansion of omega_exact (remainder O((s+r)^4))."""
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x!r}")
    sq = volatility_factor(p, x)
    t = s + p.r
    mu = p.mu
    return t / (mu * x) - sq * t * t / (2.0 * mu**3 * x) + sq * sq * t**3 / (
        2.0 * mu**5 * x
    )


def quadratic_residual(p: MertonParams, x: float, s: float, omega: float) -> float:
    """Residual of  (1/2) sigma(x)^2 x^2 w^2 + mu x w - (s + r)  at w = omega."""
    sq = volatility_factor(p, x)
    return 0.5 * sq * x * x * omega * omega + p.mu * x * omega - (s + p.r)


@dataclass(frozen=True)
class CalibrationReport:
    x_ref: float
    lambdas: tuple[float, float, float]
    eta2_solution: Optional[float]
    note: str

    @property
    def target(self) -> tuple[float, float, float]:
        return CASE1_TARGET

    @property
    def deviation(self) -> tuple[float, float, float]:
        return tuple(l - t for l, t in zip(self.lambdas, CASE1_TARGET))


def _lambda0_at(p: MertonParams, x_ref: float, eta2: float) -> float:
    probe = MertonParams(p.sigma0_sq, p.mu, p.r, p.eta1, eta2)
    return spread_normal_form(probe, x_ref)[2]


def _solve_eta2(p: MertonParams, x_ref: float, target: float) -> Optional[float]:
    # Q(x_ref) > 0 requires eta2 > -(1 + eta1*x_ref)/x_ref^2
    eta2_min = -(1.0 + p.eta1 * x_ref) / (x_ref * x_ref)
    lo = eta2_min + 1e-9 * (1.0 + abs(eta2_min))
    hi = max(eta2_min + 1.0, 1.0)
    f = lambda e: _lambda0_at(p, x_ref, e) - target  # noqa: E731
    f_lo = f(lo)
    f_hi = f(hi)
    expansions = 0
    while f_lo * f_hi > 0.0 and expansions < 60:
        hi = eta2_min + 2.0 * (hi - eta2_min)
        f_hi = f(hi)
        expansions += 1
    if f_lo * f_hi > 0.0 or not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def case1_calibration_check(
    p: MertonParams,
    x_ref: float,
    solve_eta2: bool = False,
) -> CalibrationReport:
    """How far the parametric normal form at x_ref sits from (1, -3, 1).

    With solve_eta2=True additionally bisects eta2 so that lambda0 at
    x_ref hits the target constant term (when a bracketing root exists;
    r = 0 forces lambda0 = 0 and no solution).  x_ref must be finite and
    positive.
    """
    if not 0.0 < x_ref < math.inf:
        raise ValueError(f"x_ref must be finite and positive, got {x_ref!r}")
    lambdas = spread_normal_form(p, x_ref)
    eta2_solution = None
    note = "parametric normal form evaluated at the reference point"
    if solve_eta2:
        eta2_solution = _solve_eta2(p, x_ref, CASE1_TARGET[2])
        if eta2_solution is None:
            note = "no eta2 makes the constant term hit the target at x_ref"
        else:
            note = "eta2 bisected so the constant term hits the target at x_ref"
    return CalibrationReport(x_ref, lambdas, eta2_solution, note)


def literal_case1_equation() -> AbelEquation:
    """Constant-coefficient spread equation with the triple (1, -3, 1):
    case 1's equation (x0 = LITERAL_X0) under its own description."""
    return replace(get_case(1).equation, description="constant-coefficient spread equation")


def parametric_equation(p: MertonParams, x0: float = PARAMETRIC_X0) -> AbelEquation:
    """Monic spread equation with coefficient expressions baked from params.

    The lambdas depend on x only through Q(x); the expressions bake the
    numeric parameters in so the equation stays a plain expression-backed
    object (printable, hashable, CLI-safe).
    """
    q = f"(1 + {p.eta1!r}*x + {p.eta2!r}*x^2)"
    u = f"({p.mu * p.mu!r}/({p.sigma0_sq!r}*{q}))"
    r = repr(p.r)
    lam2 = f"-{u} + 3*{r}"
    lam1 = f"2*{u}^2 - 2*{u}*{r} + 3*{r}^2"
    lam0 = f"2*{u}^2*{r} - {u}*{r}^2 + {r}^3"
    return build_equation(
        [lam0, lam1, lam2, "1"],
        x0=x0,
        description="parametric spread equation",
    )


@dataclass(frozen=True, kw_only=True)
class SpreadCurve(Analysis):
    """The Analysis of one spread run, with its mode and params: the curve
    (xs, s) is result's trajectory, and plateau_bp the numeric plateau in
    basis points (1e4 per unit spread)."""

    mode: str
    params: Optional[MertonParams]

    @property
    def xs(self) -> np.ndarray:
        return self.result.xs

    @property
    def s(self) -> np.ndarray:
        return self.result.ys

    @property
    def plateau_bp(self) -> float:
        return 1e4 * self.diagnostics.L_numeric


def spread_curve(
    params: Optional[MertonParams] = None,
    x0: Optional[float] = None,
    x_end: float = 20.0,
    config: Optional[SolverConfig] = None,
    literal_case1: bool = False,
) -> SpreadCurve:
    """Integrate the spread equation from s(x0) = 0 and diagnose it before
    returning; report runs when first read.

    literal_case1=True runs the constant triple (params ignored for the
    coefficients); otherwise params are required.  Where the branch
    cannot be continued, the curve is still integrated and diagnosed
    without it, and branch and report raise the BranchError.
    """
    if literal_case1:
        start = LITERAL_X0 if x0 is None else x0
        equation = replace(literal_case1_equation(), x0=float(start))
    else:
        if params is None:
            raise ValueError("parametric mode needs MertonParams")
        start = PARAMETRIC_X0 if x0 is None else x0
        if not start > 0.0:
            raise ValueError("parametric mode needs x0 > 0 (1/x singularity)")
        equation = parametric_equation(params, x0=start)
    if not x_end > start:
        raise ValueError(f"x_end={x_end!r} must exceed x0={start!r}")

    grid = GridSpec(start, x_end, 801, "linear")
    if params is not None and not literal_case1:
        if not params.volatility_positive_on(grid.xs()):
            raise ValueError("volatility factor not positive on the working range")

    curve = SpreadCurve(equation, 0.0, x_end, grid, config or SolverConfig(),
                        mode="literal-case1" if literal_case1 else "parametric",
                        params=params)
    curve.diagnostics  # continues the branch, integrates and diagnoses
    return curve

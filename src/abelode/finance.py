"""Credit-spread model with polynomial volatility shape.

A structural default model (Merton-type asset dynamics) with volatility
sigma(x)^2 = sigma0_sq * Q(x), Q(x) = 1 + eta1*x + eta2*x^2, turns the
term structure of the credit spread s(x) into a cubic equation

    s'(x) = s^3 + lambda2(x) s^2 + lambda1(x) s + lambda0(x)

after normalization.  This module provides the exact coefficient
formulas (both the raw a_k and the normalized lambda_k, cross-checkable
against each other), the explicit stable root omega of the underlying
quadratic with its small-spread Taylor expansion, and the spread-curve
pipeline with the plateau reported in basis points.

Two curve modes exist because case 1's constant triple (lambda2,
lambda1, lambda0) = (1, -3, 1) is out of reach of the parametric
formulas: with u = mu^2 / (sigma0_sq Q(x)),

    lambda1 = 2 u^2 - 2 u r + 3 r^2 = 2 (u - r/2)^2 + 5 r^2 / 2 > 0

for every parameter set (u != 0 because mu != 0), never -3.
"parametric" builds the coefficients from MertonParams, "literal-case1"
(no params) runs case 1's constant-coefficient equation as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .cases import Analysis, get_case
from .core import (AbelEquation, GridSpec, SolverConfig, _require_finite, _require_span,
                   build_equation)

__all__ = [
    "MertonParams",
    "SpreadCurve",
    "volatility_factor",
    "spread_coefficients",
    "spread_normal_form",
    "omega_exact",
    "omega_expansion",
    "parametric_equation",
    "spread_curve",
]

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
        _require_finite(sigma0_sq=self.sigma0_sq, mu=self.mu, r=self.r, eta1=self.eta1,
                        eta2=self.eta2)
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
    """Normalized coefficients (lambda2, lambda1, lambda0) = (a2, a1, a0)/a3:
    parametric_equation's coefficients at x.  Where Q(x) = 0 the division
    by it raises ExprDomainError (a ValueError) naming x."""
    lam0, lam1, lam2, _ = _parametric_row(p)(x)
    return lam2, lam1, lam0


@lru_cache(maxsize=64)
def _parametric_row(p: MertonParams):
    """parametric_equation(p)'s compiled row, which does not depend on x0:
    parsed and compiled once per MertonParams."""
    return parametric_equation(p).row


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
    return build_equation([lam0, lam1, lam2, "1"], x0=x0)


@dataclass(frozen=True, kw_only=True)
class SpreadCurve(Analysis):
    """The Analysis of one spread run, with its params (None in the literal
    mode): the curve (xs, s) is result's trajectory, and plateau_bp the
    numeric plateau in basis points (1e4 per unit spread)."""

    params: Optional[MertonParams]

    @property
    def mode(self) -> str:
        return "literal-case1" if self.params is None else "parametric"

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
) -> SpreadCurve:
    """Integrate the spread equation from s(x0) = 0 and diagnose it before
    returning; report runs when first read.

    Without params this is the literal mode: case 1's constant triple
    from x0 (default LITERAL_X0).  With params the coefficients come from
    parametric_equation, x0 (default PARAMETRIC_X0) must be positive and
    the volatility factor positive on the working grid.  Where the branch
    cannot be continued, the curve is still integrated and diagnosed
    without it, and branch and report raise the BranchError.
    """
    if params is None:
        start = LITERAL_X0 if x0 is None else x0
        equation = replace(get_case(1).equation, x0=float(start))
    else:
        start = PARAMETRIC_X0 if x0 is None else x0
        if not start > 0.0:
            raise ValueError("parametric mode needs x0 > 0 (1/x singularity)")
        equation = parametric_equation(params, x0=start)
    _require_span(x0=start, x_end=x_end)

    grid = GridSpec(start, x_end, 801, "linear")
    if params is not None and not params.volatility_positive_on(grid.xs()):
        raise ValueError("volatility factor not positive on the working range")

    curve = SpreadCurve(equation, 0.0, x_end, grid, config or SolverConfig(), params=params)
    curve.diagnostics  # continues the branch, integrates and diagnoses
    return curve

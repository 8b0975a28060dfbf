"""Three bundled cubic case studies with exact limits and reference rows.

Each case is a ready-made equation whose equilibrium limit is known in
closed form, so the whole pipeline (branch continuation, hypothesis
report, stiff integration, plateau diagnostics) can be checked against
an exact number.  reference_results rows record the trajectory values
this pipeline reproducibly attains at standard horizons, cross-checked
against an independent integrator; they are descriptive data, and the
tests pin their own tolerances.

Branch grids are case-tuned:

  * case 1 has constant coefficients, a short linear grid suffices;
  * case 2 approaches its limit like 1/x, so the tail grid is
    logarithmic out to 1e7 (the limit check needs the slow tail), and
    starts at 1 + 1e-3 because the positive branch degenerates to
    E = 0 at the left endpoint x = 1;
  * case 3 converges like e^{-x} but its damping-weighted integrand
    peaks around x = 1..3 and decays only as e^{-x}; the grid runs to
    100 so the last-decade share of the integral is unambiguous.

Integration always starts exactly at the case's x0 with y = 0.  Analysis
is the pipeline every caller (run_case, spread_curve, the CLI) reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

from .core import AbelEquation, NormalForm, build_equation, normalize
from .equilibrium import BranchError, EquilibriumBranch, GridSpec, continue_branch
from .hypotheses import HypothesisReport, verify
from .radau import IntegrationResult, SolverConfig, integrate
from .rate import PlateauDiagnostics, diagnose

__all__ = ["ReferenceRow", "CaseStudy", "Analysis", "CaseRun", "get_case", "run_case"]


@dataclass(frozen=True)
class ReferenceRow:
    """One (horizon, value, gap) row of the reproduction table."""

    x_max: float
    y_ref: float
    gap_ref: float


@dataclass(frozen=True)
class CaseStudy:
    id: int
    equation: AbelEquation
    exact_limit: float
    default_x_end: float
    reference_results: tuple[ReferenceRow, ...]

    @property
    def x0(self) -> float:
        return self.equation.x0

    def branch_grid(self, x_max: Optional[float] = None) -> GridSpec:
        horizon = self.default_x_end if x_max is None else x_max
        if self.id == 1:
            return GridSpec(0.0, max(20.0, horizon), 2001, "linear")
        if self.id == 2:
            return GridSpec(1.0 + 1e-3, max(1e7, horizon), 2001, "log")
        return GridSpec(0.0, max(100.0, horizon), 2001, "linear")


@cache
def get_case(case_id: int) -> CaseStudy:
    """The three bundled cubic equations with exact limits, each built once."""
    if case_id == 1:
        return CaseStudy(
            id=1,
            # y' = 1 - 3y + y^2 + y^3, also finance's literal spread equation
            equation=build_equation(
                ("1", "-3", "1", "1"), x0=0.0,
                description="constant coefficients, limit -1+sqrt(2)",
            ),
            exact_limit=-1.0 + math.sqrt(2.0),
            default_x_end=20.0,
            reference_results=(
                ReferenceRow(x_max=20.0, y_ref=0.41421356, gap_ref=1e-9),
            ),
        )
    if case_id == 2:
        return CaseStudy(
            id=2,
            equation=build_equation(
                ["1 - 1/x", "-2", "-2", "1"], x0=1.0,
                description="branch degenerate at x0, limit (3-sqrt(5))/2",
            ),
            exact_limit=(3.0 - math.sqrt(5.0)) / 2.0,
            default_x_end=20.0,
            reference_results=(
                ReferenceRow(x_max=20.0, y_ref=0.36543, gap_ref=1.7e-2),
                ReferenceRow(x_max=2000.0, y_ref=0.3818042, gap_ref=1.7e-4),
                ReferenceRow(x_max=2e5, y_ref=0.38196440, gap_ref=1.7e-6),
            ),
        )
    if case_id == 3:
        return CaseStudy(
            id=3,
            equation=build_equation(
                ["3 - 2*exp(-2*x)", "-4", "0", "1"], x0=0.0,
                description="exponentially settling constant term, limit 1",
            ),
            exact_limit=1.0,
            default_x_end=20.0,
            reference_results=(
                ReferenceRow(x_max=20.0, y_ref=0.999999998, gap_ref=1e-7),
            ),
        )
    raise ValueError(f"unknown case id {case_id!r} (expected 1, 2 or 3)")


@dataclass(frozen=True)
class Analysis:
    """The paper's argument on one equation, its trajectory running from
    (equation.x0, y0) to x_end.  Each stage runs when first read, then is kept.

      * Stage order is nf, branch, report, result, diagnostics: a stage
        reads the earlier ones it needs and no others (report is
        verify(nf, branch) and never integrates).
      * diagnostics use the branch where there is one.  Continuation runs
        once; branch and report raise its BranchError on every read.

    CaseRun and SpreadCurve subclass it, so a stage added here reaches
    run_case, spread_curve and the CLI once and stays lazy.
    """

    equation: AbelEquation
    y0: float
    x_end: float
    grid: GridSpec
    config: SolverConfig

    @cached_property
    def nf(self) -> NormalForm:
        return normalize(self.equation)

    @cached_property
    def _continued(self) -> EquilibriumBranch | BranchError:
        try:
            return continue_branch(self.nf, self.grid)
        except BranchError as err:
            return err

    @property
    def branch(self) -> EquilibriumBranch:
        if isinstance(self._continued, BranchError):
            raise self._continued
        return self._continued

    @cached_property
    def report(self) -> HypothesisReport:
        return verify(self.nf, self.branch)

    @cached_property
    def result(self) -> IntegrationResult:
        return integrate(self.equation, self.y0, self.x_end, self.config)

    @cached_property
    def diagnostics(self) -> PlateauDiagnostics:
        branch = None if isinstance(self._continued, BranchError) else self._continued
        return diagnose(self.result, branch, self.config)


@dataclass(frozen=True, kw_only=True)
class CaseRun(Analysis):
    """The Analysis of one case run, with its case; gap, |y(x_end) - exact_limit|,
    is read from result and case."""

    case: CaseStudy

    @property
    def gap(self) -> float:
        return abs(self.result.final_y - self.case.exact_limit)


def run_case(
    case_id: int,
    x_max: Optional[float] = None,
    config: Optional[SolverConfig] = None,
) -> CaseRun:
    """Analysis on the case's grid from y(x0) = 0, to x_max (default the
    case's default_x_end); every stage runs before it returns."""
    case = get_case(case_id)
    horizon = case.default_x_end if x_max is None else float(x_max)
    if not horizon > case.x0:
        raise ValueError(f"x_max={horizon!r} must exceed x0={case.x0!r}")
    run = CaseRun(case.equation, 0.0, horizon, case.branch_grid(horizon),
                  config or SolverConfig(), case=case)
    run.nf, run.branch, run.report, run.result, run.diagnostics  # every stage, in order
    return run

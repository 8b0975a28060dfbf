"""Stiff solver and plateau analysis for polynomial first-order ODEs.

The package pipeline: parse coefficient expressions (expr), assemble the
equation and its monic normal form (core), continue the positive stable
equilibrium branch (equilibrium), verify the structural and asymptotic
hypotheses (hypotheses), integrate with an L-stable implicit Runge-Kutta
method (radau), bound the convergence rate and diagnose the plateau
(rate), reduce around known solutions (reduction), and apply the whole
machinery to a credit-spread model (finance) and three bundled case
studies (cases).  config and cli provide the file format and command
line on top.
"""

from .core import (
    AbelEquation,
    LeadingCoefficientError,
    NormalForm,
    build_equation,
    eval_drhs,
    eval_rhs,
    normalize,
)
from .equilibrium import (
    BranchError,
    BranchPoint,
    EquilibriumBranch,
    GridSpec,
    ZeroEigenvalueError,
    branch_derivative,
    branch_limit,
    continue_branch,
    real_roots,
    smallest_positive_root,
)
from .expr import Expr, ExprDomainError, ExprError, ExprSyntaxError, parse
from .hypotheses import (
    HypothesisEntry,
    HypothesisReport,
    check_asymptotic,
    check_structural,
    verify,
)
from .radau import (
    ButcherTableau,
    IntegrationResult,
    NewtonFailure,
    OrderTestError,
    SolverConfig,
    empirical_order,
    integrate,
    integrate_rhs,
    radau_tableau,
    stability_value,
    step,
)
from .rate import (
    PlateauDiagnostics,
    RateBound,
    diagnose,
    phi,
    rate_bound,
    remainder_constant,
)
from .reduction import (
    NotASolutionError,
    ReducedEquation,
    ReductionError,
    SecondKindForm,
    WrongDegreeError,
    reduce_about,
    roundtrip_check,
    to_second_kind,
)
from .finance import (
    CalibrationReport,
    MertonParams,
    SpreadCurve,
    case1_calibration_check,
    omega_exact,
    omega_expansion,
    spread_coefficients,
    spread_curve,
    spread_normal_form,
)
from .cases import CaseRun, CaseStudy, get_case, run_case
from .config import ConfigError, EquationConfig

__version__ = "0.1.0"

__all__ = [
    "AbelEquation",
    "BranchError",
    "BranchPoint",
    "ButcherTableau",
    "CalibrationReport",
    "CaseRun",
    "CaseStudy",
    "ConfigError",
    "EquationConfig",
    "EquilibriumBranch",
    "Expr",
    "ExprDomainError",
    "ExprError",
    "ExprSyntaxError",
    "GridSpec",
    "HypothesisEntry",
    "HypothesisReport",
    "IntegrationResult",
    "LeadingCoefficientError",
    "MertonParams",
    "NewtonFailure",
    "NormalForm",
    "NotASolutionError",
    "OrderTestError",
    "PlateauDiagnostics",
    "RateBound",
    "ReducedEquation",
    "ReductionError",
    "SecondKindForm",
    "SolverConfig",
    "SpreadCurve",
    "WrongDegreeError",
    "ZeroEigenvalueError",
    "branch_derivative",
    "branch_limit",
    "build_equation",
    "case1_calibration_check",
    "check_asymptotic",
    "check_structural",
    "continue_branch",
    "diagnose",
    "empirical_order",
    "eval_drhs",
    "eval_rhs",
    "get_case",
    "integrate",
    "integrate_rhs",
    "normalize",
    "omega_exact",
    "omega_expansion",
    "parse",
    "phi",
    "radau_tableau",
    "rate_bound",
    "real_roots",
    "reduce_about",
    "remainder_constant",
    "roundtrip_check",
    "run_case",
    "smallest_positive_root",
    "spread_coefficients",
    "spread_curve",
    "spread_normal_form",
    "stability_value",
    "step",
    "to_second_kind",
    "verify",
]

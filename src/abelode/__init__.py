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

``import abelode`` loads none of these modules: each exported name is
resolved from its defining module on access (PEP 562), which loads that
module the first time, so a caller pays only for the modules it reaches;
``abelode.integrate`` loads core, expr and radau, not the branch,
hypothesis, finance or reduction modules.  ``abelode.get_case`` loads
cases, core and expr, and ``abelode.SolverConfig`` and
``abelode.GridSpec`` core and expr, so none of them loads a stage: a run's
branch, report, result and diagnostics stages load equilibrium,
hypotheses, radau and rate when they first run.  Each CLI subcommand
likewise imports only the modules it runs, so hypotheses and reduce load
no integrator.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the names the package exports, by defining module
_EXPORTS = {
    "core": ["AbelEquation", "BranchError", "GridSpec", "LeadingCoefficientError",
             "NewtonFailure", "NormalForm", "OrderTestError", "SolverConfig",
             "ZeroEigenvalueError", "build_equation", "eval_drhs", "eval_rhs", "normalize"],
    "equilibrium": ["BranchPoint", "EquilibriumBranch", "branch_limit", "continue_branch",
                    "real_roots"],
    "expr": ["Expr", "ExprDomainError", "ExprError", "ExprSyntaxError", "parse"],
    "hypotheses": ["HypothesisEntry", "HypothesisReport", "check_asymptotic",
                   "check_structural", "verify"],
    "radau": ["ButcherTableau", "IntegrationResult", "empirical_order", "integrate",
              "integrate_rhs", "radau_tableau", "stability_value", "step"],
    "rate": ["PlateauDiagnostics", "RateBound", "diagnose", "rate_bound",
             "remainder_constant"],
    "reduction": ["NotASolutionError", "ReducedEquation", "ReductionError", "SecondKindForm",
                  "reduce_about", "roundtrip_check"],
    "finance": ["MertonParams", "SpreadCurve", "omega_exact", "omega_expansion",
                "spread_coefficients", "spread_curve", "spread_normal_form"],
    "cases": ["CaseRun", "CaseStudy", "get_case", "run_case"],
    "config": ["ConfigError", "EquationConfig"],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # looked up on every access and never bound here, so that a name
    # rebound in its defining module (say, by a tracer and back) is the
    # object the next access returns
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})

"""The package's public surface: the names it exports and the fields of
the records its pipelines return."""

import dataclasses
import importlib.util
from pathlib import Path

import abelode
from abelode import CaseRun, SpreadCurve

PUBLIC_NAMES = [
    "AbelEquation", "BranchError", "BranchPoint", "ButcherTableau", "CalibrationReport",
    "CaseRun", "CaseStudy", "CoefficientFn", "ConfigError", "EquationConfig",
    "EquilibriumBranch", "Expr", "ExprDomainError", "ExprError", "ExprSyntaxError",
    "GridSpec", "HypothesisEntry", "HypothesisReport", "IntegrationResult",
    "LeadingCoefficientError", "MertonParams", "NewtonFailure", "NormalForm",
    "NotASolutionError", "OrderTestError", "PlateauDiagnostics", "RateBound",
    "ReducedEquation", "ReductionError", "SecondKindForm", "SolverConfig", "SpreadCurve",
    "WrongDegreeError", "ZeroEigenvalueError", "branch_derivative", "branch_limit",
    "build_equation", "case1_calibration_check", "check_asymptotic", "check_structural",
    "continue_branch", "diagnose", "empirical_order", "eval_drhs", "eval_rhs", "get_case",
    "integrate", "integrate_rhs", "normalize", "omega_exact", "omega_expansion", "parse",
    "phi", "radau_tableau", "rate_bound", "real_roots", "reduce_about", "remainder_constant",
    "roundtrip_check", "run_case", "smallest_positive_root", "spread_coefficients",
    "spread_curve", "spread_normal_form", "stability_value", "step", "to_second_kind",
    "verify",
]


def _field_names(record):
    return [field.name for field in dataclasses.fields(record)]


def test_exported_names():
    assert sorted(abelode.__all__) == PUBLIC_NAMES
    assert all(hasattr(abelode, name) for name in PUBLIC_NAMES)


def test_case_run_fields():
    assert _field_names(CaseRun) == [
        "case", "nf", "branch", "report", "result", "diagnostics", "gap"]


def test_spread_curve_fields():
    assert _field_names(SpreadCurve) == [
        "xs", "s", "plateau_bp", "diagnostics", "result", "equation", "mode", "params",
        "branch", "report"]


def test_traced_names_resolve():
    # perfbench/tracing.py rebinds these functions by name, and abelode.__all__
    # pins only some of them: a renamed or deleted one would otherwise fail
    # only when the traced benchmark runs.  The tracer is not installed.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = list(tracing.SPANS) + [t for ts in tracing.COUNTED.values() for t in ts]
    for name in targets:
        assert callable(tracing._resolve(name)), name

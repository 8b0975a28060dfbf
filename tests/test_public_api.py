"""The package's public surface: the names it exports and the fields of
the records its pipelines return."""

import dataclasses
import importlib.util
from pathlib import Path

import abelode
from abelode import (
    AbelEquation, CalibrationReport, CaseRun, CaseStudy, EquationConfig, EquilibriumBranch,
    GridSpec, IntegrationResult, MertonParams, NormalForm, ReducedEquation, SpreadCurve,
    branch_limit, build_equation, case1_calibration_check, continue_branch, normalize,
)
from abelode.config import equation_config, parse_pairs
from abelode.finance import CASE1_TARGET

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


def test_derived_attributes_read_their_sources(case_runs):
    # twelve values that other fields of the same record determine are
    # read-only properties, so no record can contradict itself
    derived = [(AbelEquation, "degree"), (NormalForm, "degree"), (ReducedEquation, "degree"),
               (EquationConfig, "degree"), (CaseStudy, "x0"), (EquilibriumBranch, "L"),
               (EquilibriumBranch, "note"), (IntegrationResult, "n_accepted"),
               (IntegrationResult, "final_x"), (IntegrationResult, "final_y"),
               (CalibrationReport, "target"), (CalibrationReport, "deviation")]
    for record, name in derived:
        assert name not in _field_names(record), (record.__name__, name)
        attribute = getattr(record, name)
        assert isinstance(attribute, property) and attribute.fset is None, (record, name)

    for run in case_runs.values():
        case, equation, result = run.case, run.case.equation, run.result
        assert case.x0 == equation.x0
        assert equation.degree == len(equation.coeffs) - 1 == 3
        assert run.nf.degree == equation.degree
        assert ReducedEquation(equation, lambda x: 0.0).degree == equation.degree
        assert run.branch.L == branch_limit(run.branch) and run.branch.L is not None
        assert run.branch.note == ""
        assert result.n_accepted == len(result.xs) - 1
        assert result.final_x.hex() == float(result.xs[-1]).hex()
        assert result.final_y.hex() == float(result.ys[-1]).hex()

    config = equation_config(parse_pairs("degree = 2\ncoefficients = 1 | 0 | -1\nx_end = 10\n"))
    assert config.degree == len(config.coefficients) - 1 == config.build().degree == 2

    report = case1_calibration_check(MertonParams(1.0, 1.0, 0.02), 2.0)
    assert report.target == CASE1_TARGET
    assert report.deviation == tuple(l - t for l, t in zip(report.lambdas, CASE1_TARGET))

    # (y+1)(y-1)(y-2)(y-3)(y-4): two positive stable roots at each of 101 points
    nf = normalize(build_equation(["24", "-26", "-15", "25", "-9", "1"], 0.0))
    branch = continue_branch(nf, GridSpec(0.0, 10.0, 101))
    assert branch.ambiguous_count == 101
    assert branch.note == ("101 grid point(s) had a second positive stable root; "
                           "the continuation kept the nearest root")
    assert branch.L == branch_limit(branch)

"""The package's public surface: the names it exports, the parameters of
its functions and the fields of the records its pipelines return; the
private names its modules take from one another; and the calls the
benchmark under perfbench/ makes into the package."""

import ast
import dataclasses
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import abelode
from abelode import (
    AbelEquation, CalibrationReport, CaseRun, CaseStudy, EquationConfig, EquilibriumBranch,
    GridSpec, HypothesisReport, IntegrationResult, MertonParams, NormalForm, ReducedEquation,
    SpreadCurve, branch_limit, build_equation, case1_calibration_check, continue_branch, normalize,
    spread_curve,
)
from abelode.cases import Analysis
from abelode.config import equation_config, parse_pairs
from abelode.finance import CASE1_TARGET
from abelode.hypotheses import GRID_VERIFIED

PUBLIC_NAMES = [
    "AbelEquation", "BranchError", "BranchPoint", "ButcherTableau", "CalibrationReport",
    "CaseRun", "CaseStudy", "ConfigError", "EquationConfig", "EquilibriumBranch", "Expr",
    "ExprDomainError", "ExprError", "ExprSyntaxError", "GridSpec", "HypothesisEntry",
    "HypothesisReport", "IntegrationResult",
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

#: parameter names of every exported function, in order
PARAMETERS = {
    "branch_derivative": ["nf", "point"],
    "branch_limit": ["branch"],
    "build_equation": ["coeff_sources", "x0", "description"],
    "case1_calibration_check": ["p", "x_ref", "solve_eta2"],
    "check_asymptotic": ["nf", "branch"],
    "check_structural": ["nf", "branch"],
    "continue_branch": ["nf", "grid"],
    "diagnose": ["result", "branch", "config"],
    "empirical_order": ["equation", "y0", "x_end", "h_list", "config"],
    "eval_drhs": ["equation", "x", "y"],
    "eval_rhs": ["equation", "x", "y"],
    "integrate": ["equation", "y0", "x_end", "config", "checkpoints"],
    "integrate_rhs": ["row", "x0", "y0", "x_end", "config", "checkpoints"],
    "normalize": ["equation"],
    "omega_exact": ["p", "x", "s"],
    "omega_expansion": ["p", "x", "s"],
    "parse": ["source"],
    "phi": ["nf", "branch", "x", "x_from"],
    "radau_tableau": [],
    "rate_bound": ["nf", "branch", "result"],
    "real_roots": ["nf", "x"],
    "reduce_about": ["equation", "pivot", "kind"],
    "remainder_constant": ["branch"],
    "roundtrip_check": ["equation", "pivot", "y0", "x_end", "kind", "config", "checkpoints"],
    "run_case": ["case_id", "x_max", "config"],
    "smallest_positive_root": ["nf", "x"],
    "spread_coefficients": ["p", "x"],
    "spread_curve": ["params", "x0", "x_end", "config", "literal_case1"],
    "spread_normal_form": ["p", "x"],
    "stability_value": ["z"],
    "step": ["row", "x", "y", "h", "config"],
    "to_second_kind": ["reduced"],
    "verify": ["nf", "branch"],
}

#: underscore names each module of the package imports from another one
PRIVATE_IMPORTS = {
    "equilibrium": ["core._derivative_row", "core._horner", "core._require_real"],
    "hypotheses": ["rate._drift_integral"],
    "radau": ["core._derivative_row", "core._horner", "core._require_real", "expr._compile"],
    "rate": ["core._taylor_shift"],
    "reduction": ["core._PROBE_OFFSETS", "core._horner", "core._taylor_shift"],
}


def _field_names(record):
    return [field.name for field in dataclasses.fields(record)]


def test_exported_names():
    assert sorted(abelode.__all__) == PUBLIC_NAMES
    assert all(hasattr(abelode, name) for name in PUBLIC_NAMES)


def test_function_parameters():
    # adding, removing or renaming a parameter of an exported function is
    # an edit to this table
    functions = {name: getattr(abelode, name) for name in PUBLIC_NAMES
                 if inspect.isfunction(getattr(abelode, name))}
    assert {name: list(inspect.signature(fn).parameters)
            for name, fn in functions.items()} == PARAMETERS


def test_private_imports():
    # a module taking another's underscore name couples to its internals:
    # each new coupling is an edit to this table
    source_dir = Path(abelode.__file__).resolve().parent
    found = {}
    for path in sorted(source_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level or module.startswith("abelode"):
                found.setdefault(path.stem, []).extend(
                    f"{module.removeprefix('abelode.')}.{alias.name}" for alias in node.names
                    if alias.name.startswith("_"))
    assert {module: names for module, names in found.items() if names} == PRIVATE_IMPORTS


#: the Analysis inputs every run record starts with; its stages are not fields
ANALYSIS_FIELDS = ["equation", "y0", "x_end", "grid", "config"]
STAGES = ["nf", "branch", "report", "result", "diagnostics"]


def test_case_run_fields():
    assert issubclass(CaseRun, Analysis)
    assert _field_names(CaseRun) == ANALYSIS_FIELDS + ["case"]
    assert all(hasattr(CaseRun, stage) for stage in STAGES)


def test_spread_curve_fields():
    assert issubclass(SpreadCurve, Analysis)
    assert _field_names(SpreadCurve) == ANALYSIS_FIELDS + ["mode", "params"]
    assert all(hasattr(SpreadCurve, stage) for stage in STAGES)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name, monkeypatch=None):
    """perfbench/<name>.py as the module <name>, without running it as a
    script; with monkeypatch, also in sys.modules until the test ends."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its sibling inputs.py by the bare name, and a
    # dataclass finds its module's globals through sys.modules
    _load_perfbench("inputs", monkeypatch)
    return _load_perfbench("workloads", monkeypatch)


def test_traced_names_resolve():
    # perfbench/tracing.py rebinds these functions by name, and abelode.__all__
    # pins only some of them: a renamed or deleted one would otherwise fail
    # only when the traced benchmark runs.  The tracer is not installed.
    tracing = _load_perfbench("tracing")
    targets = list(tracing.SPANS) + [t for ts in tracing.COUNTED.values() for t in ts]
    for name in targets:
        assert callable(tracing._resolve(name)), name


def test_benchmark_set_up_builds_its_inputs(workloads, tmp_path, capsys):
    # perfbench/setup_child.py times importing the package and building each
    # kind of input a workload names; a record it reads that changed shape
    # would otherwise show only as a failed benchmark run
    equation_cfg = tmp_path / "equation.cfg"
    equation_cfg.write_text(workloads.inputs.cli_equations(0, 0)[0].config_text())
    param_cfg = tmp_path / "params.cfg"
    param_cfg.write_text(workloads.SPREAD_CONFIGS["spread-r0"])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "cases": [[2, None]],
        "equations": [list(workloads.inputs.stiff_equations(0, 0)[0].coefficients)],
        "equation_configs": [str(equation_cfg)],
        "param_configs": [str(param_cfg)],
    }))
    _load_perfbench("setup_child").main(str(spec))
    assert float(capsys.readouterr().out) > 0.0


def test_benchmark_case_ops_pass_their_oracles(workloads, tmp_path):
    # each op of the cases workload is run_case plus rate_bound, checked by
    # the workload's own oracle, for cases 1-3 and the case-2 long run
    ops = workloads.cases_workload(0, tmp_path, 1).rounds[0]
    assert sorted(op.name for op in ops) == [
        "case 1", "case 2", "case 2 x_max=200000", "case 3"]
    for op in ops:
        assert op.check(op.execute()) == [], op.name


def test_derived_attributes_read_their_sources(case_runs):
    # seventeen values that other fields of the same record, or a constant,
    # determine are read-only properties, so no record can contradict itself
    derived = [(AbelEquation, "degree"), (NormalForm, "degree"), (ReducedEquation, "degree"),
               (EquationConfig, "degree"), (CaseStudy, "x0"), (EquilibriumBranch, "L"),
               (EquilibriumBranch, "note"), (HypothesisReport, "note"),
               (IntegrationResult, "n_accepted"),
               (IntegrationResult, "final_x"), (IntegrationResult, "final_y"),
               (CalibrationReport, "target"), (CalibrationReport, "deviation"),
               (CaseRun, "gap"), (SpreadCurve, "xs"), (SpreadCurve, "s"),
               (SpreadCurve, "plateau_bp")]
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
        assert run.report.note == GRID_VERIFIED
        assert result.n_accepted == len(result.xs) - 1
        assert result.final_x.hex() == float(result.xs[-1]).hex()
        assert result.final_y.hex() == float(result.ys[-1]).hex()

    curve = spread_curve(literal_case1=True)
    assert curve.xs is curve.result.xs and curve.s is curve.result.ys
    assert curve.plateau_bp == 1e4 * curve.diagnostics.L_numeric

    config = equation_config(parse_pairs("degree = 2\ncoefficients = 1 | 0 | -1\nx_end = 10\n"))
    assert config.degree == config.equation.degree == 2 and config.build() is config.equation

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

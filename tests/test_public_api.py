"""The package's public surface: the names it exports, the modules an
entry point loads, the parameters of its functions and the fields of the
records its pipelines return; the private names its modules take from one
another; and the calls the benchmark under perfbench/ makes into the
package."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import abelode
from abelode import (
    AbelEquation, CaseRun, CaseStudy, EquilibriumBranch, GridSpec,
    HypothesisReport, IntegrationResult, NormalForm, ReducedEquation, SpreadCurve,
    branch_limit, build_equation, continue_branch, integrate, normalize, rate_bound,
    spread_curve,
)
from abelode.cases import Analysis
from abelode.config import equation_config, parse_pairs
from abelode.hypotheses import GRID_VERIFIED

PUBLIC_NAMES = [
    "AbelEquation", "BranchError", "BranchPoint", "ButcherTableau", "CaseRun", "CaseStudy",
    "ConfigError", "EquationConfig", "EquilibriumBranch", "Expr",
    "ExprDomainError", "ExprError", "ExprSyntaxError", "GridSpec", "HypothesisEntry",
    "HypothesisReport", "IntegrationResult",
    "LeadingCoefficientError", "MertonParams", "NewtonFailure", "NormalForm",
    "NotASolutionError", "OrderTestError", "PlateauDiagnostics", "RateBound",
    "ReducedEquation", "ReductionError", "SecondKindForm", "SolverConfig", "SpreadCurve",
    "ZeroEigenvalueError", "branch_limit", "build_equation",
    "check_asymptotic", "check_structural", "continue_branch",
    "diagnose", "empirical_order", "eval_drhs", "eval_rhs", "get_case", "integrate",
    "integrate_rhs", "normalize", "omega_exact", "omega_expansion", "parse", "radau_tableau",
    "rate_bound", "real_roots", "reduce_about", "remainder_constant", "roundtrip_check",
    "run_case", "spread_coefficients", "spread_curve", "spread_normal_form", "stability_value",
    "step", "verify",
]

#: parameter names of every exported function, in order
PARAMETERS = {
    "branch_limit": ["branch"],
    "build_equation": ["coeff_sources", "x0"],
    "check_asymptotic": ["branch"],
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
    "radau_tableau": [],
    "rate_bound": ["nf", "branch", "result"],
    "real_roots": ["nf", "x"],
    "reduce_about": ["equation", "pivot", "xs", "kind"],
    "remainder_constant": ["branch"],
    "roundtrip_check": ["equation", "pivot", "y0", "x_end", "kind", "config", "checkpoints"],
    "run_case": ["case_id", "x_max", "config"],
    "spread_coefficients": ["p", "x"],
    "spread_curve": ["params", "x0", "x_end", "config"],
    "spread_normal_form": ["p", "x"],
    "stability_value": ["z"],
    "step": ["row", "x", "y", "h", "config"],
    "verify": ["nf", "branch"],
}

#: underscore names each module of the package imports from another one
PRIVATE_IMPORTS = {
    "cases": ["core._require_span"],
    "cli": ["core._require_span"],
    "config": ["core._require_span"],
    "equilibrium": ["core._horner", "core._taylor_entry"],
    "finance": ["core._require_finite", "core._require_span"],
    "hypotheses": ["rate._drift_integral"],
    "radau": ["core._horner", "core._require_finite", "core._require_span", "core._taylor_entry",
              "expr._compile"],
    "rate": ["core._taylor_entry"],
    "reduction": ["core._horner", "core._require_real", "core._require_span",
                  "core._taylor_entry"],
}

#: X._name reads each module makes of an underscore name it does not define
PRIVATE_READS = {}


def _field_names(record):
    return [field.name for field in dataclasses.fields(record)]


def test_exported_names():
    assert sorted(abelode.__all__) == PUBLIC_NAMES
    assert all(hasattr(abelode, name) for name in PUBLIC_NAMES)


#: exported names that nothing reads but the tests, each with why it stays
UNREAD_EXPORTS = {
    "SecondKindForm": "the paper's second-kind form of the degree reduction, which "
                      "test_reduction.py checks against closed forms and a quadrature",
}

#: a "layer.name" string, as perfbench/tracing.py names what it wraps
_LAYER_NAME = re.compile(r"[a-z]+\.([A-Za-z_]\w*)")


def _identifiers(path, layer_names=False) -> set[str]:
    """The names and attribute names the file at path reads, and with
    layer_names the name in each "layer.name" string."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif layer_names and isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _LAYER_NAME.fullmatch(node.value)
            if match:
                found.add(match[1])
    return found


def test_every_export_has_a_reader():
    # an export read by no module of the package (its own module's uses
    # count, __all__ strings do not), by perfbench and by no acceptance test
    # is kept only by tests: it goes, or it is named above with its reason
    source_dir = Path(abelode.__file__).resolve().parent
    readers = set().union(
        *(_identifiers(path) for path in source_dir.glob("*.py") if path.name != "__init__.py"),
        *(_identifiers(path, layer_names=True) for path in PERFBENCH.glob("*.py")),
        _identifiers(Path(__file__).with_name("test_acceptance.py")))
    assert {name for name in abelode.__all__ if name not in readers} == set(UNREAD_EXPORTS)


def test_exports_are_their_defining_modules_objects():
    for name in abelode.__all__:
        value = getattr(abelode, name)
        assert value.__module__.startswith("abelode."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_stage_exceptions_are_defined_in_core():
    # the CLI's except clause names them without loading equilibrium, whose
    # raisers take the same classes from core
    from abelode import core, equilibrium, hypotheses, rate
    for name in ("BranchError", "ZeroEigenvalueError"):
        cls = getattr(core, name)
        assert cls.__module__ == "abelode.core"
        assert getattr(abelode, name) is cls
    assert equilibrium.BranchError is core.BranchError
    assert hypotheses.ZeroEigenvalueError is rate.ZeroEigenvalueError is core.ZeroEigenvalueError


def test_solver_config_and_exceptions_are_defined_in_core():
    # config, cases, finance, reduction and the CLI name them without
    # loading the integrator, which takes the same objects from core
    from abelode import config, core, radau
    for name in ("SolverConfig", "NewtonFailure", "OrderTestError"):
        value = getattr(core, name)
        assert value.__module__ == "abelode.core"
        assert getattr(abelode, name) is value is getattr(radau, name)
    assert config.SolverConfig is core.SolverConfig


def test_dir_and_star_import_cover_every_export():
    assert set(abelode.__all__) <= set(dir(abelode))
    namespace = {}
    exec("from abelode import *", namespace)
    assert all(namespace[name] is getattr(abelode, name) for name in abelode.__all__)
    # a name deleted from a module but left in its __all__ breaks its star
    # import; a package export must be in its module's __all__
    for info in pkgutil.iter_modules(abelode.__path__):
        module = importlib.import_module(f"abelode.{info.name}")
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], info.name
    for name, module in abelode._MODULE_OF.items():
        assert name in importlib.import_module(f"abelode.{module}").__all__, name


def test_unknown_attribute_and_submodule_import():
    with pytest.raises(AttributeError) as raised:
        abelode.no_such_name
    assert str(raised.value) == "module 'abelode' has no attribute 'no_such_name'"
    from abelode import config
    assert config is sys.modules["abelode.config"]


def test_exports_follow_a_rebinding_in_their_module(monkeypatch):
    # perfbench/tracing.py wraps a function where its module binds it and
    # later puts the original back: the package must not keep either one
    from abelode import radau
    original = radau.integrate

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(radau, "integrate", wrapper)
    assert abelode.integrate is wrapper
    monkeypatch.undo()
    assert abelode.integrate is original
    assert "integrate" not in vars(abelode)


SRC = Path(abelode.__file__).resolve().parent.parent


def _modules_after(code: str, cwd) -> set[str]:
    """The abelode modules in sys.modules of a fresh interpreter that ran code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = code + ("\nimport sys\nprint(*sorted(m for m in sys.modules"
                    " if m.partition('.')[0] == 'abelode'))\n")
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


#: the benchmark's stiff set-up (perfbench/setup_child.py) on one equation
STIFF_SET_UP = """
import abelode
from abelode import config
equation = abelode.build_equation(["1", "-3", "1", "1"], x0=0.0)
abelode.normalize(equation)
solver = abelode.SolverConfig(atol=1e-11, rtol=1e-11)
"""


def test_integrating_loads_only_the_integrator(tmp_path):
    # an integrate-only caller never loads the branch, hypothesis, rate,
    # case, finance or reduction modules, at set-up or in the op; its
    # set-up loads no radau, and its first integration does
    set_up = {"abelode", "abelode.config", "abelode.core", "abelode.expr"}
    assert _modules_after(STIFF_SET_UP, tmp_path) == set_up
    assert _modules_after(STIFF_SET_UP + "abelode.integrate(equation, 0.0, 5.0, solver)\n",
                          tmp_path) == set_up | {"abelode.radau"}


#: the benchmark's cases set-up (perfbench/setup_child.py) on the three cases
CASES_SET_UP = """
import abelode
from abelode import config
for case_id in (1, 2, 3):
    abelode.normalize(abelode.get_case(case_id).equation)
"""

#: the modules of the branch, report and diagnostics stages
STAGE_MODULES = ("equilibrium", "hypotheses", "rate")


def test_reading_a_case_loads_no_analysis_stage(tmp_path):
    # a case equation needs no stage module and no integrator; a run loads
    # them when its stages first run
    cases = {"abelode", "abelode.cases", "abelode.config", "abelode.core", "abelode.expr"}
    stages = {f"abelode.{m}" for m in (*STAGE_MODULES, "radau")}
    assert _modules_after(CASES_SET_UP, tmp_path) == cases
    assert _modules_after(CASES_SET_UP + "abelode.run_case(1)\n", tmp_path) == cases | stages


def test_reading_model_parameters_loads_no_analysis_stage(tmp_path):
    code = ("from abelode import config\n"
            "config.merton_params(config.parse_pairs('sigma0_sq = 1.2\\nmu = 1.5\\n'))\n")
    assert not _modules_after(code, tmp_path) & {f"abelode.{m}" for m in STAGE_MODULES}


#: (stage, modules its first read loads, modules it does not load)
STAGE_LOADS = [
    ("branch", {"equilibrium"}, {"hypotheses", "radau", "rate"}),
    ("diagnostics", {"radau", "rate"}, {"hypotheses"}),
    ("report", {"hypotheses", "rate"}, {"radau"}),
    ("result", {"radau"}, {"hypotheses", "rate"}),
]


@pytest.mark.parametrize("stage,loaded,not_loaded", STAGE_LOADS)
def test_each_stage_loads_its_module_when_it_first_runs(tmp_path, stage, loaded, not_loaded):
    # an unread case run, its grid built, has loaded no stage module;
    # reading one stage loads that stage's module and the modules it reads,
    # and no other
    code = CASES_SET_UP + (
        "case = abelode.get_case(1)\n"
        "run = abelode.CaseRun(case.equation, 0.0, 20.0, case.branch_grid(20.0),\n"
        "                      config.SolverConfig(), case=case)\n")
    before = _modules_after(code, tmp_path)
    assert not before & {f"abelode.{m}" for m in (*STAGE_MODULES, "radau")}
    after = _modules_after(code + f"run.{stage}\n", tmp_path)
    assert {f"abelode.{m}" for m in loaded} <= after
    assert not {f"abelode.{m}" for m in not_loaded} & after


#: (argv, modules the subcommand loads, modules it does not load)
SUBCOMMAND_LOADS = [
    (["case", "1"], {"cases", "hypotheses", "radau"}, {"finance", "reduction"}),
    (["hypotheses", "{config}"], {"hypotheses"}, {"finance", "radau", "reduction"}),
    (["order-test"], {"radau"}, {"finance", "reduction", *STAGE_MODULES}),
    (["spread", "--literal-case1"], {"finance", "radau"}, {"reduction"}),
    (["reduce", "--case", "1", "--ep", "1"], {"reduction"}, {"finance", "radau",
                                                            *STAGE_MODULES}),
    (["integrate", "{config}"], {"radau"}, {"finance", "reduction", *STAGE_MODULES}),
    (["integrate", "{config}", "--branch"], {"equilibrium"}, {"hypotheses", "finance",
                                                            "reduction"}),
]


@pytest.mark.parametrize("argv,loaded,not_loaded", SUBCOMMAND_LOADS,
                         ids=["case", "hypotheses", "order-test", "spread", "reduce", "integrate",
                              "integrate-branch"])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, loaded, not_loaded):
    # python -m abelode.cli ARGV, in a fresh interpreter
    config = tmp_path / "case3.cfg"
    config.write_text("degree = 3\ncoefficients = 3 - 2*exp(-2*x) | -4 | 0 | 1\nx_end = 20\n")
    args = [a.format(config=config) for a in argv]
    if args[0] != "order-test":
        args += ["--out", str(tmp_path / "out")]
    modules = _modules_after(
        f"import runpy, sys\nsys.argv = ['abelode', *{args!r}]\n"
        "try:\n    runpy.run_module('abelode.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n    assert exit.code == 0, exit.code\n", tmp_path)
    assert {f"abelode.{m}" for m in loaded} <= modules
    assert not {f"abelode.{m}" for m in not_loaded} & modules


def test_module_tables_name_modules_of_the_package():
    # a module named in a not-loaded set that the package no longer has
    # would pass vacuously, and a PRIVATE_IMPORTS key could outlive its module
    modules = {info.name for info in pkgutil.iter_modules(abelode.__path__)}
    named = {*PRIVATE_IMPORTS, *STAGE_MODULES}
    for table in (STAGE_LOADS, SUBCOMMAND_LOADS):
        for _, loaded, not_loaded in table:
            named |= loaded | not_loaded
    for names in PRIVATE_IMPORTS.values():
        named |= {name.split(".")[0] for name in names}
    assert named - modules == set()


def test_function_parameters():
    # adding, removing or renaming a parameter of an exported function is
    # an edit to this table
    functions = {name: getattr(abelode, name) for name in PUBLIC_NAMES
                 if inspect.isfunction(getattr(abelode, name))}
    assert {name: list(inspect.signature(fn).parameters)
            for name, fn in functions.items()} == PARAMETERS


def _foreign_reads(tree) -> list[str]:
    """Each X._name read in the module, sorted, where X is not self or cls
    and the module neither defines nor assigns _name itself."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
    return sorted(
        f"{ast.unparse(node.value)}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and node.attr not in own
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))


def test_private_imports():
    # a module taking or reading another's underscore name couples to its
    # internals: each new coupling is an edit to these tables
    source_dir = Path(abelode.__file__).resolve().parent
    found, reads = {}, {}
    for path in sorted(source_dir.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads[path.stem] = _foreign_reads(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level or module.startswith("abelode"):
                found.setdefault(path.stem, []).extend(
                    f"{module.removeprefix('abelode.')}.{alias.name}" for alias in node.names
                    if alias.name.startswith("_"))
    assert {module: names for module, names in found.items() if names} == PRIVATE_IMPORTS
    assert {module: names for module, names in reads.items() if names} == PRIVATE_READS


#: the wordings of the span rule's refusals, which core._require_span writes
SPAN_WORDINGS = (" must exceed ", " overflows for ")


def test_span_rule_is_written_once():
    # every interval [x0, x_end] is refused through core._require_span: a
    # string constant of another module with one of its wordings is a copy
    source_dir = Path(abelode.__file__).resolve().parent
    holders = {wording: set() for wording in SPAN_WORDINGS}
    for path in sorted(source_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for wording in SPAN_WORDINGS:
                    if wording in node.value:
                        holders[wording].add(path.stem)
    assert holders == {wording: {"core"} for wording in SPAN_WORDINGS}


#: the Analysis inputs every run record starts with; its stages are not fields
ANALYSIS_FIELDS = ["equation", "y0", "x_end", "grid", "config"]
STAGES = ["nf", "branch", "report", "result", "diagnostics"]


def test_case_run_fields():
    assert issubclass(CaseRun, Analysis)
    assert _field_names(CaseRun) == ANALYSIS_FIELDS + ["case"]
    assert all(hasattr(CaseRun, stage) for stage in STAGES)


def test_spread_curve_fields():
    assert issubclass(SpreadCurve, Analysis)
    assert _field_names(SpreadCurve) == ANALYSIS_FIELDS + ["params"]
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


def test_traced_records_have_what_the_observers_read(case_runs):
    # perfbench/tracing.py's observers read counters off what continue_branch,
    # integrate and rate_bound return: a renamed or deleted attribute would
    # otherwise fail only when the traced benchmark runs.  The tracer is not
    # installed; each observer runs the real call it is given.
    tracing = _load_perfbench("tracing")
    tracer = tracing.Tracer()
    run = case_runs[1]
    # case 1's branch, and E = exp(x), which refines at 28 of its 30 cells
    refining = normalize(build_equation(["exp(x)", "-1"], 0.0))
    inputs = ((run.nf, run.grid), (refining, GridSpec(0.0, 10.0, 31)))
    branches = [tracing._observe_branch(tracer, continue_branch, args, {}) for args in inputs]
    result = tracing._observe_integrate(
        tracer, integrate, (run.equation, run.y0, run.x_end, run.config), {})
    bound = tracing._observe_rate_bound(tracer, rate_bound, (run.nf, run.branch, result), {})
    assert branches[1].refinements == 28
    assert dict(tracer.counts) == {
        "equilibrium.branch_points": sum(b.xs.size for b in branches),
        "equilibrium.refinements": sum(b.refinements for b in branches),
        "equilibrium.ambiguous_points": sum(b.ambiguous_count for b in branches),
        "radau.runtime_warnings": 0,
        "radau.accepted": result.n_accepted,
        "radau.newton_iters": result.n_newton_iters,
        "rate.nonfinite_bound_points": int(np.count_nonzero(~np.isfinite(bound.bound))),
    }


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
    # fifteen values that other fields of the same record determine are
    # read-only properties, so no record can contradict itself
    derived = [(AbelEquation, "degree"), (NormalForm, "degree"), (ReducedEquation, "degree"),
               (CaseStudy, "x0"), (EquilibriumBranch, "L"),
               (EquilibriumBranch, "note"), (HypothesisReport, "note"),
               (IntegrationResult, "n_accepted"),
               (IntegrationResult, "final_x"), (IntegrationResult, "final_y"),
               (CaseRun, "gap"), (SpreadCurve, "mode"), (SpreadCurve, "xs"),
               (SpreadCurve, "s"), (SpreadCurve, "plateau_bp")]
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

    curve = spread_curve()
    assert curve.params is None and curve.mode == "literal-case1"
    assert curve.xs is curve.result.xs and curve.s is curve.result.ys
    assert curve.plateau_bp == 1e4 * curve.diagnostics.L_numeric

    config = equation_config(parse_pairs("degree = 2\ncoefficients = 1 | 0 | -1\nx_end = 10\n"))
    assert config.equation.degree == 2 and config.build() is config.equation

    # (y+1)(y-1)(y-2)(y-3)(y-4): two positive stable roots at each of 101 points
    nf = normalize(build_equation(["24", "-26", "-15", "25", "-9", "1"], 0.0))
    branch = continue_branch(nf, GridSpec(0.0, 10.0, 101))
    assert branch.ambiguous_count == 101
    assert branch.note == ("101 grid point(s) had a second positive stable root; "
                           "the continuation kept the nearest root")
    assert branch.L == branch_limit(branch)

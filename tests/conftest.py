import importlib.util
import sys
from pathlib import Path

# make the sibling oracles and strategies modules importable from every test file
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from abelode import run_case
from abelode.core import AbelEquation
from abelode.expr import Expr
from abelode.reduction import ReducedEquation


@pytest.fixture(scope="session")
def case_runs():
    """One shared pipeline run per case study; each run_case takes about
    6-15 ms on a 2-core x86_64 virtual machine."""
    return {cid: run_case(cid) for cid in (1, 2, 3)}


@pytest.fixture
def stiff_inputs(monkeypatch):
    """perfbench/inputs.py, loaded by path as the module inputs (a dataclass
    finds its module's globals through sys.modules until the test ends)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("inputs", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "inputs", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def eval_calls(monkeypatch):
    """The abscissa of every scalar Expr.eval call made while the test runs."""
    calls = []
    original = Expr.eval
    monkeypatch.setattr(Expr, "eval", lambda self, x: calls.append(x) or original(self, x))
    return calls


@pytest.fixture
def rows_sampled(monkeypatch):
    """The abscissa of every compiled coefficient row sampled while the test
    runs (AbelEquation.row, which NormalForm.sample reads, and the row of
    ReducedEquation.coefficients).  The rows are cached per instance, so a
    class-level property wraps each one on access: rows compiled before the
    fixture was set up (the session's case_runs) are counted too."""
    calls = []
    for owner, name in ((AbelEquation, "row"), (ReducedEquation, "_tail_row")):
        compiled = vars(owner)[name]

        def counted(self, compiled=compiled):
            row = compiled.__get__(self, type(self))
            return lambda x: calls.append(x) or row(x)

        monkeypatch.setattr(owner, name, property(counted))
    return calls

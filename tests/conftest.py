import sys
from pathlib import Path

# make the sibling oracles and strategies modules importable from every test file
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from abelode import run_case
from abelode.expr import CompiledRow, Expr


@pytest.fixture(scope="session")
def case_runs():
    """One shared pipeline run per case study; each run_case takes about
    6-15 ms on a 2-core x86_64 virtual machine."""
    return {cid: run_case(cid) for cid in (1, 2, 3)}


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
    runs (AbelEquation.row, NormalForm.sample and ReducedEquation
    coefficients all read one)."""
    calls = []
    original = CompiledRow.__call__
    monkeypatch.setattr(CompiledRow, "__call__",
                        lambda self, x: calls.append(x) or original(self, x))
    return calls

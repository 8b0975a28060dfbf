import sys
from pathlib import Path

# make the sibling oracles module importable from every test file
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from abelode import run_case


@pytest.fixture(scope="session")
def case_runs():
    """One shared pipeline run per case study; each takes about 60 ms
    on a 2-core x86_64 virtual machine."""
    return {cid: run_case(cid) for cid in (1, 2, 3)}

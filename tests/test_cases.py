import math

import numpy as np
import pytest

from abelode import cli, equilibrium
from abelode.cases import get_case, run_case
from abelode.core import AbelEquation
from abelode.equilibrium import BranchPoint, continue_branch
from abelode.hypotheses import verify
from abelode.radau import integrate
from abelode.rate import rate_bound

EXACT_LIMITS = {
    1: math.sqrt(2.0) - 1.0,
    2: (3.0 - math.sqrt(5.0)) / 2.0,
    3: 1.0,
}


class TestCatalog:
    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_exact_limits(self, cid):
        assert get_case(cid).exact_limit == pytest.approx(EXACT_LIMITS[cid], rel=1e-15)

    def test_start_points(self):
        assert get_case(1).x0 == 0.0
        assert get_case(2).x0 == 1.0
        assert get_case(3).x0 == 0.0

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_each_case_is_built_once(self, case_runs, cid):
        assert get_case(cid) is get_case(cid)
        assert case_runs[cid].case is get_case(cid)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            get_case(4)
        with pytest.raises(ValueError):
            get_case(0)

    def test_branch_grids(self):
        g1 = get_case(1).branch_grid(20.0)
        assert (g1.x_start, g1.x_end, g1.count, g1.spacing) == (0.0, 20.0, 2001, "linear")
        g2 = get_case(2).branch_grid(20.0)
        assert g2.spacing == "log"
        assert g2.x_start == pytest.approx(1.0 + 1e-3)
        assert g2.x_end >= 1e7  # far tail needed to see the limit
        g3 = get_case(3).branch_grid(20.0)
        assert g3.x_end >= 100.0

    def test_grid_stretches_with_requested_range(self):
        g = get_case(1).branch_grid(500.0)
        assert g.x_end == 500.0

    def test_reference_rows_monotone_in_x(self):
        rows = get_case(2).reference_results
        assert [r.x_max for r in rows] == sorted(r.x_max for r in rows)
        assert len(rows) >= 3


class TestRunCase:
    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_pipeline_completes(self, case_runs, cid):
        run = case_runs[cid]
        assert run.result.completed
        assert run.branch.ambiguous_count == 0
        assert run.gap == abs(run.result.final_y - run.case.exact_limit)

    def test_fast_case_hits_machine_level_gap(self, case_runs):
        assert case_runs[1].gap < 1e-12

    def test_slow_case_gap_tracks_reference_rows(self):
        # entrained by the slowly moving equilibrium, the gap shrinks like 1/x
        gaps = {}
        for row in get_case(2).reference_results:
            run = run_case(2, x_max=row.x_max)
            gaps[row.x_max] = run.gap
            assert abs(run.result.final_y - row.y_ref) <= 5e-6 + 1e-2 * row.gap_ref
            assert 0.5 * row.gap_ref <= run.gap <= 1.5 * row.gap_ref
        ratio = gaps[2000.0] / gaps[200000.0]
        assert ratio == pytest.approx(100.0, rel=0.1)

    def test_degenerate_start_is_scanned_for_coverage(self, case_runs):
        # the structural scan must include the x0 the branch steps away from
        report = case_runs[2].report
        assert report["A3"].status == "inconclusive"
        assert report["A3"].witness["worst_x"] == 1.0

    def test_saturating_case_decay_constant(self, case_runs):
        run = case_runs[3]
        assert run.gap <= 1e-7
        assert run.report["B2"].witness["alpha0"] == pytest.approx(1.0, abs=1e-6)

    def test_every_stage_runs_before_it_returns(self):
        run = run_case(1)
        assert {"nf", "_continued", "report", "result", "diagnostics"} <= vars(run).keys()

    def test_horizon_must_exceed_x0(self):
        with pytest.raises(ValueError, match=r"^x_max=0\.5 must exceed x0=1\.0$"):
            run_case(2, x_max=0.5)

    def test_determinism(self):
        a = run_case(1)
        b = run_case(1)
        assert a.result.final_y == b.result.final_y
        assert a.gap == b.gap
        assert list(a.result.xs) == list(b.result.xs)


def _count_calls(monkeypatch, owner, name, calls):
    """Record name in calls every time owner.name is called."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestArrayEvaluation:
    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_no_scalar_evaluation_outside_the_integrator(
            self, case_runs, cid, eval_calls, rows_sampled):
        # branch, hypotheses and rate bound read every coefficient as arrays
        # (no case refines its branch); only the integrator samples rows
        run = case_runs[cid]
        branch = continue_branch(run.nf, run.case.branch_grid())
        verify(run.nf, branch)
        rate_bound(run.nf, branch, run.result)
        assert rows_sampled == []
        assert eval_calls == []

    def test_one_grid_pass_per_table(self, monkeypatch, eval_calls, rows_sampled):
        # case 3's run evaluates the coefficient row once on the branch grid,
        # where the branch keeps a_n, Lambda and E' for B3 and branch.csv;
        # its rate bound evaluates the row once on the accepted points, and
        # Phi reads a_n and Lambda there from that reading and on the grid
        # from the branch: nothing else is evaluated
        calls = []
        compiled = vars(AbelEquation)["grid"]

        def counted(self):
            grid = compiled.__get__(self, AbelEquation)
            return lambda xs: calls.append(len(xs)) or grid(xs)

        monkeypatch.setattr(AbelEquation, "grid", property(counted))
        run = run_case(3)
        assert calls == [run.branch.xs.size]
        assert run.branch.refinements == 0
        calls.clear()
        rows_sampled.clear()
        bound = rate_bound(run.nf, run.branch, run.result)
        off_grid = int(np.count_nonzero(~np.isin(bound.xs, run.branch.xs)))
        assert (bound.xs.size, off_grid) == (34, 32)
        assert calls == [bound.xs.size]
        assert rows_sampled == [] and eval_calls == []

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_branch_isolates_its_table_in_one_call(self, case_runs, cid, monkeypatch):
        # the walk reads the one lockstep root table (no case refines its
        # branch, so no midpoint is isolated on its own)
        calls = []
        for name in ("_isolate_roots", "real_roots"):
            _count_calls(monkeypatch, equilibrium, name, calls)
        run = case_runs[cid]
        continue_branch(run.nf, run.case.branch_grid())
        assert calls == ["_isolate_roots"]

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_branch_bisects_each_distinct_row_once(self, case_runs, cid, monkeypatch):
        # each run of identical rows is isolated once, at every recursion
        # level: case 1's coefficients are constant, case 3's rows settle to
        # 348 distinct ones, and the derivative drops lambda_0, the only
        # coefficient that varies, so every case's derivative rows are one
        # row with at most 2 brackets (case 1: at most 5 brackets in all)
        brackets = []
        original, original_row = equilibrium._bisect, equilibrium._bisect_row

        def counted(cols, *args):
            brackets.append((len(cols) - 1, cols.shape[1]))
            return original(cols, *args)

        def counted_row(row, *args):
            brackets.append((len(row) - 1, 1))
            return original_row(row, *args)

        monkeypatch.setattr(equilibrium, "_bisect", counted)
        monkeypatch.setattr(equilibrium, "_bisect_row", counted_row)
        run = case_runs[cid]
        continue_branch(run.nf, run.case.branch_grid())
        cubic = sum(n for degree, n in brackets if degree == 3)
        derivative = sum(n for degree, n in brackets if degree < 3)
        assert derivative <= 2
        assert cubic <= {1: 3, 2: 3 * 2001, 3: 3 * 348}[cid]

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_no_branch_points_are_built(self, cid, monkeypatch, tmp_path):
        # the branch is arrays from continuation through the rate bound to
        # the files the case command writes; points are built only on request
        calls = []
        _count_calls(monkeypatch, BranchPoint, "__init__", calls)
        run = run_case(cid)
        rate_bound(run.nf, run.branch, run.result)
        assert cli.main(["case", str(cid), "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "branch.csv", "report.json", "trajectory.csv"]
        assert calls == []
        assert len(run.branch.points) == run.branch.xs.size and calls

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_integrator_samples_each_abscissa_once(self, cid, eval_calls, rows_sampled):
        # a step attempt is three stage solves, each of which samples the
        # coefficient row at its start and at each of its three stage
        # abscissae at most once, however many Newton iterations run; every
        # row comes from the compiled function, none from the tree walk
        equation = get_case(cid).equation
        result = integrate(equation, 0.0, 20.0)
        attempts = result.n_accepted + result.n_rejected
        assert result.completed and attempts > 0
        assert 0 < len(rows_sampled) <= 12 * attempts
        assert eval_calls == []

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_integrator_shares_rows_between_steps(self, cid, eval_calls, rows_sampled):
        # the full step and the first half step share the start row, the
        # second half step starts on the first one's last stage row, and the
        # full step's last stage row ends the second half step where
        # (x + h/2) + h/2 == x + h and starts the next attempt: at most nine
        # new rows per attempt plus the initial one
        equation = get_case(cid).equation
        result = integrate(equation, 0.0, 20.0)
        attempts = result.n_accepted + result.n_rejected
        assert result.completed and attempts > 0
        assert 0 < len(rows_sampled) <= 9 * attempts + 1
        assert eval_calls == []

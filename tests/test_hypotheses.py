import json

import numpy as np
import pytest

from abelode.core import build_equation, normalize
from abelode.equilibrium import BranchPoint, EquilibriumBranch, GridSpec, continue_branch
from abelode.hypotheses import (
    ALPHA_FLOOR,
    GRID_VERIFIED,
    check_asymptotic,
    check_structural,
    verify,
)

ALL_CHECKS = ("A1", "A2", "A3", "A4", "B1", "B2", "B3")


class TestCaseReports:
    @pytest.mark.parametrize("cid", [1, 3])
    def test_well_behaved_cases_pass_everything(self, case_runs, cid):
        report = case_runs[cid].report
        for check in ALL_CHECKS:
            assert report[check].status == "pass", check
        assert report.all_pass
        assert not report.has_fail

    def test_every_pass_is_labelled_as_sampling_only(self, case_runs):
        report = case_runs[1].report
        for check in ALL_CHECKS:
            assert report[check].note == GRID_VERIFIED
        assert report.note == GRID_VERIFIED

    def test_degenerate_left_endpoint_is_inconclusive_not_failed(self, case_runs):
        report = case_runs[2].report
        assert report["A3"].status == "inconclusive"
        assert report["A3"].witness["worst_x"] == 1.0
        assert not report.has_fail
        assert not report.all_pass

    def test_divergent_damping_reciprocal_is_inconclusive(self, case_runs):
        entry = case_runs[2].report["B3"]
        assert entry.status == "inconclusive"
        assert "overflow" in entry.note

    def test_positive_branch_witnesses(self, case_runs):
        report = case_runs[2].report
        assert report["A1"].witness["m"] == pytest.approx(1.0)
        assert report["B1"].witness["L"] == pytest.approx(0.3819660112501051, abs=1e-6)
        assert report["B2"].witness["alpha0"] > 0


class TestNegativeExample:
    def test_merging_roots_break_the_eigenvalue_margin(self):
        # a0 -> 1 as x grows, so the two positive roots collide at 1 and the
        # branch eigenvalue climbs to zero from below
        eq = build_equation(["x/(x+1)", "-1", "-1", "1"], 1.0)
        nf = normalize(eq)
        branch = continue_branch(nf, GridSpec(1.0, 1e17, 2001, "log"))
        report = verify(nf, branch)
        assert report["A4"].status in ("fail", "inconclusive")
        if report["A4"].status == "fail":
            assert report["A4"].witness["worst_x"] > 1e6  # deep in the tail
        # structure near the start is fine; only the tail is sick
        assert report["A1"].status == "pass"
        assert report["A2"].status == "pass"


class TestTable:
    def test_overflowing_normalized_coefficient_fails_a2(self):
        # lambda_0 = 1e200 / 1e-200 overflows to inf at every point; the
        # first branch point is the witness
        nf = normalize(build_equation(["1e200", "0", "0", "1e-200"], 1.0))
        grid = GridSpec(1.0, 2.0, 5, "linear")
        points = [BranchPoint(float(x), 1.0, -1.0) for x in grid.xs()]
        samples = [nf.sample(p.x) for p in points]
        branch = EquilibriumBranch(points, grid, None,
                                   leading=[an for an, _ in samples],
                                   rows=[row for _, row in samples])
        report = check_structural(nf, branch)
        assert report["A2"].status == "fail"
        assert report["A2"].witness == {"worst_x": 1.0}
        assert report["A1"].status == "pass"


class TestTailCoverage:
    def test_short_grid_cannot_certify_the_improper_integral(self):
        # same equation, two windows: the short one still carries >1% of the
        # drift integral in its last decade, so the verdict must stay open
        eq = build_equation(["3 - 2*exp(-2*x)", "-4", "0", "1"], 0.0)
        nf = normalize(eq)
        short = verify(nf, continue_branch(nf, GridSpec(0.0, 20.0, 2001, "linear")))
        long = verify(nf, continue_branch(nf, GridSpec(0.0, 100.0, 2001, "linear")))
        assert short["B3"].status == "inconclusive"
        assert "last decade" in short["B3"].note
        assert short["B3"].witness["tail_share"] > 0.01
        assert long["B3"].status == "pass"
        assert long["B3"].witness["tail_share"] < 0.01


class TestThresholds:
    def _flat_branch(self, eigenvalue):
        grid = GridSpec(0.0, 1.0, 5, "linear")
        points = [BranchPoint(x, 1.0, eigenvalue) for x in grid.xs()]
        samples = [self.nf.sample(p.x) for p in points]
        return EquilibriumBranch(points, grid, None,
                                 leading=[an for an, _ in samples],
                                 rows=[row for _, row in samples])

    def setup_method(self):
        self.nf = normalize(build_equation(["1", "-3", "1", "1"], 0.0))

    def test_eigenvalue_inside_floor_is_inconclusive(self):
        report = check_structural(self.nf, self._flat_branch(-0.5 * ALPHA_FLOOR))
        assert report["A4"].status == "inconclusive"

    def test_eigenvalue_below_floor_passes(self):
        report = check_structural(self.nf, self._flat_branch(-10.0 * ALPHA_FLOOR))
        assert report["A4"].status == "pass"
        assert report["A4"].witness["alpha0"] == pytest.approx(10.0 * ALPHA_FLOOR)

    def test_nonnegative_eigenvalue_fails(self):
        report = check_structural(self.nf, self._flat_branch(1e-3))
        assert report["A4"].status == "fail"

    def test_positive_decay_floor_reported(self, case_runs):
        b2 = case_runs[3].report["B2"]
        assert b2.status == "pass"
        assert b2.witness["alpha0"] == pytest.approx(1.0, abs=1e-6)


class TestReportPlumbing:
    def test_merged_combines_both_halves(self, case_runs):
        run = case_runs[1]
        structural = check_structural(run.nf, run.branch)
        asymptotic = check_asymptotic(run.nf, run.branch)
        merged = structural.merged(asymptotic)
        for check in ALL_CHECKS:
            assert merged[check] is not None

    def test_json_round_trip_and_ordering(self, case_runs):
        payload = json.loads(case_runs[1].report.to_json())
        assert sorted(payload.keys()) == ["checks", "grid", "note"]
        ids = [entry["id"] for entry in payload["checks"]]
        assert ids == sorted(ids)
        assert len(ids) == 7

    def test_json_is_deterministic(self, case_runs):
        assert case_runs[1].report.to_json() == case_runs[1].report.to_json()

    def test_table_mentions_every_check(self, case_runs):
        table = case_runs[2].report.format_table()
        for check in ALL_CHECKS:
            assert check in table
        assert "inconclusive" in table

import json
import math

import numpy as np
import pytest

from abelode.cases import Analysis, run_case
from abelode.core import build_equation, normalize
from abelode.equilibrium import EquilibriumBranch, GridSpec, continue_branch
from abelode.hypotheses import (
    ALPHA_FLOOR,
    B3_OVERFLOW,
    B3_PHI_RANGE,
    GRID_VERIFIED,
    check_asymptotic,
    check_structural,
    verify,
)
from abelode.radau import SolverConfig
from abelode.rate import damped_drift, rate_bound

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
        # the integral overflows float64; its last-decade share, taken in
        # log space, does not
        assert entry.witness == {"tail_share": 1.0}

    def test_positive_branch_witnesses(self, case_runs):
        report = case_runs[2].report
        assert report["A1"].witness["m"] == pytest.approx(1.0)
        assert report["B1"].witness["L"] == pytest.approx(0.3819660112501051, abs=1e-6)
        assert report["B2"].witness["alpha0"] > 0


class TestOneReportPerBranch:
    """verify(nf, branch) is the report the pipeline gives on that branch:
    A3's scan of x0, where the branch starts right of it, is check_structural's
    own rule."""

    @pytest.mark.parametrize("cid,x_max", [(1, None), (2, None), (3, None), (2, 2e5)])
    def test_verify_is_the_pipeline_report(self, cid, x_max):
        run = run_case(cid, x_max)
        assert verify(run.nf, run.branch).to_json() == run.report.to_json()

    def test_verify_is_the_config_pipeline_report(self):
        # case 2's equation as a config: its grid starts at x0 itself
        eq = build_equation(["1 - 1/x", "-2", "-2", "1"], 1.0)
        run = Analysis(eq, 0.0, 2e5, GridSpec(1.0, 2e5, 2001), SolverConfig())
        assert verify(run.nf, run.branch).to_json() == run.report.to_json()

    def test_branch_right_of_x0_scans_x0(self):
        # the branch does not cover x0 = 1, so the left end of the scan is
        # uncovered: inconclusive there, with no value to report
        nf = normalize(build_equation(["1 - 1/x", "-2", "-2", "1"], 1.0))
        report = check_structural(nf, continue_branch(nf, GridSpec(1.5, 3.0, 5)))
        assert report["A3"].status == "inconclusive"
        assert report["A3"].witness == {"worst_x": 1.0}
        assert report.grid_info["structural_start"] == 1.0
        assert report.grid_info["structural_count"] == 6


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
        xs = grid.xs()
        samples = [nf.sample(x) for x in xs.tolist()]
        branch = EquilibriumBranch(xs, np.ones(xs.size), np.full(xs.size, -1.0), grid,
                                   leading=[an for an, _ in samples],
                                   rows=[row for _, row in samples])
        report = check_structural(nf, branch)
        assert report["A2"].status == "fail"
        assert report["A2"].witness == {"worst_x": 1.0}
        assert report["A1"].status == "pass"


class TestHandBuiltVerdicts:
    """Verdicts that no bundled case reaches, on branches built by hand for
    y' = 1 - 3y + y^2 + y^3 on [0, 1]."""

    def _branch(self, values, eigenvalues):
        nf = normalize(build_equation(["1", "-3", "1", "1"], 0.0))
        grid = GridSpec(0.0, 1.0, len(values), "linear")
        samples = [nf.sample(x) for x in grid.xs().tolist()]
        return nf, EquilibriumBranch(grid.xs(), values, eigenvalues, grid,
                                     leading=[an for an, _ in samples],
                                     rows=[row for _, row in samples])

    def test_interior_point_without_positive_value_fails_a3(self):
        values = np.ones(5)
        values[2] = 0.0
        nf, branch = self._branch(values, np.full(5, -1.0))
        entry = check_structural(nf, branch)["A3"]
        assert entry.status == "fail"
        assert entry.witness == {"worst_x": 0.5, "worst_value": 0.0}
        assert entry.note == "no positive branch value at an interior grid point"

    def test_negative_limit_fails_b1(self):
        nf, branch = self._branch(np.full(20, -0.5), np.full(20, -1.0))
        entry = check_asymptotic(nf, branch)["B1"]
        assert entry.status == "fail"
        assert entry.witness == {"L": -0.5}
        assert entry.note == "tail limit not positive"

    def test_decay_floor_inside_the_threshold_leaves_b2_open(self):
        nf, branch = self._branch(np.ones(5), np.full(5, -0.5 * ALPHA_FLOOR))
        entry = check_asymptotic(nf, branch)["B2"]
        assert entry.status == "inconclusive"
        assert entry.witness == {"alpha0": 0.5 * ALPHA_FLOOR}
        assert entry.note == "decay floor below the resolvable threshold"


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


class TestSharedDrift:
    def test_b3_integral_is_the_kernel_drift_total(self, case_runs):
        # B3 and rate_bound read one log-space drift sum, each on its own
        # abscissae (the branch grid, the accepted points); bit for bit
        run = case_runs[3]
        _, log_drift = damped_drift(run.nf, run.branch, run.branch.xs)
        assert run.report["B3"].witness["B3_integral"] == math.exp(log_drift[-1])
        rb = rate_bound(run.nf, run.branch, run.result)
        _, log_drift = damped_drift(run.nf, run.branch, rb.xs)
        assert rb.B3_integral == math.exp(log_drift[-1])

    @pytest.mark.parametrize("a0,x_end", [
        # Phi ~ exp(-x) underflows near x = 745, and E' ~ exp(-x/4) is below
        # the finite difference's resolution from x = 89 on: the damped
        # drift Phi_N I_N falls below the normal floats
        ("3 - 2*exp(-x/4)", 3000.0),
        # E' is exactly 0 past x = 19, so the damped drift decays with Phi
        ("3 - 2*exp(-2*x)", 1000.0),
    ])
    def test_drift_lost_to_underflow_is_inconclusive(self, a0, x_end):
        # the total is lost, not zero and not an overflow to report a share of
        nf = normalize(build_equation([a0, "-4", "0", "1"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, x_end, 2001, "linear"))
        assert np.isfinite(damped_drift(nf, branch, branch.xs)[1]).any()
        entry = verify(nf, branch)["B3"]
        assert entry.status == "inconclusive"
        assert entry.witness == {}
        assert entry.note == B3_OVERFLOW

    def test_tail_share_is_a_share(self):
        # E' is exactly 0 past x = 19, so the last decade adds nothing; the
        # share read from the log sums is 0, not a rounding below it
        nf = normalize(build_equation(["3 - 2*exp(-2*x)", "-4", "0", "1"], 0.0))
        entry = verify(nf, continue_branch(nf, GridSpec(0.0, 700.0, 2001)))["B3"]
        assert entry.status == "pass"
        assert 0.0 <= entry.witness["tail_share"] <= 1.0

    def test_phi_growth_over_one_cell_wins_over_the_eigenvalue_note(self):
        # Phi stays below 1, but grows by about exp(9e6) over one tail cell
        # where Lambda turns positive; that is decided before E' is formed,
        # so it wins over the zero eigenvalue further on
        nf = normalize(build_equation(["x/(x+1)", "-1", "-1", "1"], 1.0))
        branch = continue_branch(nf, GridSpec(1.0, 1e17, 2001, "log"))
        entry = verify(nf, branch)["B3"]
        assert entry.status == "inconclusive"
        assert entry.witness == {}
        assert entry.note == B3_PHI_RANGE


class TestDomainEdge:
    def test_right_domain_edge_does_not_raise(self):
        # sqrt(1 - x) fails just right of x = 1, the last grid point; E = 1
        # there, and B3 gets a value instead of an ExprDomainError
        nf = normalize(build_equation(["3 + sqrt(1-x)", "-4 - sqrt(1-x)", "1"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, 1.0, 201))
        report = verify(nf, branch)
        assert "B3_integral" in report["B3"].witness
        assert report["A1"].status == "pass"

    def test_undefined_branch_derivative_is_inconclusive(self):
        # sqrt(-(x - 1)^2) evaluates at x = 1 only, so E' has no difference
        nf = normalize(build_equation(["sqrt(0 - (x - 1)^2) - 1", "1"], 1.0))
        branch = EquilibriumBranch([1.0, 2.0], [1.0, 1.0], [-1.0, -1.0],
                                   GridSpec(1.0, 2.0, 2),
                                   leading=[1.0, 1.0], rows=[[-1.0, 1.0], [-1.0, 1.0]])
        entry = check_asymptotic(nf, branch)["B3"]
        assert entry.status == "inconclusive"
        assert entry.note == ("branch derivative undefined at x=1.0: "
                              "the coefficients do not evaluate on either side")

    def test_zero_eigenvalue_note_wins_at_the_same_point(self):
        # both points are undefined; the first also has Lambda = 0
        nf = normalize(build_equation(["sqrt(0 - (x - 2)^2) - 1", "1"], 1.0))
        branch = EquilibriumBranch([1.0, 2.0], [1.0, 1.0], [0.0, -1.0],
                                   GridSpec(1.0, 2.0, 2),
                                   leading=[1.0, 1.0], rows=[[-1.0, 1.0], [-1.0, 1.0]])
        entry = check_asymptotic(nf, branch)["B3"]
        assert entry.note == "branch derivative undefined (zero eigenvalue) on the grid"


class TestThresholds:
    def _flat_branch(self, eigenvalue):
        grid = GridSpec(0.0, 1.0, 5, "linear")
        xs = grid.xs()
        samples = [self.nf.sample(x) for x in xs.tolist()]
        return EquilibriumBranch(xs, np.ones(xs.size), np.full(xs.size, eigenvalue), grid,
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

    def test_phi_past_the_float_range_is_inconclusive(self):
        # a_n Lambda = 4000: Phi grows by exp(1000) inside each cell
        entry = check_asymptotic(self.nf, self._flat_branch(4000.0))["B3"]
        assert entry.status == "inconclusive"
        assert entry.note == B3_PHI_RANGE

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

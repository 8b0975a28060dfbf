import json
import math

import numpy as np
import pytest

from abelode.cases import Analysis, run_case
from abelode.core import AbelEquation, build_equation, normalize
from abelode.equilibrium import EquilibriumBranch, GridSpec, branch_at, continue_branch
from abelode.expr import Expr
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


def _slopes(nf, xs, values, eigenvalues):
    """The slopes and undefined_slopes of a branch built by hand: E' from
    one fresh branch_at read at its points (where its chords are its own
    values and eigenvalues), as continue_branch stores it."""
    n = len(xs)
    bare = EquilibriumBranch(xs, values, eigenvalues, GridSpec(float(xs[0]), float(xs[-1]), n),
                             leading=np.ones(n), rows=np.ones((n, 1)), slopes=np.zeros(n),
                             undefined_slopes=np.zeros(n, dtype=bool))
    reading = branch_at(nf, bare, xs)
    return {"slopes": reading.slopes, "undefined_slopes": reading.undefined_slopes}

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
        values, eigenvalues = np.ones(xs.size), np.full(xs.size, -1.0)
        branch = EquilibriumBranch(xs, values, eigenvalues, grid,
                                   leading=[an for an, _ in samples],
                                   rows=[row for _, row in samples],
                                   **_slopes(nf, xs, values, eigenvalues))
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
                                     rows=[row for _, row in samples],
                                     **_slopes(nf, grid.xs(), values, eigenvalues))

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
        _, log_drift = damped_drift(run.branch, run.branch)
        assert run.report["B3"].witness["B3_integral"] == math.exp(log_drift[-1])
        rb = rate_bound(run.nf, run.branch, run.result)
        _, log_drift = damped_drift(run.branch, branch_at(run.nf, run.branch, rb.xs))
        assert rb.B3_integral == math.exp(log_drift[-1])

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_verify_evaluates_no_coefficient(self, case_runs, cid, monkeypatch):
        # every check reads the finished branch's table: with each way to
        # evaluate a coefficient refused, verify still gives its B3 entry
        def refuse(*args):
            raise AssertionError("a coefficient was evaluated")

        monkeypatch.setattr(AbelEquation, "grid", property(refuse))
        monkeypatch.setattr(AbelEquation, "row", property(refuse))
        monkeypatch.setattr(Expr, "eval", refuse)
        run = case_runs[cid]
        assert verify(run.nf, run.branch)["B3"] == run.report["B3"]

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
        assert np.isfinite(damped_drift(branch, branch)[1]).any()
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

    def test_log_phi_past_the_float_range_is_inconclusive(self):
        # a_n Lambda is about -17 on cells 5e304 wide: the trapezoid prefix sum
        # of log Phi overflows to -inf, which is refused (with no numpy
        # warning) before E' is formed, as a Phi past the float range is
        nf = normalize(build_equation(["10", "-30", "10", "10"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, 1e308, 2001))
        entry = verify(nf, branch)["B3"]
        assert (entry.status, entry.witness, entry.note) == ("inconclusive", {}, B3_PHI_RANGE)
        with pytest.raises(OverflowError):
            damped_drift(branch, branch)


class TestDomainEdge:
    def test_right_domain_edge_does_not_raise(self):
        # (1 - x)^1.5 fails just right of x = 1, the last grid point, and
        # its slope is finite there; E = 1, and B3 gets a value instead of an
        # ExprDomainError, as nothing past the edge is evaluated
        nf = normalize(build_equation(["3 + (1-x)^1.5", "-4 - (1-x)^1.5", "1"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, 1.0, 201))
        report = verify(nf, branch)
        assert "B3_integral" in report["B3"].witness
        assert report["A1"].status == "pass"

    def test_infinite_coefficient_slope_at_the_edge_is_inconclusive(self):
        # sqrt(1 - x) has an infinite slope at x = 1, so E' is undefined there
        # and B3 names that point
        nf = normalize(build_equation(["3 + sqrt(1-x)", "-4 - sqrt(1-x)", "1"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, 1.0, 201))
        entry = verify(nf, branch)["B3"]
        assert entry.status == "inconclusive"
        assert entry.note == ("branch derivative undefined at x=1.0: "
                              "a coefficient or its x-derivative does not evaluate there")

    def test_undefined_branch_derivative_is_inconclusive(self):
        # sqrt(-(x - 1)^2) evaluates at x = 1 only, where its slope is infinite
        nf = normalize(build_equation(["sqrt(0 - (x - 1)^2) - 1", "1"], 1.0))
        branch = EquilibriumBranch([1.0, 2.0], [1.0, 1.0], [-1.0, -1.0],
                                   GridSpec(1.0, 2.0, 2),
                                   leading=[1.0, 1.0], rows=[[-1.0, 1.0], [-1.0, 1.0]],
                                   **_slopes(nf, [1.0, 2.0], [1.0, 1.0], [-1.0, -1.0]))
        assert branch.undefined_slopes.tolist() == [True, True]
        entry = check_asymptotic(nf, branch)["B3"]
        assert entry.status == "inconclusive"
        assert entry.note == ("branch derivative undefined at x=1.0: "
                              "a coefficient or its x-derivative does not evaluate there")

    def test_vanishing_leading_coefficient_is_inconclusive(self):
        # continuation refuses a_n = 0 at a grid point; a branch built by
        # hand with one there gets B3's note naming it, not an exception
        nf = normalize(build_equation(["-1", "2*x - 3"], 1.0))
        branch = EquilibriumBranch([1.0, 1.5], [1.0, 1.0], [-1.0, -1.0],
                                   GridSpec(1.0, 1.5, 2),
                                   leading=[-1.0, 0.0], rows=[[-1.0, 1.0], [-1.0, 1.0]],
                                   **_slopes(nf, [1.0, 1.5], [1.0, 1.0], [-1.0, -1.0]))
        assert branch.undefined_slopes.tolist() == [False, True]
        report = verify(nf, branch)
        assert report["A1"].status == "fail"
        assert (report["B3"].status, report["B3"].note) == (
            "inconclusive", "leading coefficient a1 vanishes at x=1.5")

    def test_zero_eigenvalue_note_wins_at_the_same_point(self):
        # both points are undefined; the first also has Lambda = 0
        nf = normalize(build_equation(["sqrt(0 - (x - 2)^2) - 1", "1"], 1.0))
        branch = EquilibriumBranch([1.0, 2.0], [1.0, 1.0], [0.0, -1.0],
                                   GridSpec(1.0, 2.0, 2),
                                   leading=[1.0, 1.0], rows=[[-1.0, 1.0], [-1.0, 1.0]],
                                   **_slopes(nf, [1.0, 2.0], [1.0, 1.0], [0.0, -1.0]))
        assert branch.undefined_slopes.tolist() == [True, True]
        entry = check_asymptotic(nf, branch)["B3"]
        assert entry.note == "branch derivative undefined (zero eigenvalue) on the grid"


class TestThresholds:
    def _flat_branch(self, eigenvalue):
        grid = GridSpec(0.0, 1.0, 5, "linear")
        xs = grid.xs()
        samples = [self.nf.sample(x) for x in xs.tolist()]
        values, eigenvalues = np.ones(xs.size), np.full(xs.size, eigenvalue)
        return EquilibriumBranch(xs, values, eigenvalues, grid,
                                 leading=[an for an, _ in samples],
                                 rows=[row for _, row in samples],
                                 **_slopes(self.nf, xs, values, eigenvalues))

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


#: relative tolerance on L and alpha0 when every coefficient is scaled by c:
#: the monic form absorbs c up to one rounding of each lambda_k = (c a_k) /
#: (c a_n); fixed before the first run
SCALE_TOL = 1e-14

#: tolerances under a shift of x by s: each grid point x_i - s is off the
#: unshifted one by about an ulp of s + 100 (1.2e-10 at s = 1e6), which
#: moves E by |E'| times that, with |E'| <= 4 / |Lambda| and |Lambda| near 1;
#: the tail holds E = 1 to its last bits; fixed before the first run
SHIFT_E_TOL = 1e-8
SHIFT_L_TOL = 1e-12
#: B3's tail share across a shift of x, relative; fixed before the first run
SHIFT_B3_TOL = 1e-9


def _run_report(sources, grid):
    nf = normalize(build_equation(sources, grid.x_start))
    branch = continue_branch(nf, grid)
    return branch, verify(nf, branch)


class TestMetamorphic:
    """Changes of variable that the verdicts must not see."""

    @pytest.mark.parametrize("c", [1e-9, 1e-13, 1e-300])
    def test_scaling_every_coefficient(self, c):
        # case 1 with every a_k times c, run to 20 / c: x scales by 1 / c
        case1 = (1.0, -3.0, 1.0, 1.0)
        _, base = _run_report([repr(a) for a in case1], GridSpec(0.0, 20.0, 2001))
        _, scaled = _run_report([repr(c * a) for a in case1], GridSpec(0.0, 20.0 / c, 2001))
        ids = sorted(base.entries)
        assert len(ids) == 7
        assert [scaled[k].status for k in ids] == [base[k].status for k in ids]
        for key, name in (("B1", "L"), ("B2", "alpha0")):
            assert scaled[key].witness[name] == pytest.approx(base[key].witness[name],
                                                              rel=SCALE_TOL)

    @pytest.mark.parametrize("s", [1.0, 1e3, 1e6])
    def test_shifting_x(self, s):
        # case 3 as 3 - 2 exp(-2 (x - s)) on [s, s + 100]
        source = "3 - 2*exp(-2*(x - {!r}))"
        base_branch, base = _run_report([source.format(0.0), "-4", "0", "1"],
                                        GridSpec(0.0, 100.0, 2001))
        branch, shifted = _run_report([source.format(s), "-4", "0", "1"],
                                      GridSpec(s, s + 100.0, 2001))
        ids = ["A1", "A2", "A3", "A4", "B1", "B2", "B3"]
        assert [shifted[k].status for k in ids] == [base[k].status for k in ids]
        assert shifted["B1"].witness["L"] == pytest.approx(base["B1"].witness["L"],
                                                           rel=SHIFT_L_TOL)
        assert shifted["B3"].witness["tail_share"] == pytest.approx(
            base["B3"].witness["tail_share"], rel=SHIFT_B3_TOL)
        assert branch.values.shape == base_branch.values.shape
        assert np.abs(branch.values - base_branch.values).max() <= SHIFT_E_TOL

    def test_tail_window_of_a_grid_left_of_zero(self):
        # case 2's equation shifted by -2999 onto [-2998.999, -1000]: the
        # window starts a tenth into the grid, as it does unshifted on
        # [1.001, 2000], where the 1/x tail leaves B3 inconclusive (a window
        # at x_end / 10 = -100 would lie right of the grid and pass it)
        rest = ["-2", "-2", "1"]
        _, base = _run_report(["1 - 1/x", *rest], GridSpec(1.001, 2000.0, 2001))
        _, shifted = _run_report(["1 - 1/(x + 3000)", *rest],
                                 GridSpec(-2998.999, -1000.0, 2001))
        assert base["B3"].status == shifted["B3"].status == "inconclusive"
        assert shifted["B3"].witness["tail_share"] == base["B3"].witness["tail_share"] == 1.0

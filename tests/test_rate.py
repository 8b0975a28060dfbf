import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import log_damped_trapezoid, taylor_power_sum

from abelode import get_case, run_case
from abelode.core import SolverConfig, build_equation, normalize
from abelode.equilibrium import (BranchPoint, EquilibriumBranch, GridSpec, branch_slopes,
                                 continue_branch)
from abelode.hypotheses import verify
from abelode.radau import integrate
from abelode.rate import _log_cumtrapz, diagnose, log_phi, rate_bound, remainder_constant


class TestPhi:
    def test_constant_damping_is_pure_exponential(self, case_runs):
        run = case_runs[1]
        rate = run.branch.eigenvalues[0]  # flat branch: a_n * Lambda constant
        xs = np.array([0.5, 5.0, 17.3])
        assert np.exp(log_phi(run.nf, run.branch, xs)) == pytest.approx(
            np.exp(rate * xs), rel=1e-9)

    def test_starts_at_one_and_decreases(self, case_runs):
        run = case_runs[3]
        assert log_phi(run.nf, run.branch, [run.branch.x_start]).tolist() == [0.0]
        values = np.exp(log_phi(run.nf, run.branch, [1.0, 2.0, 5.0, 10.0]))
        assert (values[1:] < values[:-1]).all()

    def test_restart_point_shifts_normalization(self, case_runs):
        # additive: the integral to 10 is the one to 4 plus the one over the
        # same branch restarted at the grid point 4
        run = case_runs[1]
        branch = run.branch
        at = int(np.searchsorted(branch.xs, 4.0))
        restarted = dataclasses.replace(
            branch, xs=branch.xs[at:], values=branch.values[at:],
            eigenvalues=branch.eigenvalues[at:], leading=branch.leading[at:],
            rows=branch.rows[at:], slopes=branch.slopes[at:],
            undefined_slopes=branch.undefined_slopes[at:])
        head, full = log_phi(run.nf, branch, [4.0, 10.0])
        tail = log_phi(run.nf, restarted, [10.0])[0]
        assert head + tail == pytest.approx(full, rel=1e-10)

    def test_out_of_range_message_prints_plain_floats(self, case_runs):
        run = case_runs[3]
        with pytest.raises(ValueError) as info:
            log_phi(run.nf, run.branch, [-1.0, 5.0])
        assert str(info.value) == "x=-1.0 outside the branch range [0.0, 100.0]"

    def test_cell_midpoints_near_the_largest_float(self, case_runs):
        # 0.5 * (a + b) overflows from cell 1798 of this grid on, and in the
        # partial cell of the last x; 0.5 * a + 0.5 * b does not (a
        # RuntimeWarning fails the test)
        nf = case_runs[1].nf
        branch = continue_branch(nf, GridSpec(0.0, 1e308, 2001))
        assert verify(nf, branch).entries["B3"].status == "pass"
        assert np.exp(log_phi(nf, branch, [0.99995e308])).tolist() == [0.0]


@st.composite
def damped_sums(draw):
    """(values, xs, log_phi) for the log-space trapezoid kernel: exact zeros
    and a run of them among the values, zero-width cells, and log Phi in
    [-800, 800], where Phi and Phi^{-1} leave the float range."""
    n = draw(st.integers(2, 40))
    values = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=n, max_size=n)))
    start = draw(st.integers(0, n))
    values[start:start + draw(st.integers(0, n))] = 0.0
    widths = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                           min_size=n - 1, max_size=n - 1))
    xs = draw(st.floats(-50.0, 50.0)) + np.concatenate(([0.0], np.cumsum(widths)))
    log_phi = np.array(draw(st.lists(st.floats(-800.0, 800.0), min_size=n, max_size=n)))
    return values, xs, log_phi


class TestLogCumtrapz:
    @settings(max_examples=200, deadline=None)
    @given(inputs=damped_sums())
    # a zero-width cell between a zero and a nonzero value adds nothing
    @example(inputs=(np.array([0.0, 0.0, 5.0, 5.0, 0.0]),
                     np.array([0.0, 1.0, 1.0, 2.0, 3.0]), np.zeros(5)))
    def test_matches_the_trapezoid_sum_at_50_digits(self, inputs):
        values, xs, log_phi = inputs
        got = _log_cumtrapz(values, xs, log_phi)
        want = log_damped_trapezoid(values, xs, log_phi)
        assert got[0] == -math.inf  # I_0 = 0 exactly
        assert (got[1:] >= got[:-1]).all()  # the sums never decrease
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        # each of the n accumulation steps rounds at most a few units in the
        # last place of the magnitudes it adds: the terms log v - log Phi
        # and the running log sum
        finite = np.isfinite(want)
        scale = (np.abs(log_phi).max() + np.abs(np.log(values[values > 0.0])).max(initial=0.0)
                 + np.abs(want[finite]).max(initial=0.0))
        unit_roundoff = np.finfo(float).eps / 2.0
        tol = 1e-12 + 4.0 * xs.size * unit_roundoff * scale
        assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= tol


class TestRemainderConstant:
    def test_flat_branch_closed_form(self, case_runs):
        # lambda = (1, -3, 1): the worst curvature ratio works out to 4*sqrt(2)-3
        got = remainder_constant(case_runs[1].branch)
        assert got == pytest.approx(4.0 * math.sqrt(2.0) - 3.0, rel=1e-10)

    def test_saturating_branch_closed_form(self, case_runs):
        got = remainder_constant(case_runs[3].branch)
        assert got == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("degree", [3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_power_sum_oracle(self, degree, seed):
        # oracle: C_R = max over points of sum_{k>=2} |t_k| M_E^(k-2), with
        # t_k = sum_j C(j,k) lambda_j E^(j-k) summed term by term; the two
        # summation orders may differ by rounding relative to the sum of
        # absolute terms, so that is the scale of the 1e-12 tolerance
        rng = np.random.default_rng(seed)
        # a_k(x) = p_k + q_k x; a_n stays positive for x >= 0
        pairs = [(float(rng.uniform(-3, 3)), float(rng.uniform(-1, 1)))
                 for _ in range(degree)]
        pairs.append((float(rng.uniform(1, 3)), float(rng.uniform(0, 1))))
        eq = build_equation([f"({p!r}) + ({q!r})*x" for p, q in pairs], 0.0)
        xs = np.linspace(0.0, 5.0, 7)
        points = [BranchPoint(float(x), float(rng.uniform(0.1, 2.0)), -1.0) for x in xs]
        nf = normalize(eq)
        samples = [nf.sample(p.x) for p in points]
        values, eigenvalues = [p.E for p in points], [p.Lambda for p in points]
        e_prime, undefined = branch_slopes(nf, xs, values, eigenvalues)
        branch = EquilibriumBranch(xs, values, eigenvalues, GridSpec(0.0, 5.0, 7),
                                   leading=[an for an, _ in samples],
                                   rows=[row for _, row in samples],
                                   slopes=e_prime, undefined_slopes=undefined)
        m_e = max(p.E for p in points)
        want, scale = 0.0, 0.0
        for point in points:
            a = [p + q * point.x for p, q in pairs]
            lams = [c / a[-1] for c in a[:-1]] + [1.0]
            values, scales = taylor_power_sum(lams, point.E)
            want = max(want, sum(abs(values[k]) * m_e ** (k - 2)
                                 for k in range(2, degree + 1)))
            scale = max(scale, sum(scales[k] * m_e ** (k - 2)
                                   for k in range(2, degree + 1)))
        got = remainder_constant(branch)
        assert abs(got - want) <= 1e-12 * scale


class TestRateBound:
    @pytest.mark.parametrize("cid,x_max", [
        pytest.param(1, None, id="1"),
        pytest.param(3, None, id="3"),
        pytest.param(2, None, id="2"),
        pytest.param(2, 2000.0, id="2-2000"),
        pytest.param(2, 2e5, id="2-2e5"),  # Phi underflows to 0 in the tail
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bound_dominates_true_deviation(self, case_runs, cid, x_max):
        run = case_runs[cid] if x_max is None else run_case(cid, x_max)
        rb = rate_bound(run.nf, run.branch, run.result)
        # the bound covers the accepted points inside the branch range (all
        # of them except x = 1 for case 2, whose branch starts at 1.001)
        xs = np.asarray(run.result.xs)
        covered = (xs >= run.branch.x_start) & (xs <= run.branch.x_end)
        deviation = np.abs(np.asarray(run.result.ys)[covered]
                           - run.branch.interp_E(xs[covered]))
        assert np.isfinite(rb.bound).all()
        margin = np.asarray(rb.bound) - deviation
        assert margin.min() >= 0.0

    @pytest.mark.parametrize("batch", [0, 1, 2])
    def test_bound_dominates_on_generated_families(self, stiff_inputs, batch):
        # equations whose branch and limit are known by construction
        # (perfbench/inputs.py); the allowance 4 eps max(|y|, E) for the
        # rounding of y - E and of the bound's sum was fixed before the
        # first run
        config = SolverConfig(atol=1e-11, rtol=1e-11)
        for generated in stiff_inputs.stiff_equations(901, batch):
            equation = build_equation(list(generated.coefficients), 0.0)
            nf = normalize(equation)
            result = integrate(equation, 0.0, generated.x_end, config)
            assert result.completed, result.message
            branch = continue_branch(nf, GridSpec(0.0, generated.x_end, 2001))
            rb = rate_bound(nf, branch, result)
            ys, es = result.ys[branch.covers(result.xs)], branch.interp_E(rb.xs)
            assert np.isfinite(rb.bound).all()
            slack = 4.0 * np.finfo(float).eps * np.maximum(np.abs(ys), es)
            assert (rb.bound >= np.abs(ys - es) - slack).all()

    def test_right_domain_edge(self):
        # (1 - x)^1.5 fails just right of x = 1, where the trajectory ends,
        # and its slope is finite there; nothing past the edge is evaluated
        eq = build_equation(["3 + (1-x)^1.5", "-4 - (1-x)^1.5", "1"], 0.0)
        nf = normalize(eq)
        branch = continue_branch(nf, GridSpec(0.0, 1.0, 201))
        rb = rate_bound(nf, branch, integrate(eq, 0.0, 1.0))
        assert rb.xs[-1] == 1.0
        assert np.isfinite(rb.bound).all()

    def test_trajectory_outside_the_branch_is_refused(self):
        eq = build_equation(["1", "-3", "1", "1"], 0.0)
        nf = normalize(eq)
        branch = continue_branch(nf, GridSpec(30.0, 40.0, 11))
        with pytest.raises(ValueError,
                           match="^trajectory and branch share fewer than two points$"):
            rate_bound(nf, branch, integrate(eq, 0.0, 20.0))

    def test_initial_bound_is_initial_gap(self, case_runs):
        run = case_runs[1]
        rb = rate_bound(run.nf, run.branch, run.result)
        assert rb.Phi[0] == 1.0
        assert rb.bound[0] == pytest.approx(run.branch.values[0], rel=1e-12)

    def test_flat_branch_has_zero_drift_integral(self, case_runs):
        rb = rate_bound(case_runs[1].nf, case_runs[1].branch, case_runs[1].result)
        assert rb.B3_integral == 0.0

    def test_reported_constants(self, case_runs):
        rb1 = rate_bound(case_runs[1].nf, case_runs[1].branch, case_runs[1].result)
        rb3 = rate_bound(case_runs[3].nf, case_runs[3].branch, case_runs[3].result)
        assert rb1.M_E == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
        assert rb3.M_E == pytest.approx(1.0, rel=1e-10)
        assert rb1.C_R == pytest.approx(4.0 * math.sqrt(2.0) - 3.0, rel=1e-10)


class TestDiagnose:
    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_trapping_and_monotonicity_hold(self, case_runs, cid):
        d = case_runs[cid].diagnostics
        assert d.trapping_ok
        assert d.monotone_ok
        assert d.max_violation <= 0.0 or d.max_violation < 1e-7

    def test_plateau_detection(self, case_runs):
        assert case_runs[1].diagnostics.converged
        assert case_runs[1].diagnostics.L_numeric == pytest.approx(
            math.sqrt(2.0) - 1.0, abs=1e-9)
        # the slow case is honest about still drifting at x = 20
        assert not case_runs[2].diagnostics.converged

    def test_run_that_never_advanced_has_not_converged(self):
        # every step falls below h_min at x0: the run ends with no accepted
        # step, and an empty plateau window used to read as converged
        result = integrate(get_case(1).equation, 0.0, 20.0,
                           SolverConfig(atol=1e-300, rtol=0.0, h_min=0.015))
        assert result.status == "step-failure" and result.n_accepted == 0
        d = diagnose(result, None)
        assert not d.converged
        assert d.L_numeric == 0.0

    def test_branchless_diagnosis_checks_lower_barrier_only(self, case_runs):
        d = diagnose(case_runs[1].result, None)
        assert d.trapping_ok
        assert d.L_numeric == case_runs[1].result.final_y

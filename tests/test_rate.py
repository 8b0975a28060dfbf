import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import log_damped_trapezoid, simpson_log_phi, taylor_power_sum

from abelode import get_case, rate, run_case
from abelode.core import LeadingCoefficientError, SolverConfig, build_equation, normalize
from abelode.equilibrium import (BranchPoint, BranchReading, EquilibriumBranch, GridSpec,
                                 branch_at, continue_branch)
from abelode.expr import compile_dual
from abelode.hypotheses import verify
from abelode.radau import integrate
from abelode.rate import (_log_cumtrapz, damped_drift, diagnose, log_phi, rate_bound,
                          remainder_constant)


class TestPhi:
    def test_constant_damping_is_pure_exponential(self, case_runs):
        run = case_runs[1]
        rate = run.branch.eigenvalues[0]  # flat branch: a_n * Lambda constant
        xs = np.array([0.5, 5.0, 17.3])
        points = branch_at(run.nf, run.branch, xs)
        assert np.exp(log_phi(run.branch, points)) == pytest.approx(
            np.exp(rate * xs), rel=1e-9)

    def test_starts_at_one_and_decreases(self, case_runs):
        run = case_runs[3]
        start = branch_at(run.nf, run.branch, [run.branch.x_start])
        assert log_phi(run.branch, start).tolist() == [0.0]
        points = branch_at(run.nf, run.branch, [1.0, 2.0, 5.0, 10.0])
        values = np.exp(log_phi(run.branch, points))
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
        head, full = log_phi(branch, branch_at(run.nf, branch, [4.0, 10.0]))
        tail = log_phi(restarted, branch_at(run.nf, restarted, [10.0]))[0]
        assert head + tail == pytest.approx(full, rel=1e-10)

    def test_out_of_range_message_prints_plain_floats(self, case_runs):
        run = case_runs[3]
        with pytest.raises(ValueError) as info:
            branch_at(run.nf, run.branch, [-1.0, 5.0])
        assert str(info.value) == "x=-1.0 outside the branch range [0.0, 100.0]"

    def test_cell_midpoints_near_the_largest_float(self, case_runs):
        # log_phi forms no cell midpoint, whose 0.5 * (a + b) would overflow
        # from cell 1798 of this grid on and in the partial cell of the last
        # x; the halved widths (x_{i+1} - x_i) / 2 and (x - x_i) / 2 stay in
        # the floats (a RuntimeWarning fails the test)
        nf = case_runs[1].nf
        branch = continue_branch(nf, GridSpec(0.0, 1e308, 2001))
        assert verify(nf, branch).entries["B3"].status == "pass"
        points = branch_at(nf, branch, [0.99995e308])
        assert np.exp(log_phi(branch, points)).tolist() == [0.0]

    @pytest.mark.parametrize("cid,x_max", [(1, None), (2, None), (3, None), (2, 2e5)])
    def test_prefix_read_at_the_branch_is_the_general_read(self, cid, x_max, monkeypatch):
        # B3 reads log Phi at the branch itself, which returns the prefix
        # sums: the bytes the general read gives at a BranchReading of the
        # branch's own arrays; verify's report is the one it gives when
        # every read takes the general path
        run = run_case(cid, x_max)
        _assert_prefix_read(run.nf, run.branch, monkeypatch)

    def test_prefix_read_with_a_repeated_abscissa(self, case_runs, monkeypatch):
        # a span that holds fewer floats than the grid has points repeats
        # abscissae; and a hand-built branch whose first cell has zero width
        # and a_n Lambda < 0, where the general read gives -0.0 at the first
        # point (the prefix at the last copy of x_0)
        nf = case_runs[1].nf
        branch = continue_branch(nf, GridSpec(1.0, 1.0 + 4 * 2.0 ** -52, 9))
        assert (np.diff(branch.xs) == 0.0).any()
        _assert_prefix_read(nf, branch, monkeypatch)
        nf = normalize(build_equation(["1", "-1"], 1.0))
        branch = EquilibriumBranch([1.0, 1.0, 2.0], [1.0] * 3, [1.0] * 3, GridSpec(1.0, 2.0, 3),
                                   leading=[-1.0] * 3, rows=[[-1.0, 1.0]] * 3,
                                   slopes=[0.0] * 3, undefined_slopes=[False] * 3)
        assert math.copysign(1.0, log_phi(branch, branch)[0]) == -1.0
        _assert_prefix_read(nf, branch, monkeypatch)

    def test_trapezoid_error_within_its_a_priori_bound(self):
        # a_n = 1/(1+x) and the monic rows of case 1: Lambda is constant
        # and log Phi = Lambda ln(1+x).  The trapezoid rule's error is
        # h^2/12 (f'(x) - f'(0)) - h^4/720 (f'''(x) - f'''(0)) + ... for
        # f = Lambda / (1+s), so it lies within |Lambda| h^2/12 (1 - (1+x)^-2)
        # by about h^2/5 = 2e-5 of it; the allowance factor 1 + 1e-6 covers
        # the prefix sum's rounding, at most 2,000 eps |log Phi| < 1e-12,
        # which is below 1e-7 of the bound at every x >= h (fixed before the
        # first run)
        nf = normalize(build_equation(["1/(1+x)", "-3/(1+x)", "1/(1+x)", "1/(1+x)"], 0.0))
        branch = continue_branch(nf, GridSpec(0.0, 20.0, 2001))
        lam, h, xs = branch.eigenvalues[0], 0.01, branch.xs
        assert np.abs(branch.eigenvalues - lam).max() <= 4 * np.finfo(float).eps * abs(lam)
        bound = abs(lam) * h * h / 12.0 * (1.0 - (1.0 + xs) ** -2.0)
        error = np.abs(log_phi(branch, branch) - lam * np.log1p(xs))
        assert (error <= (1.0 + 1e-6) * bound).all()
        assert error[-1] >= 0.5 * bound[-1]  # second order: the rule is not Simpson's

    @pytest.mark.parametrize("cid,x_max", [(1, None), (2, None), (3, None), (2, 2e5)])
    def test_cases_match_the_simpson_reference(self, cid, x_max):
        # no case's a_n has x, so Simpson with a_n at the cell midpoints
        # and the chord Lambda gives the trapezoid sum up to rounding: the
        # branch grid and the accepted points the rate bound reads
        run = run_case(cid, x_max)
        points = branch_at(run.nf, run.branch, run.result.xs[run.branch.covers(run.result.xs)])
        _assert_simpson_reference(run.nf, run.branch, points)

    @pytest.mark.parametrize("batch", [0, 1, 2])
    def test_generated_families_match_the_simpson_reference(self, stiff_inputs, batch):
        # the 72 equations of stiff_equations(901, 0..2), whose a_n has no
        # x, on GridSpec(0, x_end, 2001): the grid and a point 0.3 into
        # every cell; |log Phi| reaches about 1e5 on them
        for generated in stiff_inputs.stiff_equations(901, batch):
            nf = normalize(build_equation(list(generated.coefficients), 0.0))
            branch = continue_branch(nf, GridSpec(0.0, generated.x_end, 2001))
            xs = branch.xs[:-1] + 0.3 * np.diff(branch.xs)
            _assert_simpson_reference(nf, branch, branch_at(nf, branch, xs))

    def test_vanishing_leading_coefficient_is_named(self):
        # a_1 = 2x - 3 vanishes at 1.5, where every coefficient evaluates:
        # damped_drift names it as NormalForm.sample does, not as an
        # undefined E'
        nf = normalize(build_equation(["-1", "2*x - 3"], 1.0))
        branch = EquilibriumBranch([1.0, 2.0], [1.0, 1.0], [-1.0, -1.0], GridSpec(1.0, 2.0, 2),
                                   leading=[-1.0, 1.0], rows=[[-1.0, 1.0], [-1.0, 1.0]],
                                   slopes=[0.0, 0.0], undefined_slopes=[False, False])
        message = r"^leading coefficient a1 vanishes at x=1\.5$"
        with pytest.raises(LeadingCoefficientError, match=message):
            nf.sample(1.5)
        with pytest.raises(LeadingCoefficientError, match=message) as err:
            damped_drift(branch, branch_at(nf, branch, [1.25, 1.5, 1.75]))
        assert (err.value.degree, err.value.x) == (1, 1.5)


def _own_reading(branch):
    """A BranchReading made of the branch's own arrays."""
    return BranchReading(branch.xs, branch.leading, branch.values, branch.eigenvalues,
                         branch.slopes, branch.undefined_slopes)


def _assert_prefix_read(nf, branch, monkeypatch):
    """log_phi and damped_drift at the branch itself give the bytes they
    give at _own_reading of it, and so does verify with log_phi patched to
    read every branch through _own_reading."""
    reading = _own_reading(branch)
    assert log_phi(branch, branch).tobytes() == log_phi(branch, reading).tobytes()
    for at_branch, at_reading in zip(damped_drift(branch, branch), damped_drift(branch, reading)):
        assert at_branch.tobytes() == at_reading.tobytes()
    report = verify(nf, branch).to_json()
    general = rate.log_phi
    monkeypatch.setattr(rate, "log_phi", lambda branch, points: general(
        branch, _own_reading(branch) if points is branch else points))
    assert verify(nf, branch).to_json() == report
    monkeypatch.undo()


#: log Phi against the frozen Simpson reference, relative to max(1, |log
#: Phi|): a few roundings of each of 2,000 cell terms; fixed before the
#: first run
SIMPSON_TOL = 1e-12


def _assert_simpson_reference(nf, branch, points):
    """log_phi on the branch itself and at points within SIMPSON_TOL of
    oracles.simpson_log_phi."""
    for at in (branch, points):
        want = simpson_log_phi(branch.xs, branch.leading, branch.eigenvalues,
                               lambda xs: compile_dual([nf.equation.leading])(xs)[0][0],
                               (at.xs, at.leading, at.eigenvalues))
        got = log_phi(branch, at)
        assert np.isfinite(want).all()
        assert (np.abs(got - want) <= SIMPSON_TOL * np.maximum(1.0, np.abs(want))).all()


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
        bare = EquilibriumBranch(xs, values, eigenvalues, GridSpec(0.0, 5.0, 7),
                                 leading=[an for an, _ in samples],
                                 rows=[row for _, row in samples],
                                 slopes=np.zeros(7), undefined_slopes=np.zeros(7, dtype=bool))
        reading = branch_at(nf, bare, xs)
        branch = dataclasses.replace(bare, slopes=reading.slopes,
                                     undefined_slopes=reading.undefined_slopes)
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
        assert math.isnan(d.L_numeric)

    def test_run_stopped_early_reports_no_plateau(self, case_runs):
        # case 1 stopped after one step ends at y = 0.0194, far from the
        # plateau 0.414 the completed run finds
        result = integrate(get_case(1).equation, 0.0, 20.0, SolverConfig(max_steps=1))
        assert result.status == "step-failure" and 0.0 < result.final_y < 0.1
        for branch in (None, case_runs[1].branch):
            d = diagnose(result, branch)
            assert math.isnan(d.L_numeric) and not d.converged

    def test_branchless_diagnosis_checks_lower_barrier_only(self, case_runs):
        d = diagnose(case_runs[1].result, None)
        assert d.trapping_ok
        assert d.L_numeric == case_runs[1].result.final_y

import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import ReferenceNewtonFailure, reference_attempt, reference_integrate, scipy_radau

from abelode import radau
from abelode.cases import get_case
from abelode.core import build_equation
from abelode.expr import ExprDomainError
from abelode.radau import (
    IntegrationResult,
    NewtonFailure,
    OrderTestError,
    SolverConfig,
    _newton_inverse,
    empirical_order,
    integrate,
    integrate_fixed_rhs,
    integrate_rhs,
    radau_tableau,
    stability_value,
    step,
)


class TestTableau:
    def setup_method(self):
        self.t = radau_tableau()

    def test_closed_form_entries(self):
        s6 = math.sqrt(6.0)
        A_exact = np.array([
            [(88 - 7 * s6) / 360, (296 - 169 * s6) / 1800, (-2 + 3 * s6) / 225],
            [(296 + 169 * s6) / 1800, (88 + 7 * s6) / 360, (-2 - 3 * s6) / 225],
            [(16 - s6) / 36, (16 + s6) / 36, 1.0 / 9.0],
        ])
        c_exact = np.array([(4 - s6) / 10, (4 + s6) / 10, 1.0])
        assert np.max(np.abs(self.t.A - A_exact)) < 1e-13
        assert np.max(np.abs(self.t.c - c_exact)) < 1e-13

    def test_b_equals_last_row_of_A(self):
        assert np.array_equal(self.t.b, self.t.A[-1])

    def test_shape_and_order(self):
        assert self.t.stages == 3
        assert self.t.order == 5
        assert self.t.c[-1] == 1.0  # endpoint collocation node

    def test_quadrature_order_conditions(self):
        # sum b_i c_i^(q-1) = 1/q for q = 1..5
        for q in range(1, 6):
            got = float(self.t.b @ (self.t.c ** (q - 1)))
            assert abs(got - 1.0 / q) < 1e-13

    def test_stage_order_conditions(self):
        # sum_j A_ij c_j^(q-1) = c_i^q / q for q = 1..3
        for q in range(1, 4):
            lhs = self.t.A @ (self.t.c ** (q - 1))
            rhs = self.t.c ** q / q
            assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestStabilityFunction:
    def test_value_at_origin(self):
        assert stability_value(0.0) == 1.0

    def test_rational_form(self):
        z = -2.0 + 1.5j
        num = 1 + 2 * z / 5 + z * z / 20
        den = 1 - 3 * z / 5 + 3 * z * z / 20 - z ** 3 / 60
        assert stability_value(z) == pytest.approx(num / den, rel=1e-15)

    def test_contractive_on_left_half_plane(self):
        rng = np.random.default_rng(20260819)
        zs = -rng.uniform(0.0, 50.0, 1000) + 1j * rng.uniform(-50.0, 50.0, 1000)
        assert max(abs(stability_value(z)) for z in zs) <= 1.0 + 1e-12

    def test_strong_damping_at_stiff_limit(self):
        assert abs(stability_value(-1e4)) <= 1e-3

    def test_matches_exponential_near_origin(self):
        assert abs(stability_value(0.1) - math.exp(0.1)) < 1e-9
        assert abs(stability_value(-0.05) - math.exp(-0.05)) < 1e-10

    def test_imaginary_axis_bounded(self):
        for w in (0.1, 1.0, 10.0, 50.0):
            assert abs(stability_value(1j * w)) <= 1.0 + 1e-12


class TestNewtonInverse:
    def test_closed_form_matches_linalg_inverse(self):
        # (I + z P1 + z^2 P2) / Q(z) against numpy's LU inverse of I - z A
        A = radau_tableau().A
        for z in np.concatenate([np.logspace(-6, 6, 25), -np.logspace(-6, 6, 25)]):
            exact = np.linalg.inv(np.eye(3) - z * A)
            got = np.array(_newton_inverse(float(z))).reshape(3, 3)
            assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))

    def test_nan_entries_exactly_where_the_denominator_fails(self):
        # Q(3.637834252744496) is 0.0 in floats (the real pole of R);
        # Q(1e103) is about -1.7e307; Q(1e110) overflows to -inf, but z is
        # finite there and the inverse is formed in 1/z
        for z in (3.637834252744496, 3.6378342527444965, 1e103, -1e103, 1e110, -1e110,
                  math.inf, -math.inf, math.nan, 0.0, -0.0, -5.0):
            q = radau._stability_denominator(z)
            entries = _newton_inverse(z)
            fails = q == 0.0 or not math.isfinite(z)
            assert [math.isnan(e) for e in entries] == [fails] * 9, z

    def test_reciprocal_form_past_the_denominator_overflow(self):
        # |z| past about 2.2e103, where Q(z) overflows: (I w^3 + P1 w^2 + P2 w)
        # / (Q(z) w^3) with w = 1/z, against numpy's LU inverse of I - z A
        A = radau_tableau().A
        for z in (2.3e103, 1e110, 1e150, 1e200, 1e300, 1.7e308):
            for signed in (z, -z):
                assert not math.isfinite(radau._stability_denominator(signed))
                exact = np.linalg.inv(np.eye(3) - signed * A)
                got = np.array(_newton_inverse(signed)).reshape(3, 3)
                assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact)), signed


#: (row, y, h) whose first stage iteration is non-finite, for step at x = 0
_OVERFLOWING_STAGES = [
    # the first iteration's stage slope overflows to inf: the update
    # is non-finite, which no later iteration can repair
    (lambda x: [0.0, 0.0, 0.0, 1e200], 1.0, 1.0),
    # finite slopes, but the stage value y + h sum A_ij k_j overflows
    (lambda x: [1e300], 1.0, 1e10),
    # the Jacobian and f(x, y), the full step's starting slope, overflow
    (lambda x: [0.0, 1e308, 1e308], 10.0, 1.0),
    # finite f = 1.44e308, but J = 2.4e308 overflows, from the rescaled row
    # too: Q(hJ) is not finite
    (lambda x: [0.0, 0.0, 1e308], 1.2, 1.0),
    # f = 1e20 and J = 2e160: Q(hJ) ~ -(hJ)^3/60 overflows, so the
    # inverse is formed in 1/(hJ), and the first stage slopes overflow
    (lambda x: [0.0, 0.0, 1e300], 1e-140, 1.0),
]

#: (row, y, h) for step at x = 0 with f = 1 and J = 2e150: Q(hJ) overflows,
#: the inverse in 1/(hJ) is finite, and the stage values overflow only in
#: iteration 2 (Q's overflow once made the inverse NaN in iteration 1)
_PAST_THE_OVERFLOW = (lambda x: [0.0, 0.0, 1e300], 1e-150, 1.0)


#: (row, y, h) for step at x = 0 whose Jacobian overflows in Horner (2 c_2 =
#: inf) but is J = 2e8 from the row scaled by 2^-3, so the stages converge
_RESCALED_JACOBIAN = (lambda x: [0.0, 0.0, 1e308], 1e-300, 1.0)


def _sized_row(size):
    """A row function whose length at x is size(x), with coefficients
    (1 + x/4) (-0.6)^k / (k + 1) for k = 0..size(x) - 1."""
    return lambda x: [(1.0 + 0.25 * x) * (-0.6) ** k / (k + 1) for k in range(size(x))]


#: (row, y, h) for step at x = 0 with 301 coefficients: as one nested
#: Horner expression, past the parser's limit of 200 nested parentheses
_LONG_ROW = (_sized_row(lambda x: 301), 0.5, 0.1)


def _attempt_outcome(attempt, row, x, y, h, config):
    """(y_next, err_est, newton_iters, stages) with every float as its hex
    (the sign of zero included), or the stage-solve failure message."""
    try:
        y_next, err, iters, stages = attempt(row, x, y, h, config)
    except (NewtonFailure, ReferenceNewtonFailure) as failure:
        return str(failure)
    return y_next.hex(), err.hex(), iters, tuple(k.hex() for k in stages)


def _package_attempt(row, x, y, h, config):
    result = step(row, x, y, h, config)
    return result.y_next, result.err_est, result.newton_iters, result.stages


_coefficient = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _rows(draw):
    """(base, trend) of a row of degree 1-5: base alone is a constant row,
    with a trend the row is base + trend sin(x)."""
    size = draw(st.integers(2, 6))
    base = draw(st.lists(_coefficient, min_size=size, max_size=size))
    trend = draw(st.none() | st.lists(_coefficient, min_size=size, max_size=size))
    return base, trend


def _row_function(base, trend):
    if trend is None:
        return lambda x: list(base)
    return lambda x: [b + t * math.sin(x) for b, t in zip(base, trend)]


_CONFIGS = [
    SolverConfig(),
    SolverConfig(atol=1e-11, rtol=1e-11),
    SolverConfig(newton_max_iters=3, newton_tol=1e-3),
]


class TestAttemptOracle:
    """step gives reference_attempt's (y_next, err_est, newton_iters,
    stages) bit for bit, or its NewtonFailure message."""

    @settings(max_examples=300, deadline=None)
    @given(
        row=_rows(),
        x=st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
        y=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
        h=st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e),
        config=st.sampled_from(_CONFIGS),
    )
    # a -0.0 leading coefficient over an all-zero tail: the sign of each zero
    # stage tells a Horner seeded at the leading coefficient from one seeded
    # at 0.0
    @example(row=([-0.0, -0.0], None), x=0.0, y=1.0, h=0.1, config=_CONFIGS[0])
    @example(row=([-0.0, -0.0, -0.0], None), x=0.0, y=0.0, h=0.1, config=_CONFIGS[0])
    def test_step_matches_reference(self, row, x, y, h, config):
        row = _row_function(*row)
        assert _attempt_outcome(_package_attempt, row, x, y, h, config) == \
            _attempt_outcome(reference_attempt, row, x, y, h, config)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("index", range(len(_OVERFLOWING_STAGES)))
    def test_overflowing_stages_match_reference(self, index):
        row, y, h = _OVERFLOWING_STAGES[index]
        config = SolverConfig()
        got = _attempt_outcome(_package_attempt, row, 0.0, y, h, config)
        assert got == _attempt_outcome(reference_attempt, row, 0.0, y, h, config)
        assert got.startswith("non-finite stage update in iteration 1")

    def test_infinite_update_under_an_infinite_threshold(self):
        # at h = 1e-320 the Newton threshold newton_tol (atol / h + ...) is
        # inf; a_0 jumps from -1e308 to 1e308 at the first stage's abscissa,
        # so every update is -inf, which is not convergence but a failure
        h = 1e-320
        first = 0.0 + radau._C[0] * h

        def row(x):
            return [1e308 if x == first else -1e308, 1.0]

        config = SolverConfig()
        got = _attempt_outcome(_package_attempt, row, 0.0, 0.0, h, config)
        assert got == _attempt_outcome(reference_attempt, row, 0.0, 0.0, h, config)
        assert got == "non-finite stage update in iteration 1 at x=0.0, h=1e-320"

    def test_length_one_row_with_stages_overflowing_later(self):
        # y' = a_0(x) with a_0 = 1e308 past x = 0: the first iteration moves
        # every k to 1e308, so the second's stage values y + h sum A_ij k_j
        # overflow at h = 10; f does not read them, and the update would be
        # 0, so only the stage-value test stops the solve
        def row(x):
            return [1e308 if x > 0.0 else 0.0]

        config = SolverConfig()
        got = _attempt_outcome(_package_attempt, row, 0.0, 0.0, 10.0, config)
        assert got == _attempt_outcome(reference_attempt, row, 0.0, 0.0, 10.0, config)
        assert got == "non-finite stage update in iteration 2 at x=0.0, h=10.0"


    def test_long_row_matches_reference(self):
        row, y, _ = _LONG_ROW
        config = SolverConfig()
        # rows sampled: the start row, then three per stage solve, except that
        # the second half step's last stage row is the full step's where
        # (x + h/2) + h/2 == x + h; at x = 0.7, h = 0.1 it is 0.8 against
        # 0.7999999999999999
        for x, h, coincide, count in [(0.0, 0.1, True, 1 + 8), (0.7, 0.1, False, 1 + 9)]:
            sampled = []

            def counted(x):
                sampled.append(x)
                return row(x)

            assert ((x + 0.5 * h) + 0.5 * h == x + h) == coincide
            got = _attempt_outcome(_package_attempt, counted, x, y, h, config)
            assert not isinstance(got, str)  # the stages converged
            assert len(sampled) == len(set(sampled)) == count  # each abscissa once
            assert got == _attempt_outcome(reference_attempt, row, x, y, h, config)


def _result_fields(result):
    """IntegrationResult fields and its derived n_accepted, final_x and
    final_y (or reference_integrate's dict of them) with every float as its
    hex, the sign of zero included."""
    names = [f.name for f in dataclasses.fields(IntegrationResult)]
    fields = result if isinstance(result, dict) else {
        name: getattr(result, name) for name in names + ["n_accepted", "final_x", "final_y"]}

    def exact(value):
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, list):
            return [exact(v) for v in value]
        return value.hex() if isinstance(value, float) else value

    return {name: exact(value) for name, value in fields.items()}


def _huge_constant_slope(x):
    # y' = 1e300: the step size falls under the spacing of floats at
    # x = 1.8e8, long before x_end = 3e10, so x + h rounds back to x
    return [1e300]


class TestIntegrateOracle:
    """integrate_rhs gives reference_integrate's IntegrationResult fields
    bit for bit: checkpoints, the snap to the target, halving after a stage
    failure, max_steps and h_min."""

    @settings(max_examples=150, deadline=None)
    @given(
        row=_rows(),
        x0=st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
        y0=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
        span=st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e),
        config=st.sampled_from(_CONFIGS),
        max_steps=st.sampled_from([2000, 60, 5]),
        h_min=st.sampled_from([1e-12, 1e-6, 1e-3]),
        checkpoints=st.none() | st.lists(st.floats(-0.1, 1.2), min_size=1, max_size=4),
    )
    # a first step 5e-13 short of x_end snaps onto it, one 5e-11 short does not
    @example(row=([0.0, -1.0], None), x0=0.0, y0=1.0, span=1.0, max_steps=2000, h_min=1e-12,
             config=SolverConfig(atol=1e-3, rtol=1e-3, h0=1.0 - 5e-13, h_max=1.0), checkpoints=None)
    @example(row=([0.0, -1.0], None), x0=0.0, y0=1.0, span=1.0, max_steps=2000, h_min=1e-12,
             config=SolverConfig(atol=1e-3, rtol=1e-3, h0=1.0 - 5e-11, h_max=1.0), checkpoints=None)
    # a first step of 5e-324, the smallest subnormal, has no half step
    @example(row=([0.0] * 6, None), x0=0.0, y0=0.0, span=1.0, max_steps=2000, h_min=1e-12,
             config=SolverConfig(atol=1e-9, rtol=1e-9), checkpoints=[5e-324])
    def test_integrate_rhs_matches_reference(self, row, x0, y0, span, config, max_steps, h_min,
                                             checkpoints):
        row = _row_function(*row)
        config = dataclasses.replace(config, max_steps=max_steps, h_min=h_min)
        if checkpoints is not None:
            checkpoints = [x0 + t * span for t in checkpoints]
        x_end = x0 + span
        assert _result_fields(integrate_rhs(row, x0, y0, x_end, config, checkpoints)) == \
            _result_fields(reference_integrate(row, x0, y0, x_end, config, checkpoints))

    def test_step_that_cannot_advance_x_matches_reference(self):
        config = SolverConfig(max_steps=20000)
        assert _result_fields(integrate_rhs(_huge_constant_slope, 0.0, 1.0, 3e10, config)) == \
            _result_fields(reference_integrate(_huge_constant_slope, 0.0, 1.0, 3e10, config))

    @pytest.mark.parametrize("row, y, h",
                             [_LONG_ROW] + _OVERFLOWING_STAGES
                             + [_PAST_THE_OVERFLOW, _RESCALED_JACOBIAN])
    def test_special_rows_match_reference(self, row, y, h):
        config = SolverConfig(max_steps=2000)
        assert _result_fields(integrate_rhs(row, 0.0, y, h, config, [0.3 * h])) == \
            _result_fields(reference_integrate(row, 0.0, y, h, config, [0.3 * h]))

    def test_attempt_generated_once_per_row_length(self, monkeypatch):
        titles = []
        define = radau._define

        def counted(title, *args, **names):
            titles.append(title)
            return define(title, *args, **names)

        monkeypatch.setattr(radau, "_define", counted)
        for name in ("_step_attempt", "_stage_solver"):
            monkeypatch.setattr(radau, name, functools.cache(getattr(radau, name).__wrapped__))
        for _ in range(2):
            integrate_rhs(lambda x: [1.0, -2.0, 0.5], 0.0, 0.3, 1.0)
            integrate_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0)
            integrate_fixed_rhs(lambda x: [0.0, -1.0, 0.0, 0.0], 0.0, 1.0, 1.0, 0.25)
            step(lambda x: [0.0, -1.0], 0.0, 1.0, 0.1)
        assert titles == ["stage solver, rows of length 3", "step attempt, rows of length 3",
                          "stage solver, rows of length 2", "step attempt, rows of length 2",
                          "stage solver, rows of length 4"]
        assert not any("start values" in title for title in titles)


class TestHalfStepSeeds:
    """The half steps start their Newton iterations from the full step's
    collocation slope polynomial, the quadratic through (c_j, k_j)."""

    def test_seeds_are_exact_for_a_quadratic(self, monkeypatch):
        # y' = q(x) at x = 0, h = 1: the full step's stages are k_j = q(c_j),
        # so the half steps' seeds are q(c_i/2) and q(1/2 + c_i/2) to rounding
        solve = radau._stage_solver(1)
        calls = []

        def recorded(*args):
            out = solve(*args)
            calls.append((args[:3], out[1:4]))
            return out

        monkeypatch.setattr(radau, "_stage_solver", lambda m: recorded)
        attempt = radau._step_attempt.__wrapped__(1)
        c = radau_tableau().c.tolist()
        rng = np.random.default_rng(43)
        for _ in range(100):
            q0, q1, q2 = rng.uniform(-10.0, 10.0, 3).tolist()
            del calls[:]
            attempt([q0], lambda x: [q0 + q1 * x + q2 * x * x], 0.0, 0.5, 1.0, SolverConfig())
            (_, stages), (first, _), (second, _) = calls
            assert max(abs(k - (q0 + q1 * cj + q2 * cj * cj)) for k, cj in zip(stages, c)) \
                <= 1e-13
            for seeds, shift in ((first, 0.0), (second, 0.5)):
                for seed, ci in zip(seeds, c):
                    t = shift + 0.5 * ci
                    exact = q0 + q1 * t + q2 * t * t
                    assert abs(seed - exact) <= 16 * 2.0 ** -52 * (
                        abs(q0) + abs(q1) + abs(q2) + sum(abs(k) for k in stages))

    def test_cases_take_fewer_newton_iterations(self):
        # cases 1-3 to x = 20 took 1,171 iterations with the half steps
        # started at f(x, y) and f(x + h/2, y_half); the bound asks for 10% fewer
        total = sum(integrate(get_case(i).equation, 0.0, 20.0).n_newton_iters for i in (1, 2, 3))
        assert total <= 1054


class TestAccuracy:
    """Every accepted point of a run is within 100 (atol + rtol |y_ref|) of
    y_ref from scipy's Radau at rtol = 1e-13, atol = 1e-16 (scipy_radau).
    The error test bounds the two half steps' estimated local error, and
    the kept full step's is about 32 times it (radau's module docstring);
    the factor 100 was fixed before the first run."""

    @pytest.mark.parametrize("index", [0, 1, 22, 23])
    def test_generated_stiff_equations(self, index, stiff_inputs):
        generated = stiff_inputs.stiff_equations(901, 0)[index]
        self.check(build_equation(list(generated.coefficients), 0.0), generated.x_end,
                   SolverConfig(atol=1e-11, rtol=1e-11))

    @pytest.mark.parametrize("case_id", [1, 2, 3])
    def test_cases(self, case_id):
        self.check(get_case(case_id).equation, 20.0, SolverConfig())

    @staticmethod
    def check(equation, x_end, config):
        run = integrate(equation, 0.0, x_end, config)
        assert run.completed, run.message
        y_ref = scipy_radau(equation.row, 0.0, run.xs)
        error = np.abs(run.ys - y_ref) / (config.atol + config.rtol * np.abs(y_ref))
        assert np.max(error) <= 100.0


_C0 = float(radau_tableau().c[0])


class TestRowLength:
    """The first row of a run fixes its length: a later row of another
    length, or an empty first row, is a ValueError naming x."""

    @pytest.mark.parametrize("entries", [3, 5], ids=["shorter", "longer"])
    def test_stage_row_of_another_length_is_refused(self, entries):
        # used to pad a shorter row with zeros and restart with a longer
        # one in the solver for its length
        row = _sized_row(lambda x: 4 if x == 0.0 else entries)
        for run, h in [(lambda: step(row, 0.0, 0.5, 1.0), 1.0),
                       (lambda: integrate_rhs(row, 0.0, 0.5, 1.0), 1e-3),
                       (lambda: integrate_fixed_rhs(row, 0.0, 0.5, 1.0, 0.5), 0.5)]:
            message = (f"the coefficient row at x={_C0 * h!r} has {entries} entries,"
                       " the run's rows 4")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run()

    def test_landing_row_of_another_length_is_refused(self):
        # 0.3 + (0.9 - 0.3) rounds past 0.9, so the truncated step landing
        # on the checkpoint samples the row at 0.9 afresh
        assert 0.3 + (0.9 - 0.3) != 0.9
        row = lambda x: [1.0, 0.0] if x == 0.9 else [1.0, 0.0, 0.0]  # noqa: E731
        config = SolverConfig(h0=1.0, h_max=1.0)
        message = "the coefficient row at x=0.9 has 2 entries, the run's rows 3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            integrate_rhs(row, 0.3, 0.0, 2.0, config, checkpoints=[0.9])

    def test_empty_first_row_is_refused(self):
        # used to raise an IndexError from the generated start values
        empty = lambda x: []  # noqa: E731
        for run in (lambda: step(empty, 0.5, 1.0, 0.1), lambda: integrate_rhs(empty, 0.5, 1.0, 1.0),
                    lambda: integrate_fixed_rhs(empty, 0.5, 1.0, 1.0, 0.1)):
            with pytest.raises(ValueError, match=r"^the coefficient row at x=0\.5 is empty$"):
                run()


class TestSingleStep:
    def test_linear_step_reproduces_stability_value(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = -10.0 ** rng.uniform(0.0, 4.0)
            res = step(lambda x: [0.0, z], 0.0, 1.0, 1.0)
            assert abs(res.y_next - stability_value(z).real) <= 1e-10

    def test_newton_iteration_count_reported(self):
        res = step(lambda x: [0.0, -1.0], 0.0, 1.0, 0.1)
        assert res.newton_iters >= 1
        assert res.err_est >= 0.0


class TestAdaptiveIntegration:
    def test_scalar_decay(self):
        r = integrate_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0)
        assert r.completed
        assert abs(r.final_y - math.exp(-1.0)) < 5e-9

    def test_stiff_relaxation_uses_few_steps(self):
        r = integrate_rhs(
            lambda x: [1000.0 * math.sin(x) + math.cos(x), -1000.0],
            0.0, 1.0, 2.0)
        assert r.completed
        assert abs(r.final_y - math.sin(2.0)) < 1e-6
        assert r.n_accepted < 300  # an explicit method would need thousands

    def test_blow_up_reported_not_raised(self):
        r = integrate_rhs(lambda x: [0.0, 0.0, 1.0], 0.0, 1.0, 2.0)
        assert not r.completed
        assert r.status in ("step-failure", "newton-failure")
        assert r.final_x < 1.01  # the pole of 1/(1-x)

    def test_step_that_cannot_advance_x_ends_the_run(self):
        r = integrate_rhs(_huge_constant_slope, 0.0, 1.0, 3e10, SolverConfig(max_steps=20000))
        assert r.status == "step-failure"
        assert re.fullmatch(r"step size \S+ does not advance x=(\S+)", r.message)
        assert float(r.message.rpartition("=")[2]) == r.final_x
        assert r.n_accepted + r.n_rejected < 1000
        assert np.all(np.diff(r.xs) > 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stage_solve_past_the_denominator_overflow(self):
        row, y, h = _PAST_THE_OVERFLOW
        config = SolverConfig()
        got = _attempt_outcome(_package_attempt, row, 0.0, y, h, config)
        assert got == _attempt_outcome(reference_attempt, row, 0.0, y, h, config)
        assert got == "non-finite stage update in iteration 2 at x=0.0, h=1.0"

    def test_horizon_at_the_float_range(self):
        # case 1 to x_end = 1e308: steps near h = 1e103 make |hJ| overflow
        # Q(hJ), which once failed every stage solve there, so the run ended
        # at max_steps near x = 5.3e105
        L = math.sqrt(2.0) - 1.0
        r = integrate(get_case(1).equation, 0.0, 1e308, SolverConfig(max_steps=3000))
        assert r.completed, r.message
        assert r.final_x == 1e308
        assert abs(r.final_y - L) <= 1e-15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_jacobian_is_rescaled(self):
        # 2 c_2 = inf made J = inf 0 = NaN at y = 0, so every attempt was a
        # Newton failure and the run ended newton-failure after 30 halvings
        r = integrate(build_equation(["0", "1e308", "1e308"], 0.0), 0.0, 1.0)
        assert r.completed, r.message
        assert (r.n_accepted, r.final_y) == (13, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_stage_is_a_newton_failure(self):
        for row, y, h in _OVERFLOWING_STAGES:
            with pytest.raises(NewtonFailure, match="non-finite stage update in iteration 1"):
                step(row, 0.0, y, h)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stiff_cubic_with_overflowing_trial_steps(self):
        # y' = s (y - r1(x)) (y - r2) (y + r3), r1 rising to L = 0.7467...;
        # some rejected trial steps overflow inside the stage evaluation.
        # Oracle: y(0) = 0 lies below the stable root r1, so the trajectory
        # stays in [0, L] and ends at L (|A| exp(-k x_end) < 1e-21 there)
        r1 = "(0.7467675185397109 + -0.44093780272268257*exp(-1.4246851350810283*x))"
        eq = build_equation([
            f"122.41140753119039*(0.0 + 2.383731168726062*{r1})",
            f"122.41140753119039*(-2.383731168726062 + 0.16051245994651553*{r1})",
            f"122.41140753119039*(-0.16051245994651553 + -1.0*{r1})",
            "122.41140753119039",
        ], 0.0)
        x_end, limit = 35.09547391828179, 0.7467675185397109
        r = integrate(eq, 0.0, x_end, SolverConfig(atol=1e-11, rtol=1e-11))
        assert r.completed
        assert r.final_x == x_end
        assert abs(r.final_y - limit) <= 1e-9
        assert r.ys.min() >= 0.0 and r.ys.max() <= limit + 1e-9

    def test_checkpoints_are_hit_exactly(self):
        r = integrate_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0,
                          checkpoints=[0.3, 0.7])
        xs = list(r.xs)
        assert 0.3 in xs and 0.7 in xs
        assert r.final_x == 1.0

    def test_equation_front_end(self):
        eq = build_equation(["1", "0", "-1"], 0.0)  # dy/dx = 1 - y^2
        r = integrate(eq, 0.0, 10.0)
        assert r.completed
        assert abs(r.final_y - math.tanh(10.0)) < 1e-9

    def test_tolerances_scale_error(self):
        loose = integrate_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0,
                              SolverConfig(atol=1e-4, rtol=1e-4))
        tight = integrate_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0,
                              SolverConfig(atol=1e-12, rtol=1e-12))
        err_loose = abs(loose.final_y - math.exp(-1.0))
        err_tight = abs(tight.final_y - math.exp(-1.0))
        assert err_tight < err_loose
        assert tight.n_accepted > loose.n_accepted

    def test_monitor_arrays_aligned(self):
        r = integrate_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0)
        assert len(r.xs) == len(r.ys) == len(r.h_used) == len(r.newton_per_step)
        assert r.xs[0] == 0.0 and r.xs[-1] == r.final_x


class TestRejectionCauses:
    def test_every_rejection_a_newton_failure(self):
        # one iteration cannot confirm convergence, so every attempt fails
        # and h halves from 0.5 until it drops below h_min = 2^-10
        r = integrate_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0,
                          SolverConfig(newton_max_iters=1, h0=0.5, h_max=0.5, h_min=0.5**10))
        assert r.status == "newton-failure"
        assert (r.n_accepted, r.n_rejected, r.n_newton_failures) == (0, 10, 10)

    def test_error_test_rejections_are_not_newton_failures(self):
        # a unit first step on y' = -y converges but fails atol = 1e-12
        r = integrate_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0,
                          SolverConfig(h0=1.0, h_max=1.0, atol=1e-12, rtol=1e-12))
        assert r.completed
        assert r.n_rejected > 0 and r.n_newton_failures == 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("field,value", [
        ("atol", math.nan), ("rtol", math.inf), ("h0", math.nan),
        ("h_min", math.nan), ("h_max", -math.inf), ("newton_tol", math.nan),
    ])
    def test_solver_config(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("h0", 0.0), ("h0", -1.0), ("h_min", 0.0), ("h_max", 0.0), ("h_max", -1.0),
        ("newton_tol", 0.0), ("newton_tol", -1e-2),
    ])
    def test_solver_config_non_positive(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive, got {value!r}$"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["atol", "rtol", "h0", "h_min", "h_max", "newton_tol"])
    @pytest.mark.parametrize("value", ["1e-9", True, False, 1j])
    def test_solver_config_non_real(self, field, value):
        # "1e-9" used to raise a TypeError from math.isfinite; True passed as 1.0
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["atol", "rtol", "h_min", "newton_tol"])
    def test_solver_config_none_stands_only_for_a_step_default(self, field):
        # None used to pass h_min and newton_tol through, and to raise a
        # TypeError for atol and rtol
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got None$"):
            SolverConfig(**{field: None})

    @pytest.mark.parametrize("value", [1, 0.5, np.float64(0.5), np.float32(0.5), np.int64(1)])
    def test_solver_config_real_numbers_accepted(self, value):
        fields = ("atol", "rtol", "h0", "h_min", "h_max", "newton_tol")
        config = SolverConfig(**dict.fromkeys(fields, value))
        assert all(getattr(config, name) == value for name in fields)
        assert integrate_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0, config).completed

    @pytest.mark.parametrize("x0,y0,x_end,name", [
        (0.0, "1", 1.0, "y0"), (True, 1.0, 2.0, "x0"), (0.0, 1.0, "1", "x_end"),
    ])
    def test_integrate_rhs_non_real(self, x0, y0, x_end, name):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            integrate_rhs(lambda x: [0.0, -1.0], x0, y0, x_end)

    @pytest.mark.parametrize("x0,y0,x_end,name", [
        (0.0, 1.0, math.inf, "x_end"),
        (0.0, 1.0, math.nan, "x_end"),
        (-math.inf, 1.0, 1.0, "x0"),
        (0.0, math.nan, 1.0, "y0"),
    ])
    def test_integrate_rhs(self, x0, y0, x_end, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            integrate_rhs(lambda x: [0.0, -1.0], x0, y0, x_end)

    def test_overflowing_span_raises_at_once(self):
        # each bound is finite but x_end - x0 is inf: the adaptive loop used
        # to halve h = inf through max_steps Newton failures
        message = "x_end - x0 overflows for x0=-1e+308, x_end=1e+308"
        rhs = lambda x: [0.0, -1.0]  # noqa: E731
        for run in (lambda: integrate_rhs(rhs, -1e308, 1.0, 1e308),
                    lambda: integrate_fixed_rhs(rhs, -1e308, 1.0, 1e308, 1.0),
                    lambda: empirical_order(build_equation(["0", "-1"], -1e308), 1.0, 1e308,
                                            [1.0])):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run()

    def test_infinite_horizon_raises_at_once(self):
        # used to step towards x_end = inf without end
        with pytest.raises(ValueError, match="x_end must be finite"):
            integrate(get_case(1).equation, 0.0, math.inf)

    @pytest.mark.parametrize("x0,y0,x_end,h,name", [
        (0.0, 1.0, 1.0, math.nan, "h"),
        (0.0, 1.0, 1.0, math.inf, "h"),
        (0.0, 1.0, math.inf, 0.1, "x_end"),
        (math.nan, 1.0, 1.0, 0.1, "x0"),
        (0.0, math.inf, 1.0, 0.1, "y0"),
    ])
    def test_integrate_fixed_rhs(self, x0, y0, x_end, h, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            integrate_fixed_rhs(lambda x: [0.0, -1.0], x0, y0, x_end, h)


    @pytest.mark.parametrize("x,y,h,message", [
        (0.0, 1.0, 0.0, "h must be positive, got 0.0"),
        (0.0, 1.0, -0.1, "h must be positive, got -0.1"),
        (0.0, 1.0, 5e-324, "step size 5e-324 has no half step"),
        (0.0, 1.0, math.nan, "h must be finite, got nan"),
        (0.0, 1.0, math.inf, "h must be finite, got inf"),
        (0.0, 1.0, "0.1", "h must be a real number, got '0.1'"),
        (0.0, 1.0, True, "h must be a real number, got True"),
        (0.0, math.nan, 0.1, "y must be finite, got nan"),
        (0.0, math.inf, 0.1, "y must be finite, got inf"),
        (math.nan, 1.0, 0.1, "x must be finite, got nan"),
    ])
    def test_step(self, x, y, h, message):
        # h = 0 used to raise a ZeroDivisionError, h = -0.1 to end in "no
        # stage convergence", and "0.1", True and x = nan to run a step
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            step(lambda x: [0.0, -1.0], x, y, h)


class TestIntegerCounts:
    @pytest.mark.parametrize("field", ["newton_max_iters", "max_steps"])
    @pytest.mark.parametrize("value", [2.5, "5", None, True, 5.0])
    def test_non_integer_count_is_rejected(self, field, value):
        # 2.5 used to construct and then fail inside range() with a TypeError
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["newton_max_iters", "max_steps"])
    @pytest.mark.parametrize("value", [0, -1, np.int64(0)])
    def test_count_below_one_is_rejected(self, field, value):
        # max_steps = 0 used to construct, and integrate then stopped before
        # its first attempt with "max_steps=0 exceeded"
        with pytest.raises(ValueError, match=f"^{field} must be >= 1$"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["newton_max_iters", "max_steps"])
    def test_numpy_integer_count_is_accepted(self, field):
        config = SolverConfig(**{field: np.int64(3)})
        assert getattr(config, field) == 3
        result = integrate_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0, config)
        assert result.n_accepted >= 1


class TestFixedStep:
    def test_truncated_last_step_lands_exactly(self):
        r = integrate_fixed_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0, 0.3)
        assert r.final_x == 1.0
        assert abs(r.final_y - math.exp(-1.0)) < 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_jacobian_is_rescaled(self):
        # the fixed-step loop forms J as the adaptive one does: 2 c_2 = inf
        # once made it NaN at y = 0, and the first stage solve raised
        row = build_equation(["0", "1e308", "1e308"], 0.0).row
        r = integrate_fixed_rhs(row, 0.0, 0.0, 1.0, 0.1)
        assert r.completed and r.final_x == 1.0 and r.final_y == 0.0

    def test_order_five_on_smooth_problem(self):
        eq = build_equation(["0", "-1"], 0.0)  # dy/dx = -y
        slope, errors = empirical_order(eq, 1.0, 2.0, (0.2, 0.1, 0.05, 0.025))
        assert 4.5 <= slope <= 5.5
        assert errors == sorted(errors, reverse=True)

    def test_step_sizes_from_a_generator(self):
        # a generator used to be used up by min(), so no run was made and
        # the call ended in "errors vanished; order not measurable"
        eq = build_equation(["0", "-1"], 0.0)
        sizes = (0.2, 0.1, 0.05)
        assert empirical_order(eq, 1.0, 2.0, (h for h in sizes)) == \
            empirical_order(eq, 1.0, 2.0, list(sizes))

    @pytest.mark.parametrize("x_end", [0.0, -1.0])
    def test_horizon_must_exceed_x0(self, x_end):
        # used to return "completed" with no step, and empirical_order to end
        # in "errors vanished; order not measurable"
        with pytest.raises(ValueError, match="^x_end must exceed x0$"):
            integrate_fixed_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, x_end, 0.1)
        eq = build_equation(["0", "-1"], 0.0)
        with pytest.raises(ValueError, match="^x_end must exceed x0$"):
            empirical_order(eq, 1.0, x_end, [0.2, 0.1])

    @pytest.mark.parametrize("sizes,message", [
        # ran every integration, then died in np.log with a numpy TypeError
        (["0.2", "0.1", "0.05"], "h_list[0] must be a real number, got '0.2'"),
        # measured an order with h = 1.0
        ([True, 0.5, 0.25], "h_list[0] must be a real number, got True"),
        # failed inside the reference run with "h must be positive"
        ([0.2, -0.1, 0.05], "h_list[1] must be positive, got -0.1"),
    ])
    def test_step_sizes_checked_before_any_run(self, sizes, message, monkeypatch):
        runs = []
        monkeypatch.setattr(radau, "integrate_fixed_rhs",
                            lambda *args: runs.append(args))
        eq = build_equation(["0", "-1"], 0.0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            empirical_order(eq, 1.0, 2.0, sizes)
        assert runs == []


class TestOrderTestErrors:
    @pytest.mark.parametrize("coefficients, y0, x_end, sizes, message", [
        (["0", "-1"], 1.0, 2.0, [], "h_list must be nonempty"),
        # y' = 1e200 y^3: the first stage update overflows, even at h/16
        (["0", "0", "0", "1e200"], 1.0, 1.0, [1.0],
         "reference run failed: non-finite stage update in iteration 1 at x=0.0, h=0.0625"),
        # y' = y^2 blows up at x = 1: one step of 0.9 has no stage solution
        (["0", "0", "1"], 1.0, 0.9, [0.9, 0.05],
         "fixed-step run failed at h=0.9: no stage convergence in 10 iterations at x=0.0, h=0.9"),
        # y' = 0: every run is exact
        (["0", "0"], 0.0, 2.0, [0.2, 0.1], "errors vanished; order not measurable"),
    ], ids=["empty", "reference", "fixed-step", "vanished"])
    def test_message(self, coefficients, y0, x_end, sizes, message):
        with pytest.raises(OrderTestError, match=f"^{re.escape(message)}$"):
            empirical_order(build_equation(coefficients, 0.0), y0, x_end, sizes)


class TestFixedStepLimits:
    """The fixed-step loop ends in bounded time: more than max_steps steps
    are refused before the first, and a step that cannot move x raises."""

    @pytest.mark.parametrize("h,config,message", [
        # x + h == x at x = 1: used to run without end
        (1e-20, None, "step size h=1e-20 needs more than max_steps=10000000 steps"
                      " over x_end - x0 = 1.0"),
        (0.1, SolverConfig(max_steps=9), "step size h=0.1 needs more than max_steps=9 steps"
                                         " over x_end - x0 = 1.0"),
    ])
    def test_too_many_steps_refused(self, h, config, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            integrate_fixed_rhs(lambda x: [0.0, -1.0], 1.0, 1.0, 2.0, h, config)

    def test_max_steps_exactly_is_run(self):
        result = integrate_fixed_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0, 0.25,
                                     SolverConfig(max_steps=4))
        assert result.n_accepted == 4 and result.final_x == 1.0

    def test_step_that_cannot_advance_x_raises(self):
        # 2^17 / 1.0 steps are allowed, but the spacing of floats at 1e20 is 2^14
        with pytest.raises(ValueError, match=r"^step size 1\.0 does not advance x=1e\+20$"):
            integrate_fixed_rhs(lambda x: [0.0, -1.0], 1e20, 1.0, 1e20 + 2.0 ** 17, 1.0)

    # about 1e17 reference steps used to run without end; 5e-324 / 16
    # underflows to a reference step of 0
    @pytest.mark.parametrize("h", [1e-17, 5e-324])
    def test_order_test_refuses_before_any_run(self, h, monkeypatch):
        runs = []
        monkeypatch.setattr(radau, "integrate_fixed_rhs", lambda *args: runs.append(args))
        message = f"h_list[1]={h!r} needs more than max_steps=10000000 steps of h/16 in its" \
                  " reference run"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            empirical_order(build_equation(["0", "-1"], 0.0), 1.0, 2.0, [0.1, h])
        assert runs == []


class TestFailingCoefficients:
    def test_domain_error_names_the_failing_stage_abscissa(self):
        # sqrt(1 - x) leaves its domain at x = 1: the row raises the tree
        # walk's error at the first stage abscissa past it
        eq = build_equation(["3 + sqrt(1-x)", "-4 - sqrt(1-x)", "1"], 0.0)
        message = "sqrt(-0.00983790427220077) outside real domain at x=1.0098379042722008"
        with pytest.raises(ExprDomainError, match=f"^{re.escape(message)}$"):
            integrate(eq, 0.0, 2.0)

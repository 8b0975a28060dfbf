import math

import numpy as np
import pytest

from abelode.cases import get_case
from abelode.core import build_equation
from abelode.radau import (
    NewtonFailure,
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_stage_is_a_newton_failure(self):
        cases = [
            # the first iteration's stage slope overflows to inf: the update
            # is non-finite, which no later iteration can repair
            (lambda x: [0.0, 0.0, 0.0, 1e200], 1.0, 1.0),
            # finite slopes, but the stage value y + h sum A_ij k_j overflows
            (lambda x: [1e300], 1.0, 1e10),
            # the Jacobian and the predictor overflow
            (lambda x: [0.0, 1e308, 1e308], 10.0, 1.0),
            # finite f, but J = 2e308 y overflows: Q(hJ) is not finite
            (lambda x: [0.0, 0.0, 1e308], 1e-300, 1.0),
            # finite f and J = 2e150, but Q(hJ) ~ -(hJ)^3/60 overflows
            (lambda x: [0.0, 0.0, 1e300], 1e-150, 1.0),
        ]
        for row, y, h in cases:
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

    @pytest.mark.parametrize("x0,y0,x_end,name", [
        (0.0, 1.0, math.inf, "x_end"),
        (0.0, 1.0, math.nan, "x_end"),
        (-math.inf, 1.0, 1.0, "x0"),
        (0.0, math.nan, 1.0, "y0"),
    ])
    def test_integrate_rhs(self, x0, y0, x_end, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            integrate_rhs(lambda x: [0.0, -1.0], x0, y0, x_end)

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


class TestFixedStep:
    def test_truncated_last_step_lands_exactly(self):
        r = integrate_fixed_rhs(lambda x: [0.0, -1.0], 0.0, 1.0, 1.0, 0.3)
        assert r.final_x == 1.0
        assert abs(r.final_y - math.exp(-1.0)) < 1e-6

    def test_order_five_on_smooth_problem(self):
        eq = build_equation(["0", "-1"], 0.0)  # dy/dx = -y
        slope, errors = empirical_order(eq, 1.0, 2.0, (0.2, 0.1, 0.05, 0.025))
        assert 4.5 <= slope <= 5.5
        assert errors == sorted(errors, reverse=True)

import math

import pytest
from hypothesis import given, settings, strategies as st

from abelode.core import (
    LeadingCoefficientError,
    build_equation,
    eval_dF,
    eval_drhs,
    eval_F,
    eval_rhs,
    normalize,
)

coeff_floats = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def cubic(a0, a1, a2, a3, x0=0.0):
    return build_equation([repr(a0), repr(a1), repr(a2), repr(a3)], x0)


class TestBuildEquation:
    def test_degree_and_labels(self):
        eq = build_equation(["1", "-3", "1", "1"], 0.0)
        assert eq.degree == 3
        assert [c.label for c in eq.coeffs] == ["a0", "a1", "a2", "a3"]
        assert eq.x0 == 0.0

    def test_degree_one_is_allowed(self):
        eq = build_equation(["0", "-1"], 0.0)
        assert eq.degree == 1

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            build_equation(["1"], 0.0)

    def test_leading_coefficient_callable(self):
        eq = build_equation(["3 - 2*exp(-2*x)", "-4", "0", "1"], 0.0)
        assert eq.leading(0.0) == 1.0
        assert eq.coeffs[0](0.0) == 1.0


class TestNormalize:
    def test_lambda_is_coefficient_ratio(self):
        eq = build_equation(["4", "-6", "2", "2"], 0.0)
        nf = normalize(eq)
        assert nf.lam(0, 0.0) == 2.0
        assert nf.lam(1, 0.0) == -3.0
        assert nf.lam(2, 0.0) == 1.0
        assert nf.lam(3, 0.0) == 1.0  # top coefficient of the monic form
        assert nf.lambdas(0.0) == [2.0, -3.0, 1.0]

    def test_vanishing_leading_coefficient_rejected(self):
        eq = build_equation(["1", "0", "0", "x"], 0.0)  # a3(x0) = 0
        with pytest.raises(LeadingCoefficientError):
            normalize(eq)

    def test_leading_zero_away_from_x0_rejected(self):
        # probes reach x0 + 2, where 2 - x crosses zero
        eq = build_equation(["1", "0", "0", "2 - x"], 0.0)
        with pytest.raises(LeadingCoefficientError):
            normalize(eq)

    def test_leading_zero_missed_by_probes_is_typed(self):
        # probes sit at x0 + {0, 0.5, 1, 2, 5, 10}; a3 vanishes at x = 3
        nf = normalize(build_equation(["1", "-3", "1", "x - 3"], 0.0))
        for call in (lambda: nf.lambdas(3.0), lambda: nf.lam(0, 3.0)):
            with pytest.raises(LeadingCoefficientError, match="x=3.0"):
                call()
        assert nf.lam(3, 3.0) == 1.0  # the monic leading 1 needs no division

    def test_sign_changing_leading_ok_if_probes_miss_zero(self):
        eq = build_equation(["1", "0", "0", "1 - 1/x"], 2.0)
        nf = normalize(eq)
        assert nf.a_n(2.0) == 0.5


class TestEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(a0=coeff_floats, a1=coeff_floats, a2=coeff_floats,
           a3=st.floats(0.3, 5.0), y=st.floats(-4, 4, allow_nan=False))
    def test_rhs_matches_power_sum(self, a0, a1, a2, a3, y):
        eq = cubic(a0, a1, a2, a3)
        expected = a0 + a1 * y + a2 * y * y + a3 * y ** 3
        assert eval_rhs(eq, 0.0, y) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(a0=coeff_floats, a1=coeff_floats, a2=coeff_floats,
           a3=st.floats(0.3, 5.0), y=st.floats(-4, 4, allow_nan=False))
    def test_rhs_is_leading_times_monic_form(self, a0, a1, a2, a3, y):
        eq = cubic(a0, a1, a2, a3)
        nf = normalize(eq)
        assert eval_rhs(eq, 0.0, y) == pytest.approx(
            a3 * eval_F(nf, 0.0, y), rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(a0=coeff_floats, a1=coeff_floats, a2=coeff_floats,
           a3=st.floats(0.3, 5.0), y=st.floats(-4, 4, allow_nan=False))
    def test_drhs_matches_finite_difference(self, a0, a1, a2, a3, y):
        eq = cubic(a0, a1, a2, a3)
        h = 1e-6
        fd = (eval_rhs(eq, 0.0, y + h) - eval_rhs(eq, 0.0, y - h)) / (2 * h)
        assert eval_drhs(eq, 0.0, y) == pytest.approx(fd, rel=1e-6, abs=1e-5)

    def test_dF_on_known_cubic(self):
        # F = y^3 + y^2 - 3y + 1, dF = 3y^2 + 2y - 3
        nf = normalize(build_equation(["1", "-3", "1", "1"], 0.0))
        for y in (-2.0, 0.0, 0.4142, 3.0):
            assert eval_dF(nf, 0.0, y) == pytest.approx(
                3 * y * y + 2 * y - 3, rel=1e-13, abs=1e-13)

    def test_x_dependence_flows_through(self):
        eq = build_equation(["3 - 2*exp(-2*x)", "-4", "0", "1"], 0.0)
        assert eval_rhs(eq, 0.0, 1.0) == pytest.approx(1.0 - 4.0 + 1.0, abs=1e-15)
        big_x = eval_rhs(eq, 30.0, 1.0)
        assert big_x == pytest.approx(0.0, abs=1e-12)  # (1 - 4 + 3) at the tail

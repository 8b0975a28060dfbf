import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import linear_first_order, reference_check_pivot, taylor_power_sum

from abelode.cases import get_case
from abelode.core import SolverConfig, _horner, _taylor_entry, build_equation
from abelode.expr import ExprDomainError
from abelode.radau import integrate
from abelode.reduction import (
    NotASolutionError,
    ReducedEquation,
    SecondKindForm,
    reduce_about,
    roundtrip_check,
)

CASE1_SOURCES = ["1", "-3", "1", "1"]

#: abscissae a pivot is checked at
PROBES = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]


def case1():
    return build_equation(CASE1_SOURCES, 0.0)


def seeded_pivot_case(seed):
    """A seeded equation whose a_1..a_n are linear in x, a pivot built to
    solve it (a constant root for an even seed, the exact solution
    u + v exp(-w x) for an odd one, each up to rounding) and seeded
    abscissae in [0, 6]."""
    rng = np.random.default_rng(seed)
    kind = ("equilibrium", "solution")[seed % 2]
    pairs = [rng.uniform(-3, 3, 2).tolist() for _ in range(int(rng.integers(1, 6)))]
    xs = np.sort(rng.uniform(0.0, 6.0, int(rng.integers(1, 12)))).tolist()
    u, v, w = rng.uniform(-2, 2, 3).tolist()
    if kind == "equilibrium":
        # a_0 = -sum_k a_k u^k
        p0, q0 = (-sum(pair[i] * u ** k for k, pair in enumerate(pairs, 1)) for i in (0, 1))
        head = f"({p0!r}) + ({q0!r})*x"
        pivot = lambda x: u  # noqa: E731
    else:
        # a_0 = g' - sum_k a_k g^k
        g = f"(({u!r}) + ({v!r})*exp(({-w!r})*x))"
        terms = " + ".join(f"(({p!r}) + ({q!r})*x)*{g}^{k}" for k, (p, q) in enumerate(pairs, 1))
        head = f"({-v * w!r})*exp(({-w!r})*x) - ({terms})"
        pivot = lambda x: u + v * math.exp(-w * x)  # noqa: E731
    tail = [f"({p!r}) + ({q!r})*x" for p, q in pairs]
    return build_equation([head, *tail], 0.0), pivot, xs, kind


def expansion_sources(n):
    """The rows of (y - 1)(y + 2)^(n-1), ascending, as coefficient strings:
    1 is an equilibrium of every degree n."""
    poly = np.polynomial.polynomial
    return [repr(c) for c in poly.polymul([-1.0, 1.0], poly.polypow([2.0, 1.0], n - 1)).tolist()]


def table_input(case):
    """(equation, pivot, xs): seeded_pivot_case's for an int seed; for
    ("degree", n) a seeded degree-n equation whose a_1..a_n mix x and
    exp(-x), a pivot in sin(x) and 41 abscissae in [0, 6]; for ("points", m)
    the seeded cubic on m abscissae."""
    if isinstance(case, int):
        return seeded_pivot_case(case)[:3]
    kind, size = case
    degree, count = (size, 41) if kind == "degree" else (3, size)
    rng = np.random.default_rng([degree, count])
    tail = [f"({p!r}) + ({q!r})*x - ({r!r})*exp(-x)"
            for p, q, r in rng.uniform(-3, 3, (degree, 3)).tolist()]
    xs = np.linspace(0.0, 6.0, count).tolist()
    return build_equation(["1", *tail], 0.0), lambda x: 0.5 + math.sin(x), xs


def perturbed(pivot, xs, rng):
    """pivot as it is, moved by a seeded offset, drifting along x, NaN at one
    abscissa of xs, scaled up to 1e60..1e308 or wiggling on the scale of
    the difference step, by rng."""
    variant = int(rng.integers(0, 6))
    size = 10.0 ** rng.uniform(-13, -3)
    if variant == 1:
        return lambda x: pivot(x) + size
    if variant == 2:
        return lambda x: pivot(x) + size * x
    if variant == 3:
        bad = xs[int(rng.integers(len(xs)))]
        return lambda x: math.nan if x == bad else pivot(x)
    if variant == 4:
        return lambda x, huge=10.0 ** rng.uniform(60, 308): pivot(x) * huge
    if variant == 5:
        return lambda x: pivot(x) + 1e-6 * math.sin(1e5 * x)
    return pivot


class TestReduceAbout:
    def test_shift_about_unit_equilibrium(self):
        red = reduce_about(case1(), 1.0, PROBES)
        assert tuple(red.row(0.0)[k] for k in (1, 2, 3)) == (2.0, 4.0, 1.0)
        assert red.coefficients([0.0]).tolist() == [[2.0, 4.0, 1.0]]
        assert red.degree == 3

    def test_shifted_equation_has_matching_slope(self):
        # du/dx at u must equal dy/dx at y = pivot + u
        red = reduce_about(case1(), 1.0, PROBES)
        from abelode.core import eval_rhs
        for u in (-0.3, 0.1, 0.8):
            assert _horner(red.row(0.5), u) == pytest.approx(
                eval_rhs(case1(), 0.5, 1.0 + u), rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(g=st.floats(-3, 3, allow_nan=False),
           c0=st.floats(-4, 4, allow_nan=False),
           c1=st.floats(-4, 4, allow_nan=False),
           c2=st.floats(-4, 4, allow_nan=False),
           u=st.floats(-2, 2, allow_nan=False))
    def test_shift_identity_for_arbitrary_polynomials(self, g, c0, c1, c2, u):
        # composition check: P(u + g) as a polynomial in u, evaluated at u,
        # must agree with P evaluated at u + g; the pivot is forced to be a
        # root so that the shifted equation is well defined
        base = np.polynomial.polynomial.Polynomial((c0, c1, c2, 1.0))
        c0_adjusted = float(c0 - base(g))  # make g an exact root
        eq = build_equation(
            [repr(c0_adjusted), repr(c1), repr(c2), "1"], 0.0)
        red = reduce_about(eq, g, PROBES)
        shifted = sum(red.row(0.0)[k] * u ** k for k in (1, 2, 3))
        direct = np.polynomial.polynomial.Polynomial(
            (c0_adjusted, c1, c2, 1.0))(g + u)
        assert shifted == pytest.approx(direct, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("degree", [3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coefficients_match_power_sum_oracle(self, degree, seed):
        # oracle: c_k = sum_j C(j,k) a_j g^(j-k) summed term by term; the
        # package sums by Horner, so they may differ by rounding relative to
        # the sum of absolute terms, the scale of the 1e-12 tolerance
        rng = np.random.default_rng(seed)
        pairs = [(float(rng.uniform(-3, 3)), float(rng.uniform(-1, 1)))
                 for _ in range(degree + 1)]
        eq = build_equation([f"({p!r}) + ({q!r})*x" for p, q in pairs], 0.0)
        red = ReducedEquation(eq, lambda x: 0.5 + math.sin(x))
        xs = np.linspace(0.0, 4.0, 9).tolist()
        for x, got in zip(xs, red.coefficients(xs).tolist()):
            values, scales = taylor_power_sum(
                [p + q * x for p, q in pairs], 0.5 + math.sin(x))
            assert len(got) == degree
            for k in range(1, degree + 1):
                assert abs(got[k - 1] - values[k]) <= 1e-12 * scales[k]
                assert red.row(x)[k] == got[k - 1]

    def test_constant_term_is_never_evaluated(self):
        # a_0 enters only the dropped pivot residual, so where it is
        # undefined the coefficients still come from a_1..a_n; where a_2
        # fails, the tree walk's error names it
        eq = build_equation(["log(x)", "-1", "sqrt(1 - x)", "1"], 0.0)
        red = ReducedEquation(eq, lambda x: 0.25)
        xs = [0.0, 0.5, 1.0]
        rows = [[0.0] + [coeff(x) for coeff in eq.coeffs[1:]] for x in xs]
        assert red.coefficients(xs).tolist() == [[_taylor_entry(row, 0.25, k) for k in range(1, 4)]
                                                 for row in rows]
        with pytest.raises(ExprDomainError,
                           match=r"^sqrt\(-1\.0\) outside real domain at x=2\.0$"):
            red.coefficients([0.0, 2.0, 3.0])

    def test_coefficient_error_comes_before_the_pivot_error(self):
        # the table evaluates a_1..a_n on every abscissa before it calls the
        # pivot: a_2 failing at x = 2 is raised though the pivot fails at
        # x = 0 first, and at one abscissa the table raises what row(x) does
        eq = build_equation(["1", "-1", "sqrt(1 - x)", "1"], 0.0)
        red = ReducedEquation(eq, math.log)
        message = r"^sqrt\(-1\.0\) outside real domain at x=2\.0$"
        with pytest.raises(ExprDomainError, match=message):
            red.coefficients([0.0, 2.0])
        for call in (lambda: red.coefficients([2.0]), lambda: red.row(2.0)):
            with pytest.raises(ExprDomainError, match=message):
                call()
        with pytest.raises(ValueError, match="^math domain error$"):
            red.coefficients([0.0, 0.5])

    def test_pivot_must_be_a_root(self):
        with pytest.raises(NotASolutionError):
            reduce_about(case1(), 0.5, PROBES)

    def test_constant_pivot_must_stay_a_root_along_x(self):
        eq = build_equation(["3 - 2*exp(-2*x)", "-4", "0", "1"], 0.0)
        with pytest.raises(NotASolutionError):
            reduce_about(eq, 1.0, PROBES)  # a root only in the x -> infinity limit

    def test_checked_only_at_the_given_abscissae(self):
        # a coefficient undefined past x = 5 is never evaluated on [0, 4]; a
        # constant term nonzero only past x = 11 is refused at the first
        # abscissa there, and passes where none is past it
        root = build_equation(["sqrt(5 - x)", "-2*sqrt(5 - x)", "sqrt(5 - x)"], 0.0)
        assert reduce_about(root, 1.0, [0.0, 2.0, 4.0]).degree == 2
        with pytest.raises(ExprDomainError, match=r"^sqrt\(-5\.0\) outside real domain at x=10\.0$"):
            reduce_about(root, 1.0, [0.0, 10.0])
        kink = build_equation(["abs(x - 11) - (11 - x)", "-1"], 0.0)
        assert reduce_about(kink, 0.0, [0.0, 11.0]).degree == 1
        with pytest.raises(NotASolutionError, match=r"^pivot value 0\.0 is not a root at x=11\.5: "):
            reduce_about(kink, 0.0, [0.0, 11.5, 20.0])
        with pytest.raises(ValueError, match="^no abscissa to check the pivot at$"):
            reduce_about(kink, 0.0, [])

    def test_solution_pivot_accepted(self):
        riccati = build_equation(["1", "0", "-1"], 0.0)
        red = reduce_about(riccati, math.tanh, PROBES, kind="solution")
        assert red.degree == 2
        # shifted linear coefficient is -2*tanh(x)
        assert red.row(1.0)[1] == pytest.approx(-2.0 * math.tanh(1.0), rel=1e-12)

    def test_non_solution_pivot_rejected(self):
        riccati = build_equation(["1", "0", "-1"], 0.0)
        with pytest.raises(NotASolutionError):
            reduce_about(riccati, lambda x: x, PROBES, kind="solution")


class TestAgainstPerPointCheck:
    def test_same_outcome_where_the_scale_is_finite(self):
        # where the per-point copy's scale overflows it proved nothing, and
        # the array check refuses
        outcomes = set()
        for seed in range(240):
            equation, pivot, xs, kind = seeded_pivot_case(seed)
            pivot = perturbed(pivot, xs, np.random.default_rng([seed, 1]))
            refusal, scales = reference_check_pivot(equation.row, pivot, xs, kind)
            try:
                reduce_about(equation, pivot, xs, kind)
                got = None
            except NotASolutionError as err:
                got = str(err)
            if all(map(math.isfinite, scales)):
                assert got == refusal, seed
                outcomes.add((kind, got is None))
            else:
                assert got is not None, seed
        assert len(outcomes) == 4

    @pytest.mark.parametrize("case", [
        *range(6), *(pytest.param(("degree", n), id=f"degree{n}") for n in range(1, 7)),
        pytest.param(("points", 0), id="no-points"), pytest.param(("points", 1), id="one-point"),
    ])
    def test_table_is_the_stacked_scalar_rows(self, case):
        # an even seed's pivot is a constant, an odd seed's a function of x
        equation, pivot, xs = table_input(case)
        red = ReducedEquation(equation, pivot)
        table = red.coefficients(xs)
        assert table.shape == (len(xs), red.degree)
        assert table.tobytes() == np.array([red.row(x)[1:] for x in xs]).tobytes()


class TestOverflowingScale:
    @pytest.mark.parametrize("kind", ["equilibrium", "solution"])
    @pytest.mark.parametrize("value", [1e308, 1e200, -1e155])
    def test_refused(self, value, kind):
        # the residual and its scale both overflow: |inf| <= tol * inf once
        # let such a pivot pass
        with pytest.raises(NotASolutionError, match=r"^pivot .* at x=0\.0: residual -?inf$"):
            reduce_about(case1(), lambda x: value, PROBES, kind)

    def test_exact_root_with_an_overflowing_scale_is_refused(self):
        # F(1) is 0 exactly, but the scale 1 + 2 * 1.5e308 overflows
        eq = build_equation(["0", "1.5e308", "-1.5e308"], 0.0)
        with pytest.raises(NotASolutionError, match=r"^pivot value 1\.0 is not a root at x=0\.0: "
                           r"residual 0\.000e\+00$"):
            reduce_about(eq, 1.0, PROBES)


class TestNonFinitePivot:
    @pytest.mark.parametrize("pivot,kind,match", [
        (math.nan, "equilibrium", "is not finite"),
        (math.inf, "equilibrium", "is not finite"),
        (lambda x: math.nan if x > 0.0 else 1.0, "equilibrium", "is not finite"),
        (lambda x: math.nan, "solution", "residual nan"),
        (lambda x: 1e308 if x > 0.0 else -1e308, "equilibrium", r"^equilibrium pivot is not "
         r"constant: spread inf across the checked abscissae$"),
    ])
    def test_rejected(self, pivot, kind, match):
        # abs(nan) > tol is False: NaN used to pass both residual checks; a
        # spread past the float range is inf, not a RuntimeWarning
        with pytest.raises(NotASolutionError, match=match):
            reduce_about(case1(), pivot, PROBES, kind)

    def test_difference_step_past_the_largest_float(self):
        # x + h overflows to inf at the largest float: the pivot is called
        # there, as at any abscissa, and the constant root passes
        largest = np.finfo(float).max.item()
        calls = []
        reduce_about(case1(), lambda x: calls.append(x) or 1.0, [largest], "solution")
        assert calls[:2] == [largest, math.inf] and len(calls) == 3


class TestPivotTypes:
    # np.float32, np.int64 and Fraction constants used to be called as
    # functions (TypeError), True was taken as 1.0 and a string raised a
    # TypeError; log(x - 100) fails wherever it is evaluated, so a refusal
    # here comes before any coefficient is
    UNDEFINED = ["log(x - 100)", "-3", "1", "1"]

    @pytest.mark.parametrize("pivot", [
        1, 1.0, np.float64(1.0), np.float32(1.0), np.int64(1), Fraction(1),
    ])
    def test_real_constants_accepted(self, pivot):
        assert reduce_about(case1(), pivot, PROBES).coefficients([0.0]).tolist() == [[2.0, 4.0, 1.0]]
        worst, _, _ = roundtrip_check(case1(), pivot, 0.0, 1.0)
        assert worst <= 1e-6

    @pytest.mark.parametrize("pivot", [True, False, "1", None, 1j, [1.0]])
    def test_others_refused_before_evaluation(self, pivot):
        message = f"^pivot must be a real number, got {re.escape(repr(pivot))}$"
        eq = build_equation(self.UNDEFINED, 0.0)
        for kind in ("equilibrium", "solution"):
            with pytest.raises(ValueError, match=message):
                reduce_about(eq, pivot, PROBES, kind)
        with pytest.raises(ValueError, match=message):
            roundtrip_check(eq, pivot, 0.0, 1.0)

    def test_non_constant_equilibrium_pivot_refused(self):
        with pytest.raises(NotASolutionError, match=r"^equilibrium pivot is not constant: "
                           r"spread 1\.000e\+01 across the checked abscissae$"):
            reduce_about(case1(), lambda x: x, PROBES)


class TestSecondKind:
    def test_coefficient_triple(self):
        form = SecondKindForm(reduce_about(case1(), 1.0, PROBES))
        assert form.reduced.row(0.0)[1:] == [2.0, 4.0, 1.0]

    @pytest.mark.parametrize("x,v,sources", [
        pytest.param(x, v, sources, id=f"{v}-{x}{tag}")
        for tag, sources in [("", CASE1_SOURCES),
                             *((f"-degree{n}", expansion_sources(n)) for n in range(1, 7))]
        for v in (0.5, -0.3, 2.0) for x in (0.0, 1.5, 7.0)
    ])
    def test_residual_vanishes_on_the_reciprocal_deviation(self, x, v, sources):
        # w = 1/v turns v' = rhs(x, v) into w' = -rhs(x, v) / v^2, the
        # second-kind equation: the residual is rounding alone
        reduced = reduce_about(build_equation(sources, 0.0), 1.0, PROBES)
        w_prime = -_horner(reduced.row(x), v) / v**2
        residual = SecondKindForm(reduced).residual(x, 1.0 / v, w_prime)
        assert abs(residual) <= 1e-12 * (1.0 + abs(w_prime))

    def test_zero_state_rejected(self):
        form = SecondKindForm(reduce_about(case1(), 1.0, PROBES))
        with pytest.raises(ZeroDivisionError):
            form.rhs(0.0, 0.0)

    @pytest.mark.parametrize("w0", [-2.0, 0.5, 2.0])
    def test_riccati_about_tanh_against_closed_form(self, w0):
        # y' = 1 - y^2 about tanh: c_1 = -2 tanh x and c_2 = -1, so the form is
        # w' = 2 tanh(x) w + 1, solved by w = cosh(x)^2 (w0 + tanh x); y =
        # tanh + 1/w then solves y' = 1 - y^2 from y(0) = 1/w0
        riccati = build_equation(["1", "0", "-1"], 0.0)
        form = SecondKindForm(reduce_about(riccati, math.tanh, PROBES, kind="solution"))
        marks = [0.5, 1.0, 2.0, 3.0]
        for x in [0.0, *marks]:
            w = math.cosh(x) ** 2 * (w0 + math.tanh(x))
            w_prime = 2.0 * math.sinh(x) * math.cosh(x) * (w0 + math.tanh(x)) + 1.0
            assert abs(form.residual(x, w, w_prime)) <= 1e-12 * (1.0 + abs(w_prime))
        result = integrate(riccati, 1.0 / w0, marks[-1], checkpoints=marks)
        exact = [math.tanh(x) + 1.0 / (math.cosh(x) ** 2 * (w0 + math.tanh(x))) for x in marks]
        assert result.completed
        assert np.max(np.abs(result.interp(marks) - exact)) <= 1e-6

    def test_riccati_about_a_known_solution_against_quadrature(self):
        # y' = a_0 + a_1 y + y^2 with a_1 = -3 and the solution g = 0.5 +
        # 0.3 exp(-0.7 x), so a_0 = g' - a_1 g - g^2; about g, c_1 = -3 + 2 g
        # and c_2 = 1, and w = 1/(y - g) solves w' = -(c_1 w + c_2), one
        # quadrature from w(0) = w0 (oracles.linear_first_order)
        def g(x):
            return 0.5 + 0.3 * math.exp(-0.7 * x)

        def g_mp(t):
            return mpmath.mpf("0.5") + mpmath.mpf("0.3") * mpmath.exp(-rate * t)

        source = "(0.5 + 0.3*exp(-0.7*x))"
        equation = build_equation([f"-0.21*exp(-0.7*x) + 3*{source} - {source}^2", "-3", "1"],
                                  0.0)
        marks = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        form = SecondKindForm(reduce_about(equation, g, [0.0, *marks], kind="solution"))
        w0, rate = 5.0, mpmath.mpf("0.7")
        exact = {x: linear_first_order(
            lambda t: 2 * g_mp(t) - 3,
            lambda t: -2 * t + mpmath.mpf("0.6") / rate * (1 - mpmath.exp(-rate * t)),
            lambda t: mpmath.mpf(1), w0, x) for x in [0.0, *marks]}
        for x, (w, w_prime) in exact.items():
            assert abs(form.residual(x, w, w_prime)) <= 1e-12 * (1.0 + abs(w_prime))
        result = integrate(equation, g(0.0) + 1.0 / w0, marks[-1],
                           SolverConfig(atol=1e-12, rtol=1e-12), checkpoints=marks)
        assert result.completed
        trajectory = [g(x) + 1.0 / exact[x][0] for x in marks]
        assert np.max(np.abs(result.interp(marks) - trajectory)) <= 1e-8

class TestRoundTrip:
    def test_equilibrium_pivot_round_trip(self):
        worst, original, shifted = roundtrip_check(case1(), 1.0, 0.0, 5.0)
        assert type(worst) is float and worst <= 1e-6
        assert original.completed and shifted.completed
        assert original.final_x == shifted.final_x == 5.0

    def test_pivot_checked_at_x0_and_the_marks(self):
        # coefficients undefined past x = 5 are never evaluated on [0, 4]; a
        # constant term nonzero past x = 11 is refused at the first mark there
        root = build_equation(["sqrt(5 - x)", "-2*sqrt(5 - x)", "sqrt(5 - x)"], 0.0)
        worst, _, _ = roundtrip_check(root, 1.0, 0.5, 4.0)
        assert worst <= 1e-6
        kink = build_equation(["abs(x - 11) - (11 - x)", "-1"], 0.0)
        worst, _, _ = roundtrip_check(kink, 0.0, 0.5, 11.0, checkpoints=[2.0, 8.0])
        assert worst <= 1e-6
        with pytest.raises(NotASolutionError, match=r"^pivot value 0\.0 is not a root at x=12\.0: "):
            roundtrip_check(kink, 0.0, 0.5, 20.0, checkpoints=[2.0, 8.0, 12.0])

    @pytest.mark.parametrize("x_end", [0.0, 1.0])
    def test_horizon_refused_before_any_evaluation(self, x_end):
        # reduce_about used to check the pivot at x_end first: at x_end = 0,
        # case 2's 1 - 1/x raised ExprDomainError (division by zero)
        calls = []

        def pivot(x):
            calls.append(x)
            return 0.3819660112501051

        message = f"^{re.escape(f'x_end={x_end!r} must exceed x0=1.0')}$"
        with pytest.raises(ValueError, match=message):
            roundtrip_check(get_case(2).equation, pivot, 0.0, x_end)
        assert calls == []

    def test_overflowing_jacobian_round_trip(self):
        # both runs ended newton-failure while 2 c_2 = inf made J NaN at y = 0
        worst, original, shifted = roundtrip_check(
            build_equation(["0", "1e308", "1e308"], 0.0), 0.0, 0.0, 1.0)
        assert worst == 0.0 and original.completed and shifted.completed

    def test_solution_pivot_round_trip(self):
        riccati = build_equation(["1", "0", "-1"], 0.0)
        worst, _, _ = roundtrip_check(riccati, math.tanh, 0.5, 3.0, kind="solution")
        assert worst <= 1e-6

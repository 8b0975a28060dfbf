import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strategies import expressions, grids

from abelode.core import (
    LeadingCoefficientError,
    NormalForm,
    _horner,
    _taylor_entry,
    build_equation,
    eval_drhs,
    eval_rhs,
    normalize,
)
from abelode.equilibrium import GridSpec, continue_branch
from abelode.expr import Expr, ExprDomainError

coeff_floats = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def cubic(a0, a1, a2, a3, x0=0.0):
    return build_equation([repr(a0), repr(a1), repr(a2), repr(a3)], x0)


class TestBuildEquation:
    def test_degree_and_coefficient_sources(self):
        sources = ["1", "-3", "1 - 1/x", "1"]
        eq = build_equation(sources, 0.0)
        assert eq.degree == 3
        assert all(isinstance(c, Expr) for c in eq.coeffs)
        assert [c.source for c in eq.coeffs] == sources
        assert eq.leading is eq.coeffs[-1]
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
        # lambda_0..lambda_2, then the top coefficient of the monic form
        assert nf.sample(0.0) == (2.0, [2.0, -3.0, 1.0, 1.0])

    def test_evaluates_nothing(self):
        # a3 = 10 - x vanishes at x = 10, past a range that ends at 5
        eq = build_equation(["10 - x", "-3*(10 - x)", "10 - x", "10 - x"], 0.0)
        nf = normalize(eq)
        assert nf == NormalForm(eq) and nf.equation is eq
        assert nf.sample(5.0)[0] == 5.0

    # normalize refuses nothing: the first stage that samples x0 does
    def test_vanishing_leading_coefficient_rejected(self):
        nf = normalize(build_equation(["1", "0", "0", "x"], 0.0))  # a3(x0) = 0
        with pytest.raises(LeadingCoefficientError):
            nf.sample(0.0)

    @pytest.mark.parametrize("degree", [1, 3, 5])
    def test_vanishing_leading_coefficient_is_named_by_degree(self, degree):
        nf = normalize(build_equation(["1"] * degree + ["x"], 0.0))
        message = rf"^leading coefficient a{degree} vanishes at x=0\.0$"
        with pytest.raises(LeadingCoefficientError, match=message):
            nf.sample(0.0)
        with pytest.raises(LeadingCoefficientError, match=message):
            continue_branch(nf, GridSpec(0.0, 1.0, 11))

    def test_leading_zero_away_from_x0_rejected(self):
        # the branch grid meets 2 - x = 0 at its third point
        nf = normalize(build_equation(["1", "0", "0", "2 - x"], 0.0))
        with pytest.raises(LeadingCoefficientError,
                           match=r"^leading coefficient a3 vanishes at x=2\.0$"):
            continue_branch(nf, GridSpec(0.0, 4.0, 5))

    def test_leading_zero_met_by_sample_is_typed(self):
        nf = normalize(build_equation(["1", "-3", "1", "x - 3"], 0.0))
        with pytest.raises(LeadingCoefficientError, match="x=3.0"):
            nf.sample(3.0)
        assert _grid(nf, [2.0, 3.0]) == _stacked(nf, [2.0, 3.0])
        assert _grid(nf, [2.0, 3.0])[0] == [True, False]

    def test_leading_zero_left_of_x0_is_never_met(self):
        # a3 = 1 - 1/x vanishes at x = 1, left of x0 = 2
        eq = build_equation(["1", "0", "0", "1 - 1/x"], 2.0)
        nf = normalize(eq)
        assert nf.sample(2.0)[0] == 0.5


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
            a3 * _horner(nf.sample(0.0)[1], y), rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(a0=coeff_floats, a1=coeff_floats, a2=coeff_floats,
           a3=st.floats(0.3, 5.0), y=st.floats(-4, 4, allow_nan=False))
    def test_drhs_matches_finite_difference(self, a0, a1, a2, a3, y):
        eq = cubic(a0, a1, a2, a3)
        h = 1e-6
        fd = (eval_rhs(eq, 0.0, y + h) - eval_rhs(eq, 0.0, y - h)) / (2 * h)
        assert eval_drhs(eq, 0.0, y) == pytest.approx(fd, rel=1e-6, abs=1e-5)

    def test_overflowing_derivative_term_is_rescaled(self):
        # 2 a_2 = inf made inf * 0 + 1e308 = NaN at y = 0; the exact value is 1e308
        eq = build_equation(["0", "1e308", "1e308"], 0.0)
        assert eval_drhs(eq, 0.0, 0.0) == 1e308
        assert eval_rhs(eq, 0.0, 0.0) == 0.0

    def test_dF_on_known_cubic(self):
        # F = y^3 + y^2 - 3y + 1, dF = 3y^2 + 2y - 3
        nf = normalize(build_equation(["1", "-3", "1", "1"], 0.0))
        for y in (-2.0, 0.0, 0.4142, 3.0):
            assert _taylor_entry(nf.sample(0.0)[1], y, 1) == pytest.approx(
                3 * y * y + 2 * y - 3, rel=1e-13, abs=1e-13)

    def test_x_dependence_flows_through(self):
        eq = build_equation(["3 - 2*exp(-2*x)", "-4", "0", "1"], 0.0)
        assert eval_rhs(eq, 0.0, 1.0) == pytest.approx(1.0 - 4.0 + 1.0, abs=1e-15)
        big_x = eval_rhs(eq, 30.0, 1.0)
        assert big_x == pytest.approx(0.0, abs=1e-12)  # (1 - 4 + 3) at the tail


def _zero_seeded(coefficients, y):
    """Horner's rule seeded at 0.0, the loop _horner replaced."""
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * y + c
    return acc


_any_float = st.floats(allow_nan=True, allow_infinity=True)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _nonzero_led_rows(draw, width):
    """Ascending coefficients of 1-6 entries whose leading one is nonzero:
    floats (width None) or arrays of width entries each."""
    size = draw(st.integers(1, 6))
    if width is None:
        tail = draw(st.lists(_any_float, min_size=size - 1, max_size=size - 1))
        return tail + [draw(_any_float.filter(lambda c: c != 0.0))]
    columns = [draw(st.lists(_any_float, min_size=width, max_size=width))
               for _ in range(size - 1)]
    top = draw(st.lists(_any_float.filter(lambda c: c != 0.0), min_size=width, max_size=width))
    return [np.array(c) for c in columns + [top]]


class TestHorner:
    """core._horner starts at the leading coefficient."""

    def test_empty_row_is_zero(self):
        for y in (2.0, -0.0, np.arange(3.0)):
            value = _horner([], y)
            assert type(value) is float and value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_one_coefficient_broadcasts_like_the_zero_seed(self):
        for c, y in [(2.5, np.arange(4.0)), (-0.5, np.zeros((3, 4))),
                     (np.arange(3.0)[:, None], np.zeros((3, 4)))]:
            got, seeded = _horner([c], y), _zero_seeded([c], y)
            assert got.shape == seeded.shape
            assert got.tobytes() == seeded.tobytes()
        assert _horner([2.5], 7.0) == 2.5

    @settings(max_examples=200, deadline=None)
    @given(row=_nonzero_led_rows(None), y=_finite)
    def test_scalar_rows_match_the_zero_seed(self, row, y):
        # which payload survives an addition of two NaNs is not fixed, even
        # for one function and one input, so NaN results compare by NaN-ness
        got, seeded = _horner(row, y), _zero_seeded(row, y)
        if math.isnan(got) or math.isnan(seeded):
            assert math.isnan(got) and math.isnan(seeded)
        else:
            assert np.array(got).tobytes() == np.array(seeded).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), width=st.integers(1, 5))
    def test_array_rows_match_the_zero_seed(self, data, width):
        row = data.draw(_nonzero_led_rows(width))
        y = np.array(data.draw(st.lists(_finite, min_size=width, max_size=width)))
        with np.errstate(all="ignore"):
            assert _horner(row, y).tobytes() == _zero_seeded(row, y).tobytes()

    def test_inputs_are_never_modified(self):
        rows = np.array([[1.0, -3.0, 1.0, 1.0], [0.5, 2.0, -1.0, 1.0]])
        y = np.array([0.25, -2.0])
        saved = rows.tobytes(), y.tobytes()
        for row in (list(rows.T), rows.T, rows.T[:, :, None], list(rows.T[-1:])):
            for at in (y, 3.0):
                value = _horner(row, at)
                value *= 2.0  # a result never shares memory with an input
        assert (rows.tobytes(), y.tobytes()) == saved

    @pytest.mark.parametrize("shape", ["floats", "points", "table"])
    def test_in_place_steps_match_the_allocating_loop(self, shape):
        # rows of 2-6 coefficients with NaN, +-inf and -0.0 among them, at
        # points with the same: floats, (N,) points with (N,) columns, and
        # (w, N) points with (N,) columns; the coefficients and y are not
        # written, and every result is the allocating loop's bytes
        rng = np.random.default_rng(51)
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e-320])
        for m in range(2, 7):
            columns = rng.uniform(-3.0, 3.0, (m, 12))
            columns.flat[rng.choice(columns.size, 8, replace=False)] = rng.choice(specials, 8)
            y = rng.uniform(-2.0, 2.0, (3, 12))
            y.flat[rng.choice(y.size, 6, replace=False)] = rng.choice(specials, 6)
            cases = {"floats": [(columns[:, j].tolist(), float(y[0, j])) for j in range(12)],
                     "points": [(list(columns), y[0])],
                     "table": [(list(columns), y)]}[shape]
            for row, at in cases:
                saved = [np.array(c).tobytes() for c in row], np.array(at).tobytes()
                with np.errstate(all="ignore"):
                    got, plain = _horner(row, at), _allocating(row, at)
                assert ([np.array(c).tobytes() for c in row], np.array(at).tobytes()) == saved
                assert np.array(got).tobytes() == np.array(plain).tobytes()

    def test_lower_coefficient_of_higher_rank_takes_the_allocating_step(self):
        # the leading coefficients and y are (N,), a lower one is (w, N) or
        # (w, 1): the in-place step cannot hold it, and the result is the
        # allocating loop's, in the broadcast shape
        y = np.array([0.5, -2.0, 3.0])
        for lower in (np.arange(6.0).reshape(2, 3), np.array([[1.5], [-0.0]])):
            for row in ([lower, 1.0, np.array([2.0, -1.0, 0.25]), np.array([1.0, 4.0, -3.0])],
                        [lower, np.full(3, -0.0), 2.0, 1.0]):
                saved = [np.array(c).tobytes() for c in row]
                got = _horner(row, y)
                assert got.shape == (2, 3)
                assert got.tobytes() == _allocating(row, y).tobytes()
                assert [np.array(c).tobytes() for c in row] == saved

    def test_float_coefficient_on_integer_rows(self):
        # numpy will not add a float into an integer acc in place: that
        # step allocates, as the loop does
        row = [np.array([1.5, -0.5]), np.array([2, 3]), np.array([1, -1])]
        y = np.array([2, 5])
        assert _horner(row, y).tobytes() == _allocating(row, y).tobytes()
        assert _horner(row[1:], y).dtype == np.int64


def _allocating(coefficients, y):
    """Horner's rule from the leading coefficient with a new array per step,
    the loop _horner's in-place steps replaced."""
    acc = coefficients[-1]
    for c in coefficients[-2::-1]:
        acc = acc * y + c
    return acc



def _taylor_entries(coefficients, g):
    """_taylor_entry for every k, 0..n-1."""
    return [_taylor_entry(coefficients, g, k) for k in range(len(coefficients))]


def _binomial_horner(coefficients, g):
    """The Taylor entries as summed before the rescaling: binom(j, k) c_j
    formed first, then Horner in g."""
    n = len(coefficients)
    return [_horner([math.comb(j, k) * coefficients[j] for j in range(k, n)], g)
            for k in range(n)]


def _exact_shift(coefficients, g):
    """Each Taylor entry and Higham's Horner error bound for it, in
    rational arithmetic: gamma_{2m+1} sum_j binom(j, k) |c_j| |g|^{j-k} for
    m = n - 1 - k, one more rounding for forming binom(j, k) c_j."""
    n, u = len(coefficients), Fraction(1, 2**53)
    row, g = [Fraction(c) for c in coefficients], Fraction(g)
    out = []
    for k in range(n):
        terms = [math.comb(j, k) * row[j] * g ** (j - k) for j in range(k, n)]
        rounds = 2 * (n - 1 - k) + 1
        out.append((sum(terms), rounds * u / (1 - rounds * u) * sum(map(abs, terms))))
    return out


class TestTaylorShift:
    """core._taylor_entry, taken for every k (the Taylor shift of a row),
    rescales an entry whose binomial terms overflow."""

    def test_overflowing_binomial_term_is_rescaled(self):
        # binom(2, 1) 1e308 overflows and inf * 0 was NaN; the exact c_1 is 1e308
        row = [0.0, 1e308, 1e308]
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(_binomial_horner(row, 0.0)[1])
            got = _taylor_entries(row, 0.0)
        assert [Fraction(v) for v in got] == [exact for exact, _ in _exact_shift(row, 0.0)]
        assert got == [0.0, 1e308, 1e308]

    def test_random_rows_against_exact_rationals(self):
        # rows of degrees 1-5 with coefficients up to the float range, so
        # that binom(j, k) c_j overflows on many: each entry is within its
        # rounding bound of the exact value, or inf where even that bound
        # cannot bring the exact value into range
        rng = np.random.default_rng(41)
        largest = Fraction(np.finfo(float).max)
        rescaled = 0
        for _ in range(600):
            n = int(rng.integers(2, 7))
            row = (rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(304.0, 308.25, n)).tolist()
            g = float(rng.choice([0.0, rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)]))
            with np.errstate(over="ignore", invalid="ignore"):
                got, plain = _taylor_entries(row, g), _binomial_horner(row, g)
            for value, before, (exact, bound) in zip(got, plain, _exact_shift(row, g)):
                if math.isfinite(before):
                    assert value.hex() == before.hex()
                else:
                    rescaled += 1
                if abs(exact) + bound < largest:
                    assert math.isfinite(value) and abs(Fraction(value) - exact) <= bound
                elif abs(exact) - bound > largest:
                    assert math.isinf(value) and (value > 0) == (exact > 0)
        assert rescaled > 150

    def test_arrays_match_scalar_entries_bit_for_bit(self):
        # one polynomial per array entry; entries that never overflow keep
        # the plain binomial sum's bits
        rng = np.random.default_rng(7)
        scale = np.where(rng.random((4, 50)) < 0.5, 1.0, 1e307)
        rows = rng.uniform(-1.0, 1.0, (4, 50)) * scale * 10.0 ** rng.uniform(-3.0, 1.25, (4, 50))
        g = rng.uniform(-1.5, 1.5, 50)
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = _taylor_entries(list(rows), g)
            scalar = [_taylor_entries(rows[:, i].tolist(), float(g[i])) for i in range(50)]
            plain = _binomial_horner(list(rows), g)
        assert np.array(shifted).T.tobytes() == np.array(scalar).tobytes()
        finite = np.isfinite(plain)
        assert not finite.all()
        assert np.array(shifted)[finite].tobytes() == np.array(plain)[finite].tobytes()

    def test_non_finite_coefficients_stay_non_finite(self):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _taylor_entries([math.nan, 1e308, math.inf], 0.0)
        assert math.isnan(got[0]) and math.isnan(got[1]) and got[2] == math.inf

def _stacked(nf, xs):
    """sample at each point: the mask of points where it returns, and the
    bytes of a_n and of the rows there, stacked."""
    defined, leading, rows = [], [], []
    for x in xs:
        try:
            an, row = nf.sample(x)
        except (ExprDomainError, LeadingCoefficientError):
            defined.append(False)
            continue
        defined.append(True)
        leading.append(an)
        rows.append(row)
    return defined, np.array(leading).tobytes(), np.array(rows).tobytes()


def _grid(nf, xs):
    """sample_grid in _stacked's terms, after checking that a_n, the row and
    every slope that is an array are NaN wherever the mask is False, and
    that the monic row's last slope is 0.0."""
    leading, rows, slopes, defined = nf.sample_grid(xs)
    assert leading.shape == defined.shape == (len(xs),)
    assert rows.shape == (len(xs), nf.degree + 1)
    assert np.isnan(leading[~defined]).all() and np.isnan(rows[~defined]).all()
    assert len(slopes) == nf.degree + 1 and slopes[-1] == 0.0
    for slope in slopes:
        assert slope == 0.0 if type(slope) is float else np.isnan(slope[~defined]).all()
    return defined.tolist(), leading[defined].tobytes(), rows[defined].tobytes()


class TestSampleGrid:
    @settings(max_examples=150, deadline=None)
    @given(
        sources=st.lists(expressions, min_size=2, max_size=4),
        xs=grids,
    )
    def test_equals_stacked_sample(self, sources, xs):
        nf = normalize(build_equation(sources, 0.0))
        assert _grid(nf, xs) == _stacked(nf, xs)

    @pytest.mark.parametrize("sources,xs", [
        # a_n vanishes at 1 and a_0 fails at 2, met in either order
        (["log(2 - x)", "x - 1"], [0.0, 1.0, 2.0]),
        (["log(2 - x)", "x - 1"], [0.0, 2.0, 1.0]),
        # at one point a_n fails before a_0 is evaluated
        (["1/x", "sqrt(x)"], [1.0, -1.0, 0.0]),
        # a_0 / a_n overflows to inf without an error
        (["1e200", "0", "1e-200"], [0.0, 1.0]),
    ])
    def test_error_order_and_overflow(self, sources, xs):
        eq = build_equation(sources, 0.0)
        nf = NormalForm(eq)
        assert _grid(nf, xs) == _stacked(nf, xs)


def _point(evaluate, x):
    """The values at x flattened to bytes (the sign of zero included), or the
    error raised, as (type, message)."""
    try:
        value = evaluate(x)
    except (ExprDomainError, LeadingCoefficientError) as err:
        return type(err), str(err)
    if isinstance(value, tuple):  # sample's (a_n, monic row)
        value = [value[0]] + value[1]
    return np.array(value, dtype=float).tobytes()


def _tree_row(equation):
    return lambda x: [c.eval(x) for c in equation.coeffs]


def _tree_sample(nf):
    """sample by the tree walk alone: a_n and its zero check first."""
    coeffs = nf.equation.coeffs

    def sample(x):
        an = coeffs[-1].eval(x)
        if an == 0.0:
            raise LeadingCoefficientError(len(coeffs) - 1, x)
        return an, [c.eval(x) / an for c in coeffs[:-1]] + [1.0]

    return sample


class TestCompiledRows:
    """row and sample read one compiled row and give what the tree walk
    gives, bit for bit, or raise its error with its message."""

    @settings(max_examples=200, deadline=None)
    @given(sources=st.lists(expressions, min_size=2, max_size=4), xs=grids)
    def test_row_and_sample_equal_tree_walk(self, sources, xs):
        eq = build_equation(sources, 0.0)
        nf = NormalForm(eq)
        for x in xs:
            assert _point(eq.row, x) == _point(_tree_row(eq), x)
            assert _point(nf.sample, x) == _point(_tree_sample(nf), x)

    def test_leading_coefficient_is_checked_first(self):
        # a_0 = log(x) fails at 0, but sample checks a_n = x first
        eq = build_equation(["log(x)", "1", "x"], 0.0)
        nf = NormalForm(eq)
        with pytest.raises(LeadingCoefficientError,
                           match=r"^leading coefficient a2 vanishes at x=0\.0$"):
            nf.sample(0.0)
        with pytest.raises(ExprDomainError, match=r"^log\(0\.0\) outside real domain at x=0\.0$"):
            eq.row(0.0)

    def test_row_is_compiled_once(self):
        eq = build_equation(["1 - 1/x", "-2", "-2", "1"], 1.0)
        compiled = eq.row
        eq.row(2.0)
        normalize(eq).sample(3.0)
        assert eq.row is compiled

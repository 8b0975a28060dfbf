"""compile_dual: each row's values are the columns compile_row gives point
by point, bit for bit, errors included, and its slopes are the exact
x-derivatives up to rounding."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strategies import expressions, grids
from oracles import reference_slope

from abelode.expr import ExprDomainError, compile_dual, compile_row, parse

#: expressions that read x ("exp" aside), so that most judged slopes are not 0
varying = expressions.filter(lambda source: "x" in source.replace("exp", ""))

#: |slope - mpmath.diff| allowed, relative to the chain rule's scale on
#: absolute values (oracles._node); fixed before the first run
SLOPE_TOL = 1e-9


def _outcome(evaluate, xs):
    """The values as bytes, or the ExprDomainError message."""
    try:
        return np.asarray(evaluate(xs), dtype=float).tobytes()
    except ExprDomainError as err:
        return str(err)


def compile_grid(exprs):
    """The grid path by points: compile_row(exprs) at each abscissa in
    order, as (len(exprs), N) columns, or the ExprDomainError it raises at
    the first failing one."""
    row = compile_row(exprs)
    return lambda xs: np.array([row(x) for x in xs], dtype=float).reshape(len(xs), len(exprs)).T


def _values(dual):
    """dual's values half, the (len(exprs), N) columns."""
    return lambda xs: dual(xs)[0]


def _slope_at(dual, x):
    """The one expression's slope at x as a float, or None where its value fails."""
    try:
        _, (slope,) = dual([x])
    except ExprDomainError:
        return None
    return float(slope[0]) if isinstance(slope, np.ndarray) else slope


class TestValues:
    @settings(max_examples=300, deadline=None)
    @given(source=expressions, xs=grids, rest=st.lists(expressions, max_size=3))
    def test_values_are_compile_grids(self, source, xs, rest):
        exprs = [parse(text) for text in [source, *rest]]
        assert _outcome(_values(compile_dual(exprs)), xs) == _outcome(compile_grid(exprs), xs)

    @pytest.mark.parametrize("source,xs", [
        ("(x - 1)^0.5", [2.0, 0.5, -1.0]),
        ("1/(x - 2)", [0.0, 2.0, 3.0]),
        ("exp(710*x)", [0.0, 2.0, 1.0]),
        ("log(x)", [1.0, -1.0, 0.0]),
        ("1e300*x*x", [1.0, 1e10]),
        ("1/(1/(x - x))", [1.0, 2.0]),
        ("x + log(0 - 1)", [1.0, 2.0]),
    ])
    def test_errors_are_compile_grids(self, source, xs):
        exprs = [parse(source), parse("x")]
        message = _outcome(compile_grid(exprs), xs)
        assert isinstance(message, str)
        assert _outcome(_values(compile_dual(exprs)), xs) == message

    def test_rows_without_x_do_no_array_work(self):
        # each value is its constant repeated, and no slope is an array
        exprs = [parse(source) for source in ("1", "-3", "pi", "2^0.5")]
        values, slopes = compile_dual(exprs)(np.linspace(0.0, 1.0, 5))
        assert values.tolist() == [[v] * 5 for v in (1.0, -3.0, math.pi, 2.0 ** 0.5)]
        assert slopes == (0.0, 0.0, 0.0, 0.0)
        assert all(type(s) is float for s in slopes)


class TestSlopes:
    @settings(max_examples=200, deadline=None)
    @given(source=varying, xs=grids)
    def test_slopes_match_mpmath_diff(self, source, xs):
        # judged where floats evaluate the expression to 1e-12 at every node,
        # away from kinks and poles (reference_slope is None elsewhere); the
        # slope must be finite there
        dual = compile_dual([parse(source)])
        for x in xs[:8]:
            slope = _slope_at(dual, x)
            reference = None if slope is None else reference_slope(source, x)
            if reference is None:
                continue
            exact, scale = reference
            assert math.isfinite(slope), (source, x)
            assert abs(mpmath.mpf(slope) - exact) <= SLOPE_TOL * scale, (source, x)

    @pytest.mark.parametrize("source,x", [
        ("x^x", 1.7),
        ("2^x - x^2.5", 3.25),
        ("exp(-2*x)*sqrt(x)", 0.3),
        ("log(abs(x - 3))/x", 1.1),
        ("log(abs(x - 3))/x", 4.5),
        ("1/(1 + x^2) - 3*x^3", -2.0),
        ("(1 - x)^1.5 * exp(x)^-1", 0.25),
        ("-(x*pi)/e + sqrt(x^2 + 1)", -7.5),
    ])
    def test_known_slopes(self, source, x):
        slope = _slope_at(compile_dual([parse(source)]), x)
        exact, scale = reference_slope(source, x)
        assert abs(mpmath.mpf(slope) - exact) <= SLOPE_TOL * scale

    @pytest.mark.parametrize("source,x", [
        ("sqrt(x)", 0.0), ("abs(x - 1)", 1.0), ("x^x", 0.0), ("(0 - 2)^x", 2.0),
        ("2*sqrt(x - x)", 3.0),
    ])
    def test_undefined_slopes_are_not_finite(self, source, x):
        # sqrt and abs where the argument vanishes, a^b with b on x where
        # a <= 0; the value itself evaluates
        slope = _slope_at(compile_dual([parse(source)]), x)
        assert slope is not None and not math.isfinite(slope)

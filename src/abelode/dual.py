"""x-derivatives of a coefficient row by forward-mode differentiation.

compile_dual(exprs) runs the code expr._generate emits for a row (the code
of compile_row and compile_grid) over value/slope pairs (Griewank and
Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 3): x is the pair
(xs, 1), and each operation gives its value as compile_grid computes it,
bit for bit, and its slope by the chain rule:

  * "+ - * /" and "0.0 - a" by the sum, product and quotient rules;
  * exp(u)' = exp(u) u', log(u)' = u'/u, sqrt(u)' = u'/(2 sqrt u) and
    abs(u)' = sign(u) u', the last two undefined where u = 0;
  * (a^b)' = b a^(b-1) a' where b has no x, else a^b (b' log a + b a'/a),
    undefined where a <= 0.

A value runs through math or numpy as on the grid path; a slope runs as
numpy operations with warnings off, so an undefined or overflowing slope is
inf or NaN where it occurs, never an exception.  A subexpression without x
is a float, as in compile_grid: it has no slope, and a coefficient without
x gets its float value and the slope 0.0, with no array work.

Loaded on first use (AbelEquation.dual), so a process that never reads a
branch slope never imports it.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import _divisor, _elementwise, _generate, compile_grid

__all__ = ["compile_dual"]


class _Dual:
    """A subexpression with x on a grid: its value, computed with compile_grid's
    ufuncs ("/" refusing a zero divisor as _Grid does), and its x-derivative,
    both plain arrays.  The other operand of an operation is a _Dual or a
    float without x."""

    __slots__ = ("value", "slope")

    def __init__(self, value, slope):
        self.value, self.slope = value, slope

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.value + other.value, self.slope + other.slope)
        return _Dual(self.value + other, self.slope)

    def __radd__(self, other):
        return _Dual(other + self.value, self.slope)

    def __sub__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.value - other.value, self.slope - other.slope)
        return _Dual(self.value - other, self.slope)

    def __rsub__(self, other):
        return _Dual(other - self.value, -self.slope)

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.value * other.value,
                         self.slope * other.value + self.value * other.slope)
        return _Dual(self.value * other, self.slope * other)

    def __rmul__(self, other):
        return _Dual(other * self.value, other * self.slope)

    def __truediv__(self, other):
        # the value's divisor has no zero, so neither has the slope's
        if isinstance(other, _Dual):
            value = np.divide(self.value, _divisor(other.value))
            return _Dual(value, (self.slope - value * other.slope) / other.value)
        return _Dual(np.divide(self.value, _divisor(other)), self.slope / other)

    def __rtruediv__(self, other):
        value = np.divide(other, _divisor(self.value))
        return _Dual(value, -(value * self.slope) / self.value)


def _pow_slope(value, a, b):
    if not isinstance(b, _Dual):
        return b * np.power(a.value, b - 1.0) * a.slope
    if not isinstance(a, _Dual):
        return value * (b.slope * np.log(a))
    return value * (b.slope * np.log(a.value) + b.value * a.slope / a.value)


#: the slope of each function from its value and its arguments
_SLOPES = {
    math.exp: lambda value, u: value * u.slope,
    math.log: lambda value, u: u.slope / u.value,
    math.sqrt: lambda value, u: u.slope / (2.0 * value),
    # sign(u) u' as u' / sign(u): infinite or NaN where u = 0
    abs: lambda value, u: u.slope / np.sign(u.value),
    math.pow: _pow_slope,
}


def _lift(fn):
    """fn on pairs: its value through math per element, as compile_grid runs
    it, and the slope _SLOPES gives; fn itself where no argument has x."""
    values, slope = _elementwise(fn), _SLOPES[fn]

    def apply(*args):
        if not any(isinstance(a, _Dual) for a in args):
            return values(*args)
        value = np.asarray(values(*(a.value if isinstance(a, _Dual) else a for a in args)))
        return _Dual(value, slope(value, *args))

    return apply


def _variable(arg):
    x = np.asarray(arg, dtype=float)
    return _Dual(x, np.ones(x.shape))


def _finite(result) -> bool:
    value = result.value if isinstance(result, _Dual) else result
    return np.count_nonzero(np.isfinite(value)) == np.size(value)


def _split(results):
    """(values, slopes), one entry per result: a plain array each, or the
    float value and the slope 0.0 of a result without x."""
    return (tuple(t.value if isinstance(t, _Dual) else t for t in results),
            tuple(t.slope if isinstance(t, _Dual) else 0.0 for t in results))


def compile_dual(exprs):
    """Compile expressions into one function xs -> (values, slopes) for the
    1-D xs, one entry per expression in each: its values at xs, the row of
    compile_grid(exprs)(xs) bit for bit, and its x-derivative there, inf or
    NaN where that is undefined or overflows.  An expression without x gives
    its float value and the slope 0.0.  Where compile_grid raises, it raises
    compile_grid's ExprDomainError."""
    exprs = tuple(exprs)

    def walk(arg):
        # the code raised or a value is not finite: compile_grid raises there
        values = compile_grid(exprs)(arg)
        return tuple(values), tuple(np.full(values.shape[1], math.nan) for _ in exprs)

    return np.errstate(all="ignore")(_generate(
        exprs, "_dual", "_variable(arg)", "_finite({0})", "_split(({},))", _lift,
        _variable=_variable, _finite=_finite, _split=_split, _walk=walk))

"""Parser and evaluator for one-variable coefficient expressions.

Coefficient functions a_k(x) enter the system as strings like
``"1 - 1/x"`` or ``"3 - 2*exp(-2*x)"``.  This module turns them into
small immutable syntax trees that can be evaluated repeatedly during
root finding and integration.

Grammar (EBNF, whitespace insignificant):

    expr    = term   { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" factor ] ;
    atom    = NUMBER | "x" | "pi" | "e"
            | FUNC "(" expr ")" | "(" expr ")" ;
    FUNC    = "exp" | "log" | "sqrt" | "abs" ;

"^" binds tightest and is right-associative ("2^3^2" is 2^(3^2) = 512),
unary minus binds tighter than "*" and "/" but looser than "^"
("-x^2" is -(x^2)), everything else is left-associative.  Unary minus
evaluates as (0 - operand).

Nesting is limited: an expression whose parentheses, calls, unary minuses
and "^" nest more than 100 deep, or whose syntax tree is more than 100
levels high (e.g. a sum of more than 100 terms), is an ExprSyntaxError.

Evaluation is strict about domains: log/sqrt outside their domain,
division by zero, and overflow to a non-finite value raise
ExprDomainError instead of producing NaN or inf.

Expr.eval_array evaluates a whole 1-D grid at once and returns exactly
what eval gives point by point, bit for bit.  "+ - * /" and unary minus
run on float64 arrays (correctly rounded, like Python floats); exp, log,
sqrt, abs and "^" run per element through math on the grid's values,
because numpy's exp and power differ from math's in the last bit on a
few percent of arguments.  The domain contract covers both paths: where
the array pass meets a zero divisor, a math error or a non-finite
result, eval re-runs over the points in order, so the same
ExprDomainError names the same first x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse",
]

_FUNCTIONS = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

_CONSTANTS = {
    "pi": math.pi,
    "e": math.e,
}

#: deepest nesting accepted (see _Parser); parsing recurses at most five
#: frames per level, evaluation and printing one
_MAX_DEPTH = 100


class ExprError(ValueError):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression text.  ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, source: str, position: int):
        # position is a character index; report the byte offset into the
        # UTF-8 encoding so editors and logs agree on the location.
        offset = len(source[:position].encode("utf-8"))
        super().__init__(f"{message} at byte {offset} in {source!r}")
        self.offset = offset


class ExprDomainError(ExprError):
    """Evaluation left the real domain (log/sqrt argument, zero divisor,
    or overflow to a non-finite value)."""


class _ScalarOnly(Exception):
    """The array pass met a case whose outcome eval decides point by point."""


def _per_element(fn, *arrays) -> np.ndarray:
    """fn applied through Python floats to each element of equal-length arrays."""
    try:
        return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=float)
    except (OverflowError, ValueError):
        raise _ScalarOnly from None


@dataclass(frozen=True)
class _Num:
    value: float

    def eval(self, x: float) -> float:
        return self.value

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return np.full(xs.shape, self.value)

    def pretty(self) -> str:
        return _format_number(self.value)

    precedence = 5


@dataclass(frozen=True)
class _Var:
    def eval(self, x: float) -> float:
        return x

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return xs

    def pretty(self) -> str:
        return "x"

    precedence = 5


@dataclass(frozen=True)
class _Const:
    name: str

    def eval(self, x: float) -> float:
        return _CONSTANTS[self.name]

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return np.full(xs.shape, _CONSTANTS[self.name])

    def pretty(self) -> str:
        return self.name

    precedence = 5


@dataclass(frozen=True)
class _Neg:
    operand: object

    precedence = 3

    def eval(self, x: float) -> float:
        return 0.0 - self.operand.eval(x)

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return 0.0 - self.operand.eval_array(xs)

    def pretty(self) -> str:
        inner = self.operand.pretty()
        if self.operand.precedence < self.precedence:
            inner = f"({inner})"
        return f"-{inner}"


_BIN_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}

_ARRAY_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object

    @property
    def precedence(self) -> int:
        return _BIN_PRECEDENCE[self.op]

    def eval(self, x: float) -> float:
        a = self.left.eval(x)
        b = self.right.eval(x)
        if self.op == "/" and b == 0.0:
            raise ExprDomainError(f"division by zero at x={x!r}")
        try:
            if self.op == "+":
                return a + b
            if self.op == "-":
                return a - b
            if self.op == "*":
                return a * b
            if self.op == "/":
                return a / b
            # right-associative power; math.pow rejects negative bases with
            # fractional exponents instead of wandering into complex values
            return math.pow(a, b)
        except OverflowError:
            raise ExprDomainError(f"overflow evaluating {self.op!r} at x={x!r}") from None
        except ValueError:
            raise ExprDomainError(
                f"domain error evaluating {self.op!r} at x={x!r}"
            ) from None

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        a = self.left.eval_array(xs)
        b = self.right.eval_array(xs)
        if self.op == "^":
            return _per_element(math.pow, a, b)
        if self.op == "/" and not b.all():
            raise _ScalarOnly
        return _ARRAY_OPS[self.op](a, b)

    def pretty(self) -> str:
        prec = self.precedence
        left = self.left.pretty()
        right = self.right.pretty()
        # "^" is right-associative, the rest left-associative: parenthesize
        # the side whose implicit grouping the bare text would get wrong.
        if self.op == "^":
            if self.left.precedence <= prec:
                left = f"({left})"
            if self.right.precedence < prec:
                right = f"({right})"
        else:
            if self.left.precedence < prec:
                left = f"({left})"
            if self.right.precedence <= prec:
                right = f"({right})"
        return f"{left} {self.op} {right}" if prec == 1 else f"{left}{self.op}{right}"


@dataclass(frozen=True)
class _Call:
    name: str
    argument: object

    precedence = 5

    def eval(self, x: float) -> float:
        value = self.argument.eval(x)
        try:
            result = _FUNCTIONS[self.name](value)
        except OverflowError:
            raise ExprDomainError(
                f"overflow in {self.name}({value!r}) at x={x!r}"
            ) from None
        except ValueError:
            raise ExprDomainError(
                f"{self.name}({value!r}) outside real domain at x={x!r}"
            ) from None
        return result

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        return _per_element(_FUNCTIONS[self.name], self.argument.eval_array(xs))

    def pretty(self) -> str:
        return f"{self.name}({self.argument.pretty()})"


def _format_number(value: float) -> str:
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


class _Tokenizer:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0

    def error(self, message: str, position: int | None = None) -> ExprSyntaxError:
        where = self.pos if position is None else position
        return ExprSyntaxError(message, self.source, where)

    def _skip_space(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self._skip_space()
        if self.pos >= len(self.source):
            return None
        return self.source[self.pos]

    def take_operator(self, chars: str) -> str | None:
        ch = self.peek()
        if ch is not None and ch in chars:
            self.pos += 1
            return ch
        return None

    def expect(self, ch: str) -> None:
        if self.take_operator(ch) is None:
            raise self.error(f"expected {ch!r}")

    def take_number(self) -> float | None:
        self._skip_space()
        src, i = self.source, self.pos
        start = i
        while i < len(src) and src[i].isdigit():
            i += 1
        if i < len(src) and src[i] == ".":
            i += 1
            while i < len(src) and src[i].isdigit():
                i += 1
        if i == start or (i == start + 1 and src[start] == "."):
            return None
        if i < len(src) and src[i] in "eE":
            j = i + 1
            if j < len(src) and src[j] in "+-":
                j += 1
            if j < len(src) and src[j].isdigit():
                while j < len(src) and src[j].isdigit():
                    j += 1
                i = j
        text = src[start:i]
        self.pos = i
        try:
            return float(text)
        except ValueError:
            raise self.error(f"bad number {text!r}", start) from None

    def take_name(self) -> tuple[str, int] | None:
        self._skip_space()
        src, i = self.source, self.pos
        start = i
        while i < len(src) and (src[i].isalpha() or src[i] == "_"):
            i += 1
        if i == start:
            return None
        self.pos = i
        return src[start:i], start

    def at_end(self) -> bool:
        return self.peek() is None


class _Parser:
    """Recursive descent; parse_* take the nesting level of their text and
    return (node, tree height), both capped at _MAX_DEPTH."""

    def __init__(self, source: str):
        self.tokens = _Tokenizer(source)

    def parse(self) -> object:
        node, _ = self.parse_expr(0)
        if not self.tokens.at_end():
            raise self.tokens.error("unexpected trailing input")
        return node

    def _limit(self, depth: int) -> int:
        if depth > _MAX_DEPTH:
            raise self.tokens.error(f"expression nested deeper than {_MAX_DEPTH} levels")
        return depth

    def parse_expr(self, level: int) -> tuple[object, int]:
        node, height = self.parse_term(level)
        while True:
            op = self.tokens.take_operator("+-")
            if op is None:
                return node, height
            right, right_height = self.parse_term(level)
            node = _Bin(op, node, right)
            height = self._limit(1 + max(height, right_height))

    def parse_term(self, level: int) -> tuple[object, int]:
        node, height = self.parse_factor(level)
        while True:
            op = self.tokens.take_operator("*/")
            if op is None:
                return node, height
            right, right_height = self.parse_factor(level)
            node = _Bin(op, node, right)
            height = self._limit(1 + max(height, right_height))

    def parse_factor(self, level: int) -> tuple[object, int]:
        if self.tokens.take_operator("-"):
            operand, height = self.parse_factor(self._limit(level + 1))
            return _Neg(operand), self._limit(height + 1)
        return self.parse_power(level)

    def parse_power(self, level: int) -> tuple[object, int]:
        base, height = self.parse_atom(level)
        if self.tokens.take_operator("^"):
            # recurse through factor so "2^-3" parses and "^" right-associates
            exponent, exp_height = self.parse_factor(self._limit(level + 1))
            return _Bin("^", base, exponent), self._limit(1 + max(height, exp_height))
        return base, height

    def parse_atom(self, level: int) -> tuple[object, int]:
        number = self.tokens.take_number()
        if number is not None:
            return _Num(number), 1
        if self.tokens.take_operator("("):
            node = self.parse_expr(self._limit(level + 1))
            self.tokens.expect(")")
            return node
        name_token = self.tokens.take_name()
        if name_token is not None:
            name, start = name_token
            if name in _FUNCTIONS:
                self.tokens.expect("(")
                argument, height = self.parse_expr(self._limit(level + 1))
                self.tokens.expect(")")
                return _Call(name, argument), self._limit(height + 1)
            if name == "x":
                return _Var(), 1
            if name in _CONSTANTS:
                return _Const(name), 1
            raise self.tokens.error(f"unknown identifier {name!r}", start)
        raise self.tokens.error("expected a number, name or parenthesis")


class Expr:
    """A parsed expression in the single variable x.

    Immutable; safe to share between threads and equations.
    """

    __slots__ = ("source", "ast")

    def __init__(self, source: str, ast: object):
        self.source = source
        self.ast = ast

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def eval(self, x: float) -> float:
        """Evaluate at x.  Raises ExprDomainError on any non-real outcome."""
        value = self.ast.eval(float(x))
        if not math.isfinite(value):
            raise ExprDomainError(f"non-finite value {value!r} at x={x!r}")
        return value

    def eval_array(self, xs) -> np.ndarray:
        """Evaluate at every abscissa of the 1-D xs: the values eval gives
        point by point, or the ExprDomainError eval raises at the first
        failing point."""
        xs = np.array(xs, dtype=float)
        try:
            with np.errstate(all="ignore"):
                values = self.ast.eval_array(xs)
            if np.isfinite(values).all():
                return values
        except _ScalarOnly:
            pass
        return np.array([self.eval(x) for x in xs.tolist()], dtype=float)

    def pretty(self) -> str:
        """Render with minimal parentheses; parse(pretty()) evaluates identically."""
        return self.ast.pretty()

    def __repr__(self) -> str:
        return f"Expr({self.source!r})"


def parse(source: str) -> Expr:
    """Parse an expression string; raises ExprSyntaxError with a byte offset."""
    if not isinstance(source, str):
        raise ExprSyntaxError("expression must be a string", str(source), 0)
    if not source.strip():
        raise ExprSyntaxError("empty expression", source, 0)
    return Expr(source, _Parser(source).parse())

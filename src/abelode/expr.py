"""Parser and evaluator for one-variable coefficient expressions.

Coefficient functions a_k(x) enter the system as strings like
``"1 - 1/x"`` or ``"3 - 2*exp(-2*x)"``.  This module turns them into
small immutable syntax trees that can be evaluated repeatedly during
root finding and integration.

Two evaluators read the trees:

  * compile_row(exprs) returns one generated Python function per
    coefficient row (x -> [e_0(x), ..., e_m(x)]), the scalar path: the
    integrator and every point-wise sample call it.  It runs eval's IEEE
    operations in eval's order, so its values are eval's bit for bit, and
    where eval would raise it runs the tree walk, which raises eval's
    ExprDomainError.  A subexpression shared by the row's expressions is
    evaluated once per call, and a subexpression without x once, when the
    row is compiled; Expr.eval_array runs its code on grids (below).
  * Expr.eval walks the tree one node at a time.  It evaluates single
    expressions (Expr(x), the probes of a leading coefficient) and
    explains failures: its ExprDomainError names the operation and the x.

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

Expr.eval_array evaluates a 1-D grid at once and returns exactly what
eval gives point by point, bit for bit: compile_row's code for the one
expression, built on first use, with x the float64 grid.  "+ - * /" and
unary minus run as numpy operations (correctly rounded, like Python
floats), exp, log, sqrt, abs and "^" per element through math, because
numpy's exp and power differ from math's in the last bit on a few
percent of arguments.  "/" raises on a zero divisor element, as float
division does (numpy's gives inf).  Where the code raises or a value is
not finite, eval re-runs over the points in order, so the same
ExprDomainError names the same first x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "compile_row",
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
#: frames per level, evaluation, printing and code generation one
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


def _divisor(values):
    """values, or ZeroDivisionError where one is zero, as float division does."""
    if np.count_nonzero(values) < np.size(values):
        raise ZeroDivisionError
    return values


class _Grid(np.ndarray):
    """A float64 array whose "/" checks its divisor with _divisor."""

    def __truediv__(self, other):
        return np.divide(self, _divisor(other))

    def __rtruediv__(self, other):
        return np.divide(other, _divisor(self))


def _elementwise(fn):
    """fn applied through Python floats to each element of its array
    arguments, a float standing for every element; fn itself on floats."""

    def apply(*args):
        if not any(isinstance(a, np.ndarray) for a in args):
            return fn(*args)
        columns = [a.tolist() if isinstance(a, np.ndarray) else repeat(a) for a in args]
        return np.array(list(map(fn, *columns)), dtype=float).view(_Grid)

    return apply


@dataclass(frozen=True)
class _Num:
    value: float

    def eval(self, x: float) -> float:
        return self.value

    operands = ()

    def pretty(self) -> str:
        return _format_number(self.value)

    precedence = 5


@dataclass(frozen=True)
class _Var:
    def eval(self, x: float) -> float:
        return x

    def pretty(self) -> str:
        return "x"

    precedence = 5


@dataclass(frozen=True)
class _Const:
    name: str

    def eval(self, x: float) -> float:
        return _CONSTANTS[self.name]

    operands = ()

    def pretty(self) -> str:
        return self.name

    precedence = 5


@dataclass(frozen=True)
class _Neg:
    operand: object

    precedence = 3

    def eval(self, x: float) -> float:
        return 0.0 - self.operand.eval(x)

    @property
    def operands(self) -> tuple:
        return (self.operand,)

    def emit(self, bind, operand: str) -> str:
        return f"0.0 - {operand}"

    def pretty(self) -> str:
        inner = self.operand.pretty()
        if self.operand.precedence < self.precedence:
            inner = f"({inner})"
        return f"-{inner}"


_BIN_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


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

    @property
    def operands(self) -> tuple:
        return (self.left, self.right)

    def emit(self, bind, left: str, right: str) -> str:
        if self.op == "^":
            return f"{bind(math.pow)}({left}, {right})"
        return f"{left} {self.op} {right}"

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

    @property
    def operands(self) -> tuple:
        return (self.argument,)

    def emit(self, bind, argument: str) -> str:
        return f"{bind(_FUNCTIONS[self.name])}({argument})"

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

    Immutable but for eval_array's function, built on first use and the
    same whichever thread builds it; safe to share between threads.
    """

    __slots__ = ("source", "ast", "_grid")

    def __init__(self, source: str, ast: object):
        self.source = source
        self.ast = ast
        self._grid = None

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def eval(self, x: float) -> float:
        """Evaluate at x.  Raises ExprDomainError on any non-real outcome."""
        value = self.ast.eval(float(x))
        if not math.isfinite(value):
            raise ExprDomainError(f"non-finite value {value!r} at x={x!r}")
        return value

    def eval_array(self, xs) -> np.ndarray:
        """Evaluate at every abscissa of the 1-D xs: a new array of the values
        eval gives point by point, or the ExprDomainError eval raises at the
        first failing point.  Runs compile_row's code for [self] on the grid
        as a _Grid, functions per element, the result copied out by np.full."""
        if self._grid is None:
            self._grid = _generate(
                [self], "_grid", "arg.view(_Grid)", "_count(_isfinite({0})) == _size({0})",
                "_full(x.shape, {})", _elementwise, _Grid=_Grid, _count=np.count_nonzero,
                _isfinite=np.isfinite, _size=np.size, _full=np.full,
                _walk=lambda xs: np.array([self.eval(x) for x in xs.tolist()], dtype=float))
        with np.errstate(all="ignore"):
            return self._grid(np.asarray(xs, dtype=float))

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


def compile_row(exprs):
    """Compile expressions into one function x -> [e.eval(x) for e in exprs].

    The generated function assigns one local per distinct subtree that
    depends on x, keyed by its emitted text, so a subexpression shared
    within or across the expressions is evaluated once per call.  Each
    assignment runs one of eval's IEEE operations on the names of its
    operands: "l op r" for + - * /, "0.0 - a" for unary minus, math.pow
    for "^" and the math functions for calls.  A subtree without x is a
    constant: compile_row evaluates it once with eval and binds the value,
    and nothing inside it, so every bound name occurs in the code.
    A constant subtree that raises there stays in the code, where it
    raises at every x.  The assignments run in one try, and each distinct
    result but a finite constant is tested by -inf < t < inf; where one
    raises or a result is not finite, the function runs the tree walk on
    its argument as given, which raises eval's ExprDomainError.

    Every value and function enters the source as a name bound in the
    function's namespace, one name per distinct value (float.hex tells
    -0.0 from 0.0, and repr would not round-trip an inf literal such as
    the one in "1e999"), so no generated code comes from the expression
    text.  The code is flat, one operation per line, however deep the
    tree; generating it recurses once per level of the tree, which the
    parser caps at 100.  The function's ``source`` attribute is the
    generated code, kept for inspection.
    """
    exprs = tuple(exprs)
    return _generate(exprs, "_row", "_float(arg)", "_ninf < {} < _inf", "[{}]", _float=float,
                     _inf=math.inf, _ninf=-math.inf, _walk=lambda x: [e.eval(x) for e in exprs])


def _generate(exprs, name, prologue, test, out, call=None, **helpers):
    """compile_row's generated function name(arg) with x = prologue; test and out
    are formatted with result names, and a bound function enters as call(it)."""
    namespace = {"__builtins__": {}, "_errors": (ZeroDivisionError, OverflowError, ValueError),
                 **helpers}
    names = {}  # value (float.hex for floats) -> bound name
    temps = {}  # emitted text -> local name
    lines = []

    def bind(value) -> str:
        key = value.hex() if isinstance(value, float) else value
        if key not in names:
            names[key] = f"_k{len(names)}"
            namespace[names[key]] = call(value) if call and callable(value) else value
        return names[key]

    varying = set()  # ids of the subtrees that depend on x

    def mark(node) -> bool:
        if isinstance(node, _Var) or any([mark(operand) for operand in node.operands]):
            varying.add(id(node))
        return id(node) in varying

    def emit(node) -> str:
        """The name of node's value in the generated code."""
        if isinstance(node, _Var):
            return "x"
        if id(node) not in varying:
            try:
                return bind(node.eval(0.0))
            except ExprDomainError:
                pass
        text = node.emit(bind, *[emit(operand) for operand in node.operands])
        if text not in temps:
            temps[text] = f"_t{len(temps)}"
            lines.append(f"        {temps[text]} = {text}\n")
        return temps[text]

    trees = [e.ast for e in exprs]
    for tree in trees:
        mark(tree)
    results = [emit(tree) for tree in trees]
    # x and the _t locals are not in the namespace, so they read as nan here
    tested = " and ".join(test.format(r) for r in dict.fromkeys(results)
                          if not math.isfinite(namespace.get(r, math.nan)))
    body = "".join(lines or ["        pass\n"])
    source = (f"def {name}(arg):\n    x = {prologue}\n    try:\n{body}    except _errors:\n"
              f"        return _walk(arg)\n    if {tested or 'True'}:\n"
              f"        return {out.format(', '.join(results))}\n    return _walk(arg)\n")
    exec(compile(source, f"<compiled {name[1:]}>", "exec"), namespace)
    function = namespace[name]
    function.source = source
    return function

"""Parser and evaluator for one-variable coefficient expressions.

Coefficient functions a_k(x) enter the system as strings like
``"1 - 1/x"`` or ``"3 - 2*exp(-2*x)"``.  This module turns them into
small immutable syntax trees that can be evaluated repeatedly during
root finding and integration.

One generator (_generate) turns a row of trees into code, and eval explains:

  * compile_row(exprs) returns one generated function per coefficient row
    (x -> [e_0(x), ..., e_m(x)]), the scalar path of the integrator and of
    point-wise samples, and compile_dual(exprs) runs the same code on a
    grid (below), the path of every table: xs -> (values, slopes), the
    row's values at every abscissa and their x-derivatives.  Both run
    eval's IEEE operations in eval's order, so their values are eval's bit
    for bit, and where eval would raise they run the tree walk, which
    raises its ExprDomainError.  A shared subexpression is evaluated once
    per call, one without x once.
  * Expr.eval walks the tree one node at a time.  It evaluates single
    expressions (Expr(x), a_n where NormalForm.sample walks it alone) and
    explains failures: its ExprDomainError names the operation and the x.

Grammar (EBNF; whitespace, the characters str.isspace takes, may stand
before any token):

    expr    = term   { ("+" | "-") term } ;
    term    = factor { ("*" | "/") factor } ;
    factor  = "-" factor | power ;
    power   = atom [ "^" factor ] ;
    atom    = NUMBER | "x" | "pi" | "e"
            | FUNC "(" expr ")" | "(" expr ")" ;
    FUNC    = "exp" | "log" | "sqrt" | "abs" ;
    NUMBER  = ( DIGIT { DIGIT } [ "." { DIGIT } ] | "." DIGIT { DIGIT } )
              [ ("e" | "E") [ "+" | "-" ] DIGIT { DIGIT } ] ;
    NAME    = LETTER { LETTER } ;
    DIGIT   = a character str.isdigit takes ;
    LETTER  = "_" | a character str.isalpha takes ;

Each NUMBER and NAME is as long as it can be: "pi2" is pi and a trailing
"2", "1e+" is 1 and a trailing "e+".  A NAME but x, pi, e and FUNC is an
unknown identifier, and a NUMBER float() rejects, such as one with a
superscript digit, is a bad number.

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

Functions generated from one source text share one code object: _compile
compiles each generated source once per process and keeps the most
recently used _CODE_CACHE_SIZE code objects.  Each function still runs
in its own namespace, holding its own constants, and keeps its own
``source``, so two equations that differ only in their numbers get two
rows with one code object.

compile_dual evaluates a row on a 1-D grid at once, as the columns of
what compile_row gives point by point, bit for bit.  x is the pair
(xs, 1), and each operation gives its value and, by the chain rule, its
slope (forward-mode differentiation; Griewank and Walther, Evaluating
Derivatives, 2nd ed., SIAM 2008, ch. 3):

  * "+ - * /" and "0.0 - a" by the sum, product and quotient rules;
  * exp(u)' = exp(u) u', log(u)' = u'/u, sqrt(u)' = u'/(2 sqrt u) and
    abs(u)' = sign(u) u', the last two undefined where u = 0;
  * (a^b)' = b a^(b-1) a' where b has no x, else a^b (b' log a + b a'/a),
    undefined where a <= 0.

A value's "+ - * /" and unary minus run as numpy operations (correctly
rounded, like Python floats), exp, log, sqrt, abs and "^" per element
through math, because numpy's exp and power differ from math's in the
last bit on a few percent of arguments.  "/" raises on a zero divisor
element, as float division does (numpy's gives inf).  A slope runs as
numpy operations with warnings off, so an undefined or overflowing slope
is inf or NaN where it occurs, never an exception.  A subexpression
without x is a float: it has no slope, and an expression without x gets
its value repeated and the slope 0.0, with no array work.  Where the code
raises or a value is not finite, eval re-runs over the points in order,
so the same ExprDomainError names the same first x.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "compile_dual",
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

#: deepest nesting accepted (see _climb); parsing recurses at most four
#: frames per level, evaluation, printing and code generation one
_MAX_DEPTH = 100

#: code objects _compile keeps, a few KB each: a long-lived process fed
#: user expressions generates unboundedly many distinct sources
_CODE_CACHE_SIZE = 256


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _compile(source: str, filename: str):
    """compile(source, filename, "exec") for the code generated here and in
    radau, once per pair while it is among the last _CODE_CACHE_SIZE used.
    Thread-safe: threads racing on a new pair may each compile it, and
    either code object runs the same."""
    return compile(source, filename, "exec")


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


class _Num(NamedTuple):
    value: float

    def eval(self, x: float) -> float:
        return self.value

    operands = ()

    def pretty(self) -> str:
        return _format_number(self.value)

    precedence = 5


class _Var(NamedTuple):
    def eval(self, x: float) -> float:
        return x

    def pretty(self) -> str:
        return "x"

    precedence = 5


class _Const(NamedTuple):
    name: str

    def eval(self, x: float) -> float:
        return _CONSTANTS[self.name]

    operands = ()

    def pretty(self) -> str:
        return self.name

    precedence = 5


class _Neg(NamedTuple):
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


class _Bin(NamedTuple):
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
        # An exponent is a factor, so a unary minus there needs none.
        if self.op == "^":
            if self.left.precedence <= prec:
                left = f"({left})"
            if self.right.precedence < prec and not isinstance(self.right, _Neg):
                right = f"({right})"
        else:
            if self.left.precedence < prec:
                left = f"({left})"
            if self.right.precedence <= prec:
                right = f"({right})"
        return f"{left} {self.op} {right}" if prec == 1 else f"{left}{self.op}{right}"


class _Call(NamedTuple):
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
    if value == math.inf:
        return "1e999"  # a literal that overflows, as the one parsed did
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


#: one token after optional whitespace: a NUMBER, a run of name letters or
#: any other character; the regex classes are ASCII (see _stand_in)
_TOKEN = re.compile(r"\s*((?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[A-Za-z_]+|\S)")

_TOO_DEEP = f"expression nested deeper than {_MAX_DEPTH} levels"


def _stand_in(ch: str) -> str:
    """ch, or for a non-ASCII character an ASCII one of its class: "0" for
    str.isdigit, "a" for str.isalpha, "$" for any other but whitespace.
    _TOKEN's whitespace class is str.isspace, but the regex digit and word
    classes differ from str.isdigit and str.isalpha beyond ASCII, so
    _TOKEN runs over the stand-ins of a non-ASCII text."""
    if ch.isascii() or ch.isspace():
        return ch
    return "0" if ch.isdigit() else "a" if ch.isalpha() else "$"


class _Refusal(Exception):
    """A syntax error at the token that was next when ``remaining`` tokens,
    the end marker included, were left: at its start, or its end if past."""

    def __init__(self, message: str, remaining: int, past: bool = False):
        super().__init__(message)
        self.message, self.remaining, self.past = message, remaining, past


def _climb(tokens: list, level: int, floor: int) -> tuple[object, int]:
    """Precedence climbing over tokens, next token last: an operand and the
    binary operators of precedence floor or more after it, as (node, tree
    height).  level is the nesting of the text, both capped at _MAX_DEPTH.

    A refusal stands where the parser stands: just past the last token
    taken, or at the next token once the parser has looked at it."""
    token = tokens.pop()
    if token == "-":
        if level >= _MAX_DEPTH:
            raise _Refusal(_TOO_DEEP, len(tokens) + 1, past=True)
        # the operand is a factor, so "-x^2" is -(x^2) and "-x*y" is (-x)*y
        operand, height = _climb(tokens, level + 1, 4)
        node, height = _Neg(operand), height + 1
        if height > _MAX_DEPTH:
            raise _Refusal(_TOO_DEEP, len(tokens))
    else:
        node, height = _atom(token, tokens, level)
    while True:
        op = tokens[-1]
        precedence = _BIN_PRECEDENCE.get(op, 0)
        if precedence < floor:
            return node, height
        tokens.pop()
        if precedence == 4:
            # the exponent is a factor too: "2^-3" parses, "^" right-associates
            if level >= _MAX_DEPTH:
                raise _Refusal(_TOO_DEEP, len(tokens) + 1, past=True)
            right, right_height = _climb(tokens, level + 1, 4)
        else:
            right, right_height = _climb(tokens, level, precedence + 1)
        node, height = _Bin(op, node, right), 1 + max(height, right_height)
        if height > _MAX_DEPTH:
            raise _Refusal(_TOO_DEEP, len(tokens))


def _atom(token: str, tokens: list, level: int) -> tuple[object, int]:
    """The atom that token, just taken, starts, as _climb's (node, height)."""
    if token == "x":
        return _Var(), 1
    first = token[:1]
    if first.isdigit() or (first == "." and token != "."):
        try:
            return _Num(float(token)), 1
        except ValueError:
            raise _Refusal(f"bad number {token!r}", len(tokens) + 1) from None
    if token == "(":
        if level >= _MAX_DEPTH:
            raise _Refusal(_TOO_DEEP, len(tokens) + 1, past=True)
        node, height = _climb(tokens, level + 1, 1)
        _close(tokens)
        return node, height
    if token in _FUNCTIONS:
        if tokens[-1] != "(":
            raise _Refusal("expected '('", len(tokens))
        tokens.pop()
        if level >= _MAX_DEPTH:
            raise _Refusal(_TOO_DEEP, len(tokens) + 1, past=True)
        argument, height = _climb(tokens, level + 1, 1)
        _close(tokens)
        if height >= _MAX_DEPTH:
            raise _Refusal(_TOO_DEEP, len(tokens) + 1, past=True)
        return _Call(token, argument), height + 1
    if token in _CONSTANTS:
        return _Const(token), 1
    if first.isalpha() or first == "_":
        raise _Refusal(f"unknown identifier {token!r}", len(tokens) + 1)
    raise _Refusal("expected a number, name or parenthesis", len(tokens) + 1)


def _close(tokens: list) -> None:
    if tokens[-1] != ")":
        raise _Refusal("expected ')'", len(tokens))
    tokens.pop()


class Expr:
    """A parsed expression in the single variable x.

    Immutable; safe to share between threads.
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
    lexed = source if source.isascii() else "".join(map(_stand_in, source))
    if lexed is source:
        tokens = _TOKEN.findall(source)
    else:
        tokens = [source[slice(*match.span(1))] for match in _TOKEN.finditer(lexed)]
    tokens.append("")  # the end marker, which no rule takes
    tokens.reverse()
    count = len(tokens)
    try:
        node, _ = _climb(tokens, 0, 1)
        if tokens[-1]:
            raise _Refusal("unexpected trailing input", len(tokens))
    except _Refusal as refusal:
        spans = [match.span(1) for match in _TOKEN.finditer(lexed)]
        spans.append((len(source), len(source)))
        position = spans[count - refusal.remaining][refusal.past]
        raise ExprSyntaxError(refusal.message, source, position) from None
    return Expr(source, node)


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
    generated code, kept for inspection.  Rows whose generated code is the
    same text, such as rows that differ only in their numbers, share one
    code object (see _compile); each row keeps its own namespace, so its
    own bound values, and its own ``source``.
    """
    exprs = tuple(exprs)
    return _generate(exprs, "_row", "_float(arg)", "_ninf < {} < _inf", "[{}]", _float=float,
                     _inf=math.inf, _ninf=-math.inf, _walk=lambda x: [e.eval(x) for e in exprs])


class _Dual:
    """A subexpression with x on a grid: its value, computed as eval computes
    it, element by element ("/" refusing a zero divisor as float division
    does), and its x-derivative, both plain arrays.  The other operand of an
    operation is a _Dual or a float without x."""

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
    """fn on pairs: its value through math, one Python float per element as
    eval runs it, a float argument standing for every element, and the slope
    _SLOPES gives; fn itself where no argument has x."""
    slope = _SLOPES[fn]

    def apply(*args):
        if not any(isinstance(a, _Dual) for a in args):
            return fn(*args)
        columns = [a.value.tolist() if isinstance(a, _Dual) else repeat(a) for a in args]
        value = np.array(list(map(fn, *columns)), dtype=float)
        return _Dual(value, slope(value, *args))

    return apply


def _variable(arg):
    x = np.asarray(arg, dtype=float)
    return _Dual(x, np.ones(x.shape))


def _finite(result) -> bool:
    value = result.value if isinstance(result, _Dual) else result
    return np.count_nonzero(np.isfinite(value)) == np.size(value)


def _split(x, results):
    """(values, slopes): the (len(results), N) array whose row k is result k
    on the grid x, a float repeated where it has no x, and one slope per
    result, a plain array, or 0.0 where it has no x."""
    return (np.array([np.full(x.value.shape, t.value if isinstance(t, _Dual) else t)
                      for t in results]),
            tuple(t.slope if isinstance(t, _Dual) else 0.0 for t in results))


def compile_dual(exprs):
    """Compile expressions into one function xs -> (values, slopes) for the
    1-D xs: values is the (len(exprs), N) array of the columns
    compile_row(exprs)(x), bit for bit, and slopes holds one entry per
    expression, its x-derivative at xs by forward-mode differentiation, inf
    or NaN where that is undefined or overflows, and the float 0.0 for an
    expression without x.  Where the code raises or a value is not finite,
    the tree walk runs point by point and raises eval's ExprDomainError at
    the first failing x."""
    exprs = tuple(exprs)

    def walk(arg):
        rows = [[e.eval(x) for e in exprs] for x in np.asarray(arg, dtype=float).tolist()]
        values = np.array(rows).reshape(-1, len(exprs)).T.copy()
        return values, tuple(np.full(values.shape[1], math.nan) for _ in exprs)

    return np.errstate(all="ignore")(_generate(
        exprs, "_dual", "_variable(arg)", "_finite({0})", "_split(x, ({},))", _lift,
        _variable=_variable, _finite=_finite, _split=_split, _walk=walk))


def _generate(exprs, name, prologue, test, out, call=None, **helpers):
    """compile_row's or compile_dual's function name(arg) with x = prologue;
    test and out are formatted with result names, and a bound function
    enters as call(it)."""
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
    exec(_compile(source, f"<compiled {name[1:]}>"), namespace)
    function = namespace[name]
    function.source = source
    return function

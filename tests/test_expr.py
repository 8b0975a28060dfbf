import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ReferenceSyntaxError, reference_parse
from strategies import expressions, grids

from abelode import expr as expr_module
from abelode.core import build_equation
from abelode.expr import (ExprDomainError, ExprError, ExprSyntaxError, compile_dual, compile_row,
                          parse)


def ev(source, x=0.0):
    return parse(source)(x)


class TestGrammar:
    def test_plain_numbers(self):
        assert ev("42") == 42.0
        assert ev("3.25") == 3.25
        assert ev(".5") == 0.5

    def test_scientific_notation(self):
        assert ev("1e-05") == 1e-05
        assert ev("2.5E+3") == 2500.0
        assert ev("7e2") == 700.0

    def test_additive_and_multiplicative_precedence(self):
        assert ev("2 + 3*4") == 14.0
        assert ev("2*3 + 4") == 10.0
        assert ev("10 - 4 - 3") == 3.0  # left associative
        assert ev("24 / 4 / 2") == 3.0

    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512.0
        assert ev("(2^3)^2") == 64.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-x^2", 3.0) == -9.0
        assert ev("(-x)^2", 3.0) == 9.0

    def test_unary_minus(self):
        assert ev("-5") == -5.0
        assert ev("--5") == 5.0
        assert ev("2*-3") == -6.0

    def test_variable_and_whitespace(self):
        assert ev("  x   *x ", 4.0) == 16.0

    def test_constants(self):
        assert ev("pi") == math.pi
        assert ev("e") == math.e

    def test_functions(self):
        assert ev("exp(1)") == pytest.approx(math.e, rel=1e-15)
        assert ev("log(e)") == pytest.approx(1.0, rel=1e-15)
        assert ev("sqrt(9)") == 3.0
        assert ev("abs(-3)") == 3.0

    def test_nested_expression(self):
        got = ev("3 - 2*exp(-2*x)", 0.5)
        assert got == pytest.approx(3.0 - 2.0 * math.exp(-1.0), rel=1e-15)


class TestErrors:
    @pytest.mark.parametrize(
        "source,offset",
        [
            ("2 $ 2", 2),
            ("(1", 2),
            ("1 +", 3),
            ("", 0),
        ],
    )
    def test_syntax_error_carries_byte_offset(self, source, offset):
        with pytest.raises(ExprSyntaxError) as info:
            parse(source)
        assert info.value.offset == offset

    @pytest.mark.parametrize(
        "source,offset",
        [
            # the offset is where the parser stands: just past the 101st
            # "(", "-" or "^", or past the operand of the 100th "+" (which
            # would make the tree 101 high)
            pytest.param("(" * 2000 + "1" + ")" * 2000, 101, id="parentheses"),
            pytest.param("1" + "+1" * 3000, 201, id="flat-sum"),
            pytest.param("-" * 5000 + "1", 101, id="unary-minus"),
            pytest.param("2" + "^2" * 3000, 202, id="power-chain"),
        ],
    )
    def test_deep_nesting_is_a_syntax_error(self, source, offset):
        # both shapes used to escape as RecursionError: the first while
        # parsing, the second (a flat sum) only when evaluated
        with pytest.raises(ExprSyntaxError, match="nested deeper") as info:
            parse(source)
        assert info.value.offset == offset

    def test_nesting_up_to_the_limit_parses_and_evaluates(self):
        assert parse("(" * 99 + "x" + ")" * 99)(2.0) == 2.0
        assert parse("1" + "+1" * 99)(0.0) == 100.0
        assert parse("-" * 99 + "1")(0.0) == -1.0

    def test_unknown_identifier_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("foo(1)")
        with pytest.raises(ExprSyntaxError):
            parse("y + 1")

    def test_syntax_error_is_value_error(self):
        assert issubclass(ExprSyntaxError, ExprError)
        assert issubclass(ExprError, ValueError)

    @pytest.mark.parametrize(
        "source,x",
        [
            ("log(0)", 0.0),
            ("log(x)", -1.0),
            ("sqrt(-1)", 0.0),
            ("1/x", 0.0),
            ("exp(1000)", 0.0),  # overflow must not leak inf
        ],
    )
    def test_domain_errors(self, source, x):
        with pytest.raises(ExprDomainError):
            parse(source)(x)

    def test_division_by_zero_is_named(self):
        with pytest.raises(ExprDomainError, match=r"^division by zero at x=0\.0$"):
            parse("1/x")(0.0)

    def test_domain_error_not_raised_at_parse_time(self):
        f = parse("1/x")
        assert f(2.0) == 0.5


class TestEdges:
    """Where str.isspace, str.isdigit and str.isalpha reach beyond ASCII, and
    where a number or a name ends."""

    @pytest.mark.parametrize("source,message,offset", [
        ("\u00b2", "bad number '\u00b2'", 0),  # a digit, not a decimal
        ("1\u00b2", "bad number '1\u00b2'", 0),
        ("x\u00b2", "unexpected trailing input", 1),  # not a name letter
        ("\u00e9+1", "unknown identifier '\u00e9'", 0),
        ("(\u00e9)", "unknown identifier '\u00e9'", 1),
        ("\u0663+\u00e9", "unknown identifier '\u00e9'", 3),  # after a two-byte digit
        ("\u2177", "expected a number, name or parenthesis", 0),  # a letter number
        ("1e", "unexpected trailing input", 1),
        ("1e+", "unexpected trailing input", 1),
        ("1_0", "unexpected trailing input", 1),
        ("pi2", "unexpected trailing input", 2),
        ("x_", "unknown identifier 'x_'", 0),
        ("E", "unknown identifier 'E'", 0),
    ])
    def test_refused(self, source, message, offset):
        with pytest.raises(ExprSyntaxError) as info:
            parse(source)
        assert str(info.value) == f"{message} at byte {offset} in {source!r}"
        assert info.value.offset == offset

    @pytest.mark.parametrize("source,pretty", [
        ("\u0663*x", "3*x"),  # an Arabic-Indic decimal digit
        ("x\u00a0+1", "x + 1"),
        ("x +  1", "x + 1"),
        ("1.e5", "100000"),
        # a negated exponent prints bare: the exponent is a factor
        ("2^(-x)*x", "2^-x*x"),
        ("2^(-(x + 1))", "2^-(x + 1)"),
        ("2^(-x)^2", "2^(-x)^2"),
    ])
    def test_accepted(self, source, pretty):
        assert parse(source).pretty() == pretty


def _shape(node):
    """A syntax tree as the nested tuples reference_parse gives."""
    kind = type(node).__name__
    if kind == "_Num":
        return ("num", node.value)
    if kind == "_Var":
        return ("x",)
    if kind == "_Const":
        return ("const", node.name)
    if kind == "_Neg":
        return ("neg", _shape(node.operand))
    if kind == "_Bin":
        return ("bin", node.op, _shape(node.left), _shape(node.right))
    return ("call", node.name, _shape(node.argument))


def _parsed(parser, error, source):
    """The tree parser gives source, or its error's message and offset."""
    try:
        return parser(source)
    except error as err:
        return str(err), err.offset


#: text pieces: every character the grammar reads, the function names and
#: pi, whitespace str.isspace takes (ASCII, no-break, em and file separator)
#: and four non-ASCII characters whose class the str methods decide: a name
#: letter, a digit that is not a decimal, a letter number, a decimal digit
_PIECES = tuple("0123456789.eE+-*/^()x_$") + (
    "exp", "log", "sqrt", "abs", "pi", " ", "\t", "\n", "\xa0", "\u2003", "\x1c",
    "\u00e9", "\u00b2", "\u2177", "\u0663")

#: the deep shapes of TestErrors, refused and accepted
_DEEP_TEXTS = [
    "(" * 2000 + "1" + ")" * 2000, "1" + "+1" * 3000, "-" * 5000 + "1", "2" + "^2" * 3000,
    "(" * 99 + "x" + ")" * 99, "(" * 100 + "x" + ")" * 100, "1" + "+1" * 99, "1" + "+1" * 100,
    "-" * 99 + "1", "-" * 100 + "1", "2" + "^2" * 99, "2" + "^2" * 100,
    "exp(" * 99 + "x" + ")" * 99, "exp(" * 100 + "x" + ")" * 100, "x" + "^-x" * 50,
    "(" * 99 + "x" + ")" * 98, "exp(" * 99 + "x" + ")" * 98 + "+",
]


class TestReferenceParser:
    """parse gives reference_parse's tree node for node, so the same pretty()
    and evaluation, or its error with the same message and offset."""

    @settings(max_examples=1000, deadline=None)
    @given(source=st.one_of(st.lists(st.sampled_from(_PIECES), max_size=25).map("".join),
                            expressions))
    def test_matches_reference(self, source):
        self._check(source)

    @pytest.mark.parametrize("source", _DEEP_TEXTS)
    def test_deep_text_matches_reference(self, source):
        self._check(source)

    @staticmethod
    def _check(source):
        got = _parsed(lambda text: _shape(parse(text).ast), ExprSyntaxError, source)
        assert got == _parsed(reference_parse, ReferenceSyntaxError, source)


class TestRoundTrip:
    def test_pretty_reparses_to_same_values(self):
        # an exponent is a factor, so "^-" chains print without parentheses:
        # with them, 34 pairs would nest past the 100-level limit
        for src in ("2*x + 1", "-x^2", "exp(-2*x)/(1 + x^2)", "x/(x+1)",
                    "2" + "^-2" * 34, "2^-x^2", "2^-x*x", "2^-(x + 1)", "exp(-x)^-0.5"):
            f = parse(src)
            g = parse(f.pretty())
            assert g.pretty() == f.pretty()
            for x in (0.0, 0.3, 2.0, 17.5):
                assert g(x) == f(x)

    @pytest.mark.parametrize("source,pretty", [
        ("1e999", "1e999"),
        ("2^1e999", "2^1e999"),
        ("1E+400*0 + x", "1e999*0 + x"),
    ])
    def test_overflowing_literal_prints_as_one_that_overflows(self, source, pretty):
        assert parse(source).pretty() == pretty

    @settings(max_examples=300, deadline=None)
    @given(source=st.one_of(expressions, st.sampled_from(["1e999", "2^1e999", "x - 1e400"])),
           xs=grids)
    def test_pretty_reparses_to_the_same_expression(self, source, xs):
        expr = parse(source)
        again = parse(expr.pretty())
        assert again.pretty() == expr.pretty()
        assert _outcome(_scalar(again), xs) == _outcome(_scalar(expr), xs)

    @settings(max_examples=60, deadline=None)
    @given(
        c0=st.integers(-9, 9),
        c1=st.integers(-9, 9),
        c2=st.integers(-9, 9),
        x=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    )
    def test_quadratic_evaluates_like_horner(self, c0, c1, c2, x):
        f = parse(f"{c2}*x^2 + {c1}*x + {c0}")
        expected = (c2 * x + c1) * x + c0
        assert f(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _outcome(evaluate, xs):
    """The values as bytes, or the ExprDomainError message."""
    try:
        return np.asarray(evaluate(xs), dtype=float).tobytes()
    except ExprDomainError as err:
        return str(err)


def _scalar(expr):
    return lambda xs: [expr.eval(x) for x in xs]


def _values(dual):
    """dual's values half, the (len(exprs), N) columns."""
    return lambda xs: dual(xs)[0]


def _stacked(row, size):
    """The compiled row at each abscissa of xs, as (size, N) columns."""
    return lambda xs: np.array([row(x) for x in xs], dtype=float).reshape(len(xs), size).T


def _array(expr):
    """expr's values on a grid, as a row of one from compile_dual."""
    return lambda xs: compile_dual([expr])(xs)[0][0]


class TestArrayEvaluation:
    """A row of one from compile_dual gives eval's values bit for bit, or
    eval's error for the first failing point; compile_dual's values are
    compile_row's rows as columns, or the error compile_row raises at the
    first failing point."""

    @settings(max_examples=300, deadline=None)
    @given(source=expressions, xs=grids, rest=st.lists(expressions, max_size=3))
    def test_array_path_equals_scalar_path(self, source, xs, rest):
        expr = parse(source)
        assert _outcome(_array(expr), xs) == _outcome(_scalar(expr), xs)
        exprs = [expr] + [parse(text) for text in rest]
        stacked = _stacked(compile_row(exprs), len(exprs))
        assert _outcome(_values(compile_dual(exprs)), xs) == _outcome(stacked, xs)

    @pytest.mark.parametrize("xs", [[], [0.5, 2.0, 3.0]])
    def test_grid_is_new_contiguous_columns(self, xs):
        exprs = [parse(source) for source in ("x", "2", "1/x")]
        grid = np.array(xs)
        columns, _ = compile_dual(exprs)(grid)
        assert type(columns) is np.ndarray and columns.flags.c_contiguous
        assert columns.shape == (3, len(xs)) and not np.shares_memory(columns, grid)
        assert columns.tobytes() == _stacked(compile_row(exprs), 3)(xs).tobytes()

    def test_failing_constant_on_an_empty_grid(self):
        # the code raises on no points too, and the walk's table is empty
        grid = compile_dual([parse("x + log(0 - 1)"), parse("x")])
        assert grid([])[0].shape == (2, 0)
        with pytest.raises(ExprDomainError, match=r"^log\(-1\.0\) outside real domain at x=0\.5$"):
            grid([0.5, 2.0])

    def test_shared_exp_is_emitted_once(self, monkeypatch):
        # exp(-x) in three coefficients is one call in the code, one exp per abscissa
        calls = []
        exp = expr_module._FUNCTIONS["exp"]
        counted = lambda value: calls.append(value) or exp(value)  # noqa: E731
        monkeypatch.setitem(expr_module._FUNCTIONS, "exp", counted)
        monkeypatch.setitem(expr_module._SLOPES, counted, expr_module._SLOPES[exp])
        exprs = [parse(source) for source in ("1 + exp(-x)", "2*exp(-x)", "exp(-x) - x")]
        grid = compile_dual(exprs)
        assert len(re.findall(r"\b_k\d+\(", grid.source)) == 1
        xs = [0.0, 0.37, 12.5]
        columns, _ = grid(xs)
        assert len(calls) == len(xs)
        assert columns.tobytes() == _stacked(compile_row(exprs), 3)(xs).tobytes()

    @pytest.mark.parametrize("source,xs,message", [
        ("(x - 1)^0.5", [2.0, 0.5, -1.0], "domain error evaluating '^' at x=0.5"),
        ("1/(x - 2)", [0.0, 2.0, 3.0], "division by zero at x=2.0"),
        ("exp(710*x)", [0.0, 2.0, 1.0], "overflow in exp(1420.0) at x=2.0"),
        ("log(x)", [1.0, -1.0, 0.0], "log(-1.0) outside real domain at x=-1.0"),
        ("sqrt(x)", [4.0, 0.0, -4.0], "sqrt(-4.0) outside real domain at x=-4.0"),
        ("1e300*x*x", [1.0, 1e10], "non-finite value inf at x=10000000000.0"),
        # 1/0 = inf in float64 arithmetic and 1/inf = 0 is finite
        ("1/(1/x)", [1.0, 0.0], "division by zero at x=0.0"),
        # numpy's "/" gives 1/0 = inf without raising
        ("1/(1/(x - x))", [1.0, 2.0], "division by zero at x=1.0"),
        ("x/0", [1.0, 2.0], "division by zero at x=1.0"),
        # a failing constant subtree stays in the code with float operands
        ("x + log(0 - 1)", [1.0, 2.0], "log(-1.0) outside real domain at x=1.0"),
        ("(0*x)^-1", [1.0], "domain error evaluating '^' at x=1.0"),
    ])
    def test_first_failing_point_is_named(self, source, xs, message):
        expr = parse(source)
        assert _outcome(_array(expr), xs) == _outcome(_scalar(expr), xs) == message

    @pytest.mark.parametrize("source", ["x", "2", "1/x", "exp(x)"])
    def test_result_is_a_new_plain_array(self, source):
        xs = np.array([1.0, 2.0])
        values = _array(parse(source))(xs)
        assert type(values) is np.ndarray and not np.shares_memory(values, xs)
        values[:] = 5.0
        assert xs.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("source,xs", [
        ("(-x)^3", [1.0, 2.5, -3.0]),  # negative base, integer exponent
        ("1/(1e300*x*x)", [1.0, 1e10]),  # an inf inside, a finite result
        ("(1e300*x - 1e300*x)^0", [1e10]),  # nan^0 = 1
        ("3 - 2*exp(-2*x)", [0.0, 0.5, 7.0]),
    ])
    def test_finite_results_match(self, source, xs):
        expr = parse(source)
        assert _array(expr)(xs).tobytes() == np.array(_scalar(expr)(xs)).tobytes()

    @pytest.mark.parametrize("source,low,high", [
        ("exp(x)", -700.0, 700.0),
        ("log(x)", 1e-300, 1e300),
        ("sqrt(x)", 0.0, 1e10),
        ("x^1.37", 0.0, 1e3),
        ("2.3^x", -500.0, 500.0),
        ("abs(x) - x*x/(x + 3.7)", -3.0, 3.0),
    ])
    def test_dense_grid_bit_for_bit(self, source, low, high):
        # numpy's exp and power differ from math's on a few percent of
        # arguments; 4,000 points see that
        xs = np.random.default_rng(7).uniform(low, high, 4000)
        expr = parse(source)
        assert _array(expr)(xs).tobytes() == np.array(_scalar(expr)(xs.tolist())).tobytes()


def _row_outcome(row, x):
    """The compiled row's values as bytes (the sign of zero included), or the
    message of the ExprDomainError it raises."""
    try:
        values = row(x)
    except ExprDomainError as err:
        return str(err)
    return np.array(values, dtype=float).tobytes()


def _eval_outcome(exprs, x):
    """What the row must give: eval's values as bytes, or the message of the
    ExprDomainError the first failing eval raises."""
    try:
        return np.array([e.eval(x) for e in exprs], dtype=float).tobytes()
    except ExprDomainError as err:
        return str(err)


#: the deepest shapes the parser accepts, each about 100 levels high
_DEEP = {
    "unary-minus": "-" * 99 + "x",
    "exp": "exp(" * 99 + "x" + ")" * 99,
    "sqrt": "sqrt(" * 99 + "x" + ")" * 99,
    "abs": "abs(" * 99 + "x" + ")" * 99,
    "power-tower": "x" + "^1.0001" * 99,
    "sum": "x" + " + 0.5" * 98 + " - x",
}


class TestCompiledRow:
    """compile_row gives [e.eval(x) for e in exprs] bit for bit, or raises
    eval's ExprDomainError with eval's message exactly where one of those
    calls raises."""

    @settings(max_examples=300, deadline=None)
    @given(sources=st.lists(expressions, min_size=1, max_size=4), xs=grids)
    def test_row_equals_tree_walk(self, sources, xs):
        # the second row runs the first's code object, from the code cache
        exprs = [parse(source) for source in sources]
        row, again = compile_row(exprs), compile_row(exprs)
        assert again.__code__ is row.__code__
        for x in xs:
            assert _row_outcome(row, x) == _row_outcome(again, x) == _eval_outcome(exprs, x)

    @pytest.mark.parametrize("name", sorted(_DEEP))
    @pytest.mark.parametrize("x", [-1.5, -0.0, 0.5, 1.0, 2.0])
    def test_deepest_accepted_inputs(self, name, x):
        expr = parse(_DEEP[name])
        assert _row_outcome(compile_row([expr]), x) == _eval_outcome([expr], x)

    def test_degree_five_equation_of_deepest_coefficients(self, eval_calls):
        # the nested exp overflows at every x; the other shapes stay finite
        names = ("abs", "power-tower", "sqrt", "sum", "unary-minus", "abs")
        equation = build_equation([_DEEP[name] for name in names], 0.0)
        exprs = equation.coeffs
        xs = (0.5, 1.0, 2.0)
        rows = [equation.row(x) for x in xs]
        assert eval_calls == []  # no row fell back to the tree walk
        for x, row in zip(xs, rows):
            assert np.array(row).tobytes() == _eval_outcome(exprs, x)

    def test_finite_results_summing_past_the_float_range(self, eval_calls):
        # each result is finite and their sum 2.5e308 + x is not: the one
        # sum test sends the row to the tree walk, which returns its values
        exprs = [parse(source) for source in ("1e308 + 0*x", "1.5e308 + 0*x", "x")]
        row = compile_row(exprs)
        assert "_ninf < _t1 + _t2 + x < _inf" in row.source
        for x in (-2.0, -0.0, 3.5):
            del eval_calls[:]
            assert _row_outcome(row, x) == _eval_outcome(exprs, x) == \
                np.array([1e308, 1.5e308, x]).tobytes()
            assert eval_calls == [x] * 6  # the row's walk, then _eval_outcome's

    @pytest.mark.parametrize("sources,x,message", [
        # inf without a raise, and inf and -inf whose sum is NaN
        (("1", "x*1e300", "x"), 1e10, r"^non-finite value inf at x=10000000000\.0$"),
        (("1e308*x", "-1e308*x", "2"), 10.0, r"^non-finite value inf at x=10\.0$"),
        # an operation that raises inside the generated code
        (("x", "x^2", "exp(x)"), 1e200, r"^overflow evaluating '\^' at x=1e\+200$"),
        (("x", "1", "exp(x)"), 1e3, r"^overflow in exp\(1000\.0\) at x=1000\.0$"),
    ])
    def test_one_non_finite_result_raises_the_walks_error(self, sources, x, message):
        exprs = [parse(source) for source in sources]
        with pytest.raises(ExprDomainError, match=message):
            compile_row(exprs)(x)
        assert _row_outcome(compile_row(exprs), x) == _eval_outcome(exprs, x)

    def test_nan_from_an_inf_literal_is_refused(self):
        expr = parse("1e999*0+1")
        with pytest.raises(ExprDomainError, match=r"^non-finite value nan at x=0\.0$"):
            compile_row([expr])(0.0)
        with pytest.raises(ExprDomainError, match=r"^non-finite value nan at x=0\.0$"):
            expr.eval(0.0)

    def test_intermediate_inf_with_finite_result(self):
        expr = parse("1/(1e200*1e200)")
        assert expr.eval(0.0) == 0.0
        assert _row_outcome(compile_row([expr]), 0.0) == np.array([0.0]).tobytes()

    @pytest.mark.parametrize("source,x", [
        ("1/x", -0.0),
        ("1/(0*(0 - 1))", 1.0),  # 0 * -1 is -0.0
    ])
    def test_negative_zero_divisor(self, source, x):
        expr = parse(source)
        with pytest.raises(ExprDomainError, match=r"^division by zero at x="):
            compile_row([expr])(x)
        with pytest.raises(ExprDomainError, match=r"^division by zero at x="):
            expr.eval(x)

    def test_negative_zero_result_keeps_its_sign(self):
        row = compile_row([parse("0*(0 - 1)"), parse("x")])
        assert _row_outcome(row, -0.0) == np.array([-0.0, -0.0]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(sources=st.lists(expressions, min_size=1, max_size=4))
    def test_every_bound_name_occurs_in_the_source(self, sources):
        # a folded constant subtree binds its value, not its leaves
        row = compile_row([parse(source) for source in sources])
        bound = [name for name in row.__globals__ if name.startswith("_k")]
        assert all(re.search(rf"\b{name}\b", row.source) for name in bound)

    def test_folded_leaves_are_not_bound(self):
        # -(2.5) and 3*4 fold to -2.5 and 12.0; 2.5, 3 and 4 are never bound
        row = compile_row([parse("-2.5*x + 3*4")])
        bound = {name: value for name, value in row.__globals__.items()
                 if name.startswith("_k")}
        assert sorted(bound.values()) == [-2.5, 12.0]
        assert row(2.0) == [7.0]

    def test_rows_differing_in_numbers_share_code(self):
        # one code object, each row with its own constants
        equations = [build_equation([f"{a} + {b}*exp({c}*x)", f"{b}*x - {a}", "-1"], 0.0)
                     for a, b, c in ((1.5, -0.25, -2.0), (-3.0, 7.5, -0.125))]
        first, second = (equation.row for equation in equations)
        assert first.__code__ is second.__code__ and first.source == second.source
        for x in (-1.5, -0.0, 0.5, 2.0):
            outcomes = [_row_outcome(equation.row, x) for equation in equations]
            assert outcomes[0] != outcomes[1]
            for outcome, equation in zip(outcomes, equations):
                assert outcome == _eval_outcome(equation.coeffs, x)

    def test_code_cache_is_bounded(self):
        # rows of 2, 3, ... copies of one expression are distinct sources
        exprs = [parse("log(x) / (1 + exp(-x))")]
        first = compile_row(exprs)
        for copies in range(2, expr_module._CODE_CACHE_SIZE + 2):
            compile_row(exprs * copies)
        cache = expr_module._compile.cache_info()
        assert cache.currsize <= expr_module._CODE_CACHE_SIZE
        again = compile_row(exprs)
        assert expr_module._compile.cache_info().misses == cache.misses + 1  # evicted
        assert again.__code__ is not first.__code__ and again.source == first.source
        for x in (-1.0, -0.0, 0.0, 0.5, 3.0):
            assert _row_outcome(again, x) == _row_outcome(first, x) == _eval_outcome(exprs, x)

    def test_constants_enter_only_through_names(self):
        source = compile_row([parse("2.5*x + pi")]).source
        assert "2.5" not in source and "pi" not in source and "3.14" not in source

    @settings(max_examples=300, deadline=None)
    @given(source=expressions, xs=grids)
    def test_shared_subtrees(self, source, xs):
        # one local per distinct subtree: the four expressions share f
        exprs = [parse(text.format(f=source)) for text in ("{f}", "2*({f})", "({f}) - 1", "-({f})")]
        row = compile_row(exprs)
        for x in xs:
            assert _row_outcome(row, x) == _eval_outcome(exprs, x)

    @pytest.mark.parametrize("source", ["log(0-1) + x", "1/0 + x", "1/(0*(0 - 1)) + x"])
    @pytest.mark.parametrize("x", [-1.5, -0.0, 0.0, 2.0])
    def test_failing_constant_subtree_fails_at_every_x(self, source, x):
        expr = parse(source)
        outcome = _row_outcome(compile_row([expr]), x)
        assert isinstance(outcome, str) and outcome == _eval_outcome([expr], x)
        with pytest.raises(ExprDomainError):
            expr.eval(x)

    def test_shared_exp_is_called_once_per_row(self, monkeypatch):
        # the shape of a generated stiff equation of degree 5: every
        # coefficient but the last is s (c_k + l_k r1(x)), r1 = L + A exp(-k x)
        calls = []
        exp = expr_module._FUNCTIONS["exp"]
        monkeypatch.setitem(expr_module._FUNCTIONS, "exp",
                            lambda value: calls.append(value) or exp(value))
        r1 = "(0.6116171326861712 + -0.45767183686440005*exp(-1.4250561981845558*x))"
        pairs = [(0.0, 1.1912946009422603), (-1.1912946009422603, 0.004455832417962563),
                 (-0.004455832417962563, 1.6083998369361523),
                 (-1.6083998369361523, 0.008078885115257783), (-0.008078885115257783, -1.0)]
        sources = [f"1.864292119774273*({c!r} + {l!r}*{r1})" for c, l in pairs]
        exprs = [parse(source) for source in sources + ["1.864292119774273"]]
        row = compile_row(exprs)
        for x in (0.0, 0.37, 12.5):
            calls.clear()
            values = row(x)
            assert len(calls) == 1
            assert np.array(values).tobytes() == _eval_outcome(exprs, x)

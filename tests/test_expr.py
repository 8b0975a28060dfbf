import math

import pytest
from hypothesis import given, settings, strategies as st

from abelode.expr import ExprDomainError, ExprError, ExprSyntaxError, parse


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


class TestRoundTrip:
    def test_pretty_reparses_to_same_values(self):
        for src in ("2*x + 1", "-x^2", "exp(-2*x)/(1 + x^2)", "x/(x+1)"):
            f = parse(src)
            g = parse(f.pretty())
            for x in (0.0, 0.3, 2.0, 17.5):
                assert g(x) == f(x)

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

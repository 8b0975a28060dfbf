"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

#: leaves chosen to reach every domain rule: 0 as a divisor or a log/sqrt
#: argument, 710 to overflow exp, 1e300 to overflow products and powers
_LEAVES = ("x", "pi", "e", "0", "1", "2", "0.5", "3", "710", "1e-300", "1e300")

_FUNCTIONS = ("exp", "log", "sqrt", "abs")


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        children.map(lambda c: f"-({c})"),
        st.tuples(st.sampled_from(_FUNCTIONS), children).map(lambda t: f"{t[0]}({t[1]})"),
    )


#: expression sources over every node type: numbers, x, constants, unary
#: minus, + - * / ^ (negative bases included) and the four functions
expressions = st.recursive(
    st.one_of(
        st.sampled_from(_LEAVES),
        st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False).map(repr),
    ),
    _extend,
    max_leaves=10,
)

#: 1-D grids that include the special abscissae 0, -0, +-1, 2 and -2.5
grids = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.5]),
        st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=30,
)

"""The scenario expression language: arithmetic, guards, and its whitelist."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridcert.expressions import (
    Expr,
    ExpressionError,
    predicate_fn,
    scalar_fn,
    vector_fn,
)


def test_arithmetic_against_math():
    f = scalar_fn("sin(x) + 2*sqrt(y) - log(y)", ("x", "y"))
    for x, y in ((0.0, 1.0), (1.2, 0.3), (-2.0, 4.5)):
        assert f([x, y]) == math.sin(x) + 2.0 * math.sqrt(y) - math.log(y)


def test_function_table_spot_checks():
    assert scalar_fn("expit(0)", ())([]) == 0.5
    assert scalar_fn("hypot(3, 4)", ())([]) == 5.0
    assert scalar_fn("sign(-7.5)", ())([]) == -1.0
    assert scalar_fn("max(x, 0) + min(x, 0)", ("x",))([-3.0]) == -3.0


def test_constants():
    assert scalar_fn("cos(pi)", ())([]) == -1.0
    assert scalar_fn("log(e)", ())([]) == 1.0
    assert scalar_fn("tau", ())([]) == 2.0 * math.pi
    assert scalar_fn("-inf", ())([]) == float("-inf")


def test_vector_fn_row_per_entry():
    f = vector_fn(["-x", "x*y", "1.0"], ("x", "y"))
    out = f([2.0, 3.0])
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, np.array([-2.0, 6.0, 1.0]))


def test_predicate_fn_boolean_connectives():
    p = predicate_fn("x > 0 and not (y >= 1 or y < -1)", ("x", "y"))
    assert p([1.0, 0.0]) is True
    assert p([1.0, 2.0]) is False
    assert p([-1.0, 0.0]) is False


def test_conditional_and_modulo():
    f = scalar_fn("x if x > 0 else -x", ("x",))
    assert f([-4.0]) == 4.0
    assert scalar_fn("x % 3", ("x",))([7.0]) == 1.0


@pytest.mark.parametrize(
    "source",
    [
        "__import__('os').system('true')",
        "x.real",
        "x[0]",
        "(lambda: 1)()",
        "[v for v in (1, 2)]",
        "unknown_symbol + 1",
        "'a string'",
        "min(x, key=abs)",
    ],
)
def test_whitelist_rejections(source):
    with pytest.raises(ExpressionError):
        scalar_fn(source, ("x",))


def test_syntax_error_is_wrapped():
    with pytest.raises(ExpressionError):
        scalar_fn("x + ", ("x",))


def test_variable_names_validated():
    with pytest.raises(ExpressionError):
        scalar_fn("1.0", ("2bad",))
    with pytest.raises(ExpressionError):
        scalar_fn("sin", ("sin",))


def test_dimension_mismatch_at_call():
    f = scalar_fn("x", ("x",))
    with pytest.raises(ExpressionError):
        f([1.0, 2.0])


def test_overflow_is_an_expression_error():
    f = scalar_fn("10**400", ["x"])
    with pytest.raises(ExpressionError, match="OverflowError"):
        f([0.0])


def test_zero_division_is_an_expression_error():
    f = scalar_fn("1/x", ["x"])
    assert f([4.0]) == 0.25
    with pytest.raises(ExpressionError, match="ZeroDivisionError"):
        f([0.0])


@pytest.mark.parametrize("source", ["-" * 5000 + "x", "x" + "+x" * 5000],
                         ids=["parser", "compiler"])
def test_deep_nesting_is_an_expression_error_at_parse_time(source):
    with pytest.raises(ExpressionError, match="nested too deeply"):
        scalar_fn(source, ["x"])


def test_integer_literals_compile_as_floats():
    # exact ints would let a power tower such as 9**9**9 build a huge
    # number instead of overflowing at once
    value = Expr("2**3 + 7 % 4", ())([])
    assert type(value) is float and value == 11.0
    assert Expr("True", ())([]) is True
    with pytest.raises(ExpressionError, match="literal too large"):
        scalar_fn("1" + "0" * 400, ["x"])


finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(a=finite, b=finite, c=finite,
       x=st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False))
def test_polynomial_round_trip(a, b, c, x):
    # repr round-trips floats exactly, so both sides run identical arithmetic
    f = scalar_fn("%r + %r*x + %r*x**2" % (a, b, c), ("x",))
    assert f([x]) == a + b * x + c * x**2

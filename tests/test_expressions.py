"""The scenario expression language: arithmetic, guards, and its whitelist."""

import ast
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridcert.expressions import (
    CONSTANTS,
    FUNCTIONS,
    Expr,
    ExpressionError,
    _validate,
    predicate_fn,
    scalar_fn,
    vector_fn,
)
from hybridcert.geometry import as_vector


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


@pytest.mark.parametrize("name", ["lambda", "None", "if", "__debug__"])
def test_reserved_variable_names_are_rejected(name):
    # a compiled expression takes its variables as parameters
    with pytest.raises(ExpressionError, match="reserved"):
        scalar_fn("1.0", ("x", name))


def test_soft_keywords_and_bad_names():
    assert scalar_fn("match + case", ("match", "case"))([1.0, 2.0]) == 3.0
    with pytest.raises(ExpressionError, match="bad variable name"):
        scalar_fn("1.0", (1,))
    with pytest.raises(ExpressionError, match="duplicate"):
        scalar_fn("x", ("x", "x"))


def test_vector_fn_errors_quote_the_failing_entry():
    # the entry sits past the first 80 characters of the list's repr
    f = vector_fn(["x + " * 30 + "x", "1/x"], ("x",))
    with pytest.raises(ExpressionError,
                       match=r"^ZeroDivisionError: .* in '1/x'$"):
        f([0.0])


@pytest.mark.parametrize("make", [scalar_fn, predicate_fn, Expr])
def test_only_vector_fn_takes_a_list(make):
    # a list where one source belongs is a list literal, not a vector map
    with pytest.raises(ExpressionError, match="'List' not allowed"):
        make(["x < 0"], ("x",))


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


@pytest.mark.parametrize("source, value", [
    ("((x>0)+(x>0))**((x>0)+(x>0))", 4.0),
    ("-(x > 0)", -1.0),
    ("abs(not x)", 0.0),
    ("True + True", 2.0),
    ("(x if x > 0 else x > -1) * 2", 2.0),
    ("max(x > 0, x < 0)", 1.0),
    ("floor(2.5)", 2.0),
    ("ceil(2.5)", 3.0),
])
def test_bools_and_floor_enter_arithmetic_as_floats(source, value):
    # an exact int would grow without bound in a power tower
    got = Expr(source, ("x",))([1.0])
    assert type(got) is float and got == value


def test_arithmetic_on_names_and_constants_compiles_as_parsed():
    # only operands that may be bools gain a conversion; a bool that feeds
    # no arithmetic stays a bool
    assert Expr("x > 0 and not x > 2", ("x",))([1.0]) is True
    for source in ["-0.8*z", "z**2.0/2.0 + 9.8*y", "sin(y) - pi",
                   "y if z > 0.0 else -y", "y <= 0.0 and z < 0.0"]:
        tree = ast.parse(source, mode="eval")
        _validate(tree, ("y", "z"), source)
        assert ast.dump(tree) == ast.dump(ast.parse(source, mode="eval"))


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


def reference_eval(source, variables, x):
    """The evaluation the compiled function replaced: the validated tree
    compiled on its own and run by eval with the variables as locals."""
    source = str(source)
    tree = ast.parse(source, mode="eval")
    _validate(tree, variables, source)
    code = compile(tree, "<expr>", "eval")
    env = {name: float(v) for name, v in zip(variables, as_vector(x))}
    try:
        return eval(code, {"__builtins__": {}, **FUNCTIONS, **CONSTANTS}, env)
    except ArithmeticError as exc:
        raise ExpressionError(str(exc)) from None


def outcome(f):
    """f()'s value, or the type of the exception it raised."""
    try:
        return f()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def same_outcome(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


ONE_ARG = tuple(sorted(set(FUNCTIONS) - {"atan2", "hypot", "max", "min"}))
TWO_ARG = ("atan2", "hypot", "max", "min")

leaves = st.one_of(
    st.sampled_from(["x", "y", "pi", "e", "tau", "inf", "True", "False",
                     "0", "1", "3", "1e308", "5e-324"]),
    st.floats(-1e3, 1e3).map(lambda v: "(%r)" % v),
)


def extend(sub):
    return st.one_of(
        st.tuples(st.sampled_from(["-", "+", "not "]), sub).map(
            lambda t: "%s(%s)" % t),
        st.tuples(sub, st.sampled_from(
            ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
             "and", "or"]), sub).map(lambda t: "(%s) %s (%s)" % t),
        st.tuples(sub, sub, sub).map(lambda t: "(%s) < (%s) <= (%s)" % t),
        # integral exponents only: no complex results and no unbounded
        # integer powers
        st.tuples(sub, st.sampled_from(["-1.0", "0", "2", "3.0"])).map(
            lambda t: "(%s) ** %s" % t),
        st.tuples(sub, sub, sub).map(lambda t: "(%s) if (%s) else (%s)" % t),
        st.tuples(st.sampled_from(ONE_ARG), sub).map(lambda t: "%s(%s)" % t),
        st.tuples(st.sampled_from(TWO_ARG), sub, sub).map(
            lambda t: "%s(%s, %s)" % t),
    )


sources = st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(source=sources, x=st.floats(), y=st.floats())
def test_compiled_function_matches_the_eval_reference(source, x, y):
    variables, point = ("x", "y"), [x, y]
    vec = [source, "x*y", source]

    def ref():
        return reference_eval(source, variables, point)

    pairs = [
        (outcome(ref), outcome(lambda: Expr(source, variables)(point))),
        (outcome(lambda: float(ref())),
         outcome(lambda: scalar_fn(source, variables)(point))),
        (outcome(lambda: bool(ref())),
         outcome(lambda: predicate_fn(source, variables)(point))),
        (outcome(lambda: np.array(
            [float(reference_eval(s, variables, point)) for s in vec])),
         outcome(lambda: vector_fn(vec, variables)(point))),
    ]
    for want, got in pairs:
        assert same_outcome(want, got), (source, x, y, want, got)

"""The scenario expression language: arithmetic, guards, and its whitelist."""

import ast
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import expressions_reference
import hybridcert.expressions
from hybridcert.expressions import (
    CONSTANTS,
    FUNCTIONS,
    ExpressionError,
    _compile,
    _validate,
    predicate_fn,
    quote,
    scalar_fn,
    vector_fn,
)
from hybridcert.geometry import as_vector
from hybridcert.hybrid import HybridSystem


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
    assert type(out) is list
    assert out == [-2.0, 6.0, 1.0]


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


def test_list_form_raises_the_array_forms_expression_error():
    # HybridSystem.flow, the entry point for an array, calls the map on a
    # list and so raises the error of the list
    f = vector_fn(["x + " * 30 + "x", "1/x"], ("x",))
    with pytest.raises(ExpressionError) as array_form:
        HybridSystem(2, None, f, None, None, None).flow(np.array([0.0]))
    with pytest.raises(ExpressionError) as list_form:
        f([0.0])
    assert str(list_form.value) == str(array_form.value)
    assert "in '1/x'" in str(list_form.value)
    with pytest.raises(ExpressionError, match="expected 1 components, got 2"):
        f([0.0, 1.0])


@pytest.mark.parametrize("x", [[0.0, 2.0], np.array([0.0, 2.0])],
                         ids=["list", "array"])
def test_predicate_fn_raises_the_expression_errors_of_expr(x):
    # the messages of the raw compiled expression, for a list and for an
    # array alike
    variables = ("x", "y")
    p = predicate_fn("y/x > 1", variables)
    with pytest.raises(ExpressionError) as got:
        p(x)
    with pytest.raises(ExpressionError) as want:
        _compile("y/x > 1", variables)(x)
    assert str(got.value) == str(want.value) == (
        "ZeroDivisionError: float division by zero in 'y/x > 1'")
    longer = np.append(x, 1.0) if isinstance(x, np.ndarray) else x + [1.0]
    for point in (longer, x[:1]):
        with pytest.raises(ExpressionError) as got:
            p(point)
        with pytest.raises(ExpressionError) as want:
            _compile("y/x > 1", variables)(point)
        assert str(got.value) == str(want.value) == (
            "expected 2 components, got %d" % len(point))


@pytest.mark.parametrize("make", [scalar_fn, predicate_fn])
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
    value = _compile("2**3 + 7 % 4", ())([])
    assert type(value) is float and value == 11.0
    assert _compile("True", ())([]) is True
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
    got = _compile(source, ("x",))([1.0])
    assert type(got) is float and got == value


def test_arithmetic_on_names_and_constants_compiles_as_parsed():
    # only operands that may be bools gain a conversion; a bool that feeds
    # no arithmetic stays a bool
    assert _compile("x > 0 and not x > 2", ("x",))([1.0]) is True
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
    if isinstance(a, complex):
        return same_outcome(a.real, b.real) and same_outcome(a.imag, b.imag)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_outcome, a, b))
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
        (outcome(ref), outcome(lambda: _compile(source, variables)(point))),
        (outcome(lambda: float(ref())),
         outcome(lambda: scalar_fn(source, variables)(point))),
        (outcome(lambda: bool(ref())),
         outcome(lambda: predicate_fn(source, variables)(point))),
        (outcome(lambda: np.array(
            [float(reference_eval(s, variables, point)) for s in vec])),
         outcome(lambda: HybridSystem(3, None, vector_fn(vec, variables),
                                      None, None, None).flow(point))),
        (outcome(lambda: [float(reference_eval(s, variables, point))
                          for s in vec]),
         outcome(lambda: vector_fn(vec, variables)(point))),
    ]
    for want, got in pairs:
        assert same_outcome(want, got), (source, x, y, want, got)


# Names of the generated code's own, before and after they get their
# leading dot, and its placeholders: as variables they must change nothing.
NAME_PAIRS = [("x", "y"), ("_x", "_xs"), ("_float", "_exc"),
              ("__xs", "__float"), ("_point", "_vector"), ("_v0", "_len"),
              ("N", "VALUE"), ("VARS", "SOURCE"), ("RESULT", "FLOATS"),
              ("VALUES", "VARIABLES")]

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
           1e-310, 2.2250738585072014e-308, 1e308, -1e308, 1.0, -2.5]

states = st.one_of(st.sampled_from(SPECIAL), st.floats())


def sources_over(a, b):
    """Whitelisted expressions over the variables a and b, with the
    operators that raise: / and % by zero, ** and exp past the largest
    float, and a fractional ** of a negative base, whose complex value
    float() and the comparisons refuse with TypeError."""
    leaf = st.one_of(
        st.sampled_from([a, b, "pi", "inf", "True", "0", "3", "1e308",
                         "5e-324"]),
        st.floats(-1e3, 1e3).map(lambda v: "(%r)" % v),
    )

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(["-", "not "]), sub).map(
                lambda t: "%s(%s)" % t),
            st.tuples(sub, st.sampled_from(
                ["+", "-", "*", "/", "%", "<", "==", "and", "or"]), sub).map(
                lambda t: "(%s) %s (%s)" % t),
            st.tuples(sub, st.sampled_from(["0.5", "2", "-1.0", "1e3"])).map(
                lambda t: "(%s) ** %s" % t),
            st.tuples(sub, sub, sub).map(
                lambda t: "(%s) if (%s) else (%s)" % t),
            st.tuples(st.sampled_from(["exp", "sqrt", "abs", "floor"]),
                      sub).map(lambda t: "%s(%s)" % t),
            st.tuples(sub, sub).map(lambda t: "max(%s, %s)" % t),
        )

    return st.recursive(leaf, extend, max_leaves=8)


names_and_sources = st.sampled_from(NAME_PAIRS).flatmap(
    lambda names: st.tuples(st.just(names), sources_over(*names)))


def result(f):
    """f()'s value, or the type and message of the exception it raised (a
    tuple, which same_outcome compares with ==)."""
    try:
        return f()
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        return (type(exc), str(exc))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(names_source=names_and_sources, a=states, b=states)
def test_generated_functions_match_the_closure_reference_bit_for_bit(
        names_source, a, b):
    names, source = names_source
    vec = [source, "%s*%s" % names, "%s / %s" % names]
    point = [a, b]
    # the raw compiled expression against the reference's Expr
    makers = [(_compile, expressions_reference.Expr),
              (scalar_fn, expressions_reference.scalar_fn),
              (predicate_fn, expressions_reference.predicate_fn)]
    calls = []
    for x in (point, np.array(point), point + [a], np.array(point[:1])):
        calls += [(make, make_ref, source, x) for make, make_ref in makers]
    for x in (point, np.array(point), point[:1]):
        calls.append((vector_fn, expressions_reference.vector_fn, vec, x))
    for make, make_ref, src, x in calls:
        new, ref = make(src, names), make_ref(src, names)
        with np.errstate(all="ignore"):
            got, want = result(lambda: new(x)), result(lambda: ref(x))
        assert same_outcome(got, want), (make.__name__, src, names, x, got,
                                         want)


@pytest.mark.parametrize("names", NAME_PAIRS)
@pytest.mark.parametrize("source, point, kind", [
    ("1/{b}", [1.0, 0.0], ZeroDivisionError),
    ("{a} % {b}", [1.0, 0.0], ZeroDivisionError),
    ("{a} ** 2", [1e300, 0.0], OverflowError),
    ("exp({a})", [1e3, 0.0], OverflowError),
    ("{a} ** 0.5", [-4.0, 0.0], TypeError),
])
def test_generated_functions_raise_the_references_errors(names, source,
                                                         point, kind):
    a, b = names
    source = source.format(a=a, b=b)
    for make, src in (("scalar_fn", source), ("vector_fn", [a, source])):
        new = getattr(hybridcert.expressions, make)(src, names)
        ref = getattr(expressions_reference, make)(src, names)
        got, want = result(lambda: new(point)), result(lambda: ref(point))
        assert got == want and issubclass(got[0], (ExpressionError, kind))
        if kind is not TypeError:
            assert got[1].startswith(kind.__name__ + ": ")
            assert got[1].endswith(" in %s" % quote(source))


def test_a_vector_evaluates_every_entry_before_it_converts_one():
    # the complex first entry would raise TypeError in float(), but the
    # division by zero in the second is raised first, as an ExpressionError
    for names in NAME_PAIRS:
        a, b = names
        sources = ["%s ** 0.5" % a, "1/%s" % b]
        got = result(lambda: vector_fn(sources, names)([-4.0, 0.0]))
        want = result(lambda: expressions_reference.vector_fn(
            sources, names)([-4.0, 0.0]))
        assert got == want == (ExpressionError,
                               "ZeroDivisionError: float division by zero"
                               " in '1/%s'" % b)


def python_calls(fn, x):
    """The Python-level functions that calling fn(x) enters, in order."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code)

    sys.setprofile(profile)
    try:
        fn(x)
    finally:
        sys.setprofile(None)
    return entered


def test_a_compiled_map_or_predicate_is_one_python_call():
    # the solver hands every compiled expression a list of floats: no
    # wrapper, closure or helper may stand between it and the expression
    variables = ("y", "z")
    flow = vector_fn(["z", "-9.8 + 0.1*sin(y)*abs(z)"], variables)
    pred = predicate_fn("y <= 0 and z < max(0.0, y)", variables)
    for fn in (flow, pred, scalar_fn("z**2/2 + 9.8*y", variables)):
        assert len(python_calls(fn, [1.5, -2.0])) == 1

"""The expression compiler as it was before one generated function per
expression, kept as the reference for the generated functions.

Each expression compiled to a lambda whose parameters were the variables,
positional in their order; a point form wrapped it in a closure that
turned an array into a list (_arguments), checked the length, called the
lambda on the unpacked list and converted the value, and the vector form
wrapped the lambda of the tuple of its entries in a closure of its own.
The generated functions must return the same values, bit for bit and of
the same type, and raise the same exceptions with the same messages.
"""

import ast

from hybridcert.expressions import (
    CONSTANTS,
    FUNCTIONS,
    ExpressionError,
    _arithmetic_error,
    _checked,
    _validate,
    quote,
)
from hybridcert.geometry import as_vector

_GLOBALS = {"__builtins__": {}, **FUNCTIONS, **CONSTANTS}


def _compile(source, variables):
    many = isinstance(source, list)
    try:
        bodies = []
        for where in source if many else [source]:
            tree = ast.parse(where, mode="eval")
            _validate(tree, variables, where)
            bodies.append(tree.body)
        where = source
        params = ast.arguments(
            posonlyargs=[], args=[ast.arg(arg=v) for v in variables],
            kwonlyargs=[], kw_defaults=[], defaults=[],
        )
        body = ast.Tuple(elts=bodies, ctx=ast.Load()) if many else bodies[0]
        tree = ast.Expression(body=ast.Lambda(args=params, body=body))
        code = compile(ast.fix_missing_locations(tree), "<expr>", "eval")
    except SyntaxError as exc:
        raise ExpressionError(
            "syntax error in %s: %s" % (quote(where), exc)
        ) from None
    except (RecursionError, MemoryError):
        raise ExpressionError(
            "expression nested too deeply: %s" % quote(where)
        ) from None
    return eval(code, _GLOBALS)


def _arguments(x, variables):
    xs = x if type(x) is list else as_vector(x).tolist()
    if len(xs) != len(variables):
        raise ExpressionError(
            "expected %d components, got %d" % (len(variables), len(xs))
        )
    return xs


class Expr:
    def __init__(self, source, variables):
        self.source = str(source)
        self.variables = _checked(variables)
        self._fn = _point_fn(self.source, self.variables, lambda value: value)

    def __call__(self, x):
        return self._fn(x)


def _point_fn(source, variables, result):
    source = str(source)
    variables = _checked(variables)
    fn = _compile(source, variables)

    def point_fn(x):
        xs = _arguments(x, variables)
        try:
            value = fn(*xs)
        except ArithmeticError as exc:
            raise _arithmetic_error(exc, source) from None
        return result(value)

    return point_fn


def scalar_fn(source, variables):
    return _point_fn(source, variables, float)


def predicate_fn(source, variables):
    return _point_fn(source, variables, bool)


def vector_fn(sources, variables):
    sources = [str(s) for s in sources]
    variables = _checked(variables)
    fn = _compile(sources, variables)
    n = len(variables)

    def vector(xs):
        if len(xs) != n:
            raise ExpressionError(
                "expected %d components, got %d" % (n, len(xs))
            )
        try:
            return list(map(float, fn(*xs)))
        except ArithmeticError as exc:
            for source in sources:
                Expr(source, variables)(xs)
            raise _arithmetic_error(exc, sources) from None

    return vector

"""Safe arithmetic expressions for scenario files.

Maps, predicates and certificates in a scenario are plain strings.  They
are parsed with the ast module and restricted to arithmetic, comparisons,
boolean connectives, conditionals and a fixed table of math functions, so
loading a scenario never executes arbitrary code.
"""

import ast
import math
import reprlib

import numpy as np

from .geometry import as_vector


class ExpressionError(ValueError):
    """Expression uses a name or construct outside the whitelist, is nested
    too deeply to parse, or overflows or divides by zero when evaluated."""


def quote(node):
    """Short repr of untrusted input, for messages: the first 80 characters
    of a string, or reprlib's size-limited repr of any other value cut to
    80 characters."""
    if isinstance(node, str):
        return repr(node[:80])
    return reprlib.repr(node)[:80]


def _sign(t):
    return float((t > 0) - (t < 0))


def _expit(t):
    # logistic; evaluate on the non-overflowing branch
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    w = math.exp(t)
    return w / (1.0 + w)


FUNCTIONS = {
    "abs": abs,
    "acos": math.acos,
    "asin": math.asin,
    "atan": math.atan,
    "atan2": math.atan2,
    "ceil": math.ceil,
    "cos": math.cos,
    "cosh": math.cosh,
    "exp": math.exp,
    "expit": _expit,
    "floor": math.floor,
    "hypot": math.hypot,
    "log": math.log,
    "log1p": math.log1p,
    "max": max,
    "min": min,
    "sign": _sign,
    "sin": math.sin,
    "sinh": math.sinh,
    "sqrt": math.sqrt,
    "tan": math.tan,
    "tanh": math.tanh,
}

CONSTANTS = {"pi": math.pi, "e": math.e, "tau": math.tau, "inf": math.inf}

_NODE_TYPES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.BoolOp,
    ast.Compare,
    ast.Call,
    ast.IfExp,
    ast.Name,
    ast.Constant,
    ast.Load,
    # operator tokens
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod,
    ast.USub, ast.UAdd, ast.Not, ast.And, ast.Or,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq,
)


def _validate(tree, variables, source):
    # checks every node against the whitelist and turns int literals into
    # floats in place
    for node in ast.walk(tree):
        if not isinstance(node, _NODE_TYPES):
            raise ExpressionError(
                "%r not allowed in %s" % (type(node).__name__, quote(source))
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ExpressionError("bad call in %s" % quote(source))
            if node.func.id not in FUNCTIONS:
                raise ExpressionError("unknown function %s in %s"
                                      % (quote(node.func.id), quote(source)))
        elif isinstance(node, ast.Name):
            known = (
                node.id in variables
                or node.id in CONSTANTS
                or node.id in FUNCTIONS
            )
            if not known:
                raise ExpressionError(
                    "unknown name %s in %s" % (quote(node.id), quote(source))
                )
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float, bool)):
                raise ExpressionError(
                    "%s literal not allowed in %s"
                    % (type(node.value).__name__, quote(source)))
            if type(node.value) is int:
                # float arithmetic overflows at once where exact ints would
                # grow without bound (9**9**9)
                try:
                    node.value = float(node.value)
                except OverflowError:
                    raise ExpressionError(
                        "literal too large in %s" % quote(source)
                    ) from None


class Expr:
    """One compiled expression over named state components.

    Calling it with a state vector binds variables[i] to x[i] and returns
    the raw result (float for arithmetic, bool for predicates).
    """

    def __init__(self, source, variables):
        self.source = str(source)
        self.variables = tuple(variables)
        for name in self.variables:
            if not name.isidentifier():
                raise ExpressionError("bad variable name %s" % quote(name))
            if name in FUNCTIONS or name in CONSTANTS:
                raise ExpressionError("variable %r shadows a builtin" % name)
        try:
            tree = ast.parse(self.source, mode="eval")
            _validate(tree, self.variables, self.source)
            self._code = compile(tree, "<expr>", "eval")
        except SyntaxError as exc:
            raise ExpressionError(
                "syntax error in %s: %s" % (quote(self.source), exc)
            ) from None
        except (RecursionError, MemoryError):
            # one level of recursion per level of nesting: the parser runs
            # out of its own stack (MemoryError), the compiler out of
            # Python's (RecursionError)
            raise ExpressionError(
                "expression nested too deeply: %s" % quote(self.source)
            ) from None
        self._globals = {"__builtins__": {}}
        self._globals.update(FUNCTIONS)
        self._globals.update(CONSTANTS)

    def __call__(self, x):
        x = as_vector(x)
        if x.size != len(self.variables):
            raise ExpressionError(
                "expected %d components, got %d"
                % (len(self.variables), x.size)
            )
        env = {name: float(v) for name, v in zip(self.variables, x)}
        try:
            return eval(self._code, self._globals, env)
        except ArithmeticError as exc:
            raise ExpressionError(
                "%s: %s in %s" % (type(exc).__name__, exc, quote(self.source))
            ) from None

    def __repr__(self):
        return "Expr(%r, variables=%r)" % (self.source, self.variables)


def scalar_fn(source, variables):
    """Compile one expression into x -> float."""
    expr = Expr(source, variables)
    return lambda x: float(expr(x))


def predicate_fn(source, variables):
    """Compile one expression into x -> bool."""
    expr = Expr(source, variables)
    return lambda x: bool(expr(x))


def vector_fn(sources, variables):
    """Compile a list of expressions into x -> ndarray, one row per entry."""
    exprs = [Expr(s, variables) for s in sources]
    return lambda x: np.array([float(e(x)) for e in exprs])

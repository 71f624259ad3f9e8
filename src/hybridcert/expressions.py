"""Safe arithmetic expressions for scenario files.

Maps, predicates and certificates in a scenario are plain strings.  They
are parsed with the ast module and restricted to arithmetic, comparisons,
boolean connectives, conditionals and a fixed table of math functions, so
loading a scenario never executes arbitrary code.  Each validated
expression, or each list of them, compiles to one Python function whose
parameters are the variables.
"""

import ast
import keyword
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


def _floor(t):
    # math.floor returns an int, and exact int powers grow without bound
    return float(math.floor(t))


def _ceil(t):
    return float(math.ceil(t))


def expit(t):
    """Logistic 1 / (1 + exp(-t)) in the usual float64 evaluation order;
    0.0 where exp(-t) overflows (t below about -709.78)."""
    try:
        return 1.0 / (1.0 + math.exp(-t))
    except OverflowError:
        return 0.0


FUNCTIONS = {
    "abs": abs,
    "acos": math.acos,
    "asin": math.asin,
    "atan": math.atan,
    "atan2": math.atan2,
    "ceil": _ceil,
    "cos": math.cos,
    "cosh": math.cosh,
    "exp": math.exp,
    "expit": expit,
    "floor": _floor,
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


def _as_float(node):
    """node, or node * 1.0 where its value may be a bool.  A comparison,
    `not`, `and`/`or` (which pass a comparison's bool on), a conditional or
    a bool literal may give a bool, and bools add and power as ints:
    ((x>0)+(x>0))**((x>0)+(x>0)) is the int 4.  Times 1.0 is float() of a
    bool and leaves every float's bits alone."""
    boolish = (
        isinstance(node, (ast.Compare, ast.BoolOp, ast.IfExp))
        or (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not))
        or (isinstance(node, ast.Constant) and isinstance(node.value, bool))
    )
    if not boolish:
        return node
    product = ast.BinOp(left=node, op=ast.Mult(), right=ast.Constant(1.0))
    return ast.fix_missing_locations(ast.copy_location(product, node))


def _validate(tree, variables, source):
    # checks every node against the whitelist; in place, it turns int
    # literals into floats and makes each operand of arithmetic and each
    # argument of a function a float
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
    # the nodes as parsed: the products added below are not revisited
    for node in list(ast.walk(tree)):
        if isinstance(node, ast.BinOp):
            node.left = _as_float(node.left)
            node.right = _as_float(node.right)
        elif isinstance(node, ast.UnaryOp) and not isinstance(node.op, ast.Not):
            node.operand = _as_float(node.operand)
        elif isinstance(node, ast.Call):
            node.args = [_as_float(a) for a in node.args]


_GLOBALS = {"__builtins__": {}, **FUNCTIONS, **CONSTANTS}


def _compile(source, variables):
    """One Python function of the variables, positional in their order,
    that evaluates source; a list of sources gives a function that returns
    the tuple of their values."""
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
        # one level of recursion per level of nesting: the parser runs
        # out of its own stack (MemoryError), the compiler out of
        # Python's (RecursionError)
        raise ExpressionError(
            "expression nested too deeply: %s" % quote(where)
        ) from None
    return eval(code, _GLOBALS)


def _checked(variables):
    """variables as a tuple of names that can be the parameters of a
    compiled function."""
    variables = tuple(variables)
    for name in variables:
        if not isinstance(name, str) or not name.isidentifier():
            raise ExpressionError("bad variable name %s" % quote(name))
        if keyword.iskeyword(name) or name == "__debug__":
            # neither can name a parameter of the compiled function
            raise ExpressionError("variable name %s is reserved" % quote(name))
        if name in FUNCTIONS or name in CONSTANTS:
            raise ExpressionError("variable %r shadows a builtin" % name)
    if len(set(variables)) < len(variables):
        raise ExpressionError(
            "duplicate variable names in %s" % quote(variables))
    return variables


def _arguments(x, variables):
    x = as_vector(x)
    if x.size != len(variables):
        raise ExpressionError(
            "expected %d components, got %d" % (len(variables), x.size)
        )
    # tolist gives the Python floats that float(x[i]) would
    return x.tolist()


def _arithmetic_error(exc, source):
    return ExpressionError(
        "%s: %s in %s" % (type(exc).__name__, exc, quote(source))
    )


class Expr:
    """One compiled expression over named state components.

    Calling it with a state vector binds variables[i] to x[i] and returns
    the raw result (float for arithmetic, bool for predicates).
    """

    def __init__(self, source, variables):
        self.source = str(source)
        self.variables = _checked(variables)
        self._fn = _compile(self.source, self.variables)

    def __call__(self, x):
        try:
            return self._fn(*_arguments(x, self.variables))
        except ArithmeticError as exc:
            raise _arithmetic_error(exc, self.source) from None

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
    """Compile a list of expressions into x -> ndarray, one row per entry;
    all entries are one function, called once per evaluation."""
    sources = [str(s) for s in sources]
    variables = _checked(variables)
    fn = _compile(sources, variables)

    def vector(x):
        args = _arguments(x, variables)
        try:
            values = fn(*args)
        except ArithmeticError as exc:
            # evaluated alone, the failing entry raises again and its
            # message quotes that entry rather than the whole list
            for source in sources:
                Expr(source, variables)(x)
            raise _arithmetic_error(exc, sources) from None
        # numpy converts each entry as float() would
        return np.array(values, dtype=float)

    return vector

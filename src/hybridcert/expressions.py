"""Safe arithmetic expressions for scenario files.

Maps, predicates and certificates in a scenario are plain strings.  They
are parsed with the ast module and restricted to arithmetic, comparisons,
boolean connectives, conditionals and a fixed table of math functions, so
loading a scenario never executes arbitrary code.  Each validated
expression, or each list of them, compiles to one generated Python
function of the state list: it checks the length, unpacks the list into
the variables, evaluates and converts the result, all in its own body.
compiled_form looks up what a function of vector_fn or predicate_fn
evaluates (its validated trees and variables) by the function's identity,
so that the simulator can write the expressions into its own generated
code; a wrapper of the function, even a functools.wraps one, is not found.
"""

import ast
import keyword
import math
import reprlib
import weakref
from dataclasses import dataclass, field

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


def _checked(variables):
    """variables as a tuple of names that a compiled function can bind."""
    variables = tuple(variables)
    for name in variables:
        if not isinstance(name, str) or not name.isidentifier():
            raise ExpressionError("bad variable name %s" % quote(name))
        if keyword.iskeyword(name) or name == "__debug__":
            # neither can be bound by the compiled function
            raise ExpressionError("variable name %s is reserved" % quote(name))
        if name in FUNCTIONS or name in CONSTANTS:
            raise ExpressionError("variable %r shadows a builtin" % name)
    if len(set(variables)) < len(variables):
        raise ExpressionError(
            "duplicate variable names in %s" % quote(variables))
    return variables


def _arithmetic_error(exc, source):
    return ExpressionError(
        "%s: %s in %s" % (type(exc).__name__, exc, quote(source))
    )


# The two shapes of a compiled function.  Every name in them that starts
# with "_" belongs to the generated code and is given a leading dot in
# place of the "_", which no identifier can have, so no variable shadows
# it.  The fields in braces are filled in as text; the placeholders in
# capitals by nodes: VARS by the variables, VALUE by the expression (in a
# vector, the tuple of its entries), N by the number of variables, SOURCE
# by the source and VARIABLES by the names of the variables.
_POINT = """
def _point(_x):
    _xs = _x if _type(_x) is _list else _as_vector(_x).tolist()
    if _len(_xs) != N:
        raise _ExpressionError(
            "expected %d components, got %d" % (N, _len(_xs)))
    VARS = _xs
    try:
        return {result}(VALUE)
    except _ArithmeticError as _exc:
        raise _arithmetic_error(_exc, SOURCE) from None
"""

_VECTOR = """
def _vector(_xs):
    if _len(_xs) != N:
        raise _ExpressionError(
            "expected %d components, got %d" % (N, _len(_xs)))
    VARS = _xs
    try:
        {values} = VALUE
    except _ArithmeticError as _exc:
        raise _entry_error(_exc, SOURCE, VARIABLES, _xs) from None
    # float() as numpy converts an entry: a bool is 0.0 or 1.0, and a
    # complex power of a negative base raises TypeError
    return [{floats}]
"""


def _entry_error(exc, sources, variables, xs):
    # evaluated alone, the failing entry raises again and its message
    # quotes that entry rather than the whole list
    for source in sources:
        _compile(source, variables)(xs)
    return _arithmetic_error(exc, list(sources))


class _Fill(ast.NodeTransformer):
    """Replaces each placeholder of a template by its node and gives the
    template's own local and global names their leading dot."""

    def __init__(self, nodes):
        self.nodes = nodes

    def visit_Name(self, node):
        if node.id in self.nodes:
            return self.nodes[node.id]
        node.id = "." + node.id[1:]
        return node

    def visit_arg(self, node):
        node.arg = "." + node.arg[1:]
        return node

    def visit_ExceptHandler(self, node):
        node.name = "." + node.name[1:]
        return self.generic_visit(node)


_GLOBALS = {
    "__builtins__": {}, **FUNCTIONS, **CONSTANTS,
    ".ArithmeticError": ArithmeticError,
    ".ExpressionError": ExpressionError,
    ".arithmetic_error": _arithmetic_error,
    ".as_vector": as_vector,
    ".bool": bool,
    ".entry_error": _entry_error,
    ".float": float,
    ".len": len,
    ".list": list,
    ".type": type,
}


@dataclass(frozen=True)
class CompiledForm:
    """What a compiled function evaluates: kind, the name of the function
    that compiled it ("vector_fn" or "predicate_fn"), its
    sources and variables, and bodies, the validated tree of each source
    (ints made floats, bool operands of arithmetic made floats), in the
    order of the sources.  Forms are equal when kind, sources and
    variables are; the trees follow from those."""

    kind: str
    sources: tuple
    variables: tuple
    bodies: tuple = field(compare=False, repr=False)


# id of a compiled function -> (weak reference to it, its CompiledForm)
_FORMS = {}


def _register(fn, form):
    key = id(fn)

    def forget(ref):
        # the id may be reused once fn is gone: drop only fn's own entry
        if _FORMS.get(key, (None,))[0] is ref:
            del _FORMS[key]

    _FORMS[key] = (weakref.ref(fn, forget), form)


def compiled_form(fn):
    """The CompiledForm of fn, a function of vector_fn or predicate_fn
    itself; None for any other object, wrappers included."""
    entry = _FORMS.get(id(fn))
    if entry is None or entry[0]() is not fn:
        return None
    return entry[1]


def _compile(source, variables, result="", kind=None):
    """One function of the state that evaluates source.

    The state is the one argument: a list of floats, taken as it is, or,
    for a single source, also a 1-D array.  The function unpacks it into
    the variables, in their order.  A list of sources gives a function
    that returns the list of their values as floats; a single source one
    that returns result(value), where result is "_float", "_bool" or ""
    for the value as it is.  With a kind, the function's CompiledForm is
    registered for compiled_form.
    """
    many = isinstance(source, list)
    try:
        bodies = []
        for where in source if many else [source]:
            tree = ast.parse(where, mode="eval")
            _validate(tree, variables, where)
            bodies.append(tree.body)
        where = source
        nodes = {
            "VARS": ast.Tuple(
                elts=[ast.Name(id=v, ctx=ast.Store()) for v in variables],
                ctx=ast.Store()),
            "N": ast.Constant(len(variables)),
        }
        if many:
            # every entry is evaluated before any is converted
            values = ["_v%d" % i for i in range(len(bodies))]
            template = _VECTOR.format(
                values="(%s)" % "".join(v + ", " for v in values),
                floats=", ".join("_float(%s)" % v for v in values))
            nodes.update(VALUE=ast.Tuple(elts=bodies, ctx=ast.Load()),
                         SOURCE=ast.Constant(tuple(source)),
                         VARIABLES=ast.Constant(variables))
        else:
            template = _POINT.format(result=result)
            nodes.update(VALUE=bodies[0], SOURCE=ast.Constant(source))
        tree = _Fill(nodes).visit(ast.parse(template))
        code = compile(ast.fix_missing_locations(tree), "<expr>", "exec")
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
    namespace = {}
    exec(code, _GLOBALS, namespace)
    fn = namespace.popitem()[1]
    if kind is not None:
        _register(fn, CompiledForm(
            kind, tuple(source) if many else (source,), variables,
            tuple(bodies)))
    return fn


def scalar_fn(source, variables):
    """Compile one expression into x -> float, for x a list of floats or a
    1-D array."""
    return _compile(str(source), _checked(variables), "_float")


def predicate_fn(source, variables):
    """Compile one expression into x -> bool, for x a list of floats or a
    1-D array."""
    return _compile(str(source), _checked(variables), "_bool",
                    "predicate_fn")


def vector_fn(sources, variables):
    """Compile a list of expressions into a map from a list of floats to a
    list of floats, one entry per expression (a flow map in the form that
    hybrid.HybridSystem takes); all entries are one function, called once
    per evaluation."""
    return _compile([str(s) for s in sources], _checked(variables),
                    kind="vector_fn")

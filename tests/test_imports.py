"""Import hygiene: every module-level import in the package is used, every
exported name is used by another module or by a test, every default of the
public API is overridden by some call, every array form a region defines
for itself and every form the solver's kernel writes in is run by a
benchmark workload, no name of the kernel shadows one an expression reads,
every JSON dump refuses NaN and inf, every cache is bounded, and the
package runs without scipy, which only the tests need."""

import ast
import collections
import json
import types
from pathlib import Path

import pytest

import hybridcert
from test_cli import run_python

PACKAGE_DIR = Path(hybridcert.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]
# __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    source = "import os\nfrom dataclasses import dataclass, field\n" \
             "@dataclass\nclass A:\n    x: int = os.sep\n"
    assert unused_imports(source) == [(2, "field")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(source):
    """Identifiers the code uses: names, attributes, imported names and the
    parts of imported module paths.  Strings and comments do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
    return names


def home_module(name):
    """Stem of the module that defines an exported name."""
    obj = getattr(hybridcert, name)
    if isinstance(obj, types.ModuleType):
        return obj.__name__.rpartition(".")[2]
    return obj.__module__.rpartition(".")[2]


def test_reference_scan_ignores_strings():
    source = "from .geometry import contains\nx = np.linalg.norm\n'solve'\n"
    assert referenced_names(source) == {
        "geometry", "contains", "x", "np", "linalg", "norm",
    }


def test_every_export_is_used_elsewhere_or_tested():
    uses = {p: referenced_names(p.read_text()) for p in MODULES + TESTS}
    unused = [
        name for name in hybridcert.__all__
        if not any(name in names and (p in TESTS or p.stem != home_module(name))
                   for p, names in uses.items())
    ]
    assert unused == []


def report_constructions(source):
    """Lines that call CheckReport(...) directly."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "CheckReport"
    )


def test_report_scan_finds_direct_constructions():
    source = ("a = CheckReport(v)\n"
              "b = CheckReport.judge([], {})\n"
              "c = report.CheckReport(v, [], {})\n")
    assert report_constructions(source) == [1, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "report"],
                         ids=lambda p: p.stem)
def test_checks_take_their_verdict_from_judge(path):
    assert report_constructions(path.read_text()) == []


def nan_allowing_dumps(source):
    """Lines that call json.dump or json.dumps without allow_nan=False."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and getattr(node.func.value, "id", None) == "json"
        and not any(kw.arg == "allow_nan"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in node.keywords)
    )


def test_dump_scan_finds_calls_that_allow_nan():
    source = ("a = json.dumps(x)\n"
              "b = json.dumps(x, allow_nan=False)\n"
              "json.dump(x, fh, indent=1, allow_nan=True)\n"
              "json.dump(x, fh, indent=1, allow_nan=False)\n"
              "c = json.loads(s)\n")
    assert nan_allowing_dumps(source) == [1, 3]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")),
                         ids=lambda p: p.stem)
def test_json_output_refuses_non_finite_numbers(path):
    # only report._jsonable turns NaN and +-inf into JSON (null, +-1e12);
    # a non-finite number that reaches a dump without it is an error
    assert nan_allowing_dumps(path.read_text()) == []


ARRAY_FORMS = {"contains_many", "distance_many"}
# the benchmark workloads that run each array form a region of geometry.py
# defines for itself; every other region takes SetRegion's row loop, which
# gives the one-point bits by construction
ARRAY_FORM_WORKLOADS = {
    ("AxisBox", "contains_many"): ("mg-loop", "ball-sweep", "ball-certify"),
    ("AxisBox", "distance_many"): ("ball-certify",),
    ("Implicit", "contains_many"): ("ball-sweep", "ball-certify"),
    ("Inflated", "contains_many"): ("ball-sweep", "ball-certify"),
}


def array_forms(source):
    """(class, method) of each contains_many or distance_many that a
    subclass defines in its own body."""
    return sorted(
        (node.name, item.name)
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.bases
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ARRAY_FORMS
    )


def test_array_form_scan_finds_what_subclasses_define():
    source = ("class Base:\n    def contains_many(self, X):\n        pass\n"
              "class A(Base):\n    def contains_many(self, X):\n        pass\n"
              "    def distance(self, x):\n        pass\n"
              "class B(Base):\n    def distance_many(self, X):\n        pass\n"
              "def contains_many(X):\n    pass\n")
    assert array_forms(source) == [("A", "contains_many"),
                                   ("B", "distance_many")]


def test_every_array_form_of_a_region_has_a_workload():
    # an array form is a second copy of a region's membership or distance,
    # kept only where a workload of the benchmark runs it
    source = (PACKAGE_DIR / "geometry.py").read_text()
    assert array_forms(source) == sorted(ARRAY_FORM_WORKLOADS)
    names = {w["name"] for w in json.loads(
        (REPO / "BENCHMARK.json").read_text())["workloads"]}
    assert {w for ws in ARRAY_FORM_WORKLOADS.values() for w in ws} <= names


# the benchmark workloads that run each form whose code the solver's RK4
# kernel writes in (simulate._written_map and _written_test): an AxisBox's
# contains, an Implicit's contains with a predicate_fn predicate, and a
# vector_fn map.  Each is a second copy of code that the kernel would
# otherwise call, kept only where a workload runs it
INLINE_FORM_WORKLOADS = {
    "AxisBox.contains": ("mg-loop", "ball-sweep"),
    "Implicit.contains": ("ball-sweep",),
    "predicate_fn": ("ball-sweep",),
    "vector_fn": ("ball-sweep",),
}


def inline_forms(source, classes):
    """The forms source tells apart: each Class.contains of one of
    classes, and each string it compares a .kind with."""
    forms = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "contains"
                and getattr(node.value, "id", None) in classes):
            forms.add(node.value.id + ".contains")
        elif (isinstance(node, ast.Compare)
              and getattr(node.left, "attr", None) == "kind"):
            forms.update(c.value for c in node.comparators
                         if isinstance(c, ast.Constant))
    return sorted(forms)


def test_inline_form_scan_finds_identities_and_kinds():
    source = ("if f is Box.contains and g.kind == 'vector_fn':\n"
              "    r = Other.contains\n"
              "x = Box.distance\n"
              "y = kind == 'predicate_fn'\n")
    assert inline_forms(source, {"Box"}) == ["Box.contains", "vector_fn"]


def test_every_inline_form_of_the_kernel_has_a_workload():
    classes = {node.name for node in ast.parse(
        (PACKAGE_DIR / "geometry.py").read_text()).body
        if isinstance(node, ast.ClassDef)}
    source = (PACKAGE_DIR / "simulate.py").read_text()
    assert inline_forms(source, classes) == sorted(INLINE_FORM_WORKLOADS)
    names = {w["name"] for w in json.loads(
        (REPO / "BENCHMARK.json").read_text())["workloads"]}
    assert {w for ws in INLINE_FORM_WORKLOADS.values() for w in ws} <= names


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_no_kernel_name_shadows_an_expression_name(dim):
    # the kernel runs the written-in expressions in its own frame: a local
    # or global of its own named like a function or constant of the
    # expression language would take that name's place
    from hybridcert import AxisBox, Implicit, predicate_fn, vector_fn
    from hybridcert.expressions import CONSTANTS, FUNCTIONS
    from hybridcert.simulate import _rk4_fns

    names = ["x%d" % i for i in range(dim)]
    box = AxisBox([-1.0] * dim, [1.0] * dim)
    jump_set = Implicit(predicate_fn("x0 > 0", names), box)
    f = vector_fn(["%s * pi + e" % v for v in names], names)
    for fn in _rk4_fns(dim, f, jump_set.contains, box.contains,
                       box.contains):
        code = fn.__code__
        bound = set(code.co_varnames) | set(code.co_cellvars)
        own = {k for k, v in fn.__globals__.items()
               if k != "__builtins__" and FUNCTIONS.get(
                   k, CONSTANTS.get(k)) is not v}
        assert not (bound | own) & (set(FUNCTIONS) | set(CONSTANTS))


CACHES = {"cache", "lru_cache"}


def unbounded_caches(source):
    """Lines that name functools.cache, or functools.lru_cache other than
    as a call with a maxsize that is not None; imported names included."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "functools"
                for alias in node.names if alias.name in CACHES}
    sizes = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            given = node.args[:1] + [kw.value for kw in node.keywords
                                     if kw.arg == "maxsize"]
            sizes[id(node.func)] = given[0] if given else None
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
                and getattr(node.value, "id", None) == "functools"):
            name = node.attr
        elif isinstance(node, ast.Name) and node.id in imported:
            name = imported[node.id]
        else:
            continue
        size = sizes.get(id(node))
        if name == "cache" or size is None or (
                isinstance(size, ast.Constant) and size.value is None):
            lines.append(node.lineno)
    return sorted(lines)


def test_cache_scan_finds_unbounded_caches():
    source = ("import functools\n"
              "from functools import cache, lru_cache as lru\n"
              "@functools.cache\n"
              "def a(): pass\n"
              "@functools.lru_cache\n"
              "def b(): pass\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def c(): pass\n"
              "@lru(None)\n"
              "def d(): pass\n"
              "@cache\n"
              "def e(): pass\n"
              "@functools.lru_cache(maxsize=64)\n"
              "def f(): pass\n"
              "@lru(8)\n"
              "def g(): pass\n"
              "h = functools.lru_cache()(len)\n")
    assert unbounded_caches(source) == [3, 5, 7, 9, 11, 17]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_cache_is_bounded(path):
    # a cache keyed by what a caller passes grows with every distinct key
    assert unbounded_caches(path.read_text()) == []


IMPORT_CALLS = {"__import__", "import_module"}


def scipy_imports(source):
    """Lines that import scipy: import statements at any depth, and
    __import__ or importlib.import_module calls with a literal name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in IMPORT_CALLS):
            names = [str(node.args[0].value)]
        else:
            continue
        if any(n.split(".")[0] == "scipy" for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_scipy_scan_finds_nested_and_dynamic_imports():
    source = ("import os\n"
              "def f():\n"
              "    from scipy.optimize import nnls\n"
              "    import scipy.special as sp\n"
              "    return importlib.import_module('scipy.linalg')\n"
              "from .scipyish import g\n"
              "print('scipy')\n"
              "__import__('scipy')\n")
    assert scipy_imports(source) == [3, 4, 5, 8]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")),
                         ids=lambda p: p.stem)
def test_module_does_not_import_scipy(path):
    assert scipy_imports(path.read_text()) == []


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # catches scipy pulled in through another package as well
    code, stdout, stderr = run_python(
        ["-c", "import hybridcert.cli, sys; print('scipy' in sys.modules)"],
        tmp_path,
    )
    assert code == 0, stderr
    assert stdout.strip() == "False"


CALLERS = (sorted(PACKAGE_DIR.glob("*.py"))
           + sorted(Path(__file__).resolve().parent.glob("*.py"))
           + sorted((REPO / "perfbench").glob("*.py")))


def defaulted_parameters(source):
    """(name, parameter, position) of each defaulted parameter of a public
    function or method; a method's name starts with a dot.  Positions
    count from the first parameter after self; a keyword-only parameter
    has none."""
    found = []

    def scan(fn, method):
        if fn.name.startswith("_"):
            return
        params = fn.args.posonlyargs + fn.args.args
        if method and not any(getattr(d, "id", None) == "staticmethod"
                              for d in fn.decorator_list):
            params = params[1:]
        name = "." + fn.name if method else fn.name
        first = len(params) - len(fn.args.defaults)
        found.extend((name, p.arg, k)
                     for k, p in enumerate(params) if k >= first)
        found.extend((name, p.arg, None)
                     for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                     if d is not None)

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            scan(node, method=False)
        elif isinstance(node, ast.ClassDef):
            # a public method of a private base is public on its subclasses
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    scan(item, method=True)
    return found


def passed_arguments(sources):
    """For each called name, the positions and keywords that some call of
    that name passes: calls f(...) and x.f(...) count for "f", and only
    calls x.f(...) for ".f", a method's name.  "*" and "**" mark calls that
    unpack arguments, which may pass any position or any keyword."""
    passed = collections.defaultdict(set)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                names = [node.func.id]
            elif isinstance(node.func, ast.Attribute):
                names = [node.func.attr, "." + node.func.attr]
            else:
                continue
            got = {"*" if isinstance(arg, ast.Starred) else k
                   for k, arg in enumerate(node.args)}
            got.update(kw.arg or "**" for kw in node.keywords)
            for name in names:
                passed[name] |= got
    return passed


def unused_defaults(definitions, callers):
    """(function, parameter) of each defaulted parameter in the sources
    definitions that no call in the sources callers passes."""
    passed = passed_arguments(callers)
    unused = []
    for source in definitions:
        for name, param, k in defaulted_parameters(source):
            got = passed[name]
            if not ({param, "**"} & got or k is not None and {k, "*"} & got):
                unused.append((name, param))
    return unused


def test_default_scan_flags_a_default_no_call_passes():
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "class K:\n"
              "    def m(self, x, y=0):\n        pass\n"
              "    def n(self, z=1):\n        pass\n"
              "    @staticmethod\n"
              "    def s(u=1):\n        pass\n"
              "class _Base:\n"
              "    def h(self, v=1):\n        pass\n"
              "    def _g(self, w=1):\n        pass\n"
              "def _private(q=1):\n    pass\n"
              "f(0, 5)\nK().m(1, y=2)\nK.s(4)\nn(7)\n")
    # n(7) calls a function n, not the method
    assert unused_defaults([source], [source]) == [
        ("f", "c"), ("f", "d"), (".n", "z"), (".h", "v"),
    ]
    assert unused_defaults([source], [source, "f(*xs)\nk.n(**kw)\n"
                                          "k.h(2)\n"]) == [("f", "d")]


def test_every_default_is_passed_by_some_call():
    # a default that no call overrides is a constant in disguise
    callers = [p.read_text() for p in CALLERS]
    assert unused_defaults([p.read_text() for p in MODULES], callers) == []


def unread_parameters(sources, exempt=()):
    """(name, parameter) of each parameter of a public function or method
    that its body never reads; a method's name is "Class.method".  The
    functions named in exempt are skipped, and so is a method that shares
    its name with a method of a base or a subclass: its signature is the
    interface's, whatever one class reads of it."""
    classes = {}
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (
                    {b.id for b in node.bases if isinstance(b, ast.Name)},
                    {item.name for item in node.body
                     if isinstance(item, ast.FunctionDef)})

    def ancestors(name):
        bases = classes.get(name, (set(), set()))[0]
        return bases.union(*map(ancestors, bases))

    def shared(cls, method):
        return any(method in classes[other][1]
                   for other in classes
                   if other != cls and (other in ancestors(cls)
                                        or cls in ancestors(other)))

    def unread(fn, method):
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + [a.vararg]
                  + a.kwonlyargs + [a.kwarg] if p is not None]
        if method and not any(getattr(d, "id", None) == "staticmethod"
                              for d in fn.decorator_list):
            params = params[1:]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        return [p for p in params if p not in read]

    found = []
    for source in sources:
        for node in ast.parse(source).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")
                    and node.name not in exempt):
                found.extend((node.name, p) for p in unread(node, False))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")
                            and not shared(node.name, item.name)):
                        found.extend(("%s.%s" % (node.name, item.name), p)
                                     for p in unread(item, True))
    return found


def test_parameter_scan_flags_a_parameter_no_body_reads():
    source = ("def f(a, b, *args, c, **kw):\n    return a + kw['x']\n"
              "def g(a):\n    def inner():\n        return a\n"
              "    return inner\n"
              "def handler(a):\n    pass\n"
              "def _private(a):\n    pass\n"
              "class Base:\n    def m(self, x):\n        raise KeyError\n"
              "    def n(self, y):\n        return 0\n"
              "class Leaf(Base):\n    def m(self, x):\n        return 1\n"
              "    @staticmethod\n    def s(u):\n        return 2\n")
    # a closure reads g's a; Base.m and Leaf.m share a name along the
    # hierarchy
    assert unread_parameters([source], exempt={"handler"}) == [
        ("f", "b"), ("f", "args"), ("f", "c"),
        ("Base.n", "y"), ("Leaf.s", "u"),
    ]


def test_every_parameter_of_a_public_function_is_read():
    # a parameter no body reads is an input that changes nothing; the
    # command handlers share one signature, which main calls them with
    from hybridcert import cli

    handlers = {fn.__name__ for fn in cli.COMMANDS.values()}
    assert unread_parameters([p.read_text() for p in MODULES],
                             exempt=handlers) == []

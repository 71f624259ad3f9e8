"""Import hygiene: every module-level import in the package is used, every
exported name is used by another module or by a test, every default of the
public API is overridden by some call, and the package runs without scipy,
which only the tests need."""

import ast
import collections
import types
from pathlib import Path

import pytest

import hybridcert
from test_cli import run_python

PACKAGE_DIR = Path(hybridcert.__file__).resolve().parent
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


REPO = Path(__file__).resolve().parents[1]
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

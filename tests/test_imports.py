"""Import hygiene: every module-level import in the package is used, every
exported name is used by another module or by a test, and the package runs
without scipy, which only the tests need."""

import ast
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

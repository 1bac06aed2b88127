"""Every module imports on its own, every name a module of the package
imports or keeps private is used in it, and the run path loads neither
scipy nor a process pool.

A deletion that leaves an import or a private helper behind fails here. The
check reads the source with the standard-library ``ast`` module: a name
counts as used when it appears as a name anywhere in the module's code,
including string annotations such as ``"Scenario"``. A module-level
function or class whose name starts with one underscore is private, and
the module itself must name it somewhere. ``__init__`` is exempt: it
re-exports ``run_single`` and loads ``presets``.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cotrack"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A string annotation names its types; other strings that happen
            # to parse as an expression can only hide an unused import, never
            # flag a used one.
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def orphan_helpers(source: str):
    """(name, line) of each module-level private function or class never used."""
    tree = ast.parse(source)
    used = used_names(tree)
    return [(node.name, node.lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_on_its_own(path):
    """A fresh interpreter imports the module under an empty ``cotrack``
    package, so no other module's import can have loaded its dependencies."""
    code = ("import sys, types\n"
            "package = types.ModuleType('cotrack')\n"
            f"package.__path__ = [{str(PACKAGE)!r}]\n"
            "sys.modules['cotrack'] = package\n"
            f"import cotrack.{path.stem}\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_the_package_exposes_run_single():
    code = ("import sys; sys.path.insert(0, %r)\n"
            "import cotrack, cotrack.experiment\n"
            "assert cotrack.run_single is cotrack.experiment.run_single\n" % str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_the_run_path_loads_neither_scipy_nor_a_process_pool():
    """``scipy`` is a test-only dependency, and a single-process run never
    starts a pool; importing either would only lengthen every run's start-up."""
    code = ("import sys; sys.path.insert(0, %r)\n"
            "import cotrack.experiment, cotrack.cli\n"
            "print(sorted(m for m in ('scipy', 'multiprocessing', 'concurrent.futures.process')\n"
            "             if m in sys.modules))\n" % str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_flags_an_unused_import():
    source = ("from typing import TYPE_CHECKING, List, Optional\n"
              "import numpy as np\nimport os.path\n"
              "if TYPE_CHECKING:\n    from .scenario import Scenario\n"
              "def f(s: 'Scenario') -> List[int]:\n    return np.zeros(1)\n")
    assert unused_imports(source) == [("Optional", 1), ("os", 3)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_orphan_private_helpers(path):
    assert orphan_helpers(path.read_text(encoding="utf-8")) == []


def test_the_check_flags_an_orphan_helper():
    source = ("def _used():\n    return 1\n\n"
              "def _orphan():\n    return _used()\n\n"
              "class _Record:\n    pass\n\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n\n"
              "def public(r: '_Kept'):\n    return _used()\n\n"
              "class _Kept:\n    def _method(self):\n        pass\n")
    assert orphan_helpers(source) == [("_orphan", 4), ("_Record", 7)]

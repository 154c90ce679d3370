"""Source checks that need nothing beyond the standard library's ``ast``."""

import ast
import sys
from pathlib import Path

import pytest

import qmu

SOURCES = sorted(Path(qmu.__file__).parent.glob("*.py"))

#: The packages ``src/qmu`` may import: scipy and other extras stay in the
#: tests and the benchmark.
ALLOWED_PACKAGES = sys.stdlib_module_names | {"numpy", "qmu"}


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions, in order of import.

    A name the module lists in its ``__all__`` is a re-export, so it counts
    as used; ``from __future__`` imports are compiler directives.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0],
                                    len(imported))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, len(imported))
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used - exported, key=imported.__getitem__)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_unused_names_and_spares_exports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .core import EPS_REPR, Model, halt_payoff\n"
              "from .game import play\n"
              "__all__ = ['play']\n"
              "def f(m: Model):\n    return np.zeros(1) + EPS_REPR\n")
    assert unused_imports(source) == ["os", "halt_payoff"]


def imported_packages(source: str) -> list[str]:
    """The top-level package of every import in a module, nested ones too.

    A relative import names the module's own package, ``qmu``.
    """
    packages = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            packages.append("qmu" if node.level else node.module.split(".")[0])
    return packages


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library_numpy_and_qmu(path):
    assert [package for package in imported_packages(path.read_text())
            if package not in ALLOWED_PACKAGES] == []


def test_the_import_guard_sees_other_packages():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport scipy.sparse as sp\n"
              "from . import core\nfrom .core import Model\n"
              "def f():\n    from numba import njit\n")
    assert [package for package in imported_packages(source)
            if package not in ALLOWED_PACKAGES] == ["scipy", "numba"]

"""Source checks that need nothing beyond the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

import qmu

SOURCES = sorted(Path(qmu.__file__).parent.glob("*.py"))


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

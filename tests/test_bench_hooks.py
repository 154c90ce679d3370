"""The names perfbench's traced mode replaces must exist in qmu.

``perfbench/run.py --trace 1`` swaps ``module.name`` for a timed wrapper
through ``getattr``, so renaming one of them breaks traced runs.  The calls
are read from the source with ``ast``; perfbench itself (and its scipy
dependency) is not imported.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def wrapped_names() -> list[tuple[str, str]]:
    """Every ``tr.wrap(<module>, "<name>", ...)`` call in the workloads."""
    found = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tr"):
            module, name = node.args[:2]
            assert isinstance(module, ast.Name), ast.dump(module)
            assert isinstance(name, ast.Constant), ast.dump(name)
            found.append((module.id, name.value))
    return found


def test_every_wrapped_name_exists():
    names = wrapped_names()
    assert len(names) >= 13
    missing = [f"qmu.{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"qmu.{module}"), name)]
    assert not missing

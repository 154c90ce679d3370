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


#: Functions allowed on a call cycle, by module: none.  Every walker in
#: ``src/qmu``, the strategy unfolding and the game-tree expansion included,
#: runs on an explicit stack, so no formula is too deep for the interpreter's
#: recursion limit and nothing changes that limit.
RECURSION_ALLOWED: dict[str, set[str]] = {}


def recursive_functions(source: str) -> set[str]:
    """The functions of a module that can reach themselves through its own
    functions, by dotted name (``f.inner``, ``Class.method``).

    Every mention of a function counts as a call, so a closure passed as a
    callback is seen too.  A name resolves to a function nested in the
    enclosing functions, innermost first, else to one of the module's own;
    ``self.name`` inside a method resolves to a method of its class.  A
    parameter of the same name hides the function.
    """
    tree = ast.parse(source)
    scopes: dict[str, dict[str, str]] = {"": {}}  # function -> names it defines
    parents: dict[str, str] = {}
    classes: dict[str, str] = {}  # method -> its class's dotted name
    bodies: dict[str, ast.AST] = {}

    def collect(node: ast.AST, prefix: str, scope: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                scopes[scope][child.name] = name
                scopes[name] = {}
                # class bodies do not enclose their methods
                parents[name] = "" if cls is not None else scope
                bodies[name] = child
                if cls is not None:
                    classes[name] = cls
                collect(child, name + ".", name, None)
            elif isinstance(child, ast.ClassDef):
                methods = prefix + child.name
                scopes[methods] = {}
                collect(child, methods + ".", methods, methods)
            else:
                collect(child, prefix, scope, cls)

    collect(tree, "", "", None)

    def resolve(name: str, scope: str) -> str | None:
        while True:
            if name in scopes[scope]:
                return scopes[scope][name]
            if scope == "":
                return None
            scope = parents[scope]

    edges: dict[str, set[str]] = {}
    for name, func in bodies.items():
        params = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
        targets = edges.setdefault(name, set())
        for node in ast.walk(func):
            if node is not func and isinstance(node, (ast.FunctionDef,
                                                      ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Name) and node.id not in params:
                target = resolve(node.id, name)
            elif (isinstance(node, ast.Attribute) and name in classes
                  and isinstance(node.value, ast.Name) and node.value.id == "self"):
                target = scopes[classes[name]].get(node.attr)
            else:
                continue
            if target is not None:
                targets.add(target)

    def reachable(start: str) -> set[str]:
        seen: set[str] = set()
        stack = list(edges.get(start, ()))
        while stack:
            cur = stack.pop()
            if cur not in seen:
                seen.add(cur)
                stack.extend(edges.get(cur, ()))
        return seen

    return {name for name in bodies if name in reachable(name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_recursion_outside_the_allowed_walkers(path):
    assert recursive_functions(path.read_text()) == RECURSION_ALLOWED.get(
        path.name, set())


def test_the_recursion_guard_sees_direct_mutual_and_callback_cycles():
    source = (
        "def direct(n):\n    return direct(n - 1)\n"
        "def ping(n):\n    return pong(n)\n"
        "def pong(n):\n    return ping(n)\n"
        "def outer(node):\n"
        "    def go(n):\n        return rebuild(n, go)\n"
        "    return go(node)\n"
        "def rebuild(node, f):\n    return f(node)\n"
        "def shadowed(direct):\n    return direct(1)\n"
        "def caller():\n    return direct(1) + helper()\n"
        "def helper():\n    return 0\n"
        "class Parser:\n"
        "    def formula(self):\n        return self.atom()\n"
        "    def atom(self):\n        return self.formula()\n"
        "    def peek(self):\n        return self.tokens\n")
    assert recursive_functions(source) == {
        "direct", "ping", "pong", "outer.go", "Parser.formula", "Parser.atom"}


def opens_without_encoding(source: str) -> list[int]:
    """Lines that open a file in text mode without naming its encoding.

    A call of ``open`` or of an attribute named ``open`` (``io.open``, a
    path's ``open``) counts unless it passes ``encoding=`` or a constant
    mode holding ``b``; the mode is the second positional argument of a
    bare ``open`` or ``io.open`` and the first of a method.  Such a file is
    read or written in the locale's encoding, which JSON does not allow
    (RFC 8259 asks for UTF-8).
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" or (
                isinstance(func, ast.Attribute) and func.attr == "open"
                and isinstance(func.value, ast.Name) and func.value.id == "io"):
            position = 1
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            position = 0
        else:
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
        mode = node.args[position] if len(node.args) > position else (
            modes[0] if modes else None)
        binary = (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                  and "b" in mode.value)
        named = (any(kw.arg == "encoding" for kw in node.keywords)
                 or len(node.args) > position + 2)
        if not (binary or named):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_text_file_names_its_encoding(path):
    assert opens_without_encoding(path.read_text()) == []


def test_the_encoding_guard_sees_every_spelling():
    source = ("import io\n"
              "def f(path, p, mode):\n"
              "    open(path)\n"
              "    open(path, 'w')\n"
              "    open(path, mode='r')\n"
              "    io.open(path)\n"
              "    p.open()\n"
              "    p.open('w')\n"
              "    open(path, mode)\n"
              "    open(path, encoding='utf-8')\n"
              "    open(path, 'w', encoding='utf-8')\n"
              "    open(path, 'rb')\n"
              "    open(path, mode='wb')\n"
              "    io.open(path, 'r', -1, 'utf-8')\n"
              "    p.open('rb')\n"
              "    p.open(encoding='utf-8')\n")
    assert opens_without_encoding(source) == [3, 4, 5, 6, 7, 8, 9]


def json_dump_calls(source: str) -> list[int]:
    """Lines that call ``json.dump``, through any alias of the module or
    of the function.

    The streaming call always runs the standard library's pure-Python
    encoder; ``json.dumps`` without an indent runs its C encoder.
    """
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions.update(alias.asname or alias.name for alias in node.names
                             if alias.name == "dump")
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and (
                      (isinstance(node.func, ast.Attribute)
                       and node.func.attr == "dump"
                       and isinstance(node.func.value, ast.Name)
                       and node.func.value.id in modules)
                      or (isinstance(node.func, ast.Name)
                          and node.func.id in functions)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_streaming_json_dump(path):
    assert json_dump_calls(path.read_text()) == []


def test_the_json_dump_guard_sees_every_spelling():
    source = ("import json\nimport json as j\nfrom json import dump as put, dumps\n"
              "def save(fh, doc):\n"
              "    json.dump(doc, fh)\n"
              "    fh.write(json.dumps(doc) + dumps(doc))\n"
              "    j.dump(doc, fh, indent=2)\n"
              "    put(doc, fh)\n"
              "    pickle.dump(doc, fh)\n")
    assert json_dump_calls(source) == [5, 7, 8]


#: The ``gc`` functions that change what the cyclic collector does.
COLLECTOR_CONTROLS = {"disable", "enable", "freeze", "set_threshold", "collect"}

#: Functions that may name one of them, by module: only the helper that
#: pauses the collector while a model file is decoded or encoded, and puts
#: back the state the caller had.
COLLECTOR_ALLOWED = {"modelio.py": {"_collector_paused"}}


def collector_controls(source: str) -> list[tuple[int, str]]:
    """Every mention of a function in :data:`COLLECTOR_CONTROLS`, through
    any alias of ``gc`` or of the function, ``getattr`` and the import of
    the function included, as (line, enclosing function or class by dotted
    name, ``""`` at module level)."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            functions.update(alias.asname or alias.name for alias in node.names
                             if alias.name in COLLECTOR_CONTROLS)

    def names_one(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return (node.attr in COLLECTOR_CONTROLS
                    and isinstance(node.value, ast.Name) and node.value.id in modules)
        if isinstance(node, ast.Name):
            return node.id in functions
        if isinstance(node, ast.ImportFrom):
            return node.module == "gc" and any(
                alias.name in COLLECTOR_CONTROLS for alias in node.names)
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in COLLECTOR_CONTROLS)

    found = []
    stack = [(tree, "")]
    while stack:
        node, where = stack.pop()
        if names_one(node):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((child, f"{where}.{child.name}".lstrip(".")))
            else:
                stack.append((child, where))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_model_file_helper_switches_the_collector(path):
    # the collector is process state: pausing it is safe only around a
    # block that makes no reference cycle, and only if it is restored
    assert {where for _, where in collector_controls(path.read_text())} == \
        COLLECTOR_ALLOWED.get(path.name, set())


def test_the_collector_guard_sees_every_spelling():
    source = ("import gc\nimport gc as g\n"
              "from gc import collect as sweep, isenabled\n"
              "def paused():\n"
              "    gc.disable()\n"
              "    g.enable()\n"
              "class Loader:\n"
              "    def load(self):\n"
              "        if isenabled():\n"
              "            sweep()\n"
              "        getattr(g, 'freeze')()\n"
              "        off = gc.set_threshold\n"
              "        return gc.get_count(), off\n"
              "gc.collect()\n")
    assert collector_controls(source) == [
        (3, ""), (5, "paused"), (6, "paused"), (10, "Loader.load"),
        (11, "Loader.load"), (12, "Loader.load"), (14, "")]


#: What ``oracle.py`` may import from the evaluator: the brute force solves
#: each strategy pair apart from the denotation it checks.
ORACLE_MAY_IMPORT = {"EvalConfig", "evaluate"}


def evaluator_imports(source: str) -> list[str]:
    """The names a module of ``qmu`` imports from ``qmu.evaluator``, by line.

    An import of the module itself, under any name, gives ``"evaluator"``:
    through it every name is in reach.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, "evaluator") for alias in node.names
                         if alias.name == "qmu.evaluator")
        elif isinstance(node, ast.ImportFrom):
            module = "qmu" if node.level else node.module
            if node.level and node.module:
                module += "." + node.module
            if module == "qmu.evaluator":
                found.extend((node.lineno, alias.name) for alias in node.names)
            elif module == "qmu":
                found.extend((node.lineno, "evaluator") for alias in node.names
                             if alias.name == "evaluator")
    return [name for _, name in sorted(found, key=lambda item: item[0])]


def test_oracle_imports_only_the_evaluators_entry_point():
    source = (Path(qmu.__file__).parent / "oracle.py").read_text()
    assert [name for name in evaluator_imports(source)
            if name not in ORACLE_MAY_IMPORT] == []


def test_the_evaluator_import_guard_sees_every_spelling():
    source = ("from __future__ import annotations\n"
              "from .evaluator import EvalConfig, evaluate, evaluate_batch\n"
              "from qmu.evaluator import NotConvergedError as Late\n"
              "from . import evaluator\n"
              "from qmu import evaluator as ev, formula\n"
              "import qmu.evaluator\n"
              "from .formula import check_entry\n"
              "def f():\n    from .evaluator import _Plan\n")
    assert [name for name in evaluator_imports(source)
            if name not in ORACLE_MAY_IMPORT] == [
        "evaluate_batch", "NotConvergedError", "evaluator", "evaluator",
        "evaluator", "_Plan"]


def naming_lines(source: str, word: str) -> list[int]:
    """Lines that name ``word``: an attribute, a name, a string or an import.

    A dotted import or string counts each of its parts.  The evaluator keeps
    ``linalg`` out, so the oracle's direct solve shares no method with it,
    and no module names ``scipy``, which only the benchmark installs.
    """
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = node.value.split(".")
        else:
            continue
        if word in names:
            lines.add(node.lineno)
    return sorted(lines)


def test_the_evaluator_solves_no_linear_system():
    source = (Path(qmu.__file__).parent / "evaluator.py").read_text()
    assert naming_lines(source, "linalg") == []


def test_the_linalg_guard_sees_every_spelling():
    source = ("import numpy as np\n"
              "import numpy.linalg\n"
              "from numpy import linalg as la\n"
              "from numpy.linalg import solve\n"
              "def f(a, b):\n"
              "    x = np.linalg.solve(a, b)\n"
              "    y = getattr(np, 'linalg').inv(a)\n"
              "    return linalg, np.dot(a, b)\n")
    assert naming_lines(source, "linalg") == [2, 3, 4, 6, 7, 8]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_nothing_names_scipy(path):
    assert naming_lines(path.read_text(), "scipy") == []


def test_the_scipy_guard_sees_every_spelling():
    source = ("import scipy\n"
              "import scipy.sparse as sp\n"
              "from scipy.sparse.csgraph import connected_components\n"
              "def f(a):\n"
              "    g = importlib.import_module('scipy.sparse')\n"
              "    return sp.csr_matrix(a), scipy, 'no scipy here'\n")
    assert naming_lines(source, "scipy") == [1, 2, 3, 5, 6]


def oracle_imports(source: str) -> list[int]:
    """Lines that import from ``qmu.oracle``, or the module itself, under
    any spelling."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("qmu" if node.level else "") + (
                "." + node.module if node.level and node.module else node.module or "")
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if "qmu.oracle" in names:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", ["core.py", "evaluator.py"])
def test_the_support_pass_is_written_apart_from_the_oracle(name):
    # the evaluator's support pass and the oracle's Prob0/Prob1 pass stay
    # independent, so the crosscheck compares two methods
    source = (Path(qmu.__file__).parent / name).read_text()
    assert oracle_imports(source) == []


def test_the_oracle_import_guard_sees_every_spelling():
    source = ("from .oracle import _solve_binder\n"
              "from . import core, oracle\n"
              "import qmu.oracle\n"
              "from qmu import oracle as o\n"
              "from qmu.oracle import EPS_REPR\n"
              "from .formula import parse\n"
              "def f():\n    from .oracle import random_instance\n")
    assert oracle_imports(source) == [1, 2, 3, 4, 5, 8]


def test_the_components_and_the_pass_run_on_explicit_stacks():
    # nothing is allowed on a cycle; the SCC code, the support pass and the
    # two strategy walkers are seen by the guard and are not on one
    assert not any(RECURSION_ALLOWED.values())
    for name, functions in (("core.py", {"Transition._recurrent", "pre_support"}),
                            ("evaluator.py", {"_Plan.decide", "_Plan.__init__",
                                              "_unfold"}),
                            ("game.py", {"expand_tree"})):
        source = (Path(qmu.__file__).parent / name).read_text()
        assert functions <= defined_functions(source)
        assert not functions & recursive_functions(source)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_nothing_changes_the_recursion_limit(path):
    # the interpreter-wide limit is process state that strategies and other
    # threads see; the walkers need no more than the caller's
    assert naming_lines(path.read_text(), "setrecursionlimit") == []


def test_the_recursion_limit_guard_sees_every_spelling():
    source = ("import sys\nimport sys as s\n"
              "from sys import setrecursionlimit\n"
              "def f(n):\n"
              "    sys.setrecursionlimit(n)\n"
              "    s.setrecursionlimit(sys.getrecursionlimit())\n"
              "    setrecursionlimit(n)\n")
    assert naming_lines(source, "setrecursionlimit") == [3, 5, 6, 7]


def defined_functions(source: str) -> set[str]:
    """Every function and method of a module, by dotted name."""
    found = set()
    stack = [(ast.parse(source), "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(prefix + child.name)
                stack.append((child, prefix + child.name + "."))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, prefix + child.name + "."))
            else:
                stack.append((child, prefix))
    return found


def test_the_recursion_guard_sees_a_recursive_component_search():
    source = (
        "class Graph:\n"
        "    @cached_property\n"
        "    def components(self):\n"
        "        def visit(s):\n"
        "            for u in self.succ[s]:\n"
        "                visit(u)\n"
        "        return visit(0)\n"
        "    def bottom(self):\n"
        "        return self.bottom() if self.components else None\n"
        "    def stacked(self):\n"
        "        work = [0]\n"
        "        while work:\n"
        "            work.extend(self.succ[work.pop()])\n")
    assert recursive_functions(source) == {"Graph.components.visit", "Graph.bottom"}
    assert defined_functions(source) == {
        "Graph.components", "Graph.components.visit", "Graph.bottom",
        "Graph.stacked"}

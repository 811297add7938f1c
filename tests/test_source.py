"""Static checks of the package source.

Each module of ``src/swdisp`` is parsed with :mod:`ast`.  Every name it
imports must be read somewhere in the module or be listed in its
``__all__``; ``from __future__ import annotations`` is exempt.  Imports sit
at module level, in one order (``core``, ``closures``, ``models``,
``diagnostics``, ``solver``, then ``io`` and ``cli``), except the two that
keep heavy libraries out of set-up: ``from .manufactured import ...``
(sympy) and the imports inside ``models._load_dgtsv`` (LAPACK).
"""

import ast
from pathlib import Path

import pytest

from swdisp import core, models, solver

SRC = Path(__file__).resolve().parents[1] / "src" / "swdisp"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree):
    """``{bound name: line}`` of the imports anywhere in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _deferred_imports(tree):
    """``(line, function, source)`` of each import inside a function body,
    except ``from .manufactured import ...`` and those in ``_load_dgtsv``."""
    found = []

    def visit(node, functions):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, functions + (child.name,))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                manufactured = (isinstance(child, ast.ImportFrom)
                                and child.level == 1
                                and child.module == "manufactured")
                if (functions and not manufactured
                        and "_load_dgtsv" not in functions):
                    found.append((child.lineno, functions[-1],
                                  ast.unparse(child)))
            else:
                visit(child, functions)

    visit(tree, ())
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    deferred = _deferred_imports(tree)
    assert not deferred, f"{path.name}: imports inside functions " + ", ".join(
        f"{source!r} in {function} (line {line})"
        for line, function, source in deferred)


def test_the_operator_and_the_tiers_have_one_home():
    """``models`` owns the banded operator and imports nothing from
    ``solver``, which re-exports it; ``ModelTier`` lives in ``core``."""
    tree = ast.parse((SRC / "models.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "solver"]
    assert solver.BandedMatrix is models.BandedMatrix
    assert solver.SolverError is models.SolverError
    assert models.ModelTier is core.ModelTier
    assert core.ModelTier.__module__ == "swdisp.core"


def test_deferred_import_is_reported():
    tree = ast.parse("import numpy as np\n"
                     "def f():\n    from .models import ModelTier\n"
                     "    if True:\n        import math\n"
                     "def g():\n    from .manufactured import get_case\n"
                     "    from . import manufactured\n"
                     "def _load_dgtsv():\n    import scipy\n"
                     "    def inner():\n        import os\n")
    assert [(line, function) for line, function, _ in _deferred_imports(tree)
            ] == [(3, "f"), (5, "f"), (8, "g")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    keep = _read(tree) | _exported(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in keep)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_unused_import_is_reported():
    assert {"cli.py", "io.py", "solver.py"} <= {p.name for p in MODULES}
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nimport numpy as np\n"
                     "from .core import Grid, FlowState\n"
                     "__all__ = ['FlowState']\n"
                     "def f(x: Grid):\n    return np.zeros(1)\n")
    keep = _read(tree) | _exported(tree)
    assert sorted(set(_imported(tree)) - keep) == ["math"]

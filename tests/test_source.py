"""Static checks of the package source.

Each module of ``src/swdisp`` is parsed with :mod:`ast`; every name it
imports must be read somewhere in the module or be listed in its
``__all__``.  ``from __future__ import annotations`` is exempt.
"""

import ast
from pathlib import Path

import pytest

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

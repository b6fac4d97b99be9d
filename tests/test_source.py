"""Source hygiene checks that need no linter: every module-level import in
the package is read somewhere in its module, and every private
module-level name somewhere in the package.

An import kept on purpose for other modules, such as a re-export, carries
``# noqa: F401`` on one of its lines.  ``__init__.py`` is left out, since
it consists of re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cloudgraph"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unread_imports(source: str) -> list:
    """Names bound by the module-level imports of ``source`` that no
    expression in it reads, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unread_imports_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import List, Optional\n"
        "from .types import edges_from_table  # noqa: F401\n"
        "def f(x: Optional[int]) -> float:\n"
        "    return np.sqrt(x)\n"
    )
    assert unread_imports(source) == ["os", "os", "List"]


def test_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict) -> list:
    """(module, name) for each private name, one with a single leading
    underscore, that a module binds at its top level by ``def``, ``class``
    or assignment and that no module of ``sources`` (module -> source)
    reads: as a name, an attribute or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [(module, name) for name in bound
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return unread


def test_unread_private_names_finds_a_leftover():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_STALE: int = 4\n"
            "__version__ = '1'\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "def _zero_grads(params):\n"
            "    return {}\n"
            "class _Hidden:\n"
            "    pass\n"
            "_left, right = 1, 2\n"
        ),
        "b": "from .a import _helper\nimport a\nprint(a._Hidden, _helper)\n",
    }
    assert unread_private_names(sources) == [("a", "_STALE"), ("a", "_zero_grads"), ("a", "_left")]


def test_every_private_module_level_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unread_private_names(sources) == []

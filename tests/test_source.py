"""Source hygiene checks that need no linter: every module-level import in
the package is read somewhere in its module.

An import kept on purpose for other modules, such as a re-export, carries
``# noqa: F401`` on one of its lines.  ``__init__.py`` is left out, since
it consists of re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cloudgraph"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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

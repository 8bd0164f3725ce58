"""Every name a decipher module imports is used in that module.

A deletion that leaves an import behind fails here. An import kept for a
reader outside the module, such as the benchmark's tracer, is marked
``# noqa: F401`` on its line.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import decipher

MODULES = sorted(Path(decipher.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names
                         if "# noqa: F401" not in lines[alias.lineno - 1]]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(imported) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from typing import Optional, Sequence\n"
              "from .graphs import build_subgraph  # noqa: F401\n"
              "def f(x: Sequence[int]):\n"
              "    return np.sum(x)\n")
    assert unused_imports(source) == ["Optional"]

"""Every name a decipher module, a test module or a benchmark module imports
is used in that module, every module-level private name is read somewhere in
the package, and the package imports nothing beyond the standard library and
numpy.

A deletion that leaves an import or a private helper behind fails here. An
import kept for a reader outside the module, such as the benchmark's tracer,
is marked ``# noqa: F401`` on its line.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import decipher

MODULES = sorted(Path(decipher.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
BENCH_MODULES = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
# known unused imports in the benchmark's files, which change only together
# with the benchmark; the change that drops such an import drops its entry here
BENCH_UNUSED = {"test_checks.py": "imports csv unused, as a FOUND: line in CHANGES.md says"}
LINTED = ([pytest.param(p, id=p.name) for p in MODULES]
          + [pytest.param(p, id=f"tests/{p.name}") for p in TEST_MODULES]
          + [pytest.param(p, id=f"perfbench/{p.name}",
                          marks=[pytest.mark.xfail(strict=True, reason=BENCH_UNUSED[p.name])]
                          if p.name in BENCH_UNUSED else [])
             for p in BENCH_MODULES])


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


@pytest.mark.parametrize("path", LINTED)
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


def dead_private_names(sources: list[str]) -> list[str]:
    """Module-level functions, classes and constants named _x (dunders aside)
    that no source reads, as a name or as an attribute, in definition order."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name.startswith("_")
            and not (name.startswith("__") and name.endswith("__")) and name not in read]


def test_every_private_name_is_read():
    assert dead_private_names([path.read_text() for path in MODULES]) == []


def test_checker_flags_a_dead_private_name():
    helpers = ("_SCALE = 2.0\n"
               "_OLD_TOL = 1e-9\n"
               "__version__ = '0'\n"
               "def _double(x):\n"
               "    return _SCALE * x\n"
               "def _orphan(x):\n"
               "    return x\n"
               "class _Box:\n"
               "    pass\n")
    caller = ("from . import helpers\n"
              "def f(x):\n"
              "    return helpers._double(x)\n")
    assert dead_private_names([helpers, caller]) == ["_OLD_TOL", "_orphan", "_Box"]


def foreign_imports(source: str) -> list[str]:
    """Top-level packages imported from outside the standard library, numpy
    and decipher, as ast.walk meets them. Relative imports are decipher's own."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "decipher"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return [name for name in found if name not in allowed]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_numpy_beyond_the_standard_library(path):
    # numpy is the package's one dependency (pyproject.toml); scipy may be
    # installed beside it, but is not one
    assert foreign_imports(path.read_text()) == []


def test_checker_flags_a_foreign_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from scipy.integrate import solve_ivp\n"
              "from .graphs import build_subgraph\n"
              "def f():\n"
              "    import numba\n")
    assert foreign_imports(source) == ["scipy", "numba"]


def test_cli_import_starts_no_pool_machinery():
    # a serial run never starts a process pool or the MLP drawer thread, so
    # a fresh import of the CLI leaves their modules unloaded
    code = ("import sys, decipher.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(decipher.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"

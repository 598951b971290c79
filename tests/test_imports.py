"""Every imported name in the package and its tests is read somewhere.

An import that nothing reads is dead code that still costs load time and
misleads the reader about a module's dependencies.  The check walks each
module's AST: a name bound by an import must appear as a loaded Name (or the
root of an attribute chain).  Only ``from __future__`` imports are exempt: a
name re-exported through ``__all__`` counts as unused, so the package stays
without a facade and each name is imported from the module that defines it.

BLAS and LAPACK are reached from ``fem_core`` alone: no other package module
imports ``scipy.linalg`` or anything under it, so the band storage, the
banded product and the tridiagonal solve stay behind one module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cawave").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
SCIPY_LINALG = "scipy.linalg"


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_detects_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom json import dumps, loads\n"
        "print(os.path.sep, loads)\n__all__ = ['dumps']\n"
    )
    assert unused_imports(module) == ["dumps (line 4)", "math (line 2)"]


def imports_scipy_linalg(path: Path) -> list:
    """Lines that import scipy.linalg, a module under it or a name from
    either, in any form (BLAS and LAPACK both live there)."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module]
        else:
            continue
        if any(m == SCIPY_LINALG or m.startswith(SCIPY_LINALG + ".") for m in modules):
            lines.append(node.lineno)
    return lines


def test_only_fem_core_imports_lapack():
    importers = [path.name for path in PACKAGE if imports_scipy_linalg(path)]
    assert importers == ["fem_core.py"]


def test_detects_a_lapack_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import scipy.linalg.lapack\nfrom scipy.linalg import lapack\n"
        "from scipy.linalg.lapack import dgtsv\nimport scipy.linalg as sl\n"
        "from scipy.linalg import solve_banded\nfrom scipy.linalg.blas import dgbmv\n"
        "from scipy import linalg\nfrom . import lapack\nimport scipy\n"
        "from scipy import sparse\nimport scipy.linalgx\n"
    )
    assert imports_scipy_linalg(module) == [1, 2, 3, 4, 5, 6, 7]

"""Import structure of the package, read from the source with ``ast``.

Package modules import each other at module level only, so the dependency
graph is visible at the top of each file; third-party modules may still be
imported inside a function to keep start-up light (``scipy.special``,
``scipy.spatial``, ``fractions``).
"""

import ast
from pathlib import Path

import pytest

import psigauge

PACKAGE = Path(psigauge.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def package_imports(node) -> set:
    """Names of the psigauge modules that an import node brings in."""
    if isinstance(node, ast.ImportFrom) and node.level > 0:
        return {node.module} if node.module else {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("psigauge."):
        return {node.module.split(".")[1]}
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("psigauge.")}
    return set()


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_package_import_inside_a_function(path):
    deferred = [
        f"{path.name}:{inner.lineno}"
        for func in ast.walk(tree(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(func)
        if package_imports(inner)
    ]
    assert not deferred


def test_ontic_imports_only_qcore_and_geometry():
    imported = set().union(*map(package_imports, ast.walk(tree(PACKAGE / "ontic.py"))))
    assert imported <= {"qcore", "_geometry"}


def test_public_surface_is_exactly_what_the_package_imports():
    exported = psigauge.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(psigauge, name) for name in exported)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree(PACKAGE / "__init__.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert set(exported) == imported

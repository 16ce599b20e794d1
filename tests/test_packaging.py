"""The package's runtime imports against its declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def third_party_imports() -> dict[str, list[str]]:
    """Each third-party module `src/qndsim` imports, with the files importing it."""
    found = {}
    for path in sorted((ROOT / "src" / "qndsim").glob("*.py")):
        for name in imported_modules(path) - set(sys.stdlib_module_names):
            found.setdefault(name.lower(), []).append(path.name)
    return found


def test_runtime_imports_are_declared_dependencies():
    declared = declared_dependencies()
    undeclared = {n: files for n, files in third_party_imports().items() if n not in declared}
    assert undeclared == {}, f"imported but not in [project].dependencies: {undeclared}"


def test_declared_dependencies_are_imported():
    """numpy is the one runtime dependency; the CLI parses argv with the standard library."""
    assert declared_dependencies() == set(third_party_imports()) == {"numpy"}


def test_numpy_imported_by_optics_alone():
    """The transform matrices and their one product routine live in `optics`."""
    assert third_party_imports()["numpy"] == ["optics.py"]

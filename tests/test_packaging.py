"""The package's runtime imports against its declared dependencies."""

import ast
import os
import re
import subprocess
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


# Runs in a fresh interpreter: every CLI path a sweep or a run takes, then
# the two that need numpy.  Prints the numpy flag after each stage.
_NO_NUMPY_SCRIPT = """
import contextlib, io, sys
import qndsim.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            qndsim.cli.main.main(args=list(argv), prog_name="qndsim")
        except SystemExit as exc:
            assert exc.code in (0, None), (argv, exc.code)

run("sweep", "--protocol", "number", "--gamma", "0,1", "--eta2", "0.5:1:3")
run("sweep", "--protocol", "pol", "--gamma", "0,1", "--eta2", "0.5:1:3")
for protocol in ("number", "pol", "teleport-number", "teleport-pol", "kerr"):
    run("run", protocol)
kerr = ("--omega", "3e15", "--dt", "3e-11", "--chi3", "2e-22", "--volume", "1e-7")
run("run", "kerr-tau", *kerr)
run("kerr-tau", *kerr)
run("noon-bound", "3")
print("numpy" in sys.modules)
from qndsim import parse_circuit
t = parse_circuit("mode a\\nmode b\\nbs a b T=0.5\\nps a phi=1\\n")
print("numpy" in sys.modules, t.matrix.shape)
"""


def test_sweep_and_run_paths_import_no_numpy():
    """numpy serves `compose`'s product and the `matrix` property alone."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["False", "True (2, 2)"]

"""Each module imports on its own, in a fresh interpreter.

In one test process every module is already loaded by the time a test
runs, which hides an import cycle that only shows when a module is the
first one imported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqpart

MODULES = ("hamming", "partitions", "eigenfunctions", "constructions", "search",
           "backtrack", "documents", "cli")
SRC = str(Path(eqpart.__file__).resolve().parent.parent)


def _loaded_by(module):
    """The names in sys.modules after import eqpart.<module> in a fresh
    interpreter."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = f"import sys, eqpart.{module}; print(*sys.modules, sep='\\n')"
    child = subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    return set(child.stdout.split())


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    assert f"eqpart.{module}" in _loaded_by(module)


def test_cli_loads_the_same_eqpart_modules():
    """import eqpart.cli loads exactly these eqpart modules, eagerly.  Runs
    write no bytecode cache, so every command compiles each of them, and
    compiling the largest, search, on top of the others set the start-up
    peak RSS; cli imports it first, which lowers that peak by about
    0.25 MB.  Importing the modules lazily from cli does not lower it: in
    a variant that did, each certify command's peak RSS rose by about
    0.25 MB (at most 16,516 to 16,768 kB), since the compiles then ran
    after the parser was built, on top of its memory.  Only a search
    compiles backtrack, and only search imports it."""
    assert {m for m in _loaded_by("cli") if m.startswith("eqpart")} == {
        "eqpart", "eqpart.cli", "eqpart.constructions", "eqpart.documents",
        "eqpart.eigenfunctions", "eqpart.hamming", "eqpart.partitions", "eqpart.search"}
    for module in MODULES:
        if module not in ("search", "backtrack"):
            tree = ast.parse(Path(SRC, "eqpart", f"{module}.py").read_text())
            imported = {alias.name for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        for alias in node.names}
            imported |= {node.module for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module}
            assert "backtrack" not in imported, module


def test_cli_import_leaves_out_the_process_pool():
    """enumerate --threads > 1 forks its workers, so no command imports a
    process pool's machinery, and only a search compiles the backtracking
    route."""
    assert not {"concurrent.futures.process", "multiprocessing",
                "eqpart.backtrack"} & _loaded_by("cli")


@pytest.mark.parametrize("module", MODULES)
def test_import_leaves_out_dataclasses_and_inspect(module):
    """The value classes derive from hamming.Record, so no command pays at
    start-up for dataclasses, the inspect, ast and dis modules it loads, or
    the methods it generates for each class."""
    assert not {"dataclasses", "inspect"} & _loaded_by(module)


def test_only_hamming_decodes_vertices():
    """The vertex encoding has one owner: every other module reaches the
    digits of a vertex through hamming's tables and masks, not through
    decode_vertex."""
    for module in MODULES:
        if module == "hamming":
            continue
        tree = ast.parse(Path(SRC, "eqpart", f"{module}.py").read_text())
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert "decode_vertex" not in names, module

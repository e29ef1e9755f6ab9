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
           "documents", "cli")
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


def test_cli_import_leaves_out_the_process_pool():
    """Only enumerate --threads > 1 uses a process pool; every other command
    starts without importing its machinery."""
    assert not {"concurrent.futures.process", "multiprocessing"} & _loaded_by("cli")


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

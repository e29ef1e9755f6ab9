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


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-c", f"import eqpart.{module}"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr


def test_cli_import_leaves_out_the_process_pool():
    """Only enumerate --threads > 1 uses a process pool; every other command
    starts without importing its machinery."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, eqpart.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


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

"""Each module imports on its own, in a fresh interpreter.

In one test process every module is already loaded by the time a test
runs, which hides an import cycle that only shows when a module is the
first one imported.
"""

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

"""Each module imports on its own, in a fresh interpreter, every public
name of the package has a caller, the imports between the modules form
no cycle and take no private name, and the package refuses input with
built-in exceptions only.

In one test process every module is already loaded by the time a test
runs, which hides an import cycle that only shows when a module is the
first one imported.  The modules are the package's *.py files, so a new
module is checked as soon as it exists.
"""

import ast
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eqpart

PACKAGE = Path(eqpart.__file__).resolve().parent
SRC = str(PACKAGE.parent)
MODULES = tuple(sorted(path.stem for path in PACKAGE.glob("*.py")
                       if path.stem not in ("__init__", "__main__")))


def _loaded_by(module, code="pass", *argv):
    """The names in sys.modules after import eqpart.<module> and then code,
    with sys.argv[1:] set to argv, in a fresh interpreter."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    code = f"import sys, eqpart.{module}; {code}; print(*sys.modules, sep='\\n')"
    child = subprocess.run([sys.executable, "-c", code, *argv],
                           capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    return set(child.stdout.split())


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    assert f"eqpart.{module}" in _loaded_by(module)


def test_each_command_loads_only_its_modules(tmp_path):
    """import eqpart.cli loads no other package module, and each command
    loads exactly the modules it runs: a command that writes no bytecode
    cache compiles every module it imports, which is most of its start-up.
    So verify and reduce never compile constructions, eigenfunctions or
    search, and enumerate compiles neither of the first two.  Only a
    search compiles backtrack, and only search imports it."""
    docs = {"cycles": {"n": 4, "q": 2, "cell": "e427"},     # both cells 2-regular
            "edge": {"n": 2, "q": 2, "vertices": [0, 1]},
            "vertex": {"n": 2, "q": 2, "vertices": [0]},     # not equitable
            "function": {"n": 2, "q": 3, "values": [1, 1, 1, -1, -1, -1, 0, 0, 0]}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps({"format_version": 1, **doc}))
    read = {"documents", "hamming", "partitions"}
    build = read | {"constructions"}
    search = read | {"search"}
    assert {m for m in _loaded_by("cli") if m.startswith("eqpart")} == {"eqpart", "eqpart.cli"}
    loads = [
        (["no-such-command"], 2, set()),
        (["verify", "edge"], 0, read),
        (["verify", "cycles"], 0, read),
        (["verify", "vertex"], 1, read),
        (["reduce", "edge"], 0, read),
        (["construct-a", "--blocks", "0,1", "--base", "cycles"], 2, build),
        (["construct-b", "--q", "4", "--split", "0,1"], 0, build),
        (["lift", "--blocks", "0,1|2,3", "--input", "edge"], 0, build),
        (["eight-cycle"], 0, build),
        (["classify-fn", "function"], 0, read | {"eigenfunctions"}),
        (["enumerate", "--n", "2", "--q", "3", "--eig-index", "1"], 0, search | {"backtrack"}),
        (["enumerate", "--n", "2", "--q", "2", "--quotient", "1,1;1,1", "--brute-force"], 0,
         search),
        (["classify-t5", "cycles"], 0, search | {"constructions"}),
        (["sweep-ternary", "--n", "1", "--q", "3"], 0, search | {"eigenfunctions"}),
    ]
    run = "import io; code = eqpart.cli.run_command(sys.argv[1:], io.StringIO(), io.StringIO())"
    for argv, code, modules in loads:
        argv = [str(tmp_path / a) if a in docs else a for a in argv]
        expected = {"eqpart", "eqpart.cli"} | {f"eqpart.{m}" for m in modules}
        loaded = _loaded_by("cli", f"{run}; assert code == {code}", *argv)
        assert {m for m in loaded if m.startswith("eqpart")} == expected, argv
    for module in MODULES:
        if module not in ("search", "backtrack"):
            tree = ast.parse(Path(PACKAGE, f"{module}.py").read_text())
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


def _reads(tree, node):
    """The names that node, a part of tree, reads as a name or an
    attribute; a name bound by an import with "as" reads as the name
    imported.  Import statements themselves read nothing."""
    aliases = {alias.asname: alias.name.rpartition(".")[2] for alias in ast.walk(tree)
               if isinstance(alias, ast.alias) and alias.asname}
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(aliases.get(sub.id, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            read.add(sub.attr)
    return read


def test_no_module_decodes_vertices():
    """The package never takes a vertex apart digit by digit: every module
    reaches the digits of a vertex through hamming's tables and masks.
    The per-vertex decode is a test oracle (tests/oracles.py)."""
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef))}
        assert "decode_vertex" not in names | _reads(tree, tree), path.name


def test_only_three_modules_read_digit_masks():
    """hamming builds the fiber masks, partitions reads how a cell depends
    on a coordinate off them (partitions.slices) and checks fibers with
    them, and constructions builds cells from them; every other module
    asks partitions."""
    readers = {path.stem for path in PACKAGE.glob("*.py")
               if "digit_masks" in _reads(tree := ast.parse(path.read_text()), tree)}
    assert not readers - {"hamming", "partitions", "constructions"}, sorted(readers)


def test_every_public_name_has_a_caller():
    """Every public top-level function and class of the package is read
    by package code outside its own definition, or by the acceptance
    tests; a name that only other tests reach belongs in tests/."""
    acceptance = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    read = _reads(acceptance, acceptance)
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append(f"{path.stem}.{node.name}")
                read |= _reads(tree, node) - {node.name}
            else:
                read |= _reads(tree, node)
    unread = [name for name in defined if name.partition(".")[2] not in read]
    assert not unread, unread


def _package_imports(tree):
    """(module, name) for each name that an import anywhere in tree, at
    module level or inside a function, takes from a package module; name
    is None for a plain import of the module itself.  from . import m
    names the module m."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif (node.module or "").startswith("eqpart."):
                base = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                found.append((base, alias.name) if base else (alias.name, None))
        elif isinstance(node, ast.Import):
            found += [(alias.name.partition(".")[2], None) for alias in node.names
                      if alias.name.startswith("eqpart.")]
    return found


def test_import_graph_has_no_cycle_and_no_private_name():
    """No package module imports an underscore name from another, and the
    graph of the imports between package modules, those inside functions
    included, has no cycle: each pair of modules depends in one direction
    at most."""
    graph, private = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        imports = _package_imports(ast.parse(path.read_text()))
        graph[path.stem] = sorted({module for module, _ in imports})
        private += [f"{path.stem} -> {module}.{name}" for module, name in imports
                    if name and name.startswith("_")]
    assert not private, private
    state = {}      # module -> "open" while on the walk's path, then "done"

    def walk(module, path):
        state[module] = "open"
        for target in graph.get(module, ()):
            if state.get(target) == "open":
                cycle = path[path.index(target):] + [target]
                raise AssertionError("import cycle: " + " -> ".join(cycle))
            if target not in state:
                walk(target, path + [target])
        state[module] = "done"

    for module in graph:
        if module not in state:
            walk(module, [module])


REFUSALS = {"ValueError", "AssertionError", "RuntimeError", "TypeError", "AttributeError"}


def _names_exception(base):
    """Whether a class base, a name or an attribute, names a built-in
    exception or, by its name, one of the package's own."""
    name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    builtin = getattr(builtins, name, None)
    return name.endswith(("Error", "Exception")) or (
        isinstance(builtin, type) and issubclass(builtin, BaseException))


def test_one_refusal_rule():
    """The package defines no exception class, and every raise names one
    of REFUSALS: cli.run_command turns each ValueError into one stderr
    line and exit 2, and an AssertionError, a broken invariant, ends in a
    traceback, so no refusal needs a class of its own."""
    classes, raised = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(map(_names_exception, node.bases)):
                classes.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not isinstance(exc, ast.Name) or exc.id not in REFUSALS:
                    raised.append(f"{path.stem}:{node.lineno} {ast.unparse(node)}")
    assert not classes, classes
    assert not raised, raised


def _names_value_error(handler):
    """Whether an except clause catches ValueError by name, alone or in a tuple."""
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id == "ValueError" for t in caught)


def _reraises_value_error(handler):
    """Whether the handler's whole body is one raise of a ValueError: the
    caught one, bare, or a new one that adds context to its message."""
    if len(handler.body) != 1 or not isinstance(raise_ := handler.body[0], ast.Raise):
        return False
    exc = raise_.exc.func if isinstance(raise_.exc, ast.Call) else raise_.exc
    return exc is None or isinstance(exc, ast.Name) and exc.id == "ValueError"


def test_value_error_is_always_a_refusal():
    """Outside cli.run_command, which turns it into exit 2 and one stderr
    line, a handler that catches ValueError only re-raises a ValueError:
    a failed mathematical gate is a value (constructions.FailedGate, and
    the like), so no handler may read a ValueError as a negative result
    and let a refused input end as one."""
    swallowed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            name = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            if name == "cli.run_command":
                continue
            if any(isinstance(node, ast.ExceptHandler) and _names_value_error(node)
                   and not _reraises_value_error(node) for node in ast.walk(top)):
                swallowed.append(name)
    assert not swallowed, swallowed

"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from eqpart.cli import run_command  # noqa: E402


def test_self_times_of_nested_spans():
    spans = [
        ("cli.run_command", 0.0, 10.0, -1, 0),
        ("partitions.equitable_check", 1.0, 4.0, 0, 0),
        ("hamming.neighbor_table", 2.0, 3.0, 1, 0),
        ("search.canonical_form", 5.0, 9.0, 0, 0),
        ("search.canonical_form", 6.0, 8.5, 3, 0),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 1.5, 2.5]
    layers = tracer.layer_self_times(spans)
    assert layers["cli"] == 3.0 and layers["partitions"] == 2.0
    assert layers["hamming"] == 1.0 and layers["search"] == 4.0
    assert sum(layers.values()) == tracer.root_duration(spans) == 10.0
    # the nested canonical_form call is inside the outer one: counted once
    assert tracer.outermost(spans, ["search.canonical_form"]) == (4.0, 1)
    assert tracer.outermost(spans, ["partitions.equitable_check", "hamming.neighbor_table"]) == (3.0, 1)
    assert tracer.children_named(spans, 3, "search.canonical_form") == 1


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("hamming.neighbor_table", lambda: 1)
    hot = tr.wrap("hamming.decode_vertex", lambda: 2)
    outer = tr.wrap("partitions.reduce", lambda: inner() + hot() + inner())
    assert outer() == 4
    assert [(s[0], s[3]) for s in tr.spans] == [
        ("partitions.reduce", -1),
        ("hamming.neighbor_table", 0),
        ("hamming.neighbor_table", 0),
    ]
    assert tr.counts == {"hamming.decode_vertex": 1}
    assert sum(tracer.self_times([tuple(s) for s in tr.spans])) == tr.spans[0][2] - tr.spans[0][1]


def test_installer_patches_every_importing_namespace():
    a = types.ModuleType("fakepkg.hamming")
    exec("def table(x):\n    return x + 1\n\ndef _private(x):\n    return x\n", a.__dict__)
    b = types.ModuleType("fakepkg.partitions")
    b.table = a.table                 # from .hamming import table
    b.alias = a.table                 # from .hamming import table as alias
    b._private = a._private
    exec("def check(x):\n    return table(x) * 2\n", b.__dict__)
    original = a.table
    tr = tracer.Tracer()
    tracer.install(tr, [a, b])
    assert a.table is b.table is b.alias
    assert a.table is not original and a.table.__wrapped__ is original
    assert b._private is a._private and not hasattr(a._private, "__wrapped__")
    assert b.check(1) == 4 and b.alias(1) == 2
    assert [(s[0], s[3]) for s in tr.spans] == [
        ("partitions.check", -1), ("hamming.table", 0), ("hamming.table", -1),
    ]


def test_traced_command_matches_plain_and_sums_to_root(tmp_path):
    env = {"PYTHONPATH": str(SRC)}
    argv = ["eight-cycle"]
    rss_file = tmp_path / "peak_rss_kb"
    plain = subprocess.run([sys.executable, str(HERE / "plain_cli.py"), str(rss_file), *argv],
                           capture_output=True, env=env, check=True)
    assert 1000 < int(rss_file.read_text()) < 10 ** 6
    trace_file = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *argv],
                            capture_output=True, env=env, check=True)
    assert traced.stdout == plain.stdout
    doc = tracer.load(str(trace_file))
    metrics = tracer.op_metrics(doc)
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(layers - metrics["trace.root_s"]) < 1e-9
    assert metrics["constructions.build_s"] > 0
    assert metrics["partitions.equitable_check_calls"] == 1
    assert metrics["hamming.neighbor_table_builds"] == 1


def _run(argv):
    out = io.StringIO()
    code = run_command(list(argv), stdout=out, stderr=io.StringIO())
    return code, out.getvalue().encode()


def test_gate_passes_real_output_and_flags_corruption(tmp_path):
    ops = {op.name: op for op in workloads.build("certify", 7, tmp_path, 1)}
    for name in ("verify-ext12-image", "verify-ext14-image-flipped", "lift-ext6-image"):
        op = ops[name]
        code, stdout = _run(op.argv)
        assert op.check(code, stdout) is None, name
        assert op.check(code, stdout.replace(b"1", b"3", 1)) is not None, name
        assert op.check(1 - code, stdout) is not None, name
        assert op.check(None, stdout) == "timed out"


def test_gate_checks_witness_counts():
    # H(2, 2): cell {0}; vertex 1 and 2 see one neighbor in the cell, 3 none
    check = gate.expect_witness(2, 2, 0b0001)
    good = {"partition": gate.partition_doc(2, 2, 1), "size": 1, "equitable": False,
            "witness": {"cell": 1, "vertices": [1, 3], "target_cell": 0, "counts": [1, 0]}}
    assert check(1, json.dumps(good).encode()) is None
    bad = json.loads(json.dumps(good))
    bad["witness"]["counts"] = [1, 1]
    assert "counts" in check(1, json.dumps(bad).encode())
    assert check(0, json.dumps(good).encode()) == "exit code 0, expected 1"


def test_gate_enumeration_counts():
    check = gate.expect_enumeration(2, 2, {((0, 2), (2, 0)): 2})
    docs = [gate.partition_doc(2, 2, c) for c in (6, 9)]
    summary = {"count": 2, "quotients": [{"count": 2, "matrix": [[0, 2], [2, 0]]}]}
    lines = [json.dumps(d) for d in (*docs, summary)]
    assert check(0, "\n".join(lines).encode()) is None
    assert "ascending" in check(0, "\n".join([lines[1], lines[0], lines[2]]).encode())
    assert "summary" in check(0, "\n".join(lines[:2]).encode())


def test_hex_round_trip():
    for bits, cell in ((16, 0xE427 ^ 0xFFFF), (25, 0x1ABCDEF), (5, 0b10110), (1 << 12, 3 << 4000)):
        text = gate.cell_to_hex(cell, bits)
        assert len(text) == (bits + 3) // 4
        assert gate.hex_to_cell(text) == cell
    assert gate.cell_to_hex(0x427E, 16) == "e724"


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        workloads.build("classify", seed, tmp_path / name, 2)

    def contents(d):
        return {p.name: p.read_text() for p in d.iterdir()}

    assert contents(tmp_path / "a") == contents(tmp_path / "b")
    assert contents(tmp_path / "a") != contents(tmp_path / "c")


def test_schedule_repeats_the_middle_operations():
    import run

    ops = [types.SimpleNamespace(name=n) for n in "abcdefg"]
    latency = dict(zip("gfedcba", (0.1, 0.2, 0.3, 0.4, 0.5, 2.0, 9.0)))
    order = [op.name for op in run.schedule(ops, latency)]
    repeats = run.MIDDLE_REPEATS
    assert {n: order.count(n) for n in "abcdefg"} == {
        "a": 1, "b": repeats, "c": repeats, "d": repeats, "e": repeats, "f": repeats, "g": 1}
    assert order[0] == "a"
    assert order[-1] != "g"       # repeats are spread over the pass, not left at its end

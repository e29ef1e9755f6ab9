"""End-to-end command line behavior and exit code conventions."""

import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import eqpart.cli
import eqpart.search
from eqpart.cli import run_command
from eqpart.constructions import eight_cycle_partition
from eqpart.documents import hex_to_cell, partition_from_doc, partition_to_doc
from eqpart.hamming import neighbor_table, random_automorphism
from eqpart.partitions import equitable_check, extend, transform


def run(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


EIGHT = {"format_version": 1, "n": 4, "q": 2, "cell": "e427"}
ROUTE_GRAPHS = ((2, 2), (2, 3), (3, 2), (2, 4))     # within the brute force guard


def test_verify_pass(tmp_path):
    code, out, err = run(["verify", write_doc(tmp_path, "p.json", EIGHT)])
    assert code == 0 and err == ""
    cert = json.loads(out)
    assert cert["equitable"] is True
    assert cert["quotient"] == [[2, 2], [2, 2]]
    assert cert["eigenvalues"] == [4, 0]
    assert cert["eigenvalue_index"] == 2
    assert cert["essential_coordinates"] == [1, 2, 3, 4]
    assert cert["reduced"] is True
    assert cert["spectral_check"] is True
    assert cert["orthogonal_array"] == {"applicable": True, "balanced": True}
    assert cert["induced_cycle_lengths"] == {"cell": 8, "complement": 8}
    assert cert["size"] == 8


def test_verify_builds_no_neighbor_table(tmp_path):
    """The certificate of the 8-cycle pair extended to H(16, 2) comes from
    the bitset kernel alone: no 65,536-row neighbor table is built.  The
    induced cycle of a 3-vertex cell of H(1, 1000) is read off its
    members' neighbors, not off a 1,000-row table of the whole graph."""
    pair = extend(eight_cycle_partition(), 12)
    neighbor_table.cache_clear()
    code, out, err = run(["verify", write_doc(tmp_path, "p.json", partition_to_doc(pair))])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "partition": partition_to_doc(pair),
        "size": 32768,
        "equitable": True,
        "quotient": [[14, 2], [2, 14]],
        "eigenvalues": [16, 12],
        "eigenvalue_index": 2,
        "spectral_check": True,
        "essential_coordinates": [1, 2, 3, 4],
        "reduced": False,
        "orthogonal_array": {"applicable": True, "balanced": True},
        "induced_cycle_lengths": {"cell": None, "complement": None},
    }
    triangle = {"format_version": 1, "n": 1, "q": 1000, "vertices": [0, 1, 2]}
    code, out, err = run(["verify", write_doc(tmp_path, "t.json", triangle)])
    assert code == 0 and err == ""
    cert = json.loads(out)
    assert cert["quotient"] == [[2, 997], [3, 996]]
    assert cert["induced_cycle_lengths"] == {"cell": 3, "complement": None}
    assert neighbor_table.cache_info().currsize == 0


def test_verify_from_stdin(monkeypatch):
    code, out, _ = run(["verify", "-"], stdin_text=json.dumps(EIGHT), monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["equitable"] is True


def test_verify_negative(tmp_path):
    doc = {"format_version": 1, "n": 2, "q": 2, "vertices": [0]}
    code, out, err = run(["verify", write_doc(tmp_path, "p.json", doc)])
    assert code == 1 and err == ""
    cert = json.loads(out)
    assert cert["equitable"] is False
    assert cert["witness"] == {
        "cell": 1, "vertices": [1, 3], "target_cell": 0, "counts": [1, 0]
    }


def test_verify_bad_document(tmp_path):
    doc = {"format_version": 3, "n": 2, "q": 2, "cell": "6"}
    code, out, err = run(["verify", write_doc(tmp_path, "p.json", doc)])
    assert code == 2 and out == ""
    assert "format_version" in err


def test_verify_missing_file():
    code, out, err = run(["verify", "/definitely/not/here.json"])
    assert code == 2 and "cannot read" in err


def test_verify_undecodable_file(tmp_path):
    """A document file that is not UTF-8 is refused in one line, like any
    other document that cannot be parsed."""
    path = tmp_path / "p.json"
    path.write_bytes(b'\xff{"format_version": 1}')
    code, out, err = run(["verify", str(path)])
    assert code == 2 and out == ""
    assert err == "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


@pytest.mark.parametrize("command", ["verify", "classify-fn", "reduce"])
@pytest.mark.parametrize(
    "text", ["[" * 100_000 + "]" * 100_000, "9" * 5000], ids=["deep_array", "long_integer"]
)
def test_malformed_json_is_refused_in_one_line(command, text, monkeypatch):
    """JSON nested beyond the decoder's recursion limit, and an integer with
    more digits than int() converts, end with exit 2 and one error line."""
    code, out, err = run([command, "-"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


def test_construct_a(tmp_path):
    base = {
        "format_version": 1, "n": 2, "q": 4,
        "vertices": [a * 4 + b for a in range(4) for b in range(4) if (a + b) % 2 == 0],
    }
    path = write_doc(tmp_path, "base.json", base)
    code, out, _ = run(["construct-a", "--blocks", "0,1|2,3", "--base", path])
    assert code == 0
    res = json.loads(out)
    assert res["quotient"] == [[5, 4], [4, 5]]
    assert res["eigenvalue_index"] == 2
    assert res["essential_coordinates"] == [1, 2, 3]
    assert res["partition"]["n"] == 3


def test_construct_a_gate_failure(tmp_path):
    base = {"format_version": 1, "n": 2, "q": 2, "vertices": [0, 2]}
    path = write_doc(tmp_path, "base.json", base)
    code, out, _ = run(["construct-a", "--blocks", "0|1", "--base", path])
    assert code == 1
    assert "ratio" in json.loads(out)["error"]


def test_construct_a_bad_blocks(tmp_path):
    base = {"format_version": 1, "n": 2, "q": 2, "cell": "9"}
    path = write_doc(tmp_path, "base.json", base)
    code, _, err = run(["construct-a", "--blocks", "0,0", "--base", path])
    assert code == 2 and "repeats" in err


def test_construct_b():
    code, out, _ = run(["construct-b", "--q", "4", "--split", "0,1"])
    assert code == 0
    res = json.loads(out)
    assert res["quotient"] == [[8, 4], [4, 8]]
    assert res["split"] == [0, 1]
    assert res["essential_coordinates"] == [1, 2, 3, 4]


def test_construct_b_usage_errors():
    code, _, err = run(["construct-b", "--q", "3", "--split", "0"])
    assert code == 2 and "even" in err
    code, _, err = run(["construct-b", "--q", "4", "--split", "0"])
    assert code == 2 and "q/2" in err
    assert run(["construct-b", "--q", "4", "--split", "0,1|2,3"]) == (
        2, "", "error: --split must be a single comma-separated symbol list\n")


def test_construct_b_bad_cycle_pair(tmp_path):
    doc = {"format_version": 1, "n": 4, "q": 2, "vertices": list(range(8))}
    path = write_doc(tmp_path, "cp.json", doc)
    code, out, _ = run(["construct-b", "--q", "4", "--split", "0,1", "--cycle-pair", path])
    assert code == 1
    assert "8-cycle" in json.loads(out)["error"]


def test_lift(tmp_path):
    doc = {"format_version": 1, "n": 3, "q": 2, "vertices": [0, 7]}
    path = write_doc(tmp_path, "p.json", doc)
    code, out, _ = run(["lift", "--blocks", "0,1|2,3", "--input", path])
    assert code == 0
    res = json.loads(out)
    assert res["quotient"] == [[3, 6], [2, 7]]
    assert res["eigenvalue_index"] == 2


def test_lift_rejects_unequal_blocks(tmp_path):
    doc = {"format_version": 1, "n": 3, "q": 2, "vertices": [0, 7]}
    path = write_doc(tmp_path, "p.json", doc)
    code, _, err = run(["lift", "--blocks", "0|1,2", "--input", path])
    assert code == 2 and "same size" in err


def test_eight_cycle():
    code, out, _ = run(["eight-cycle"])
    assert code == 0
    res = json.loads(out)
    assert res["partition"] == partition_to_doc(eight_cycle_partition())
    assert res["quotient"] == [[2, 2], [2, 2]]


def test_classify_fn(monkeypatch):
    doc = {"format_version": 1, "n": 2, "q": 2, "values": [1, 0, 0, -1]}
    code, out, _ = run(["classify-fn", "-"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 0
    res = json.loads(out)
    assert res["member"] is True
    assert res["top_two_form"] == {
        "kind": "quasi_cross", "plus": [0], "minus": [1],
        "coordinate_i": 1, "coordinate_j": 2,
    }
    assert res["lambda1_form"]["kind"] == "quasi_cross"


def test_classify_fn_non_member(monkeypatch):
    doc = {"format_version": 1, "n": 2, "q": 2, "values": [1, -1, -1, 1]}
    code, out, _ = run(["classify-fn", "-"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 0
    res = json.loads(out)
    assert res["member"] is False
    assert res["top_two_form"] == {"kind": "not_member"}
    assert res["lambda1_form"] == {"kind": "not_eigen"}


def test_classify_fn_rejects_non_ternary(monkeypatch):
    doc = {"format_version": 1, "n": 2, "q": 2, "values": [2, 0, 0, 0]}
    code, _, err = run(["classify-fn", "-"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 2 and "ternary" in err


def test_reduce(monkeypatch):
    doc = {"format_version": 1, "n": 4, "q": 2, "vertices": [0, 1, 14, 15]}
    code, out, _ = run(["reduce", "-"], stdin_text=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 0
    res = json.loads(out)
    assert res["removed_coordinates"] == [4]
    assert res["partition"] == {"format_version": 1, "n": 3, "q": 2, "cell": "18"}


def test_enumerate_routes_agree():
    argv = ["enumerate", "--n", "2", "--q", "2", "--eig-index", "2"]
    code_a, out_a, _ = run(argv + ["--brute-force"])
    code_b, out_b, _ = run(argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    lines = out_a.strip().split("\n")
    assert len(lines) == 3
    assert json.loads(lines[0]) == {"format_version": 1, "n": 2, "q": 2, "cell": "6"}
    assert json.loads(lines[1]) == {"format_version": 1, "n": 2, "q": 2, "cell": "9"}
    assert json.loads(lines[2]) == {
        "count": 2,
        "quotients": [{"count": 2, "matrix": [[0, 2], [2, 0]]}],
    }


def test_enumerate_summary_counts_the_printed_quotients():
    """The summary counts each cell under the candidate quotient of its
    size; equitable_check over the printed cells gives the same counts on
    both routes, for any thread count."""
    for n, q in ROUTE_GRAPHS:
        for i in range(n + 1):
            argv = ["enumerate", "--n", str(n), "--q", str(q), "--eig-index", str(i)]
            for route in ([], ["--brute-force"]):
                for threads in ("1", "2"):
                    code, out, err = run(argv + route + ["--threads", threads])
                    assert (code, err) == (0, ""), (n, q, i, route, threads)
                    *docs, summary = [json.loads(line) for line in out.splitlines()]
                    counts = Counter(equitable_check(partition_from_doc(d)).rows for d in docs)
                    assert summary == {
                        "count": len(docs),
                        "quotients": [
                            {"matrix": [list(r) for r in rows], "count": cnt}
                            for rows, cnt in sorted(counts.items())
                        ],
                    }, (n, q, i, route, threads)


def test_enumerate_routes_refuse_the_same_quotients():
    """A quotient whose rows do not sum to the degree, or with S12 + S21 = 0,
    ends both routes with exit 2 and the same error line."""
    for quotient, message in (("0,1;1,0", "row sums"), ("2,0;0,2", "S12 + S21 = 0")):
        argv = ["enumerate", "--n", "2", "--q", "2", "--quotient", quotient]
        default, brute = run(argv), run(argv + ["--brute-force"])
        assert default == brute
        code, out, err = default
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_enumerate_refuses_a_cell_of_no_candidate_size(monkeypatch):
    """A cell whose size is no candidate's means the search is at fault."""
    monkeypatch.setattr("eqpart.search.backtracking_enumerate",
                        lambda params, constraints, threads: [1])
    with pytest.raises(AssertionError, match="no candidate quotient"):
        run(["enumerate", "--n", "2", "--q", "2", "--eig-index", "2"])


def test_enumerate_threads_byte_identical():
    argv = ["enumerate", "--n", "3", "--q", "2", "--eig-index", "2"]
    outputs = [run(argv + ["--threads", str(t)])[1] for t in (1, 2)]
    assert outputs[0] == outputs[1]


def test_enumerate_explicit_quotient():
    code, out, _ = run(["enumerate", "--n", "3", "--q", "2", "--quotient", "0,3;1,2"])
    assert code == 0
    cells = [json.loads(line)["cell"] for line in out.strip().split("\n")[:-1]]
    assert cells == ["81", "42", "24", "18"]


def test_enumerate_up_to_iso_needs_no_group_guard():
    """--up-to-iso keeps the least cell of each orbit, which the closure
    of the cell under the group's generators gives, so it needs no walk of
    the group: on H(1, 6) the classes are the cells {0..s-1}, one per
    size."""
    code, out, err = run(["enumerate", "--n", "1", "--q", "6", "--eig-index", "1",
                          "--up-to-iso"])
    assert (code, err) == (0, "")
    *docs, summary = [json.loads(line) for line in out.splitlines()]
    assert [hex_to_cell(d["cell"], 6) for d in docs] == [1, 3, 7, 15, 31]
    assert summary["count"] == 5
    code, out, err = run(["enumerate", "--n", "6", "--q", "2", "--eig-index", "2",
                          "--up-to-iso"])
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[-1])["count"] == 4


def test_enumerate_usage_errors():
    code, _, err = run(["enumerate", "--n", "2", "--q", "2"])
    assert code == 2 and "give one of" in err
    code, _, _ = run(["enumerate", "--n", "2", "--q", "2", "--eig-index", "1",
                      "--quotient", "1,1;1,1"])
    assert code == 2
    code, _, err = run(["enumerate", "--n", "2", "--q", "2", "--quotient", "1,1"])
    assert code == 2 and "s11" in err
    code, _, err = run(["enumerate", "--n", "2", "--q", "2", "--eig-index", "7"])
    assert code == 2
    code, _, err = run(["enumerate", "--n", "5", "--q", "3", "--eig-index", "2",
                       "--brute-force"])
    assert code == 2 and "guarded" in err
    code, _, err = run(["enumerate", "--n", "2", "--q", "2", "--eig-index", "2",
                       "--threads", "0"])
    assert code == 2 and "threads" in err
    assert run(["enumerate", "--n", "2", "--q", "2", "--quotient", "1,x;1,1"]) == (
        2, "", "error: invalid --quotient row '1,x'; expected comma-separated integers\n")
    assert run(["enumerate", "--n", "2", "--q", "2", "--quotient=-1,3;1,1"]) == (
        2, "", "error: invalid --quotient: quotient matrix entries must be nonnegative\n")


def test_classify_t5(tmp_path, monkeypatch):
    """The tag's cycle pair is a constant, so tagging the H(4, 2) pair and
    an H(4, 4) lift runs no enumeration."""
    code, out, _ = run(["construct-b", "--q", "4", "--split", "0,1"])
    assert code == 0
    lift = write_doc(tmp_path, "lift.json", json.loads(out)["partition"])

    def refuse(*args, **kwargs):
        raise AssertionError("classify-t5 ran a search")

    monkeypatch.setattr(eqpart.search, "backtracking_enumerate", refuse)
    for path, split in ((write_doc(tmp_path, "p.json", EIGHT), [0]), (lift, [0, 1])):
        code, out, err = run(["classify-t5", path])
        assert (code, err) == (0, "")
        assert json.loads(out)["tag"] == {
            "kind": "cycle_pair_lifting", "split": split,
            "cycle_pair": {"format_version": 1, "n": 4, "q": 2, "cell": "724e"},
        }


def test_classify_t5_small_base(tmp_path):
    doc = {"format_version": 1, "n": 2, "q": 2, "cell": "6"}
    path = write_doc(tmp_path, "p.json", doc)
    code, out, _ = run(["classify-t5", path])
    assert code == 0
    assert json.loads(out)["tag"] == {"kind": "small_base", "secondary_switching": True}
    # both reduced lambda_2 classes of H(3, 3): no switching gives them
    for cell in ("2815e20", "6d9fe71"):
        doc = {"format_version": 1, "n": 3, "q": 3, "cell": cell}
        code, out, err = run(["classify-t5", write_doc(tmp_path, f"{cell}.json", doc)])
        assert (code, err) == (0, ""), cell
        assert json.loads(out)["tag"] == {"kind": "small_base", "secondary_switching": False}
    # small bases always answer, so there is no option to ask
    code, out, err = run(["classify-t5", path, "--check-secondary"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "eqpart: error: unrecognized arguments: --check-secondary"
    assert "Traceback" not in err


def test_classify_t5_secondary_on_h25(tmp_path):
    """All six reduced lambda_2 classes of H(2, 5), the cells that
    `enumerate --n 2 --q 5 --eig-index 2 --reduced-only --up-to-iso`
    prints, are also switching outputs.  Each is its own balanced base
    with one block, which the switching recognizer reads off its slices
    without a search over bases or a walk of the group; comparing
    canonical forms took 82 s and more on some classes."""
    start = time.perf_counter()
    # the first is the anti-diagonal x + y = 4
    for cell in ("0111110", "892b130", "89aa230", "c57e370", "c57d570", "ebfebf0"):
        doc = {"format_version": 1, "n": 2, "q": 5, "cell": cell}
        code, out, err = run(["classify-t5", write_doc(tmp_path, f"{cell}.json", doc)])
        assert (code, err) == (0, ""), cell
        assert json.loads(out) == {"tag": {"kind": "small_base", "secondary_switching": True}}
    assert time.perf_counter() - start < 20.0


def test_classify_t5_preconditions(tmp_path):
    doc = {"format_version": 1, "n": 2, "q": 2, "cell": "1"}
    code, out, _ = run(["classify-t5", write_doc(tmp_path, "p.json", doc)])
    assert code == 1
    assert "not equitable" in json.loads(out)["error"]
    ext = {"format_version": 1, "n": 4, "q": 2, "vertices": [0, 1, 14, 15]}
    code, out, _ = run(["classify-t5", write_doc(tmp_path, "q.json", ext)])
    assert code == 1
    assert "not reduced" in json.loads(out)["error"]


def test_classify_t5_guard_refusals(tmp_path):
    """classify-t5 refuses no graph for its size: the H(4, 6) lift of
    construct-b, a small base of H(2, 6), and the H(4, 6) switching of
    construct-a and a seeded image of it are all tagged.  The switching
    itself prints back its own blocks and base."""
    code, out, _ = run(["construct-b", "--q", "6", "--split", "0,1,2"])
    assert code == 0
    lifted = write_doc(tmp_path, "h46.json", json.loads(out)["partition"])
    code, out, err = run(["classify-t5", lifted])
    assert (code, err) == (0, "")
    assert json.loads(out)["tag"] == {
        "kind": "cycle_pair_lifting", "split": [0, 1, 2],
        "cycle_pair": {"format_version": 1, "n": 4, "q": 2, "cell": "724e"},
    }
    # the two cells of H(2, 6) split by (x < 3) != (y < 3)
    base = write_doc(tmp_path, "h26.json",
                     {"format_version": 1, "n": 2, "q": 6, "cell": "83e8f17c1"})
    code, out, err = run(["classify-t5", base])
    assert (code, err) == (0, "")
    assert json.loads(out)["tag"] == {"kind": "small_base", "secondary_switching": True}
    # the checkerboard x + y even, switched along three blocks
    checkerboard = {"format_version": 1, "n": 2, "q": 6, "cell": "59a59a59a"}
    code, out, _ = run(["construct-a", "--blocks", "0,1|2,3|4,5", "--base",
                        write_doc(tmp_path, "board.json", checkerboard)])
    assert code == 0
    switched = partition_from_doc(json.loads(out)["partition"])
    image = transform(switched, random_automorphism(switched.params, random.Random(1)))
    for name, p in (("switched.json", switched), ("image.json", image)):
        code, out, err = run(["classify-t5", write_doc(tmp_path, name, partition_to_doc(p))])
        assert (code, err) == (0, ""), name
        tag = json.loads(out)["tag"]
        assert tag["kind"] == "switching_construction", name
        if p is switched:
            assert (tag["blocks"], tag["base"]) == ("0,1|2,3|4,5", checkerboard)


def test_sweep_ternary():
    code, out, _ = run(["sweep-ternary", "--n", "2", "--q", "2"])
    assert code == 0
    assert json.loads(out) == {
        "constants": 3, "quasi_strings": 12, "quasi_crosses": 4,
        "not_member": 62, "members": 19, "total": 81,
    }
    code, out, _ = run(["sweep-ternary", "--n", "2", "--q", "4"])
    assert code == 0
    assert json.loads(out) == {
        "constants": 3, "quasi_strings": 156, "quasi_crosses": 196,
        "not_member": 3 ** 16 - 355, "members": 355, "total": 3 ** 16,
    }
    code, _, err = run(["sweep-ternary", "--n", "3", "--q", "3"])
    assert code == 2 and "guarded" in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "1000000", "--q", "3", "--eig-index", "2"],
    ["enumerate", "--n", "2", "--q", "4294967297", "--eig-index", "2"],
    ["sweep-ternary", "--n", "25", "--q", "2"],
    ["sweep-ternary", "--n", "32", "--q", "2"],
    ["enumerate", "--n", "10", "--q", "2", "--eig-index", "2"],
    ["enumerate", "--n", "4", "--q", "6", "--eig-index", "2"],
    ["enumerate", "--n", "16", "--q", "2", "--eig-index", "2"],
    ["enumerate", "--n", "1", "--q", "4294967296", "--eig-index", "1", "--brute-force"],
    # documents and construction outputs past 2^28 arcs (degree * q^n)
    ["verify", {"format_version": 1, "n": 1, "q": 4294967296, "vertices": [0]}],
    ["verify", {"format_version": 1, "n": 1, "q": 23170, "vertices": [0]}],
    ["reduce", {"format_version": 1, "n": 24, "q": 2, "vertices": [0]}],
    ["classify-fn", {"format_version": 1, "n": 2, "q": 1024, "values": [0]}],
    ["construct-b", "--q", "64", "--split", ",".join(map(str, range(32)))],
    ["construct-a", "--blocks", "0,1|2,3|4,5|6,7|8,9|10,11", "--base",
     {"format_version": 1, "n": 2, "q": 12,
      "vertices": [12 * a + b for a in range(12) for b in range(12) if (a + b) % 2 == 0]}],
    ["lift", "--blocks", ",".join(map(str, range(32))) + "|" + ",".join(map(str, range(32, 64))),
     "--input", EIGHT],
    # index-1 outputs past 2^18 cells by the closed form n(2^q - 2)
    ["enumerate", "--n", "1", "--q", "40", "--eig-index", "1"],
    ["enumerate", "--n", "2", "--q", "22", "--eig-index", "1"],
])
def test_huge_graphs_are_refused_at_once(argv, tmp_path):
    """Each document in argv is written to a file and passed by its path."""
    argv = [write_doc(tmp_path, f"doc{k}.json", a) if isinstance(a, dict) else a
            for k, a in enumerate(argv)]
    start = time.perf_counter()
    code, out, err = run(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "guard" in err


def test_bad_usage():
    assert run([])[0] == 2
    assert run(["no-such-command"])[0] == 2
    code, _, err = run(["verify"])
    assert code == 2


def test_module_entry_point_runs_the_cli():
    """python -m eqpart.cli and python -m eqpart run a command as
    run_command does: a quotient with the wrong row sums exits 2 with the
    same one stderr line."""
    argv = ["enumerate", "--n", "2", "--q", "2", "--quotient", "0,1;1,0"]
    code, out, err = run(argv)
    assert (code, out) == (2, "") and err.startswith("error: ")
    src = str(Path(eqpart.cli.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for module in ("eqpart.cli", "eqpart"):
        child = subprocess.run([sys.executable, "-m", module, *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert (child.returncode, child.stdout, child.stderr) == (code, out, err), module


def test_closed_pipe_ends_without_traceback():
    """A reader that closes stdout after one line, as `| head -1` does,
    ends the run with exit 1 and nothing on stderr: H(2, 5) index 2 prints
    4,320 lines, far more than a pipe holds."""
    src = str(Path(eqpart.cli.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["enumerate", "--n", "2", "--q", "5", "--eig-index", "2"]
    with subprocess.Popen([sys.executable, "-m", "eqpart", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert json.loads(first)["n"] == 2
    assert (code, err) == (1, b"")


GOLDEN = Path(__file__).with_name("golden_cli.json")


def test_golden_transcript(tmp_path):
    """Replay the recorded commands: exit code and stdout byte for byte.

    Each case holds argv, the expected exit code and stdout, and an
    optional input document; "@input" in argv names the file it is
    written to.
    """
    path = tmp_path / "input.json"
    for case in json.loads(GOLDEN.read_text()):
        if "input" in case:
            path.write_text(json.dumps(case["input"]))
        argv = [str(path) if a == "@input" else a for a in case["argv"]]
        code, out, err = run(argv)
        assert (code, out, err) == (case["exit"], case["stdout"], ""), argv

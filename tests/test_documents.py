"""JSON document parsing, the nibble-wise hex cell codec and the result
serializer."""

import io
import json
import random
import re
from fractions import Fraction

import pytest

from eqpart.cli import run_command
from eqpart.constructions import AlphabetBlocks, eight_cycle_partition
from eqpart.documents import (
    blocks_to_text,
    cell_to_hex,
    function_from_doc,
    hex_to_cell,
    load_json,
    parse_blocks,
    partition_from_doc,
    partition_lines,
    partition_to_doc,
    tagged,
    to_json,
)
from eqpart.eigenfunctions import (
    AllZero,
    Constant,
    NotEigen,
    NotMember,
    QuasiCross,
    QuasiString,
    VertexFunction,
)
from eqpart.hamming import GraphParams
from eqpart.partitions import FiberMismatch, TwoPartition
from eqpart.search import CyclePairLifting, SmallBase, SwitchingConstruction, Unclassified


def test_cell_hex_known_value():
    assert cell_to_hex(eight_cycle_partition().cell, 16) == "e427"
    assert hex_to_cell("e427", 16) == eight_cycle_partition().cell
    assert cell_to_hex(0b0110, 4) == "6"
    assert cell_to_hex(1, 9) == "100"


def test_cell_hex_round_trip():
    rng = random.Random(1)
    for bits in (1, 4, 7, 16, 27, 81):
        for _ in range(25):
            cell = rng.getrandbits(bits)
            assert hex_to_cell(cell_to_hex(cell, bits), bits) == cell


def test_cell_hex_rejects():
    with pytest.raises(ValueError, match="exactly"):
        hex_to_cell("e427", 9)
    with pytest.raises(ValueError, match="invalid hex"):
        hex_to_cell("e42x", 16)
    # int() would take each of these; the cell format does not
    for text, bad in ((" e42", " "), ("e_27", "_"), ("0xe4", "x")):
        with pytest.raises(ValueError, match=f"invalid hex character '{bad}'"):
            hex_to_cell(text, 16)
    with pytest.raises(ValueError, match="beyond"):
        hex_to_cell("4", 2)
    with pytest.raises(ValueError, match="cell bitset has bits beyond the stated length"):
        cell_to_hex(16, 4)


def test_partition_doc_round_trip():
    p = eight_cycle_partition()
    doc = partition_to_doc(p)
    assert doc == {"format_version": 1, "n": 4, "q": 2, "cell": "e427"}
    assert partition_from_doc(doc) == p
    by_vertices = {"format_version": 1, "n": 4, "q": 2, "vertices": p.vertices()}
    assert partition_from_doc(by_vertices) == p


def test_partition_lines_match_the_encoder():
    """partition_lines renders the bytes of json.dumps(partition_to_doc(p),
    sort_keys=True) and a newline for each cell, on graphs with q^n mod 4
    = 0, 1, 2 and 3, so the last hex digit holds 4, 1, 2 and 3 bits."""
    rng = random.Random(3)
    for params in (GraphParams(2, 2), GraphParams(2, 3), GraphParams(1, 6), GraphParams(3, 3)):
        full = (1 << params.vertex_count) - 1
        cells = [1, full - 1, 1 << params.vertex_count - 1, full >> 1]
        cells += [rng.randrange(1, full) for _ in range(20)]
        expected = "".join(
            json.dumps(partition_to_doc(TwoPartition(params, c)), sort_keys=True) + "\n"
            for c in cells)
        assert partition_lines(params, cells) == expected, params
    assert partition_lines(GraphParams(2, 2), []) == ""


def _refusal(tmp_path, command, doc):
    """The stderr of command run on doc, which must exit 2 with no stdout."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    assert run_command([command, str(path)], stdout=out, stderr=err) == 2
    assert out.getvalue() == ""
    return err.getvalue()


def test_partition_doc_rejects(tmp_path):
    good = {"format_version": 1, "n": 2, "q": 2, "cell": "6"}
    assert partition_from_doc(good).cell == 6
    for mutation, message in (
        ({"format_version": 2}, "unsupported format_version 2; expected 1"),
        ({"format_version": "1"}, "'format_version' must be an integer"),
        ({"n": "2"}, "'n' must be an integer"),
        ({"n": True}, "'n' must be an integer"),
        ({"cell": 6}, '"cell" must be a hex string'),
        ({"cell": "64"}, "cell hex must have exactly 1 characters, got 2"),
        ({"vertices": [0]}, 'give exactly one of "cell" and "vertices"'),  # both
        ({"q": 1}, "need q >= 2, got q=1"),
    ):
        doc = {**good, **mutation}
        with pytest.raises(ValueError, match=re.escape(message)):
            partition_from_doc(doc)
    with pytest.raises(ValueError, match='give exactly one of "cell" and "vertices"'):
        partition_from_doc({"format_version": 1, "n": 2, "q": 2})
    with pytest.raises(ValueError, match='"vertices" must be a list of integers'):
        partition_from_doc({"format_version": 1, "n": 2, "q": 2, "vertices": [0, True]})
    with pytest.raises(ValueError, match=re.escape("vertex 4 outside [0, 4)")):
        partition_from_doc({"format_version": 1, "n": 2, "q": 2, "vertices": [0, 4]})
    with pytest.raises(ValueError, match="nonempty"):
        partition_from_doc({"format_version": 1, "n": 2, "q": 2, "cell": "f"})
    with pytest.raises(ValueError, match="partition document must be a JSON object"):
        partition_from_doc([1, 2, 3])
    no_n = {"format_version": 1, "q": 2, "cell": "6"}
    assert _refusal(tmp_path, "verify", no_n) == "error: document is missing 'n'\n"


def test_function_doc_round_trip():
    f = VertexFunction(GraphParams(2, 2), (1, 0, -1, 3))
    doc = {"format_version": 1, "n": 2, "q": 2, "values": [1, 0, -1, 3]}
    assert function_from_doc(doc) == f


def test_function_doc_rejects(tmp_path):
    good = {"format_version": 1, "n": 2, "q": 2, "values": [1, 0, -1, 0]}
    assert function_from_doc(good).values == (1, 0, -1, 0)
    with pytest.raises(ValueError, match="all 4"):
        function_from_doc({**good, "values": [1, 0]})
    for values in ([1, 0, 0.5, 0], [1, 0, True, 0], "1010"):
        with pytest.raises(ValueError, match='"values" must be a list of integers'):
            function_from_doc({**good, "values": values})
    with pytest.raises(ValueError, match="missing"):
        function_from_doc({"format_version": 1, "n": 2, "q": 2})
    with pytest.raises(ValueError, match="value 1073741824 exceeds the magnitude guard"):
        function_from_doc({**good, "values": [1, 0, 1 << 30, 0]})
    assert _refusal(tmp_path, "classify-fn", [1, 0, -1, 0]) == (
        "error: function document must be a JSON object\n")


def test_load_json():
    assert load_json('{"a": 1}') == {"a": 1}
    with pytest.raises(ValueError, match="invalid JSON"):
        load_json("{")


def test_parse_blocks():
    assert parse_blocks("0,1|2,3") == (frozenset({0, 1}), frozenset({2, 3}))
    assert parse_blocks("2") == (frozenset({2}),)
    assert parse_blocks(" 0 , 1 ") == (frozenset({0, 1}),)
    with pytest.raises(ValueError, match="repeats"):
        parse_blocks("0,0")
    with pytest.raises(ValueError, match="invalid block"):
        parse_blocks("0,x")
    with pytest.raises(ValueError, match="invalid block '0,'"):
        parse_blocks("0,|1")


def test_blocks_round_trip():
    for text in ("0,1|2,3", "0|1|2", "0,2|1,3"):
        assert blocks_to_text(parse_blocks(text)) == text


def test_to_json_and_tagged():
    """The shapes the command line cannot reach within its guards, and the
    kind string of every result class on the wire."""
    base = TwoPartition(GraphParams(2, 2), 0b0110)
    blocks = AlphabetBlocks((frozenset({2, 0}), frozenset({1, 3})))
    assert tagged(SwitchingConstruction(blocks, base)) == {
        "kind": "switching_construction",
        "blocks": "0,2|1,3",
        "base": {"format_version": 1, "n": 2, "q": 2, "cell": "6"},
    }
    assert to_json(FiberMismatch(coordinate=2, symbol=1, count=1, expected=Fraction(3, 2))) == {
        "coordinate": 2, "symbol": 1, "count": 1, "expected": "3/2",
    }
    assert tagged(Unclassified()) == {"kind": "unclassified"}
    assert to_json((frozenset({3, 1}), (Fraction(4, 2), None, True))) == [[1, 3], ["2", None, True]]
    plus, minus = frozenset({2, 0}), frozenset({1})
    kinds = {
        Constant(-1): "constant",
        QuasiString(plus, minus, 1): "quasi_string",
        QuasiCross(plus, minus, 1, 2): "quasi_cross",
        NotMember(): "not_member",
        AllZero(): "all_zero",
        NotEigen(): "not_eigen",
        SmallBase(False): "small_base",
        CyclePairLifting(frozenset({0}), eight_cycle_partition()): "cycle_pair_lifting",
        SwitchingConstruction(blocks, base): "switching_construction",
        Unclassified(): "unclassified",
    }
    for obj, kind in kinds.items():
        assert tagged(obj)["kind"] == kind
    assert tagged(QuasiCross(plus, minus, 1, 2)) == {
        "kind": "quasi_cross", "plus": [0, 2], "minus": [1], "coordinate_i": 1, "coordinate_j": 2,
    }

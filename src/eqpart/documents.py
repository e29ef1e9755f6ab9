"""JSON document formats for partitions and vertex functions.

A partition document carries n, q and the cell of the 2-partition, either
as a hex bitset ("cell") or as a vertex index list ("vertices"), exactly
one of the two.  A function document carries n, q and the full value list
in vertex index order.  Every document must declare format_version 1, and
its graph may have at most 2^28 arcs (degree * q^n).

The hex encoding is nibble little-endian: character d holds bits
4d..4d+3 of the cell bitset, and the string has exactly
ceil(q^n / 4) characters.  The induced-8-cycle cell of H(4, 2) reads
"e427".

Results go out through to_json: a partition as its document, alphabet
blocks as their "0,1|2,3" text, any other hamming.Record as an object of
its fields, tuples and sets as lists, fractions as "p/q" strings.  tagged
adds the class name in snake case under "kind".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Iterable, Mapping

from .hamming import AlphabetBlocks, GraphParams, Record
from .partitions import TwoPartition

FORMAT_VERSION = 1
# Bound on degree * q^n.  verify of a one-vertex or a three-vertex cell
# (an induced 3-cycle) of H(1, 16384) at the bound takes 1.1 to 1.4 s and
# 33 to 35 MB on an Intel Xeon vCPU.
ARC_LIMIT = 1 << 28

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def cell_to_hex(cell: int, bit_length: int) -> str:
    if cell >> bit_length:
        raise ValueError("cell bitset has bits beyond the stated length")
    return format(cell, f"0{(bit_length + 3) // 4}x")[::-1]


def hex_to_cell(text: str, bit_length: int) -> int:
    expected = (bit_length + 3) // 4
    if len(text) != expected:
        raise ValueError(
            f"cell hex must have exactly {expected} characters, got {len(text)}"
        )
    # int() would also take whitespace, "_", "0x", a sign and non-ASCII digits
    if not _HEX_DIGITS.issuperset(text):
        ch = next(ch for ch in text if ch not in _HEX_DIGITS)
        raise ValueError(f"invalid hex character {ch!r} in cell")
    cell = int(text[::-1], 16)
    if cell >> bit_length:
        raise ValueError("cell hex sets bits beyond q^n")
    return cell


def _require_int(doc: Mapping[str, Any], key: str) -> int:
    if key not in doc:
        raise ValueError(f"document is missing {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer")
    return value


def _check_version(doc: Mapping[str, Any]) -> None:
    if _require_int(doc, "format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format_version {doc['format_version']}; expected {FORMAT_VERSION}"
        )


def guarded_params(n: int, q: int) -> GraphParams:
    """H(n, q) for a graph that a command reads or builds, refused with a
    ValueError past the vertex guard or past ARC_LIMIT arcs: the time and
    memory of those commands grow with degree * q^n."""
    params = GraphParams(n, q)
    if params.degree * params.vertex_count > ARC_LIMIT:
        raise ValueError("degree * q^n exceeds the 2^28 arc guard")
    return params


def _params_of(doc: Mapping[str, Any]) -> GraphParams:
    return guarded_params(_require_int(doc, "n"), _require_int(doc, "q"))


def _partition_doc(params: GraphParams, cell_hex: str) -> dict[str, Any]:
    return {"format_version": FORMAT_VERSION, "n": params.n, "q": params.q, "cell": cell_hex}


def partition_to_doc(p: TwoPartition) -> dict[str, Any]:
    return _partition_doc(p.params, cell_to_hex(p.cell, p.params.vertex_count))


def partition_lines(params: GraphParams, cells: Iterable[int]) -> str:
    """json.dumps(partition_to_doc(p), sort_keys=True) and a newline for
    the partition p of each cell of H(n, q), rendered from the ints into
    one template: no partition, dict or encoder call per cell."""
    line = json.dumps(_partition_doc(params, "%s"), sort_keys=True) + "\n"
    digits = f"0{(params.vertex_count + 3) // 4}x"
    return "".join([line % format(cell, digits)[::-1] for cell in cells])


def partition_from_doc(doc: Mapping[str, Any]) -> TwoPartition:
    """Parse a partition document with a "cell" hex bitset or a "vertices"
    index list (exactly one of the two)."""
    if not isinstance(doc, Mapping):
        raise ValueError("partition document must be a JSON object")
    _check_version(doc)
    params = _params_of(doc)
    has_cell = "cell" in doc
    has_vertices = "vertices" in doc
    if has_cell == has_vertices:
        raise ValueError('give exactly one of "cell" and "vertices"')
    if has_cell:
        if not isinstance(doc["cell"], str):
            raise ValueError('"cell" must be a hex string')
        return TwoPartition(params, hex_to_cell(doc["cell"], params.vertex_count))
    vs = doc["vertices"]
    if not isinstance(vs, list) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in vs
    ):
        raise ValueError('"vertices" must be a list of integers')
    return TwoPartition.from_vertices(params, vs)


def function_from_doc(doc: Mapping[str, Any]) -> VertexFunction:
    from .eigenfunctions import VertexFunction

    if not isinstance(doc, Mapping):
        raise ValueError("function document must be a JSON object")
    _check_version(doc)
    params = _params_of(doc)
    if "values" not in doc:
        raise ValueError('document is missing "values"')
    vals = doc["values"]
    if not isinstance(vals, list) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in vals
    ):
        raise ValueError('"values" must be a list of integers')
    if len(vals) != params.vertex_count:
        raise ValueError(
            f'"values" must list all {params.vertex_count} vertices, got {len(vals)}'
        )
    return VertexFunction(params, tuple(vals))


def load_json(text: str) -> Any:
    # JSONDecodeError is a ValueError; so is an integer of more digits than
    # int() converts, and nesting too deep for the decoder is a RecursionError
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None


def parse_blocks(text: str) -> tuple[frozenset[int], ...]:
    """Parse "0,1|2,3" into alphabet blocks (tuple of symbol sets)."""
    blocks = []
    for part in text.split("|"):
        items = part.split(",")
        try:
            blocks.append(frozenset(int(s.strip()) for s in items))
        except ValueError:
            raise ValueError(f"invalid block {part!r}; expected comma-separated integers") from None
        if len(blocks[-1]) != len(items):
            raise ValueError(f"block {part!r} repeats a symbol")
    return tuple(blocks)


def blocks_to_text(blocks: tuple[frozenset[int], ...]) -> str:
    return "|".join(",".join(str(s) for s in sorted(b)) for b in blocks)


def to_json(obj: Any) -> Any:
    """The JSON value of a result: a partition document, blocks text, or
    the fields of a Record under their own names, converted in turn."""
    if isinstance(obj, TwoPartition):
        return partition_to_doc(obj)
    if isinstance(obj, AlphabetBlocks):
        return blocks_to_text(obj.blocks)
    if isinstance(obj, Record):
        return {name: to_json(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, tuple):
        return [to_json(x) for x in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def tagged(obj: Any) -> dict[str, Any]:
    """to_json(obj) with "kind": the class name in snake case."""
    kind = re.sub(r"(?<!^)(?=[A-Z])", "_", type(obj).__name__).lower()
    return {"kind": kind, **to_json(obj)}

"""Output gate: checks each command's exit code and stdout.

The checks recompute what they need with their own integer arithmetic on
the documented formats (big-endian vertex digits, nibble little-endian cell
hex), never with eqpart, so a wrong program cannot vouch for itself.  A
check returns None on pass and a one-line reason on failure.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterator, Optional

Check = Callable[[Optional[int], bytes], Optional[str]]


def cell_to_hex(cell: int, bits: int) -> str:
    raw = cell.to_bytes((bits + 7) // 8, "little").hex()
    return "".join(raw[i + 1] + raw[i] for i in range(0, len(raw), 2))[: (bits + 3) // 4]


def hex_to_cell(text: str) -> int:
    padded = text + "0" * (len(text) % 2)
    swapped = "".join(padded[i + 1] + padded[i] for i in range(0, len(padded), 2))
    return int.from_bytes(bytes.fromhex(swapped), "little")


def partition_doc(n: int, q: int, cell: int) -> dict[str, Any]:
    return {"cell": cell_to_hex(cell, q ** n), "format_version": 1, "n": n, "q": q}


def neighbors(n: int, q: int, v: int) -> Iterator[int]:
    stride = 1
    for _ in range(n):
        d = (v // stride) % q
        for s in range(q):
            if s != d:
                yield v + (s - d) * stride
        stride *= q


def neighbors_in(n: int, q: int, cell: int, v: int) -> int:
    """Number of neighbors of vertex v inside the cell bitset."""
    return sum((cell >> w) & 1 for w in neighbors(n, q, v))


def lift_cell(n: int, base_q: int, base_cell: int, blocks: list[list[int]]) -> int:
    """Cell of H(n, q) whose vertex lies in it iff its block word lies in
    base_cell; block t of the alphabet {0..q-1} lifts base symbol t."""
    block_of = {s: t for t, block in enumerate(blocks) for s in block}
    q = len(block_of)
    bits = 0
    for v in range(q ** n):
        w, x, place = 0, v, 1
        for _ in range(n):
            w += block_of[x % q] * place
            place *= base_q
            x //= q
        if (base_cell >> w) & 1:
            bits |= 1 << v
    return bits


def _lines(stdout: bytes) -> list[Any]:
    return [json.loads(line) for line in stdout.decode().splitlines()]


def _diff(got: Any, want: Any) -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return f"keys {sorted(got)} != expected {sorted(want)}"
        key = next(k for k in want if got[k] != want[k])
        return f"{key}: {_diff(got[key], want[key])}"
    return f"{json.dumps(got)[:120]} != expected {json.dumps(want)[:120]}"


def _exit(code: Optional[int], want: int) -> Optional[str]:
    if code is None:
        return "timed out"
    if code != want:
        return f"exit code {code}, expected {want}"
    return None


def expect_json(want: Any) -> Check:
    """Exit 0 and one JSON document on stdout, equal to `want`."""

    def check(code: Optional[int], stdout: bytes) -> Optional[str]:
        bad = _exit(code, 0)
        if bad:
            return bad
        try:
            docs = _lines(stdout)
        except ValueError as exc:
            return f"stdout is not JSON lines: {exc}"
        if len(docs) != 1:
            return f"{len(docs)} JSON lines on stdout, expected 1"
        return None if docs[0] == want else _diff(docs[0], want)

    return check


def expect_witness(n: int, q: int, cell: int) -> Check:
    """Exit 1 with a witness that the partition is not equitable: two
    vertices of one cell, the first being that cell's lowest vertex, whose
    neighbor counts in the target cell are as reported and differ."""
    doc = partition_doc(n, q, cell)
    degree = n * (q - 1)
    full = (1 << q ** n) - 1

    def check(code: Optional[int], stdout: bytes) -> Optional[str]:
        bad = _exit(code, 1)
        if bad:
            return bad
        try:
            (got,) = _lines(stdout)
            w = got["witness"]
            c, (u, v), j, (cu, cv) = w["cell"], w["vertices"], w["target_cell"], w["counts"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed witness output: {exc!r}"
        head = {"partition": doc, "size": cell.bit_count(), "equitable": False}
        if {k: got.get(k) for k in head} != head or set(got) != {*head, "witness"}:
            return _diff(got, {**head, "witness": w})
        if c not in (0, 1) or j not in (0, 1) or not 0 <= u < v <= full.bit_length() - 1:
            return f"witness out of range: {w}"
        members = cell if c == 0 else full ^ cell
        if not (members >> u) & 1 or not (members >> v) & 1:
            return f"witness vertices {u}, {v} are not both in cell {c}"
        if members & ((1 << u) - 1):
            return f"witness vertex {u} is not the first vertex of cell {c}"

        def count(x: int) -> int:
            inside = neighbors_in(n, q, cell, x)
            return inside if j == 0 else degree - inside

        if (count(u), count(v)) != (cu, cv) or cu == cv:
            return f"witness counts {cu}, {cv} != recomputed {count(u)}, {count(v)}"
        return None

    return check


def is_induced_cycle(n: int, q: int, cell: int, length: int) -> bool:
    """Whether the cell induces one connected cycle of the given length."""
    vertices = [v for v in range(q ** n) if (cell >> v) & 1]
    if len(vertices) != length or any(neighbors_in(n, q, cell, v) != 2 for v in vertices):
        return False
    seen, frontier = {vertices[0]}, [vertices[0]]
    while frontier:
        for w in neighbors(n, q, frontier.pop()):
            if (cell >> w) & 1 and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == length


def expect_tag(q: int) -> Check:
    """Exit 0 and a cycle-pair-lifting tag for a reduced partition of
    H(4, q): a split of q/2 symbols and a pair of induced 8-cycles of H(4, 2)."""

    def check(code: Optional[int], stdout: bytes) -> Optional[str]:
        bad = _exit(code, 0)
        if bad:
            return bad
        try:
            (doc,) = _lines(stdout)
            ((key, tag),) = doc.items()
            kind, split, pair = tag["kind"], tag["split"], tag["cycle_pair"]
            cell = hex_to_cell(pair["cell"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"malformed tag output: {exc!r}"
        if key != "tag" or kind != "cycle_pair_lifting":
            return f"tag {tag} is not a cycle pair lifting"
        if split != sorted(set(split)) or len(split) != q // 2 or not set(split) <= set(range(q)):
            return f"split {split} is not q/2 = {q // 2} symbols of 0..{q - 1}"
        if pair != partition_doc(4, 2, cell) or not all(
            is_induced_cycle(4, 2, c, 8) for c in (cell, 0xFFFF ^ cell)
        ):
            return f"cycle pair {pair} is not two induced 8-cycles of H(4, 2)"
        return None

    return check


def expect_enumeration(n: int, q: int, quotients: dict[tuple, int]) -> Check:
    """Partition documents of H(n, q) in ascending cell order, then a
    summary whose per-quotient counts are `quotients` and add up to the
    number of documents."""
    total = sum(quotients.values())
    summary = {
        "count": total,
        "quotients": [{"count": c, "matrix": [list(r) for r in m]}
                      for m, c in sorted(quotients.items())],
    }

    def check(code: Optional[int], stdout: bytes) -> Optional[str]:
        bad = _exit(code, 0)
        if bad:
            return bad
        try:
            *docs, last = _lines(stdout)
        except ValueError as exc:
            return f"stdout is not JSON lines: {exc}"
        if last != summary:
            return f"summary {_diff(last, summary)}"
        if len(docs) != total:
            return f"{len(docs)} partition documents, summary says {total}"
        cells = []
        for doc in docs:
            if set(doc) != {"cell", "format_version", "n", "q"} or (doc["n"], doc["q"]) != (n, q):
                return f"not a partition document of H({n}, {q}): {doc}"
            cells.append(hex_to_cell(doc["cell"]))
        if any(a >= b for a, b in zip(cells, cells[1:])):
            return "partition documents are not in strictly ascending cell order"
        return None

    return check

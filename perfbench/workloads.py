"""The three workloads: their seeded input documents and expected outputs.

Each workload function writes the documents one pass needs into a directory and
returns the operations of a pass, in order.  An operation is the argument
list of one `eqpart` command plus the gate check of its output.  The seed
picks the automorphisms applied to inputs, the flipped vertex of the
non-equitable inputs, the lift splits and blocks, and the ternary
functions; the same seed gives the same documents.

eqpart builds the inputs (it must be importable); the expected outputs
come from the construction laws, not from eqpart:

* extending by d coordinates adds d(q-1) to the quotient diagonal;
* lifting by blocks of size m maps S to m*S + n(m-1)*I;
* an automorphism keeps the quotient and maps the essential coordinates
  through its coordinate permutation.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from math import comb
from pathlib import Path
from typing import Callable, Optional

import gate

Write = Callable[[str, dict], str]   # (name, document) -> path of the written file


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: gate.Check
    seeded: bool = True          # stdout depends on the seed
    digest_key: Optional[str] = None

    @property
    def key(self) -> str:
        return self.digest_key or self.name


def _extended(s: list[list[int]], d: int, q: int) -> list[list[int]]:
    return [[x + (d * (q - 1) if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(s)]


def _lifted(s: list[list[int]], m: int, n: int) -> list[list[int]]:
    return [[m * x + (n * (m - 1) if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(s)]


EIGHT_CYCLE_QUOTIENT = [[2, 2], [2, 2]]


def _certificate(p, s: list[list[int]], essential: list[int]) -> dict:
    """Expected `verify` output for an equitable lambda_2 2-partition."""
    n, q = p.params.n, p.params.q
    lam = s[0][0] - s[1][0]
    assert lam == (q - 1) * n - 2 * q, "inputs must have second eigenvalue lambda_2"
    return {
        "partition": gate.partition_doc(n, q, p.cell),
        "size": p.cell.bit_count(),
        "equitable": True,
        "quotient": s,
        "eigenvalues": [n * (q - 1), lam],
        "eigenvalue_index": 2,
        "spectral_check": True,
        "essential_coordinates": essential,
        "reduced": len(essential) == n,
        "orthogonal_array": {"applicable": True, "balanced": True},
        "induced_cycle_lengths": {"cell": None, "complement": None},
    }


def _image_coords(g, essential: list[int]) -> list[int]:
    """Target coordinates fed by the given source coordinates under g."""
    return sorted(k for k, src in enumerate(g.coord_perm, 1) if src in essential)


def certify(rng: random.Random, write: Write, nproc: int) -> list[Op]:
    from eqpart.constructions import eight_cycle_partition, lifted_cycle_pair
    from eqpart.documents import partition_to_doc
    from eqpart.hamming import random_automorphism
    from eqpart.partitions import TwoPartition, extend, transform

    ops: list[Op] = []

    def verify(name: str, p, s, essential, seeded: bool) -> str:
        path = write(name, partition_to_doc(p))
        ops.append(Op(f"verify-{name}", ("verify", path),
                      gate.expect_json(_certificate(p, s, essential)), seeded))
        return path

    def flipped(name: str, p) -> None:
        bad = TwoPartition(p.params, p.cell ^ (1 << rng.randrange(p.params.vertex_count)))
        path = write(name, partition_to_doc(bad))
        ops.append(Op(f"verify-{name}", ("verify", path),
                      gate.expect_witness(p.params.n, p.params.q, bad.cell)))

    c8 = eight_cycle_partition()
    base = [1, 2, 3, 4]
    for n in (12, 14, 16):
        ext = extend(c8, n - 4)
        s = _extended(EIGHT_CYCLE_QUOTIENT, n - 4, 2)
        verify(f"ext{n}", ext, s, base, seeded=False)
        if n == 16:
            flipped("ext16-flipped", ext)
            continue
        g = random_automorphism(ext.params, rng)
        image = transform(ext, g)
        path = verify(f"ext{n}-image", image, s, _image_coords(g, base), seeded=True)
        if n == 14:
            flipped("ext14-image-flipped", image)
            kept = _image_coords(g, base)
            reduced = 0
            for w in range(16):
                full = sum(((w >> (4 - i)) & 1) << (n - k) for i, k in enumerate(kept, 1))
                reduced |= ((image.cell >> full) & 1) << w
            ops.append(Op("reduce-ext14-image", ("reduce", path), gate.expect_json({
                "partition": gate.partition_doc(4, 2, reduced),
                "removed_coordinates": sorted(set(range(1, n + 1)) - set(kept), reverse=True),
            })))
    for q in (4, 6, 8):
        lifted = lifted_cycle_pair(q, range(q // 2))
        s = _lifted(EIGHT_CYCLE_QUOTIENT, q // 2, 4)
        verify(f"lift{q}", lifted, s, base, seeded=False)
        if q > 4:
            g = random_automorphism(lifted.params, rng)
            verify(f"lift{q}-image", transform(lifted, g), s, base, seeded=True)
        if q == 8:
            flipped("lift8-flipped", lifted)

    for q, with_pair in ((8, True), (6, False)):
        split = sorted(rng.sample(range(q), q // 2))
        argv = ["construct-b", "--q", str(q), "--split", ",".join(map(str, split))]
        pair = c8
        if with_pair:
            pair = transform(c8, random_automorphism(c8.params, rng))
            argv += ["--cycle-pair", write("cycle-pair", partition_to_doc(pair))]
        rest = [x for x in range(q) if x not in split]
        ops.append(Op(f"construct-b-q{q}", tuple(argv), gate.expect_json({
            "partition": gate.partition_doc(4, q, gate.lift_cell(4, 2, pair.cell, [split, rest])),
            "quotient": _lifted(EIGHT_CYCLE_QUOTIENT, q // 2, 4),
            "eigenvalue_index": 2,
            "essential_coordinates": base,
            "split": split,
        })))

    ext6 = extend(c8, 2)
    g = random_automorphism(ext6.params, rng)
    image = transform(ext6, g)
    symbols = rng.sample(range(4), 4)
    blocks = [sorted(symbols[:2]), sorted(symbols[2:])]
    text = "|".join(",".join(map(str, b)) for b in blocks)
    path = write("ext6-image", partition_to_doc(image))
    ops.append(Op("lift-ext6-image", ("lift", "--blocks", text, "--input", path),
                  gate.expect_json({
                      "partition": gate.partition_doc(6, 4, gate.lift_cell(6, 2, image.cell, blocks)),
                      "quotient": _lifted(_extended(EIGHT_CYCLE_QUOTIENT, 2, 2), 2, 6),
                      "eigenvalue_index": 2,
                      "essential_coordinates": _image_coords(g, base),
                      "blocks": text,
                  })))
    return ops


# Quotient-matrix counts of each enumeration.  648, 220, 180 and 68 are the
# counts the test suite fixes; 4320 = 120 + 2040 + 2040 + 120 counts the
# balanced cells of the 5 x 5 rook's graph; the rest were recorded from the
# program.
ENUMERATIONS: dict[tuple, dict[tuple, int]] = {
    (4, 3, 2): {((4, 4), (2, 6)): 324, ((6, 2), (4, 4)): 324},
    (5, 2, 2): {((2, 3), (1, 4)): 40, ((3, 2), (2, 3)): 140, ((4, 1), (3, 2)): 40},
    (3, 3, 2): {((2, 4), (2, 4)): 90, ((4, 2), (4, 2)): 90},
    (2, 5, 2): {((0, 8), (2, 6)): 120, ((2, 6), (4, 4)): 2040,
                ((4, 4), (6, 2)): 2040, ((6, 2), (8, 0)): 120},
    (3, 3, 1): {((4, 2), (1, 5)): 9, ((5, 1), (2, 4)): 9},
    (3, 3, 3): {((0, 6), (3, 3)): 12, ((3, 3), (6, 0)): 12},
    (4, 3, 1): {((6, 2), (1, 7)): 12, ((7, 1), (2, 6)): 12},
    (4, 2, 2): {((1, 3), (1, 3)): 16, ((2, 2), (2, 2)): 36, ((3, 1), (3, 1)): 16},
    (2, 4, 2): {((0, 6), (2, 4)): 24, ((2, 4), (4, 2)): 90, ((4, 2), (6, 0)): 24},
}
REDUCED_UP_TO_ISO: dict[tuple, dict[tuple, int]] = {
    (3, 3, 2): {((2, 4), (2, 4)): 1, ((4, 2), (4, 2)): 1},
    (4, 2, 2): {((2, 2), (2, 2)): 1},
}


def _enumerate_op(n: int, q: int, index: int, *flags: str, expected=ENUMERATIONS) -> Op:
    name = "-".join(["enumerate", f"h{n}{q}", f"i{index}", *(f.lstrip("-") for f in flags)])
    argv = ("enumerate", "--n", str(n), "--q", str(q), "--eig-index", str(index), *flags)
    return Op(name, argv, gate.expect_enumeration(n, q, expected[(n, q, index)]), seeded=False)


def enumerate_(rng: random.Random, write: Write, nproc: int) -> list[Op]:
    threads = min(2, nproc)
    return [
        _enumerate_op(4, 3, 2),
        _enumerate_op(5, 2, 2),
        _enumerate_op(3, 3, 2),
        _enumerate_op(2, 5, 2),
        _enumerate_op(3, 3, 1),
        _enumerate_op(3, 3, 3),
        _enumerate_op(4, 3, 1),
        _enumerate_op(4, 2, 2),
        # Same stdout as the single-process run: one digest for both.
        replace(_enumerate_op(4, 3, 2, "--threads", str(threads)), digest_key="enumerate-h43-i2"),
        _enumerate_op(2, 4, 2, "--brute-force"),
    ]


def _census(n: int, q: int) -> dict:
    """Closed-form counts of the ternary census of H(n, q)."""
    strings, crosses = n * (3 ** q - 3), comb(n, 2) * (2 ** q - 2) ** 2
    members = 3 + strings + crosses
    total = 3 ** (q ** n)
    return {"constants": 3, "quasi_strings": strings, "quasi_crosses": crosses,
            "not_member": total - members, "members": members, "total": total}


def _shapes(rng: random.Random) -> list[tuple]:
    """A quasi-string, a quasi-cross and a constant on seeded graphs, each
    as (params, values, expected top-two form, expected lambda_1 form)."""
    from eqpart.eigenfunctions import constant_function, quasi_cross, quasi_string
    from eqpart.hamming import GraphParams

    def graph():
        return GraphParams(*rng.choice([(3, 3), (4, 4), (3, 5)]))

    def balanced(form):
        return form if len(form["plus"]) == len(form["minus"]) else {"kind": "not_eigen"}

    out = []
    params = graph()
    while True:
        signs = [rng.choice((1, -1, 0)) for _ in range(params.q)]
        if len(set(signs)) > 1:
            break
    plus = [a for a, x in enumerate(signs) if x == 1]
    minus = [a for a, x in enumerate(signs) if x == -1]
    k = rng.randint(1, params.n)
    form = {"kind": "quasi_string", "plus": plus, "minus": minus, "coordinate": k}
    out.append((params, quasi_string(params, plus, minus, k).values, form, balanced(form)))

    params = graph()
    plus = sorted(rng.sample(range(params.q), rng.randint(1, params.q - 1)))
    minus = sorted(rng.sample(range(params.q), rng.randint(1, params.q - 1)))
    i, j = sorted(rng.sample(range(1, params.n + 1), 2))
    form = {"kind": "quasi_cross", "plus": plus, "minus": minus,
            "coordinate_i": i, "coordinate_j": j}
    out.append((params, quasi_cross(params, plus, minus, i, j).values, form, balanced(form)))

    params = graph()
    c = rng.choice((1, -1, 0))
    out.append((params, constant_function(params, c).values, {"kind": "constant", "value": c},
                {"kind": "all_zero"} if c == 0 else {"kind": "not_eigen"}))
    return out


def classify(rng: random.Random, write: Write, nproc: int) -> list[Op]:
    from eqpart.constructions import lifted_cycle_pair
    from eqpart.documents import partition_to_doc
    from eqpart.hamming import random_automorphism
    from eqpart.partitions import transform

    lifted = lifted_cycle_pair(4, (0, 1))
    parts = [("lift4", lifted)] + [
        (f"lift4-image{i}", transform(lifted, random_automorphism(lifted.params, rng)))
        for i in (1, 2)
    ]
    # Isomorphic inputs get the same tag, so every image must print what the
    # original prints.
    ops = [Op(f"classify-t5-{name}", ("classify-t5", write(name, partition_to_doc(p))),
              gate.expect_tag(4), seeded=False, digest_key="classify-t5-lift4")
           for name, p in parts]
    ops += [_enumerate_op(n, q, 2, "--reduced-only", "--up-to-iso", expected=REDUCED_UP_TO_ISO)
            for n, q in ((3, 3), (4, 2))]
    ops += [Op(f"sweep-ternary-h{n}{q}", ("sweep-ternary", "--n", str(n), "--q", str(q)),
               gate.expect_json(_census(n, q)), seeded=False)
            for n, q in ((2, 3), (3, 2))]
    not_member = {"member": False, "top_two_form": {"kind": "not_member"},
                  "lambda1_form": {"kind": "not_eigen"}}
    for t, (params, values, top_two, lambda1) in enumerate(_shapes(rng)):
        doc = {"format_version": 1, "n": params.n, "q": params.q, "values": list(values)}
        ops.append(Op(f"classify-fn-member{t}", ("classify-fn", write(f"fn{t}", doc)),
                      gate.expect_json({"member": True, "top_two_form": top_two,
                                        "lambda1_form": lambda1})))
        # Changing one value of a member leaves the span of the top two
        # eigenspaces for n >= 2, because a vertex indicator has a component
        # in every eigenspace.
        v = rng.randrange(params.vertex_count)
        doc["values"][v] = rng.choice([x for x in (-1, 0, 1) if x != values[v]])
        ops.append(Op(f"classify-fn-nonmember{t}", ("classify-fn", write(f"fn{t}-bad", doc)),
                      gate.expect_json(not_member)))
    return ops


PASSES = {"certify": certify, "enumerate": enumerate_, "classify": classify}
WORKLOADS = tuple(PASSES)


def build(workload: str, seed: int, directory: Path, nproc: int) -> list[Op]:
    """Write the seeded input documents and return one pass of operations."""

    def write(name: str, doc: dict) -> str:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return PASSES[workload](random.Random(f"{workload}:{seed}"), write, nproc)

"""Constructions of equitable 2-partitions with second eigenvalue
lambda_2(n, q).

Two building blocks:

* permutation switching: a balanced base partition of H(2, q) is extended
  by nonessential coordinates and each alphabet-block slice is switched by
  a coordinate transposition, preserving the quotient matrix;
* alphabet lifting: blowing every symbol of H(n, q') up to a block of m
  symbols maps equitable partitions to equitable partitions of H(n, mq')
  with the same eigenvalue index set.

Lifting a partition of H(4, 2) into two induced 8-cycles yields, for every
even q, an equitable 2-partition of H(4, q) with eigenvalue lambda_2 in
which every coordinate is essential.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .hamming import GraphParams, Record, digit_masks, digit_table, neighbors
from .partitions import (
    NotEquitable,
    QuotientMatrix,
    TwoPartition,
    equitable_check,
    pull,
    quotient_eigenvalue_indices,
)


class AlphabetBlocks(Record):
    """An ordered partition of the alphabet {0..q-1} into nonempty blocks."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("need at least one block")
        union: set[int] = set()
        total = 0
        for b in self.blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            union |= b
            total += len(b)
        if total != len(union):
            raise ValueError("blocks must be pairwise disjoint")
        if union != set(range(len(union))):
            raise ValueError("blocks must cover an alphabet {0..q-1} exactly")

    @property
    def q(self) -> int:
        return sum(len(b) for b in self.blocks)

    def block_of(self) -> dict[int, int]:
        out = {}
        for i, b in enumerate(self.blocks):
            for s in b:
                out[s] = i
        return out


class LiftBlocks(AlphabetBlocks):
    """Alphabet blocks of equal size m; block t lifts base symbol t."""

    def __post_init__(self) -> None:
        super().__post_init__()
        m = len(self.blocks[0])
        if any(len(b) != m for b in self.blocks):
            raise ValueError("lift blocks must all have the same size")

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])


def permutation_switching(blocks: AlphabetBlocks, base: TwoPartition) -> TwoPartition:
    """Switch an extended base partition of H(2, q) along alphabet blocks.

    With blocks (A_1, ..., A_{n-1}) of {0..q-1} and a base 2-partition
    (C, complement) of H(2, q), the base is extended by n-2 nonessential
    coordinates and the slice x_1 in A_i is switched by the transposition
    of coordinates 2 and i+1 (the A_1 slice stays put).  The result, built
    from fibers, holds x iff (x_1, x_(i+1)) lies in C, A_i the block of
    x_1; it is equitable with the same quotient matrix as the extension.

    The base must satisfy the two-sided balance condition: within every
    slice A_i x {0..q-1} all rows {a} x alphabet (a in A_i) and all block
    columns A_i x {b} meet C in the common fraction |C| / q^2 of their
    size.  Single-symbol blocks force that fraction to be 0 or 1, which no
    proper cell attains, so they are effectively rejected.  Violations
    raise ValueError; the output is re-verified before it is returned.
    """
    params = base.params
    if params.n != 2:
        raise ValueError("base must be a 2-partition of H(2, q)")
    q = params.q
    if blocks.q != q:
        raise ValueError("blocks must partition the alphabet of the base")
    size = base.size
    rows, columns = digit_masks(params)
    for i, block in enumerate(blocks.blocks, 1):
        for a in sorted(block):
            cnt = (base.cell & rows[a]).bit_count()
            if cnt * q != size:
                raise ValueError(
                    f"row {a} of block {i} meets the cell in ratio {Fraction(cnt, q)}, "
                    f"expected {Fraction(size, q * q)}"
                )
        block_rows = sum(rows[a] for a in block)
        for b in range(q):
            cnt = (base.cell & block_rows & columns[b]).bit_count()
            if cnt * q * q != size * len(block):
                raise ValueError(
                    f"column {b} of block {i} meets the cell in ratio "
                    f"{Fraction(cnt, len(block))}, expected {Fraction(size, q * q)}"
                )
    # balance puts size / q members in every row and column of the base,
    # so it is equitable; the n - 2 other coordinates add d to the diagonal
    n = len(blocks.blocks) + 1
    if n == 2:
        return base
    (s11, s12), (s21, s22) = equitable_check(base).rows
    d = (n - 2) * (q - 1)
    new_params = GraphParams(n, q)
    fibers = digit_masks(new_params)
    block_of = blocks.block_of()
    bits, cell = 0, base.cell
    while cell:
        v = cell.bit_length() - 1
        cell ^= 1 << v
        a, b = divmod(v, q)
        bits |= fibers[0][a] & fibers[block_of[a] + 1][b]
    switched = TwoPartition(new_params, bits)
    s_out = equitable_check(switched)
    if isinstance(s_out, NotEquitable) or s_out.rows != ((s11 + d, s12), (s21, s22 + d)):
        raise ValueError("switched partition lost equitability; base is not valid")
    return switched


def lift_two_partition(p: TwoPartition, blocks: LiftBlocks) -> TwoPartition:
    """Blow up each symbol t of H(n, q') to the block A_t inside H(n, mq').

    A lifted vertex lies in the cell iff its block word does.  The input
    must be equitable; the output is re-verified and its quotient matrix
    must equal m*S + n(m-1)*I, which preserves the eigenvalue index set.
    """
    params = p.params
    if len(blocks.blocks) != params.q:
        raise ValueError("need exactly one block per base symbol")
    s_base = equitable_check(p)
    if isinstance(s_base, NotEquitable):
        raise ValueError("input partition is not equitable")
    m = blocks.block_size
    n, q = params.n, params.q
    new_params = GraphParams(n, blocks.q)
    block_of = blocks.block_of()
    # the base vertex spelled by the blocks of a lifted vertex's symbols
    block_word = digit_table(
        new_params, [[block_of[x] * q ** (n - k) for x in range(blocks.q)] for k in range(1, n + 1)]
    )
    lifted = pull(p, new_params, block_word)
    s_out = equitable_check(lifted)
    (s11, s12), (s21, s22) = s_base.rows
    shift = n * (m - 1)
    expected = QuotientMatrix(((m * s11 + shift, m * s12), (m * s21, m * s22 + shift)))
    if s_out != expected:
        raise AssertionError("lifted partition has an unexpected quotient matrix")
    if quotient_eigenvalue_indices(s_out, new_params) != quotient_eigenvalue_indices(s_base, params):
        raise AssertionError("lifting changed the eigenvalue index set")
    return lifted


_EIGHT_CYCLE_TUPLES = (
    (0, 0, 0, 1),
    (0, 0, 1, 1),
    (0, 0, 1, 0),
    (0, 1, 1, 0),
    (1, 1, 1, 0),
    (1, 1, 0, 0),
    (1, 1, 0, 1),
    (1, 0, 0, 1),
)


def eight_cycle_partition() -> TwoPartition:
    """The 2-partition of H(4, 2) whose cells are both induced 8-cycles.

    Its quotient matrix is [[2, 2], [2, 2]], its second eigenvalue is
    lambda_2(4, 2) = 0, and every coordinate is essential.
    """
    params = GraphParams(4, 2)
    return TwoPartition.from_tuples(params, _EIGHT_CYCLE_TUPLES)


def is_induced_cycle(params: GraphParams, code: Iterable[int]) -> Optional[int]:
    """Length of the cycle induced by the vertex set, or None.

    The induced subgraph must be connected and 2-regular; sets of fewer
    than 3 vertices never qualify.
    """
    vs = set(code)
    if any(not 0 <= v < params.vertex_count for v in vs):
        raise ValueError("code contains out-of-range vertices")
    if len(vs) < 3:
        return None
    # the members' neighbors alone: a table of the whole graph costs q^n rows
    nbrs = {v: [w for _, w in neighbors(params, v) if w in vs] for v in vs}
    if any(len(ws) != 2 for ws in nbrs.values()):
        return None
    seen, stack = set(), [min(vs)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack += nbrs[v]
    return len(vs) if seen == vs else None


def lifted_cycle_pair(
    q: int, split: Iterable[int], cycle_pair: TwoPartition | None = None
) -> TwoPartition:
    """Alphabet-lift an induced-8-cycle pair of H(4, 2) up to H(4, q).

    q must be even; split is the set of symbols lifting 0 and must have
    size exactly q/2.  The default cycle pair is eight_cycle_partition().
    The output is an equitable 2-partition of H(4, q) with second
    eigenvalue lambda_2(4, q) = 2q - 4.
    """
    if q < 2 or q % 2:
        raise ValueError("alphabet size q must be even and >= 2")
    split = frozenset(split)
    if any(not 0 <= s < q for s in split):
        raise ValueError("split contains symbols outside the alphabet")
    if len(split) != q // 2:
        raise ValueError(f"split must have size q/2 = {q // 2}, got {len(split)}")
    if cycle_pair is None:
        cycle_pair = eight_cycle_partition()
    cp_params = cycle_pair.params
    if (cp_params.n, cp_params.q) != (4, 2):
        raise ValueError("cycle pair must be a partition of H(4, 2)")
    if is_induced_cycle(cp_params, cycle_pair.vertices()) != 8:
        raise ValueError("cell of the cycle pair is not an induced 8-cycle")
    if is_induced_cycle(cp_params, cycle_pair.complement().vertices()) != 8:
        raise ValueError("complement of the cycle pair is not an induced 8-cycle")
    # Both cells are 2-regular, so the quotient is [[2, 2], [2, 2]], and
    # lift_two_partition asserts the lifted one: lambda = 2q - 4.
    return lift_two_partition(cycle_pair, LiftBlocks((split, frozenset(range(q)) - split)))

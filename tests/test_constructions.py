"""Permutation switching, alphabet lifting, cycle pairs."""

import itertools
from fractions import Fraction

import pytest

from eqpart.constructions import (
    AlphabetBlocks,
    LiftBlocks,
    eight_cycle_partition,
    is_induced_cycle,
    lift_two_partition,
    lifted_cycle_pair,
    permutation_switching,
)
from eqpart.hamming import GraphParams, eigenvalue
from eqpart.partitions import (
    NotEquitable,
    QuotientMatrix,
    TwoPartition,
    equitable_check,
    essential_coordinates,
    extend,
    quotient_eigenvalue_indices,
)
from eqpart.search import EnumConstraints, backtracking_enumerate
from oracles import decode_vertex


def parity_base(q):
    return TwoPartition.from_tuples(
        GraphParams(2, q),
        [(a, b) for a in range(q) for b in range(q) if (a + b) % 2 == 0],
    )


def test_alphabet_blocks_validation():
    with pytest.raises(ValueError):
        AlphabetBlocks(())
    with pytest.raises(ValueError):
        AlphabetBlocks((frozenset(), frozenset({0})))
    with pytest.raises(ValueError):
        AlphabetBlocks((frozenset({0, 1}), frozenset({1, 2})))
    with pytest.raises(ValueError):
        AlphabetBlocks((frozenset({0}), frozenset({2})))  # gap at 1
    b = AlphabetBlocks((frozenset({0, 2}), frozenset({1, 3})))
    assert b.q == 4
    assert b.block_of() == {0: 0, 2: 0, 1: 1, 3: 1}


def test_lift_blocks_validation():
    with pytest.raises(ValueError):
        LiftBlocks((frozenset({0}), frozenset({1, 2})))
    b = LiftBlocks((frozenset({0, 1}), frozenset({2, 3})))
    assert b.block_size == 2


def test_permutation_switching_worked_example():
    base = parity_base(4)
    assert equitable_check(base) == QuotientMatrix(((2, 4), (4, 2)))
    blocks = AlphabetBlocks((frozenset({0, 1}), frozenset({2, 3})))
    out = permutation_switching(blocks, base)
    assert out.params == GraphParams(3, 4)
    s = equitable_check(out)
    assert s == QuotientMatrix(((5, 4), (4, 5)))
    assert s.rows[0][0] - s.rows[1][0] == eigenvalue(GraphParams(3, 4), 2)
    assert essential_coordinates(out) == frozenset({1, 2, 3})
    # same quotient as the unswitched extension
    assert equitable_check(extend(base, 1)) == s


def test_permutation_switching_differs_from_extension():
    base = parity_base(4)
    blocks = AlphabetBlocks((frozenset({0, 1}), frozenset({2, 3})))
    out = permutation_switching(blocks, base)
    ext = extend(base, 1)
    assert out.cell != ext.cell
    # the extension is not reduced, the switched partition is
    assert essential_coordinates(ext) == frozenset({1, 2})


def test_permutation_switching_single_block_returns_base():
    base = parity_base(2)
    out = permutation_switching(AlphabetBlocks((frozenset({0, 1}),)), base)
    assert out == base


def test_permutation_switching_rejects_imbalanced_base():
    # column {0} x {0} lies inside the cell, ratio 1 instead of 1/2
    base = TwoPartition.from_tuples(GraphParams(2, 2), [(0, 0), (1, 0)])
    blocks = AlphabetBlocks((frozenset({0}), frozenset({1})))
    with pytest.raises(ValueError, match="column 0 of block 1"):
        permutation_switching(blocks, base)


def test_permutation_switching_rejects_imbalanced_row():
    base = TwoPartition.from_tuples(
        GraphParams(2, 4),
        [(0, b) for b in range(4)] + [(1, 0), (2, 0), (3, 0), (1, 1)],
    )
    blocks = AlphabetBlocks((frozenset({0, 1}), frozenset({2, 3})))
    with pytest.raises(ValueError, match="row 0 of block 1"):
        permutation_switching(blocks, base)


def test_permutation_switching_wrong_base():
    base = TwoPartition.from_vertices(GraphParams(3, 2), [0, 7])
    with pytest.raises(ValueError, match="H\\(2, q\\)"):
        permutation_switching(AlphabetBlocks((frozenset({0, 1}),)), base)
    base2 = parity_base(2)
    with pytest.raises(ValueError, match="partition the alphabet"):
        permutation_switching(AlphabetBlocks((frozenset({0, 1, 2}),)), base2)


def _switching_oracle(blocks, base):
    """permutation_switching one vertex at a time: the cell, or the message
    of the first row or block column off the ratio |C| / q^2.  Vertex x of
    H(n, q) lies in the switched cell iff (x_1, x_2) lies in C when x_1 is
    in A_1, and (x_1, x_{i+1}) when x_1 is in A_i, i >= 2."""
    q = base.params.q
    rho = Fraction(base.size, q * q)
    for i, block in enumerate(blocks.blocks, 1):
        for a in sorted(block):
            cnt = sum(1 for b in range(q) if base.contains(a * q + b))
            if Fraction(cnt, q) != rho:
                return (f"row {a} of block {i} meets the cell in ratio {Fraction(cnt, q)}, "
                        f"expected {rho}")
        for b in range(q):
            cnt = sum(1 for a in block if base.contains(a * q + b))
            if Fraction(cnt, len(block)) != rho:
                return (f"column {b} of block {i} meets the cell in ratio "
                        f"{Fraction(cnt, len(block))}, expected {rho}")
    params = GraphParams(len(blocks.blocks) + 1, q)
    block_of = blocks.block_of()
    cell = 0
    for v in range(params.vertex_count):
        digits = decode_vertex(params, v)
        i = block_of[digits[0]]
        partner = 1 if i == 0 else i + 1  # 0-based tuple position of coordinate 2 or i+2
        if base.contains(digits[0] * q + digits[partner]):
            cell |= 1 << v
    return cell


def _ordered_alphabet_blocks(q, parts):
    """Ordered partitions of {0..q-1} into the given number of nonempty
    blocks, in lexicographic order of the assignment vector."""
    for assignment in itertools.product(range(parts), repeat=q):
        if set(assignment) == set(range(parts)):
            yield AlphabetBlocks(tuple(
                frozenset(s for s in range(q) if assignment[s] == i) for i in range(parts)
            ))


def test_permutation_switching_matches_vertex_oracle():
    """Every lambda_2 base of H(2, 4) and H(2, 5) under every alphabet split
    of H(2, 4), and every split of H(2, 5) into blocks of two or more
    symbols: a single-symbol block meets each column in ratio 0 or 1, so
    it refuses every proper cell at its first column.  Only H(2, 4) bases
    switch along two or more blocks: with |C| / 25 never 1/2, a block of
    two symbols refuses every base of H(2, 5)."""
    switched = 0
    for q in (4, 5):
        h2q = GraphParams(2, q)
        bases = [TwoPartition(h2q, cell)
                 for cell in backtracking_enumerate(h2q, EnumConstraints(eigenvalue_index=2))]
        for parts in range(1, q + 1):
            for blocks in _ordered_alphabet_blocks(q, parts):
                if q == 5 and min(map(len, blocks.blocks)) < 2:
                    continue
                for base in bases:
                    try:
                        got = permutation_switching(blocks, base).cell
                        switched += parts > 1
                    except ValueError as e:
                        got = str(e)
                    assert got == _switching_oracle(blocks, base), (blocks, base.cell)
    assert switched == 216


def test_alphabet_lift_quotient_law():
    """Lifted quotient must be m*S + n(m-1)*I with the index set kept."""
    pair = TwoPartition.from_tuples(GraphParams(3, 2), [(0, 0, 0), (1, 1, 1)])
    for m in (2, 3):
        blocks = LiftBlocks((
            frozenset(range(m)),
            frozenset(range(m, 2 * m)),
        ))
        lifted = lift_two_partition(pair, blocks)
        s = equitable_check(lifted)
        base_s = equitable_check(pair)
        expected = QuotientMatrix(tuple(
            tuple(m * base_s.rows[i][j] + (3 * (m - 1) if i == j else 0) for j in range(2))
            for i in range(2)
        ))
        assert s == expected
        assert quotient_eigenvalue_indices(s, lifted.params) == {0: 1, 2: 1}


def test_alphabet_lift_perfect_code():
    pair = TwoPartition.from_tuples(GraphParams(3, 2), [(0, 0, 0), (1, 1, 1)])
    blocks = LiftBlocks((frozenset({0, 1}), frozenset({2, 3})))
    lifted = lift_two_partition(pair, blocks)
    assert equitable_check(lifted) == QuotientMatrix(((3, 6), (2, 7)))
    assert lifted.size == 2 * 2 ** 3


def test_alphabet_lift_interleaved_blocks():
    pair = TwoPartition.from_tuples(GraphParams(2, 2), [(0, 1), (1, 0)])
    blocks = LiftBlocks((frozenset({0, 3}), frozenset({1, 2})))
    lifted = lift_two_partition(pair, blocks)
    s = equitable_check(lifted)
    assert isinstance(s, QuotientMatrix)
    assert lifted.contains(0 * 4 + 1)  # (0,1): blocks (0,1) lie in the cell
    assert lifted.contains(3 * 4 + 2)  # (3,2): blocks (0,1) as well
    assert not lifted.contains(0 * 4 + 3)


def test_alphabet_lift_validation():
    pair = TwoPartition.from_tuples(GraphParams(3, 2), [(0, 0, 0), (1, 1, 1)])
    with pytest.raises(ValueError, match="one block per base symbol"):
        lift_two_partition(pair, LiftBlocks((frozenset({0}), frozenset({1}), frozenset({2}))))
    lopsided = TwoPartition.from_vertices(GraphParams(3, 2), [0])
    with pytest.raises(ValueError, match="not equitable"):
        lift_two_partition(lopsided, LiftBlocks((frozenset({0, 1}), frozenset({2, 3}))))


def test_eight_cycle_partition():
    p = eight_cycle_partition()
    assert p.cell == 0b0111_0010_0100_1110
    assert equitable_check(p) == QuotientMatrix(((2, 2), (2, 2)))
    assert essential_coordinates(p) == frozenset({1, 2, 3, 4})
    assert is_induced_cycle(p.params, p.vertices()) == 8
    assert is_induced_cycle(p.params, p.complement().vertices()) == 8


def test_is_induced_cycle():
    h22 = GraphParams(2, 2)
    assert is_induced_cycle(h22, [0, 1, 2, 3]) == 4  # the whole 4-cycle
    assert is_induced_cycle(h22, [0, 1]) is None
    assert is_induced_cycle(h22, [0, 1, 2]) is None  # a path, not 2-regular
    h42 = GraphParams(4, 2)
    assert is_induced_cycle(h42, eight_cycle_partition().vertices()) == 8
    # two disjoint 4-cycles: 2-regular but disconnected
    two = [0, 1, 3, 2, 12, 13, 15, 14]
    assert is_induced_cycle(h42, two) is None
    with pytest.raises(ValueError):
        is_induced_cycle(h22, [4])


def test_lifted_cycle_pair_smallest():
    p = lifted_cycle_pair(2, [0])
    assert p == eight_cycle_partition()


def test_lifted_cycle_pair_q4():
    p = lifted_cycle_pair(4, (0, 1))
    assert p.params == GraphParams(4, 4)
    s = equitable_check(p)
    assert s == QuotientMatrix(((8, 4), (4, 8)))
    assert s.rows[0][0] - s.rows[1][0] == eigenvalue(GraphParams(4, 4), 2) == 4
    assert p.size == 128
    assert essential_coordinates(p) == frozenset({1, 2, 3, 4})
    # agrees with lifting the cycle pair directly
    direct = lift_two_partition(
        eight_cycle_partition(),
        LiftBlocks((frozenset({0, 1}), frozenset({2, 3}))),
    )
    assert p == direct


def test_lifted_cycle_pair_q6():
    p = lifted_cycle_pair(6, (0, 2, 4))
    s = equitable_check(p)
    assert s == QuotientMatrix(((14, 6), (6, 14)))
    assert s.rows[0][0] - s.rows[1][0] == 2 * 6 - 4


def test_lifted_cycle_pair_validation():
    with pytest.raises(ValueError, match="even"):
        lifted_cycle_pair(3, [0])
    with pytest.raises(ValueError, match="size q/2"):
        lifted_cycle_pair(4, [0])
    with pytest.raises(ValueError, match="outside the alphabet"):
        lifted_cycle_pair(4, [0, 4])
    not_cycle = TwoPartition.from_vertices(GraphParams(4, 2), list(range(8)))
    with pytest.raises(ValueError, match="induced 8-cycle"):
        lifted_cycle_pair(4, (0, 1), not_cycle)
    wrong_graph = TwoPartition.from_vertices(GraphParams(3, 2), [0, 7])
    with pytest.raises(ValueError, match="H\\(4, 2\\)"):
        lifted_cycle_pair(4, (0, 1), wrong_graph)

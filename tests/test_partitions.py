"""Equitability certificates, quotient spectra, and partition surgery."""

import random
from fractions import Fraction

import pytest

from eqpart.constructions import eight_cycle_partition
from eqpart.hamming import GraphParams, eigenvalue, neighbor_table, random_automorphism
from eqpart.partitions import (
    FiberMismatch,
    NotEquitable,
    QuotientMatrix,
    TwoPartition,
    equitable_check,
    essential_coordinates,
    extend,
    orthogonal_array_check,
    predicted_cell_size,
    quotient_eigenvalue_indices,
    quotient_eigenvalues,
    reduce,
    spectral_check,
    transform,
)
from eqpart.search import _fast_two_quotient

H22 = GraphParams(2, 2)
H32 = GraphParams(3, 2)

# antipodal pair partition of the 3-cube
PAIR = TwoPartition.from_tuples(H32, [(0, 0, 0), (1, 1, 1)])


def test_quotient_matrix_validation():
    with pytest.raises(ValueError):
        QuotientMatrix(((1, 2),))
    with pytest.raises(ValueError):
        QuotientMatrix(((1, -1), (0, 1)))
    s = QuotientMatrix(((2, 2), (2, 2)))
    assert s.r == 2 and s.row_sums() == (4, 4)


def test_two_partition_validation():
    with pytest.raises(ValueError):
        TwoPartition(H22, 0)
    with pytest.raises(ValueError):
        TwoPartition(H22, 0b1111)
    with pytest.raises(ValueError):
        TwoPartition(H22, 1 << 4)
    with pytest.raises(ValueError):
        TwoPartition.from_vertices(H22, [4])
    p = TwoPartition.from_vertices(H22, [1, 2])
    assert p.cell == 6 and p.size == 2
    assert p.vertices() == [1, 2]
    assert p.complement().vertices() == [0, 3]
    assert p.indicator() == bytes((0, 1, 1, 0))


def test_equitable_check_pass():
    s = equitable_check(eight_cycle_partition())
    assert s == QuotientMatrix(((2, 2), (2, 2)))
    assert equitable_check(PAIR) == QuotientMatrix(((0, 3), (1, 2)))


def test_equitable_check_witness():
    p = TwoPartition.from_vertices(H22, [0])
    w = equitable_check(p)
    assert isinstance(w, NotEquitable)
    # complement vertices 1 and 3 see 1 and 0 neighbors in the cell
    assert w.cell == 1
    assert w.vertices == (1, 3)
    assert w.target_cell == 0
    assert w.counts == (1, 0)


def test_quotient_eigenvalues():
    s = QuotientMatrix(((0, 3), (1, 2)))
    assert quotient_eigenvalues(s, H32) == (3, -1)
    with pytest.raises(ValueError):
        quotient_eigenvalues(s, H22)  # row sums do not match the degree
    with pytest.raises(ValueError):
        quotient_eigenvalues(QuotientMatrix(((1,),)), H32)


def test_quotient_eigenvalue_indices():
    assert quotient_eigenvalue_indices(QuotientMatrix(((0, 3), (1, 2))), H32) == {0: 1, 2: 1}
    assert quotient_eigenvalue_indices(
        QuotientMatrix(((2, 2), (2, 2))), GraphParams(4, 2)
    ) == {0: 1, 2: 1}
    assert quotient_eigenvalue_indices(QuotientMatrix(((0, 3), (3, 0))), H32) == {0: 1, 3: 1}
    # S11 - S21 equal to the degree gives the degree eigenvalue twice
    assert quotient_eigenvalue_indices(QuotientMatrix(((3, 0), (0, 3))), H32) == {0: 2}
    with pytest.raises(ValueError):
        # eigenvalue 1 is not in the spectrum {2, 0, -2} of H(2,2)
        quotient_eigenvalue_indices(QuotientMatrix(((1, 1), (0, 2))), H22)
    with pytest.raises(ValueError):
        # row sums (2, 3) differ from the degree 3
        quotient_eigenvalue_indices(QuotientMatrix(((0, 2), (1, 2))), H32)


def test_predicted_cell_size():
    assert predicted_cell_size(QuotientMatrix(((0, 3), (1, 2))), H32) == 2
    assert predicted_cell_size(QuotientMatrix(((2, 2), (2, 2))), GraphParams(4, 2)) == 8
    assert predicted_cell_size(QuotientMatrix(((1, 2), (1, 2))), H32) == Fraction(8, 3)


def test_size_formula_on_all_equitable_cells():
    for params in (H22, H32, GraphParams(2, 3)):
        for cell in range(1, (1 << params.vertex_count) - 1):
            p = TwoPartition(params, cell)
            s = equitable_check(p)
            if isinstance(s, QuotientMatrix):
                assert p.size == predicted_cell_size(s, params)


def test_orthogonal_array_check():
    p = eight_cycle_partition()
    s = equitable_check(p)
    assert orthogonal_array_check(p, s) is None  # every fiber has size 4
    with pytest.raises(ValueError):
        orthogonal_array_check(PAIR, QuotientMatrix(((2, 1), (1, 2))))  # eigenvalue index 1
    # unbalanced cell paired with a claimed second-eigenvalue quotient
    bad = TwoPartition.from_vertices(H22, [0, 1])
    m = orthogonal_array_check(bad, QuotientMatrix(((0, 2), (2, 0))))
    assert m == FiberMismatch(coordinate=1, symbol=0, count=2, expected=Fraction(1))


def test_essential_coordinates():
    assert essential_coordinates(eight_cycle_partition()) == frozenset({1, 2, 3, 4})
    assert essential_coordinates(PAIR) == frozenset({1, 2, 3})
    assert essential_coordinates(extend(PAIR, 2)) == frozenset({1, 2, 3})


def test_extend_reduce_round_trip():
    for d in (1, 2):
        ext = extend(PAIR, d)
        assert ext.params.n == 3 + d
        s = equitable_check(ext)
        # diagonal shift by d(q-1), eigenvalue index preserved
        assert s == QuotientMatrix(((0 + d, 3), (1, 2 + d)))
        assert quotient_eigenvalue_indices(s, ext.params) == {0: 1, 2: 1}
        back, removed = reduce(ext)
        assert removed == tuple(range(3 + d, 3, -1))
        assert back == PAIR
    assert reduce(PAIR) == (PAIR, ())
    assert extend(PAIR, 0) == PAIR
    with pytest.raises(ValueError):
        extend(PAIR, -1)


def test_reduce_middle_coordinate():
    # cell ignores coordinate 2 of H(3,2)
    p = TwoPartition.from_tuples(H32, [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)])
    reduced, removed = reduce(p)
    assert removed == (2,)
    assert reduced == TwoPartition.from_tuples(H22, [(0, 0), (1, 1)])


def test_spectral_check_matches_equitable_check():
    """The equitability routes must agree on every cell of small graphs:
    equitable_check, the brute-force counter and spectral_check at every
    eigenvalue, with the cell read through indicator() as through contains()."""
    for params in (H22, H32, GraphParams(2, 3), GraphParams(2, 4)):
        nbrs = neighbor_table(params)
        spectrum = [eigenvalue(params, i) for i in range(params.n + 1)]
        for cell in range(1, (1 << params.vertex_count) - 1):
            p = TwoPartition(params, cell)
            inside = p.indicator()
            assert len(inside) == params.vertex_count
            assert all(inside[v] == p.contains(v) for v in range(params.vertex_count))
            s = equitable_check(p)
            brute = _fast_two_quotient(nbrs, cell, params.vertex_count)
            if isinstance(s, QuotientMatrix):
                assert brute == (*s.rows[0], *s.rows[1])
                lam = s.rows[0][0] - s.rows[1][0]
                assert spectral_check(p, lam) is None
                for other in spectrum:
                    if other != lam:
                        assert spectral_check(p, other) is not None
            else:
                assert brute is None
                u, v = s.vertices
                assert p.contains(u) == p.contains(v) == (s.cell == 0)
                assert s.counts == tuple(sum(map(p.contains, nbrs[x])) for x in (u, v))
                for lam in spectrum:
                    assert spectral_check(p, lam) is not None


def test_spectral_check_witness_order():
    p = TwoPartition.from_vertices(H22, [0])
    assert spectral_check(p, 0) == (0, 1)


def test_transform_preserves_quotient():
    rng = random.Random(5)
    for p in (eight_cycle_partition(), PAIR):
        s = equitable_check(p)
        for _ in range(25):
            g = random_automorphism(p.params, rng)
            image = transform(p, g)
            assert image.size == p.size
            assert equitable_check(image) == s

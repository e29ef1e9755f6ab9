"""Equitability certificates, quotient spectra, and partition surgery."""

import random
from fractions import Fraction

import pytest

from eqpart.constructions import eight_cycle_partition, lifted_cycle_pair
from eqpart.hamming import (
    GraphParams,
    digit_masks,
    eigenvalue,
    neighbor_table,
    neighbors,
    random_automorphism,
)
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
from eqpart.search import EnumConstraints, _fast_two_quotient, backtracking_enumerate
from oracles import apply_automorphism, decode_vertex, essential_coordinates_of_values

H22 = GraphParams(2, 2)
H32 = GraphParams(3, 2)

# antipodal pair partition of the 3-cube
PAIR = TwoPartition.from_tuples(H32, [(0, 0, 0), (1, 1, 1)])


def test_quotient_matrix_validation():
    with pytest.raises(ValueError, match="2x2"):
        QuotientMatrix(((1, 2),))
    with pytest.raises(ValueError, match="2x2"):
        QuotientMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        QuotientMatrix(((1, -1), (0, 1)))
    s = QuotientMatrix(((2, 2), (2, 2)))
    assert len(s.rows) == 2 and s.row_sums() == (4, 4)


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
    assert TwoPartition.from_indicator(H22, (0, 1, 1, 0)) == p
    with pytest.raises(ValueError):
        TwoPartition.from_indicator(H22, (0, 1, 1))
    with pytest.raises(ValueError):
        TwoPartition.from_indicator(H22, (0, 2, 1, 0))


def test_from_indicator_inverts_indicator():
    rng = random.Random(4)
    for params in (H22, H32, GraphParams(2, 3), GraphParams(3, 4), GraphParams(9, 2)):
        for _ in range(20):
            p = TwoPartition(params, rng.randrange(1, (1 << params.vertex_count) - 1))
            assert TwoPartition.from_indicator(p.params, p.indicator()) == p


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
    # the bitset route against the slice comparison on the 0/1 indicator
    rng = random.Random(9)
    for params in (H22, H32, GraphParams(2, 3), GraphParams(1, 5), GraphParams(3, 4),
                   GraphParams(6, 2)):
        cells = range(1, (1 << params.vertex_count) - 1)
        if params.vertex_count > 9:
            # random cells, and extensions, whose last coordinate is not essential
            small = GraphParams(params.n - 1, params.q)
            cells = [rng.randrange(1, (1 << params.vertex_count) - 1) for _ in range(300)] + [
                extend(TwoPartition(small, rng.randrange(1, (1 << small.vertex_count) - 1)), 1).cell
                for _ in range(50)
            ]
        for cell in cells:
            p = TwoPartition(params, cell)
            assert essential_coordinates(p) == essential_coordinates_of_values(params, p.indicator())


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


def test_reduce_inverts_extend():
    """reduce(extend(p, d)) deletes the d appended coordinates, and then
    those p itself does not depend on."""
    rng = random.Random(6)
    for params in (H22, H32, GraphParams(2, 3), GraphParams(1, 4), GraphParams(3, 3)):
        for _ in range(15):
            p = TwoPartition(params, rng.randrange(1, (1 << params.vertex_count) - 1))
            base, removed = reduce(p)
            for d in (1, 2):
                n = params.n
                assert reduce(extend(p, d)) == (base, tuple(range(n + d, n, -1)) + removed)
                if not removed:
                    assert reduce(extend(p, d)) == (p, tuple(range(n + d, n, -1)))


def test_reduce_middle_coordinate():
    # cell ignores coordinate 2 of H(3,2)
    p = TwoPartition.from_tuples(H32, [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)])
    reduced, removed = reduce(p)
    assert removed == (2,)
    assert reduced == TwoPartition.from_tuples(H22, [(0, 0), (1, 1)])


def _recount_check(p, counts):
    """equitable_check the slow way: vertices in index order, each count
    against that of the lowest vertex of its cell."""
    ref, first = [None, None], [0, 0]
    for v, count in enumerate(counts):
        c = 0 if p.contains(v) else 1
        if ref[c] is None:
            ref[c], first[c] = count, v
        elif count != ref[c]:
            # built positionally, which skips Record._bind
            return NotEquitable(c, (first[c], v), 0, (ref[c], count))
    return QuotientMatrix(tuple((k, p.params.degree - k) for k in ref))


def _recount_spectral(inside, counts, lam):
    """spectral_check the slow way: the residual count - lam * inside at
    each vertex, and the first vertex where it differs from vertex 0."""
    res = [c - lam * b for c, b in zip(counts, inside)]
    return next(((0, v) for v, r in enumerate(res) if r != res[0]), None)


def test_spectral_check_matches_equitable_check():
    """The equitability routes must agree on every cell of small graphs:
    equitable_check against a vertex-by-vertex recount and the brute-force
    counter, spectral_check against a recounted residual, with the cell
    read through indicator() as through contains().  spectral_check runs
    at every lambda in [-degree, degree] where there are few cells, and at
    the eigenvalues on H(2,4) and H(4,2)."""
    for params in (GraphParams(1, 5), H22, H32, GraphParams(2, 3), GraphParams(2, 4),
                   GraphParams(4, 2)):
        nbrs = neighbor_table(params)
        masks = [sum(1 << w for w in ws) for ws in nbrs]
        if params.vertex_count < 16:
            lams = range(-params.degree, params.degree + 1)
        else:
            lams = [eigenvalue(params, i) for i in range(params.n + 1)]
        for cell in range(1, (1 << params.vertex_count) - 1):
            p = TwoPartition(params, cell)
            inside = p.indicator()
            assert inside == bytes(map(p.contains, range(params.vertex_count)))
            counts = [sum(map(inside.__getitem__, ws)) for ws in nbrs]
            s = equitable_check(p)
            assert s == _recount_check(p, counts)
            brute = _fast_two_quotient(masks, cell, params.degree)
            if isinstance(s, QuotientMatrix):
                assert brute == (*s.rows[0], *s.rows[1])
            else:
                assert brute is None
            for lam in lams:
                witness = spectral_check(p, lam)
                assert witness == _recount_spectral(inside, counts, lam)
                assert (witness is None) == (
                    isinstance(s, QuotientMatrix) and lam == s.rows[0][0] - s.rows[1][0]
                )


def _kernel_inputs():
    """Equitable partitions up to H(16, 2), each with a one-bit-flipped
    copy, paired with the equitable one's quotient matrix."""
    rng = random.Random(3)
    pair = eight_cycle_partition()
    bases = [PAIR, extend(PAIR, 3), pair, extend(pair, 4), extend(pair, 12),
             lifted_cycle_pair(4, (1, 2)), lifted_cycle_pair(6, (0, 2, 5)),
             TwoPartition.from_vertices(GraphParams(1, 5), [3])]
    h33 = GraphParams(3, 3)
    cells = backtracking_enumerate(h33, EnumConstraints(eigenvalue_index=1))
    bases += [TwoPartition(h33, cell) for cell in rng.sample(cells, 3)]
    bases += [transform(p, random_automorphism(p.params, rng))
              for p in (extend(PAIR, 3), extend(pair, 4), extend(pair, 8), *bases[5:7])]
    for p in bases:
        s = equitable_check(p)
        yield p, s
        flipped = p.cell ^ (1 << rng.randrange(p.params.vertex_count))
        if 0 < flipped < (1 << p.params.vertex_count) - 1:
            yield TwoPartition(p.params, flipped), s


def test_bitset_kernel_matches_vertex_recount():
    """Quotient or witness, essential coordinates and fiber counts of the
    bitset kernel against recounts one vertex at a time."""
    checked = 0
    for p, s in _kernel_inputs():
        params = p.params
        inside = p.indicator()
        counts = [sum(inside[w] for _, w in neighbors(params, v)) for v in range(params.vertex_count)]
        assert equitable_check(p) == _recount_check(p, counts)
        for i in range(params.n + 1):
            lam = eigenvalue(params, i)
            assert spectral_check(p, lam) == _recount_spectral(inside, counts, lam)
        assert essential_coordinates(p) == essential_coordinates_of_values(params, inside)
        if params.n < 2 or s.rows[0][0] - s.rows[1][0] != eigenvalue(params, 2):
            continue
        # the first fiber off the size that the lambda_2 quotient s fixes
        fibers = [[0] * params.q for _ in range(params.n)]
        for v in p.vertices():
            for k, x in enumerate(decode_vertex(params, v)):
                fibers[k][x] += 1
        expected = Fraction(s.rows[1][0] * params.q ** (params.n - 2), 2)
        off = [FiberMismatch(k + 1, a, fibers[k][a], expected)
               for k in range(params.n) for a in range(params.q) if fibers[k][a] != expected]
        assert orthogonal_array_check(p, s) == (off[0] if off else None)
        checked += 1
    assert checked == 24


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
    # the image cell, rebuilt one vertex at a time, on random cells
    for params in (GraphParams(3, 3), GraphParams(4, 2), GraphParams(2, 4)):
        for _ in range(25):
            p = TwoPartition(params, rng.randrange(1, (1 << params.vertex_count) - 1))
            g = random_automorphism(params, rng)
            rebuilt = sum(1 << apply_automorphism(params, g, v) for v in p.vertices())
            assert transform(p, g).cell == rebuilt


def test_square_grid_balance_is_lambda_2():
    """H(2, q) is the rook's graph K_q x K_q: a cell is equitable with
    eigenvalue lambda_2 = -2 iff every fiber, a row or a column, meets it
    in |C| / q vertices."""
    for q in (2, 3, 4):
        params = GraphParams(2, q)
        fibers = [f for by_symbol in digit_masks(params) for f in by_symbol]
        for cell in range(1, (1 << params.vertex_count) - 1):
            size = cell.bit_count()
            balanced = all((cell & f).bit_count() * q == size for f in fibers)
            s = equitable_check(TwoPartition(params, cell))
            lam_2 = isinstance(s, QuotientMatrix) and s.rows[0][0] - s.rows[1][0] == -2
            assert balanced == lam_2

"""Eigenfunction arithmetic, restriction identities, and ternary shapes."""

import itertools

import pytest

from eqpart.eigenfunctions import (
    AllZero,
    Constant,
    NotEigen,
    NotMember,
    QuasiCross,
    QuasiString,
    VertexFunction,
    classify_lambda1,
    classify_top_two,
    constant_function,
    in_top_two_eigenspaces,
    is_eigenfunction,
    partition_eigenfunction,
    quasi_cross,
    quasi_string,
    restrict,
    restriction_difference,
)
from eqpart.hamming import GraphParams, eigenvalue, neighbor_table
from eqpart.partitions import QuotientMatrix, TwoPartition, equitable_check
from eqpart.constructions import eight_cycle_partition

H22 = GraphParams(2, 2)
H32 = GraphParams(3, 2)
H23 = GraphParams(2, 3)


def test_vertex_function_validation():
    with pytest.raises(ValueError):
        VertexFunction(H22, (1, 0, 0))
    with pytest.raises(ValueError):
        VertexFunction(H22, (1 << 21, 0, 0, 0))
    f = VertexFunction(H22, (1, 0, -1, 0))
    assert f.is_ternary() and not f.is_zero()
    assert not VertexFunction(H22, (2, 0, 0, 0)).is_ternary()
    assert VertexFunction(H22, (0, 0, 0, 0)).is_zero()


def test_is_eigenfunction():
    # parity of the bit string is a lambda_n eigenfunction of H(n, 2)
    parity = VertexFunction(H32, tuple((-1) ** bin(v).count("1") for v in range(8)))
    assert is_eigenfunction(parity, eigenvalue(H32, 3))
    assert not is_eigenfunction(parity, eigenvalue(H32, 1))
    zero = constant_function(H32, 0)
    assert all(is_eigenfunction(zero, eigenvalue(H32, i)) for i in range(4))
    one = constant_function(H32, 1)
    assert is_eigenfunction(one, 3) and not is_eigenfunction(one, 1)


def test_restrict_index_math():
    f = VertexFunction(H32, tuple(range(8)))
    assert restrict(f, 1, 0).values == (0, 1, 2, 3)
    assert restrict(f, 1, 1).values == (4, 5, 6, 7)
    assert restrict(f, 2, 1).values == (2, 3, 6, 7)
    assert restrict(f, 3, 0).values == (0, 2, 4, 6)
    with pytest.raises(ValueError):
        restrict(f, 4, 0)
    with pytest.raises(ValueError):
        restrict(f, 1, 2)
    g = VertexFunction(GraphParams(1, 2), (7, 9))
    with pytest.raises(ValueError):
        restrict(g, 1, 0)  # nothing left after deleting the only coordinate


def test_restriction_difference_shifts_the_eigenvalue_index():
    """Differences of restrictions of a lambda_i eigenfunction are
    lambda_(i-1) eigenfunctions of the smaller graph."""
    for params, i, cell in (
        (H32, 2, [0, 7]),
        (GraphParams(4, 2), 2, None),
        (H23, 2, [0, 4, 8]),
    ):
        if cell is None:
            p = eight_cycle_partition()
        else:
            p = TwoPartition.from_vertices(params, cell)
        s = equitable_check(p)
        assert isinstance(s, QuotientMatrix)
        f = partition_eigenfunction(p, s)
        assert is_eigenfunction(f, eigenvalue(params, i))
        small = GraphParams(params.n - 1, params.q)
        lam_prev = eigenvalue(small, i - 1)
        for k in range(1, params.n + 1):
            for a, b in itertools.combinations(range(params.q), 2):
                g = restriction_difference(f, k, a, b)
                assert is_eigenfunction(g, lam_prev)


def test_restriction_annihilation():
    """(A - lambda_1)(A - lambda_2) kills each restriction: the first factor
    from neighbor sums here, the second through is_eigenfunction."""
    p = eight_cycle_partition()
    f = partition_eigenfunction(p, equitable_check(p))
    small = GraphParams(3, 2)
    table = neighbor_table(small)
    lam1, lam2 = eigenvalue(small, 1), eigenvalue(small, 2)
    for k in range(1, 5):
        for a in range(2):
            h = restrict(f, k, a).values
            u = VertexFunction(
                small,
                tuple(sum(h[w] for w in ws) - lam1 * x for ws, x in zip(table, h)),
            )
            assert is_eigenfunction(u, lam2)


def test_quasi_string_builder():
    f = quasi_string(H23, {0}, {2}, 2)
    assert f.values == (1, 0, -1, 1, 0, -1, 1, 0, -1)
    assert quasi_string(H23, {0}, {2}, 1).values == (1, 1, 1, 0, 0, 0, -1, -1, -1)
    with pytest.raises(ValueError):
        quasi_string(H23, {0}, {0}, 1)
    with pytest.raises(ValueError):
        quasi_string(H23, set(), set(), 1)
    with pytest.raises(ValueError):
        quasi_string(H23, {3}, set(), 1)


def test_quasi_cross_builder():
    f = quasi_cross(H22, {0}, {1}, 1, 2)
    assert f.values == (1, 0, 0, -1)
    # transposing the roles of the two coordinates with complemented sets
    # gives the identical function
    g = quasi_cross(H22, {0}, {1}, 2, 1)
    assert g.values == (1, 0, 0, -1)
    with pytest.raises(ValueError):
        quasi_cross(H22, set(), {1}, 1, 2)
    with pytest.raises(ValueError):
        quasi_cross(H22, {0}, {1}, 1, 1)


def test_cross_transpose_identity():
    for plus in ({0}, {1, 2}, {0, 2}):
        for minus in ({1}, {0, 1}):
            f = quasi_cross(H23, plus, minus, 1, 2)
            g = quasi_cross(H23, set(range(3)) - minus, set(range(3)) - plus, 2, 1)
            assert f.values == g.values


def test_membership_operator():
    assert in_top_two_eigenspaces(constant_function(H23, -1))
    assert in_top_two_eigenspaces(quasi_string(H23, {0, 1}, set(), 2))
    assert in_top_two_eigenspaces(quasi_cross(H23, {0}, {1, 2}, 2, 1))
    parity = VertexFunction(H22, (1, -1, -1, 1))
    assert not in_top_two_eigenspaces(parity)


def test_classify_top_two_round_trip():
    for k in (1, 2):
        for plus_size in range(4):
            for plus in itertools.combinations(range(3), plus_size):
                rest = [x for x in range(3) if x not in plus]
                for m_size in range(len(rest) + 1):
                    for minus in itertools.combinations(rest, m_size):
                        if not plus and not minus:
                            continue
                        f = quasi_string(H23, plus, minus, k)
                        form = classify_top_two(f)
                        assert form.build(H23).values == f.values
    for plus_size in (1, 2, 3):
        for plus in itertools.combinations(range(3), plus_size):
            for m_size in (1, 2, 3):
                for minus in itertools.combinations(range(3), m_size):
                    f = quasi_cross(H23, plus, minus, 1, 2)
                    form = classify_top_two(f)
                    assert form.build(H23).values == f.values
                    if isinstance(form, QuasiCross):
                        assert form.coordinate_i < form.coordinate_j


def test_classify_top_two_shapes():
    assert classify_top_two(constant_function(H23, 1)) == Constant(1)
    assert classify_top_two(constant_function(H23, 0)) == Constant(0)
    assert classify_top_two(quasi_string(H23, {1}, {2}, 2)) == QuasiString(
        plus=frozenset({1}), minus=frozenset({2}), coordinate=2
    )
    # input given on coordinates (2, 1); canonical form swaps to (1, 2)
    # via the transpose identity with complemented symbol sets
    assert classify_top_two(quasi_cross(H23, {0}, {1}, 2, 1)) == QuasiCross(
        plus=frozenset({0, 2}), minus=frozenset({1, 2}), coordinate_i=1, coordinate_j=2
    )
    assert classify_top_two(VertexFunction(H22, (1, -1, -1, 1))) == NotMember()
    with pytest.raises(ValueError):
        classify_top_two(VertexFunction(H22, (2, 0, 0, 0)))


def _lambda1_form(f):
    return classify_lambda1(f, classify_top_two(f))


def test_classify_lambda1():
    assert _lambda1_form(constant_function(H23, 0)) == AllZero()
    assert _lambda1_form(constant_function(H23, 1)) == NotEigen()
    assert _lambda1_form(quasi_string(H23, {0}, {1}, 1)) == QuasiString(
        plus=frozenset({0}), minus=frozenset({1}), coordinate=1
    )
    assert _lambda1_form(quasi_string(H23, {0, 1}, {2}, 1)) == NotEigen()
    assert isinstance(_lambda1_form(quasi_cross(H23, {0}, {2}, 1, 2)), QuasiCross)
    assert _lambda1_form(quasi_cross(H23, {0, 1}, {2}, 1, 2)) == NotEigen()
    assert _lambda1_form(VertexFunction(H22, (1, -1, -1, 1))) == NotEigen()


def test_lambda1_sweep_equivalence():
    """Ternary lambda_1 eigenfunctions are exactly the balanced shapes."""
    lam1 = eigenvalue(H22, 1)
    for values in itertools.product((-1, 0, 1), repeat=4):
        f = VertexFunction(H22, values)
        form = _lambda1_form(f)
        assert isinstance(form, (AllZero, QuasiString, QuasiCross)) == is_eigenfunction(f, lam1)


def test_partition_eigenfunction():
    p = eight_cycle_partition()
    s = equitable_check(p)
    f = partition_eigenfunction(p, s)
    assert set(f.values) == {2, -2}
    assert all((v == 2) == p.contains(i) for i, v in enumerate(f.values))
    assert is_eigenfunction(f, 0)
    with pytest.raises(ValueError):
        partition_eigenfunction(p, QuotientMatrix(((2, 2), (2, 1))))

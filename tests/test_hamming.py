"""Vertex encoding, neighbor structure, automorphisms, and the Record base."""

import pickle
import random
from fractions import Fraction

import pytest

from eqpart.constructions import FailedGate
from eqpart.eigenfunctions import (
    AllZero,
    Constant,
    NotEigen,
    NotMember,
    QuasiCross,
    QuasiString,
    VertexFunction,
)
from eqpart.hamming import (
    AlphabetBlocks,
    Automorphism,
    GraphParams,
    LiftBlocks,
    Record,
    coordinate_stride,
    digit_masks,
    digit_table,
    eigenvalue,
    encode_vertex,
    neighbor_table,
    neighbors,
    random_automorphism,
)
from eqpart.partitions import FiberMismatch, NotEquitable, QuotientMatrix, TwoPartition
from eqpart.search import (
    CyclePairLifting,
    EnumConstraints,
    SmallBase,
    SwitchingConstruction,
    TernaryCensus,
    Unclassified,
)
from oracles import (
    apply_automorphism,
    decode_vertex,
    essential_coordinates_of_values,
    vertex_map,
)

PARAMS = [GraphParams(2, 2), GraphParams(3, 2), GraphParams(2, 3), GraphParams(2, 4), GraphParams(3, 3)]


def test_params_validation():
    with pytest.raises(ValueError):
        GraphParams(0, 2)
    with pytest.raises(ValueError):
        GraphParams(2, 1)
    with pytest.raises(ValueError):
        GraphParams(33, 2)  # 2^33 vertices exceeds the bitset bound
    p = GraphParams(32, 2)
    assert p.vertex_count == 1 << 32


def test_degree_and_eigenvalues():
    p = GraphParams(4, 2)
    assert p.degree == 4
    assert [eigenvalue(p, i) for i in range(5)] == [4, 2, 0, -2, -4]
    p = GraphParams(3, 4)
    assert p.degree == 9
    assert eigenvalue(p, 2) == 1
    with pytest.raises(ValueError):
        eigenvalue(p, 4)
    with pytest.raises(ValueError):
        eigenvalue(p, -1)


def test_codec_round_trip():
    for params in PARAMS:
        for v in range(params.vertex_count):
            word = decode_vertex(params, v)
            assert len(word) == params.n
            assert all(0 <= x < params.q for x in word)
            assert encode_vertex(params, word) == v
            for k in range(1, params.n + 1):
                assert (v // coordinate_stride(params, k)) % params.q == word[k - 1]


def test_codec_is_big_endian():
    params = GraphParams(3, 4)
    assert encode_vertex(params, (1, 2, 3)) == 1 * 16 + 2 * 4 + 3
    assert coordinate_stride(params, 1) == 16
    assert coordinate_stride(params, 3) == 1
    assert decode_vertex(params, 27) == (1, 2, 3)


def test_encode_validates():
    params = GraphParams(2, 3)
    with pytest.raises(ValueError):
        encode_vertex(params, (0, 3))
    with pytest.raises(ValueError):
        encode_vertex(params, (0,))


def test_neighbors_structure():
    for params in PARAMS:
        table = neighbor_table(params)
        for v in range(params.vertex_count):
            ns = neighbors(params, v)
            assert [w for _, w in ns] == list(table[v])
            assert len(ns) == params.degree
            word = decode_vertex(params, v)
            for k, w in ns:
                other = decode_vertex(params, w)
                diff = [i for i in range(params.n) if word[i] != other[i]]
                assert diff == [k - 1]
            # coordinate-major, symbol-ascending order
            keys = [(k, decode_vertex(params, w)[k - 1]) for k, w in ns]
            assert keys == sorted(keys)


def test_neighbor_symmetry():
    for params in PARAMS:
        table = neighbor_table(params)
        for v in range(params.vertex_count):
            for w in table[v]:
                assert v in table[w]


def test_digit_masks_are_the_fibers():
    for params in PARAMS + [GraphParams(1, 5), GraphParams(5, 2), GraphParams(3, 4)]:
        masks = digit_masks(params)
        assert len(masks) == params.n
        for k, fibers in enumerate(masks):
            assert len(fibers) == params.q
            for a, fiber in enumerate(fibers):
                assert fiber == sum(
                    1 << v for v in range(params.vertex_count)
                    if decode_vertex(params, v)[k] == a
                )


def test_digit_table_sums_one_term_per_digit():
    rng = random.Random(3)
    for params in PARAMS + [GraphParams(1, 5), GraphParams(4, 2)]:
        terms = [[rng.randrange(-9, 10) for _ in range(params.q)] for _ in range(params.n)]
        table = digit_table(params, terms)
        assert table == tuple(
            sum(t[x] for t, x in zip(terms, decode_vertex(params, v)))
            for v in range(params.vertex_count)
        )
        # the strides give the identity
        strides = [[a * coordinate_stride(params, k) for a in range(params.q)]
                   for k in range(1, params.n + 1)]
        assert digit_table(params, strides) == tuple(range(params.vertex_count))
    with pytest.raises(ValueError):
        digit_table(GraphParams(2, 3), [[0, 1, 2]])
    with pytest.raises(ValueError):
        digit_table(GraphParams(2, 3), [[0, 1, 2], [0, 1]])


def test_essential_coordinates_of_values():
    params = GraphParams(3, 2)
    f = [(v >> 1) & 1 for v in range(8)]  # x_2 of H(3, 2)
    assert essential_coordinates_of_values(params, f) == frozenset({2})
    g = [1] * 8
    assert essential_coordinates_of_values(params, g) == frozenset()
    h = [(v >> 2) ^ (v & 1) for v in range(8)]  # x_1 xor x_3
    assert essential_coordinates_of_values(params, h) == frozenset({1, 3})
    # against the lines themselves: k is essential iff the vertices that
    # agree off coordinate k do not all share one value
    rng = random.Random(8)
    for params in PARAMS + [GraphParams(1, 4), GraphParams(3, 4)]:
        words = [decode_vertex(params, v) for v in range(params.vertex_count)]
        for _ in range(20):
            # a sum of functions of one coordinate each, some constant, and
            # now and then a point bump, which makes every coordinate essential
            tables = [[rng.randrange(3) for _ in range(params.q)] if rng.random() < 0.6
                      else [0] * params.q for _ in range(params.n)]
            values = [sum(t[x] for t, x in zip(tables, w)) for w in words]
            if rng.random() < 0.2:
                values[rng.randrange(params.vertex_count)] += 5
            lines = {}
            for k in range(params.n):
                for w, x in zip(words, values):
                    lines.setdefault((k, w[:k] + w[k + 1:]), set()).add(x)
            expected = {k + 1 for (k, _), seen in lines.items() if len(seen) > 1}
            assert essential_coordinates_of_values(params, values) == expected


def test_automorphism_validation():
    params = GraphParams(2, 3)
    with pytest.raises(ValueError):
        Automorphism((1, 1), ((0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError):
        Automorphism((1, 2), ((0, 1, 1), (0, 1, 2)))
    g = Automorphism((1, 2), ((0, 1, 2), (0, 1, 2)))
    assert all(apply_automorphism(params, g, v) == v for v in range(9))


def test_automorphism_preserves_adjacency():
    rng = random.Random(12)
    for params in PARAMS:
        table = neighbor_table(params)
        for _ in range(10):
            g = random_automorphism(params, rng)
            vm = vertex_map(params, g)
            assert sorted(vm) == list(range(params.vertex_count))
            for v in range(params.vertex_count):
                assert sorted(vm[w] for w in table[v]) == sorted(table[vm[v]])


# --- Record: the base of every value class ----------------------------------

_H22 = GraphParams(2, 2)
_BLOCKS = (frozenset({0, 1}), frozenset({2, 3}))
# one record of each Record subclass in the package
RECORDS = [
    GraphParams(2, 3),
    Automorphism((2, 1), ((1, 0, 2), (0, 1, 2))),
    QuotientMatrix(((1, 1), (1, 1))),
    NotEquitable(0, (0, 1), 1, (1, 2)),
    FiberMismatch(1, 0, 2, Fraction(3, 2)),
    TwoPartition(_H22, 0b0011),
    VertexFunction(GraphParams(1, 2), (1, -1)),
    Constant(1),
    QuasiString(frozenset({0}), frozenset({1}), 1),
    QuasiCross(frozenset({0}), frozenset({1}), 1, 2),
    NotMember(),
    AllZero(),
    NotEigen(),
    AlphabetBlocks(_BLOCKS),
    LiftBlocks(_BLOCKS),
    FailedGate("input partition is not equitable"),
    EnumConstraints(eigenvalue_index=2, reduced_only=True),
    TernaryCensus(1, 2, 3, 4),
    SmallBase(True),
    CyclePairLifting(frozenset({0}), TwoPartition(_H22, 0b0110)),
    SwitchingConstruction(AlphabetBlocks(_BLOCKS[:1]), TwoPartition(_H22, 0b1000)),
    Unclassified(),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_records_cover_every_record_class():
    classes = [type(r) for r in RECORDS]
    assert len(set(classes)) == len(classes) == 22
    assert set(classes) == set(_subclasses(Record))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_contract(record):
    """A record equals a record of its class built from its field tuple,
    and no record of another class; its hash is that tuple's hash; it
    survives pickling; no attribute can be assigned or deleted."""
    cls = type(record)
    values = tuple(getattr(record, name) for name in cls._fields)
    twin = cls(*values)
    assert twin == record and twin is not record
    assert hash(record) == hash(twin) == hash(values)
    assert record != values
    for other in RECORDS:
        assert (other == record) == (other is record)
    body = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(record) == f"{cls.__name__}({body})"
    clone = pickle.loads(pickle.dumps(record))
    assert clone == record and hash(clone) == hash(record)
    assert vars(clone) == vars(record)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in cls._fields) == values


def test_record_fields_defaults_and_repr():
    """Fields come in annotation order, base classes first; a class
    attribute gives the default; GraphParams' derived sizes are attributes
    set by __post_init__, not fields."""
    params = GraphParams(2, 3)
    assert GraphParams._fields == ("n", "q")
    assert (params.vertex_count, params.degree) == (9, 4)
    assert repr(params) == "GraphParams(n=2, q=3)"
    assert GraphParams(n=2, q=3) == GraphParams(2, q=3) == params
    assert LiftBlocks._fields == AlphabetBlocks._fields == ("blocks",)
    assert LiftBlocks(_BLOCKS) != AlphabetBlocks(_BLOCKS)
    assert len({NotMember(), AllZero(), NotEigen(), Unclassified()}) == 4
    assert NotMember() == NotMember() and hash(NotMember()) == hash(())
    assert EnumConstraints(eigenvalue_index=2) == EnumConstraints(None, 2, False, False)
    assert EnumConstraints(None, 2, reduced_only=True) == EnumConstraints(None, 2, True)
    assert EnumConstraints(None, 2, up_to_iso=True) == EnumConstraints(
        up_to_iso=True, quotient=None, eigenvalue_index=2)
    assert SmallBase(True) != SmallBase(False)
    with pytest.raises(TypeError, match="missing field 'secondary_switching'"):
        SmallBase()
    for args, kwargs in [((2,), {}), ((2, 3, 4), {}), ((2,), {"n": 3}), ((2, 3), {"r": 1})]:
        with pytest.raises(TypeError):
            GraphParams(*args, **kwargs)


def test_record_runs_every_post_init():
    """LiftBlocks runs its own check and, through super(), the check of
    AlphabetBlocks."""
    with pytest.raises(ValueError, match="pairwise disjoint"):
        LiftBlocks((frozenset({0, 1}), frozenset({1, 2})))
    with pytest.raises(ValueError, match="same size"):
        LiftBlocks((frozenset({0}), frozenset({1, 2})))
    assert AlphabetBlocks((frozenset({0}), frozenset({1, 2}))).q == 3

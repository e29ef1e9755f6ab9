"""Property tests, with inputs drawn by Hypothesis."""

import io
import json
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqpart.cli import run_command
from eqpart.documents import cell_to_hex
from eqpart.eigenfunctions import MAX_ABS_VALUE
from eqpart.hamming import GraphParams, neighbor_table, random_automorphism, residual_witness
from eqpart.partitions import QuotientMatrix, TwoPartition, equitable_check, transform
from eqpart.search import EnumConstraints, backtracking_enumerate, brute_force_enumerate

# H(1, 300) has degree 299, so even an indicator needs 16-bit lanes.
GRAPHS = [GraphParams(n, q) for n, q in
          ((1, 2), (1, 5), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (1, 300))]
# value ranges: indicators, ternary functions, the VertexFunction guard, and
# wider values that reach 64-bit lanes or overflow them
RANGES = [(0, 1), (-1, 1), (-MAX_ABS_VALUE, MAX_ABS_VALUE), (-(1 << 40), 1 << 40),
          (-(1 << 62), 1 << 62)]


@st.composite
def residual_inputs(draw):
    params = draw(st.sampled_from(GRAPHS))
    lo, hi = draw(st.sampled_from(RANGES))
    if draw(st.booleans()):
        values = [draw(st.integers(lo, hi))] * params.vertex_count
    else:
        values = draw(st.lists(st.integers(lo, hi), min_size=params.vertex_count,
                               max_size=params.vertex_count))
    if lo == 0:
        values = bytes(values)  # the indicator form spectral_check passes
    bound = params.degree + 2
    return params, values, draw(st.integers(-bound, bound))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(residual_inputs())
@example((GraphParams(1, 300), bytes(299) + b"\x01", 1))  # 16-bit lanes
@example((GraphParams(3, 2), [MAX_ABS_VALUE, -MAX_ABS_VALUE] * 4, -5))  # 32-bit lanes
@example((GraphParams(3, 2), [1 << 40, 0] * 4, 3))  # 64-bit lanes
@example((GraphParams(3, 2), [1 << 62, 0] * 4, 3))  # past 64-bit lanes
@example((GraphParams(2, 4), [7] * 16, 8))  # constant
def test_residual_witness_matches_neighbor_sums(case):
    """residual_witness equals (A - lam I) values summed over neighbor_table:
    the residual at vertex 0 and the first vertex where it differs, or a
    ValueError when (degree + |lam|) * (max - min) needs more than 64 bits."""
    params, values, lam = case
    table = neighbor_table(params)
    r = [sum(values[w] for w in ws) - lam * x for ws, x in zip(table, values)]
    if (params.degree + abs(lam)) * (max(values) - min(values)) >> 64:
        with pytest.raises(ValueError, match="64-bit lanes"):
            residual_witness(params, values, lam)
        return
    first = next((v for v, x in enumerate(r) if x != r[0]), None)
    assert residual_witness(params, values, lam) == (r[0], first)


# Every graph with q^n <= 27 except the complete graphs H(1, q) with q > 12:
# at index 1 every one of their 2^q - 2 proper cells is equitable.  The 300
# derandomized examples below draw each of the 47 (graph, index) pairs.
SMALL_GRAPHS = [GraphParams(n, q) for n in range(1, 5) for q in range(2, 28)
                if q ** n <= 27 and (n > 1 or q <= 12)]
ENUMERATIONS = [(params, i) for params in SMALL_GRAPHS for i in range(params.n + 1)]


@lru_cache(maxsize=None)
def _labelled_cells(params, index):
    return frozenset(backtracking_enumerate(params, EnumConstraints(eigenvalue_index=index)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ENUMERATIONS), st.integers(min_value=0))
def test_complement_law(case, pick):
    """The backtracking output is closed under complement, and the
    complement of a cell with quotient [[a, b], [c, d]] has quotient
    [[d, c], [b, a]]."""
    params, index = case
    cells = _labelled_cells(params, index)
    full = (1 << params.vertex_count) - 1
    assert {full ^ c for c in cells} == cells
    if cells:
        cell = sorted(cells)[pick % len(cells)]
        (a, b), (c, d) = equitable_check(TwoPartition(params, cell)).rows
        assert equitable_check(TwoPartition(params, full ^ cell)).rows == ((d, c), (b, a))


@st.composite
def moved_cells(draw):
    """A cell, equitable half the time, and a random automorphism."""
    params = draw(st.sampled_from(SMALL_GRAPHS))
    equitable = sorted(_labelled_cells(params, draw(st.integers(0, params.n))))
    if equitable and draw(st.booleans()):
        cell = draw(st.sampled_from(equitable))
    else:
        cell = draw(st.integers(1, (1 << params.vertex_count) - 2))
    g = random_automorphism(params, draw(st.randoms(use_true_random=False)))
    return TwoPartition(params, cell), g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(moved_cells())
def test_automorphisms_keep_the_class_and_the_quotient(case):
    """An image of a cell under an automorphism has the same quotient
    matrix; a cell that is not equitable stays so (the witness vertices
    move with the cell)."""
    p, g = case
    image = transform(p, g)
    s, t = equitable_check(p), equitable_check(image)
    assert t == s if isinstance(s, QuotientMatrix) else not isinstance(t, QuotientMatrix)


# Graphs whose 2^(q^n) sweep takes well under a second: q^n <= 16.  The
# sweep over H(2, 5) or H(1, 25) takes about a minute for each quotient.
SWEEP_GRAPHS = [params for params in SMALL_GRAPHS if params.vertex_count <= 16]


@st.composite
def explicit_quotients(draw):
    params = draw(st.sampled_from(SWEEP_GRAPHS))
    k = params.degree
    s11, s21 = draw(st.integers(0, k)), draw(st.integers(0, k))
    return params, QuotientMatrix(((s11, k - s11), (s21, k - s21)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(explicit_quotients())
@example((GraphParams(2, 4), QuotientMatrix(((3, 3), (3, 3)))))  # lam = 0, no eigenvalue
@example((GraphParams(3, 2), QuotientMatrix(((0, 3), (1, 2)))))  # not self-paired
@example((GraphParams(4, 2), QuotientMatrix(((2, 2), (2, 2)))))  # self-paired
@example((GraphParams(2, 2), QuotientMatrix(((2, 0), (0, 2)))))  # S12 + S21 = 0
def test_backtracking_matches_brute_force_on_explicit_quotients(case):
    """Any explicit quotient with row sums equal to the degree, at an
    eigenvalue or not, self-paired or not: the two routes agree."""
    params, s = case
    c = EnumConstraints(quotient=s)
    if s.rows[0][1] + s.rows[1][0] == 0:
        with pytest.raises(ValueError, match="S12 \\+ S21 = 0"):
            backtracking_enumerate(params, c)
        assert brute_force_enumerate(params, c) == []
        return
    assert backtracking_enumerate(params, c) == brute_force_enumerate(params, c)


# Drawn JSON values: an int in [-1, 3] keeps q^n <= 64 when it replaces n or
# q of a base graph, and +-10^30 is refused by a guard before any work.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.integers(-1, 3)
    | st.sampled_from([10 ** 30, -10 ** 30]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


@st.composite
def mutated_documents(draw):
    """(commands, bytes): a valid partition or function document of H(2, 2),
    H(2, 3) or H(3, 2), kept whole, with one key dropped, one value
    replaced, its text truncated or one byte of it replaced, and the
    commands that read it."""
    n, q = draw(st.sampled_from(((2, 2), (2, 3), (3, 2))))
    size = q ** n
    doc = {"format_version": 1, "n": n, "q": q}
    kind = draw(st.sampled_from(("cell", "vertices", "values")))
    if kind == "values":
        doc["values"] = draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
        commands = ("classify-fn",)
    else:
        cell = draw(st.integers(1, (1 << size) - 2))
        doc[kind] = (cell_to_hex(cell, size) if kind == "cell"
                     else [v for v in range(size) if cell >> v & 1])
        commands = ("verify", "reduce", "classify-t5")
    how = draw(st.sampled_from(("keep", "drop", "replace", "truncate", "byte")))
    if how == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif how == "replace":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON_VALUES)
    data = json.dumps(doc).encode()
    if how == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif how == "byte":
        i = draw(st.integers(0, len(data) - 1))
        data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:]
    return commands, data


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=mutated_documents())
@example(case=(("verify", "reduce", "classify-t5"), b'\xff"format_version": 1}'))
def test_documents_never_end_in_a_traceback(tmp_path_factory, case):
    """Each command that reads a document ends a mutated one with exit 0
    or 1 and JSON lines on stdout, or with exit 2, nothing on stdout and
    one stderr line, whatever the mutation left of the text."""
    commands, data = case
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_bytes(data)
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        code = run_command([command, str(path)], stdout=out, stderr=err)
        if code == 2:
            assert out.getvalue() == "", command
            assert err.getvalue().startswith("error: "), command
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), command
        else:
            assert code in (0, 1) and err.getvalue() == "", command
            for line in out.getvalue().splitlines():
                assert isinstance(json.loads(line), dict), command

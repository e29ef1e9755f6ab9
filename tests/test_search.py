"""Enumeration routes, isomorphism filters, censuses, and classification."""

import hashlib
import io
import itertools
import json
import os
import random
import sys
import warnings
from collections import Counter
from functools import lru_cache
from math import comb

import pytest

from eqpart import backtrack, search
from eqpart.cli import run_command
from eqpart.constructions import (
    FailedGate,
    eight_cycle_partition,
    lifted_cycle_pair,
    permutation_switching,
)
from eqpart.documents import cell_to_hex, hex_to_cell
from eqpart.eigenfunctions import VertexFunction, in_top_two_eigenspaces
from eqpart.hamming import AlphabetBlocks, Automorphism, GraphParams, encode_vertex
from eqpart.partitions import (
    QuotientMatrix,
    TwoPartition,
    equitable_check,
    extend,
    is_induced_cycle,
    orbit_closure,
    transform,
)
from eqpart.search import (
    CyclePairLifting,
    EnumConstraints,
    SmallBase,
    TernaryCensus,
    backtracking_enumerate,
    brute_force_enumerate,
    candidate_quotient_matrices,
    classify_reduced_lambda2,
    enumerate_ternary_census,
)
from oracles import vertex_map

H22 = GraphParams(2, 2)
H32 = GraphParams(3, 2)
H42 = GraphParams(4, 2)
# the graphs on which test_acceptance holds the two enumeration routes equal
ROUTE_GRAPHS = (H22, GraphParams(2, 3), H32, GraphParams(2, 4))


def test_constraints_validation():
    """The record is the one check that exactly one of a quotient and an
    eigenvalue index is given."""
    with pytest.raises(ValueError, match="give one of"):
        EnumConstraints(quotient=QuotientMatrix(((1, 1), (1, 1))), eigenvalue_index=1)
    with pytest.raises(ValueError, match="give one of"):
        EnumConstraints()
    with pytest.raises(ValueError, match="give one of"):
        EnumConstraints(reduced_only=True, up_to_iso=True)


def test_candidate_quotient_matrices():
    cands = candidate_quotient_matrices(H42, EnumConstraints(eigenvalue_index=2))
    assert [s.rows for s in cands] == [
        ((1, 3), (1, 3)),
        ((2, 2), (2, 2)),
        ((3, 1), (3, 1)),
    ]
    # H(2,4), index 2: diagonal difference -2, integral sizes only
    cands = candidate_quotient_matrices(GraphParams(2, 4), EnumConstraints(eigenvalue_index=2))
    assert [(s.rows[1][0], s.rows[0][0]) for s in cands] == [
        (2, 0), (3, 1), (4, 2), (5, 3), (6, 4)
    ]
    explicit = QuotientMatrix(((0, 3), (1, 2)))
    assert candidate_quotient_matrices(H32, EnumConstraints(quotient=explicit)) == (explicit,)
    with pytest.raises(ValueError):
        candidate_quotient_matrices(H22, EnumConstraints(quotient=explicit))


def test_brute_force_known_counts():
    assert brute_force_enumerate(H22, EnumConstraints(eigenvalue_index=0)) == []
    assert len(brute_force_enumerate(H22, EnumConstraints(eigenvalue_index=1))) == 4
    assert brute_force_enumerate(H22, EnumConstraints(eigenvalue_index=2)) == [6, 9]
    pairs = brute_force_enumerate(H32, EnumConstraints(quotient=QuotientMatrix(((0, 3), (1, 2)))))
    assert pairs == [24, 36, 66, 129]
    assert len(brute_force_enumerate(H32, EnumConstraints(eigenvalue_index=2))) == 14


def test_brute_force_guard():
    with pytest.raises(ValueError, match="guarded"):
        brute_force_enumerate(GraphParams(3, 3), EnumConstraints(eigenvalue_index=2))


def searched_rows(params, constraints):
    """The quotient rows backtracking_enumerate searches: the candidates,
    then the partners that are not candidates."""
    rows = [s.rows for s in candidate_quotient_matrices(params, constraints)]
    return tuple(dict.fromkeys(rows + [backtrack._partner(r) for r in rows]))


def test_backtracking_explicit_quotient():
    c = EnumConstraints(quotient=QuotientMatrix(((0, 3), (1, 2))))
    assert backtracking_enumerate(H32, c) == [24, 36, 66, 129]
    # non-integral predicted size gives an empty result
    c = EnumConstraints(quotient=QuotientMatrix(((1, 2), (1, 2))))
    assert backtracking_enumerate(H32, c) == []


def test_backtracking_explicit_candidates_match_brute_force():
    """Each candidate of every index, given as an explicit quotient, is
    found by the one rule: it and its partner are searched over the cells
    that hold vertex 0, its own cells are kept and the partner's are
    complemented, so a quotient that is not self-paired gets only its own
    cells."""
    self_paired = 0
    for params in ROUTE_GRAPHS:
        for i in range(params.n + 1):
            for s in candidate_quotient_matrices(params, EnumConstraints(eigenvalue_index=i)):
                (a, b), (c, d) = s.rows
                self_paired += (a, b) == (d, c)
                explicit = EnumConstraints(quotient=s)
                assert backtracking_enumerate(params, explicit) == brute_force_enumerate(
                    params, explicit), (params, s.rows)
    assert self_paired


def test_backtracking_threads_do_not_change_output():
    c = EnumConstraints(eigenvalue_index=2)
    assert backtracking_enumerate(H32, c, threads=1) == backtracking_enumerate(H32, c, threads=2)
    # H(3, 3) has more live shards than workers, so these fork real workers
    params = GraphParams(3, 3)
    assert len(backtrack.live_shards(params, searched_rows(params, c))) > 8
    runs = [backtracking_enumerate(params, c, threads=t) for t in (1, 2, 8)]
    assert len(runs[0]) == 180
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_live_shards_hold_vertex_0():
    """Every live shard has vertex 0 in C, for an index and for an explicit
    quotient whose partner is not a candidate, and searching each pair's
    two sides so costs the shards of searching one side in full.  The
    root conditions cut the counts 257, 120 and 1,220 to these."""
    c = EnumConstraints(eigenvalue_index=2)
    for params, count in ((GraphParams(4, 3), 79), (GraphParams(2, 5), 28),
                          (GraphParams(3, 4), 365)):
        shards = backtrack.live_shards(params, searched_rows(params, c))
        assert len(shards) == count, params
        assert all(cell & 1 for *_, (_, cell, _) in shards), params
    explicit = EnumConstraints(quotient=QuotientMatrix(((0, 3), (1, 2))))
    rows = searched_rows(H32, explicit)
    assert rows == (((0, 3), (1, 2)), ((2, 1), (3, 0)))
    shards = backtrack.live_shards(H32, rows)
    assert shards and all(cell & 1 for *_, (_, cell, _) in shards)


def test_worker_processes_are_capped(monkeypatch):
    """One fork per call, with min(threads, CPU count, shard count) workers,
    and none where os.fork is missing; the recording fake runs the shards
    in this process."""
    forks = []

    def fake_fork_map(fn, shards, n_workers):
        forks.append(n_workers)
        return [fn(x) for x in shards]

    monkeypatch.setattr(backtrack, "_fork_map", fake_fork_map)
    c = EnumConstraints(eigenvalue_index=2)

    def shard_count(params):
        return len(backtrack.live_shards(params, searched_rows(params, c)))

    expected = backtracking_enumerate(H42, c)
    assert forks == []
    shards = shard_count(H42)
    assert 5 < shards < 1000
    monkeypatch.setattr(backtrack.os, "cpu_count", lambda: 3)
    # three candidate quotient matrices share one fork, capped by the CPUs
    assert backtracking_enumerate(H42, c, threads=100000) == expected
    assert forks == [3]
    monkeypatch.setattr(backtrack.os, "cpu_count", lambda: 1000)
    # capped by the threads, then by the shards
    assert backtracking_enumerate(H42, c, threads=5) == expected
    assert backtracking_enumerate(H42, c, threads=100000) == expected
    assert forks == [3, 5, shards]
    # H(2, 2) has one candidate matrix, [[0, 2], [2, 0]]; it is self-paired,
    # so only the cells with vertex 0 in C are searched: one live shard and
    # no fork
    assert shard_count(H22) == 1
    assert backtracking_enumerate(H22, c, threads=100000) == [6, 9]
    monkeypatch.setattr(backtrack.os, "cpu_count", lambda: None)
    backtracking_enumerate(H42, c, threads=100000)
    assert forks == [3, 5, shards]
    monkeypatch.setattr(backtrack.os, "cpu_count", lambda: 1000)
    monkeypatch.delattr(backtrack.os, "fork")
    assert backtracking_enumerate(H42, c, threads=5) == expected
    assert forks == [3, 5, shards]


def test_failing_worker_raises_and_leaves_no_child(monkeypatch):
    """A shard that raises in a forked worker, or a worker that exits
    without sending its results, makes the call raise; every child is
    reaped, so this process has none left."""
    c = EnumConstraints(eigenvalue_index=2)
    monkeypatch.setattr(backtrack.os, "cpu_count", lambda: 4)
    search_shard = backtrack._search_shard
    shards = backtrack.live_shards(H42, searched_rows(H42, c))
    assert len(shards) > 4

    def failing(shard):
        if shard == shards[-1]:     # one shard, in one worker
            raise ValueError("shard failed on purpose")
        return search_shard(shard)

    def exiting(shard):
        os._exit(3)

    for fake, message in ((failing, "ValueError: shard failed on purpose"),
                          (exiting, "sent nothing")):
        monkeypatch.setattr(backtrack, "_search_shard", fake)
        with pytest.raises(RuntimeError, match=message):
            backtracking_enumerate(H42, c, threads=4)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# SHA-256 of the sorted cells as comma-separated lowercase hex, recorded
# from the search before the root conditions: (n, q, index, count, digest)
OUTPUT_PINS = (
    (4, 3, 2, 648, "58fa00411e841171db906eb50a0053991339850cf79ff25e572946c12d2962e3"),
    (6, 2, 3, 19600, "700aad3fa027e7c7dcd143af4dd760c7e3fd5a21adfc6c9327c80f3da589da44"),
    (3, 4, 2, 26766, "77acb5a39e72b2372f5ee3fdd9db2694da35fb5b35a7b1ae8bc4e2eaec96adbf"),
    (4, 4, 2, 108180, "2af5815075cbe3a856503902e98de3fba292a83e433c1ba45e0e5d9a967b960b"),
)
PIN_THREADS = {(3, 4): (1, 2, 8), (4, 4): (2,)}


@lru_cache(maxsize=1)
def _pinned_cells(n, q, index, threads):
    """The sorted cells of one pin.  The last search is kept, so the
    theorem test reuses the H(4, 4) one rather than search again."""
    return tuple(backtracking_enumerate(
        GraphParams(n, q), EnumConstraints(eigenvalue_index=index), threads=threads))


def test_sorted_output_is_pinned():
    """The sorted cells keep their count and SHA-256; H(3, 4) also with
    2 and 8 worker processes, and H(4, 4) only with 2 (about 3 s)."""
    for n, q, index, count, digest in OUTPUT_PINS:
        for threads in PIN_THREADS.get((n, q), (1,)):
            cells = _pinned_cells(n, q, index, threads)
            text = ",".join(format(cell, "x") for cell in cells)
            assert (len(cells), hashlib.sha256(text.encode()).hexdigest()) == (count, digest), (
                n, q, index, threads)


def _meets_root_conditions(params, cell):
    """Along each coordinate the members of C among the neighbors of
    vertex 0 are the least symbols 1..c_k, and c_1 <= ... <= c_n."""
    n, q = params.n, params.q
    counts = []
    for k in range(n):
        members = [a for a in range(1, q)
                   if cell >> encode_vertex(params, [a if j == k else 0 for j in range(n)]) & 1]
        if members != list(range(1, len(members) + 1)):
            return False
        counts.append(len(members))
    return counts == sorted(counts)


def _stabilizer_closure(params, cells, lo=1):
    """The images of the cells under the automorphisms that fix the
    symbols 0..lo-1 on every coordinate (lo = 1: those that fix vertex 0;
    lo = 0: all), by a breadth-first search over the adjacent coordinate
    transpositions and every symbol transposition (a b), lo <= a < b, on
    coordinate 1, through transform."""
    n, q = params.n, params.q
    coords, ident = tuple(range(1, n + 1)), tuple(range(q))
    gens = [Automorphism(coords[:k] + (k + 2, k + 1) + coords[k + 2:], (ident,) * n)
            for k in range(n - 1)]
    for a, b in itertools.combinations(range(lo, q), 2):
        alpha = list(ident)
        alpha[a], alpha[b] = b, a
        gens.append(Automorphism(coords, (tuple(alpha),) + (ident,) * (n - 1)))
    seen, frontier = set(cells), list(cells)
    while frontier:
        images = [transform(TwoPartition(params, c), g).cell for c in frontier for g in gens]
        frontier = [c for c in dict.fromkeys(images) if c not in seen]
        seen.update(frontier)
    return seen


def test_root_closure_matches_brute_force():
    """At every index of the route graphs and H(1, 5), and for every
    searched row set, the search completes only cells that hold vertex 0
    and meet the root conditions, and their closure under the stabilizer
    of vertex 0 is exactly the set of brute-force cells with those rows
    that hold vertex 0.  The search's own closure then gives the
    brute-force output; on H(1, 5) its symbol maps alone must generate S_4
    on the symbols 1..4."""
    checked = 0
    for params in (*ROUTE_GRAPHS, GraphParams(1, 5)):
        for i in range(params.n + 1):
            c = EnumConstraints(eigenvalue_index=i)
            assert backtracking_enumerate(params, c) == brute_force_enumerate(params, c)
            for rows in searched_rows(params, c):
                shards = backtrack.live_shards(params, (rows,))
                roots = [cell for x in shards for cell in backtrack._search_shard(x)]
                assert all(cell & 1 and _meets_root_conditions(params, cell) for cell in roots)
                exact = EnumConstraints(quotient=QuotientMatrix(rows))
                expected = {cell for cell in brute_force_enumerate(params, exact) if cell & 1}
                assert _stabilizer_closure(params, roots) == expected, (params, i, rows)
                checked += len(expected) > len(roots)
    assert checked


def _cell_of(params, test):
    """The cell of the vertices whose digit tuple passes test."""
    return TwoPartition.from_tuples(
        params, [x for x in itertools.product(range(params.q), repeat=params.n) if test(x)]).cell


def test_orbit_closure_matches_transform_closure():
    """orbit_closure, by masked shifts, reaches from each seed the
    cells that a breadth-first search through transform reaches, under the
    whole group (lo = 0) and under the stabilizer of vertex 0 (lo = 1):
    from a cell of each orbit of the equitable cells and from a random cell
    of the route graphs and H(1, 5), and from cells of small orbits on
    H(2, 6) and H(4, 4)."""
    rng = random.Random(5)
    seeds = {}
    for params in (*ROUTE_GRAPHS, GraphParams(1, 5)):
        cells = [cell for i in range(params.n + 1)
                 for cell in backtracking_enumerate(params, EnumConstraints(eigenvalue_index=i))]
        seeds[params] = cells + [rng.randrange(1, (1 << params.vertex_count) - 1)]
    h26, h44 = GraphParams(2, 6), GraphParams(4, 4)
    seeds[h26] = [_cell_of(h26, lambda x: x[0] < 2),
                  _cell_of(h26, lambda x: (x[0] < 3) != (x[1] == 5)),
                  _cell_of(h26, lambda x: x[0] == x[1])]
    seeds[h44] = [_cell_of(h44, lambda x: x[1] in (0, 3)),
                  _cell_of(h44, lambda x: (x[0] < 2) != (x[3] < 2)),
                  _cell_of(h44, lambda x: x[1] == 0 and x[3] != 2)]
    for params, cells in seeds.items():
        for lo in (0, 1):
            close, reached = orbit_closure(params, lo), set()
            for cell in cells:
                if cell not in reached:     # one seed per orbit
                    orbit = _stabilizer_closure(params, [cell], lo)
                    assert close([cell]) == orbit, (params, lo, cell)
                    reached |= orbit


# graphs on which the index-1 closed form is pinned
INDEX1_GRAPHS = tuple(
    GraphParams(n, q) for q, top in ((2, 6), (3, 4), (4, 3), (5, 3)) for n in range(1, top + 1)
)


def test_index1_closed_form():
    """T_1(n, q) = n (2^q - 2) cells at eigenvalue index 1, and every one
    depends on a single coordinate: R_1(m, q) = 0 reduced cells for m >= 2
    (R_1(1, q) = T_1(1, q))."""
    for params in INDEX1_GRAPHS:
        n, q = params.n, params.q
        total = backtracking_enumerate(params, EnumConstraints(eigenvalue_index=1))
        reduced = backtracking_enumerate(
            params, EnumConstraints(eigenvalue_index=1, reduced_only=True))
        assert len(total) == n * (2 ** q - 2), params
        assert len(reduced) == (len(total) if n == 1 else 0), params


def test_index1_output_is_guarded():
    """The lambda_1 candidates admit at most 2^18 cells by the closed form:
    n C(q, s21) for each, n (2^q - 2) at index 1.  H(1, 18) and H(2, 17)
    are admitted, H(1, 19) and H(2, 18) refused; on H(1, 40) the quotient
    of one-symbol cells (40 of them) is admitted, and that of 20-symbol
    cells refused."""
    index1 = EnumConstraints(eigenvalue_index=1)
    for n, q in ((1, 18), (2, 17)):
        assert len(candidate_quotient_matrices(GraphParams(n, q), index1)) == q - 1
    for n, q in ((1, 19), (2, 18)):
        with pytest.raises(ValueError, match="index-1 output guarded to 262144 cells"):
            candidate_quotient_matrices(GraphParams(n, q), index1)
    h140 = GraphParams(1, 40)
    one = EnumConstraints(quotient=QuotientMatrix(((0, 39), (1, 38))))
    assert backtracking_enumerate(h140, one) == [1 << v for v in range(40)]
    with pytest.raises(ValueError, match=f"got {comb(40, 20)}"):
        candidate_quotient_matrices(h140, EnumConstraints(quotient=QuotientMatrix(((19, 20), (20, 19)))))


def test_forced_table_free_vertices():
    """The free vertices of (A - lam_i I) x = s21 * 1 number the multiplicity
    of lam_i, C(n, i) (q - 1)^i."""
    for params in (*ROUTE_GRAPHS, GraphParams(3, 3), H42, GraphParams(9, 2)):
        n, q = params.n, params.q
        for i in range(n + 1):
            lam = params.degree - q * i     # lam_i = n (q - 1) - q i
            table = backtrack._forced_table(params, lam)
            assert len(table) == params.vertex_count
            assert table.count(None) == comb(n, i) * (q - 1) ** i, (params, i)


def test_forced_rows_hold_on_equitable_cells():
    """Every pivot row holds, with the cell's own s21, on every cell that
    brute force finds."""
    checked = 0
    for params in ROUTE_GRAPHS:
        for i in range(params.n + 1):
            c = EnumConstraints(eigenvalue_index=i)
            for cell in brute_force_enumerate(params, c):
                (s11, _), (s21, _) = equitable_check(TwoPartition(params, cell)).rows
                for v, row in enumerate(backtrack._forced_table(params, s11 - s21)):
                    if row is None:
                        continue
                    d, beta, terms = row
                    total = sum(g * (cell & mask).bit_count() for g, mask in terms)
                    assert d * ((cell >> v) & 1) == s21 * beta - total, (params, i, cell, v)
                    checked += 1
    assert checked > 1000


def test_non_eigenvalue_quotient_forces_every_vertex():
    """lam = s11 - s21 outside the spectrum of H(2, 4) (6, 2, -2): every
    vertex is a pivot, and the search still agrees with brute force."""
    params = GraphParams(2, 4)
    for rows in (((3, 3), (3, 3)), ((5, 1), (1, 5))):
        s = QuotientMatrix(rows)
        assert None not in backtrack._forced_table(params, rows[0][0] - rows[1][0])
        c = EnumConstraints(quotient=s)
        assert candidate_quotient_matrices(params, c) == (s,)
        assert backtracking_enumerate(params, c) == brute_force_enumerate(params, c) == []


def test_h34_index2_counts():
    """The H(3, 4) index-2 count, 26,766, by quotient matrix."""
    params = GraphParams(3, 4)
    found = backtracking_enumerate(params, EnumConstraints(eigenvalue_index=2))
    assert len(found) == 26766
    by_rows = Counter(equitable_check(TwoPartition(params, cell)).rows for cell in found)
    assert by_rows == {
        ((3, 6), (2, 7)): 180,
        ((4, 5), (3, 6)): 6912,
        ((5, 4), (4, 5)): 12582,
        ((6, 3), (5, 4)): 6912,
        ((7, 2), (6, 3)): 180,
    }


def _regular_matrix_count(q, r):
    """The number of q x q 0/1 matrices whose rows and columns all sum to
    r: a DP over the rows whose state is the sorted column sums so far,
    since the ways to complete a prefix depend on those sums alone."""
    states = Counter({(0,) * q: 1})
    for _ in range(q):
        grown = Counter()
        for sums, ways in states.items():
            for cols in itertools.combinations(range(q), r):
                new = [s + (c in cols) for c, s in enumerate(sums)]
                if max(new) <= r:
                    grown[tuple(sorted(new))] += ways
        states = grown
    return states[(r,) * q]


def test_h2q_index2_counts_are_regular_matrices(tmp_path):
    """On H(2, q), lambda_2 = -2, and a cell is equitable with it iff, as
    a q x q 0/1 matrix, every row and column sums to one r in 1..q-1,
    with quotient [[2r-2, 2q-2r], [2r, 2q-2-2r]].  The enumerate summary
    of H(2, 2) to H(2, 6) at index 2 counts those matrices exactly."""
    for q in range(2, 7):
        path = tmp_path / "cells.jsonl"
        with path.open("w") as out:
            argv = ["enumerate", "--n", "2", "--q", str(q), "--eig-index", "2"]
            assert run_command(argv, stdout=out) == 0
        with path.open("rb") as out:     # the summary line alone: H(2, 6) prints 25 MB
            out.seek(max(0, path.stat().st_size - 4096))
            summary = json.loads(out.read().splitlines()[-1])
        assert summary["quotients"] == [
            {"matrix": [[2 * r - 2, 2 * q - 2 * r], [2 * r, 2 * q - 2 - 2 * r]],
             "count": _regular_matrix_count(q, r)} for r in range(1, q)
        ], q


def test_backtracking_does_not_recurse():
    """H(8, 2) has 256 vertices, far deeper than the frame limit set here;
    at eigenvalue index 8 the two cells are the colour classes."""
    params = GraphParams(8, 2)
    even = sum(1 << v for v in range(256) if v.bit_count() % 2 == 0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        found = backtracking_enumerate(params, EnumConstraints(eigenvalue_index=8))
    finally:
        sys.setrecursionlimit(limit)
    assert found == sorted([even, even ^ ((1 << 256) - 1)])


def test_reduced_only_filter():
    everything = backtracking_enumerate(H42, EnumConstraints(eigenvalue_index=2))
    assert len(everything) == 68
    assert set(map(int.bit_count, everything)) == {4, 8, 12}
    reduced = backtracking_enumerate(H42, EnumConstraints(eigenvalue_index=2, reduced_only=True))
    assert len(reduced) == 24
    # with every coordinate essential only the balanced quotient survives
    assert set(map(int.bit_count, reduced)) == {8}
    assert all(equitable_check(TwoPartition(H42, cell)) == QuotientMatrix(((2, 2), (2, 2)))
               for cell in reduced)


@lru_cache(maxsize=2)
def _group_maps(params):
    """vertex_map of every automorphism: every coordinate permutation with
    every tuple of symbol permutations."""
    n, q = params.n, params.q
    return [
        vertex_map(params, Automorphism(coord, alphas))
        for coord in itertools.permutations(range(1, n + 1))
        for alphas in itertools.product(itertools.permutations(range(q)), repeat=n)
    ]


def _group_minimum(params, cell):
    """The least image of the cell over the whole automorphism group."""
    vertices = TwoPartition(params, cell).vertices()
    return min(sum(1 << m[v] for v in vertices) for m in _group_maps(params))


def test_up_to_iso_keeps_canonical_representatives():
    reps = brute_force_enumerate(
        H42, EnumConstraints(eigenvalue_index=2, reduced_only=True, up_to_iso=True)
    )
    assert reps == [_group_minimum(H42, reps[0])]
    reps22 = brute_force_enumerate(H22, EnumConstraints(eigenvalue_index=2, up_to_iso=True))
    assert len(reps22) == 1


# (graph, eigenvalue indices) on which the up-to-iso filter is held to a
# sweep over the whole group
ORBIT_CASES = tuple(
    (params, range(params.n + 1))
    for params in (H22, GraphParams(2, 3), H32, GraphParams(1, 5), GraphParams(2, 4), H42)
) + ((GraphParams(3, 3), (2,)),)


def test_up_to_iso_keeps_orbit_minima():
    """Both routes keep exactly the group minima of the cells they
    enumerate, with and without reduced_only; brute force runs where its
    guard allows.  A set that lacks a generator image of a member is
    refused."""
    for params, indices in ORBIT_CASES:
        minimum = {}
        routes = [backtracking_enumerate]
        if params.vertex_count <= search.BRUTE_FORCE_LIMIT:
            routes.append(brute_force_enumerate)
        for index, reduced in itertools.product(indices, (False, True)):
            c = EnumConstraints(eigenvalue_index=index, reduced_only=reduced)
            iso = EnumConstraints(eigenvalue_index=index, reduced_only=reduced, up_to_iso=True)
            for route in routes:
                found = route(params, c)
                for cell in found:
                    if cell not in minimum:
                        minimum[cell] = _group_minimum(params, cell)
                minima = sorted({minimum[cell] for cell in found})
                assert route(params, iso) == minima, (params, index, route)
    found = backtracking_enumerate(H42, EnumConstraints(eigenvalue_index=2))
    for i in (0, 30, len(found) - 1):
        with pytest.raises(AssertionError, match="missing"):
            search._orbit_minima(H42, found[:i] + found[i + 1:])


def test_up_to_iso_h25_matches_orbit_union_find():
    """The H(2, 5) index-2 classes, found without canonical_form: union-find
    over the 4,320 partitions joined by generators of the automorphism
    group (coordinate swap; a transposition and a 5-cycle per coordinate),
    one representative per class, the least cell of its orbit."""
    params = GraphParams(2, 5)
    cells = backtracking_enumerate(params, EnumConstraints(eigenvalue_index=2))
    assert len(cells) == 4320
    ident, swap01, cycle = (0, 1, 2, 3, 4), (1, 0, 2, 3, 4), (1, 2, 3, 4, 0)
    gens = [Automorphism((2, 1), (ident, ident))] + [
        Automorphism((1, 2), alphas)
        for a in (swap01, cycle)
        for alphas in ((a, ident), (ident, a))
    ]
    parent = {c: c for c in cells}

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for c in cells:
        for g in gens:
            a, b = root(c), root(transform(TwoPartition(params, c), g).cell)
            parent[max(a, b)] = min(a, b)
    reps = sorted({root(c) for c in cells})
    assert reps == [1118480, 3256984, 3320472, 7595868, 7722844, 16510910]

    out, err = io.StringIO(), io.StringIO()
    argv = ["enumerate", "--n", "2", "--q", "5", "--eig-index", "2", "--up-to-iso"]
    assert run_command(argv, stdout=out, stderr=err) == 0
    assert err.getvalue() == ""
    *docs, summary = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [hex_to_cell(d["cell"], 25) for d in docs] == reps
    assert summary["count"] == 6
    assert [x["count"] for x in summary["quotients"]] == [1, 2, 2, 1]


def _generators(params):
    """Generators of the automorphism group: the adjacent coordinate
    transpositions, and on coordinate 1 the symbol transposition (0 1) and
    the q-cycle (one map when q = 2)."""
    n, q = params.n, params.q
    coords, ident = tuple(range(1, n + 1)), tuple(range(q))
    return [
        Automorphism(coords[:k] + (k + 2, k + 1) + coords[k + 2:], (ident,) * n)
        for k in range(n - 1)
    ] + [
        Automorphism(coords, (alpha,) + (ident,) * (n - 1))
        for alpha in dict.fromkeys(((1, 0, *ident[2:]), (*ident[1:], 0)))
    ]


def _orbit_closure(seeds):
    """The cells of all images of the seeds under the automorphism group,
    by a breadth-first search over its generators."""
    if not seeds:
        return set()
    gens = _generators(seeds[0].params)
    seen = {p.cell for p in seeds}
    frontier = list(seeds)
    while frontier:
        images = [transform(p, g) for p in frontier for g in gens]
        frontier = []
        for image in images:
            if image.cell not in seen:
                seen.add(image.cell)
                frontier.append(image)
    return seen


def test_switching_recognizer_matches_orbit_closure():
    """_match_switching accepts exactly the reduced lambda_2 cells in the
    orbits of the permutation_switching outputs, over every assignment of
    the symbols to n - 1 blocks and every lambda_2 base of H(2, q).  The
    orbits come from a closure over the group's generators, which uses
    neither the recognizer nor a walk of the group.  On H(3, 3) one of two
    blocks of three symbols is a single symbol, so nothing switches.  A
    one-bit flip of each accepted cell is refused."""
    rng = random.Random(11)
    for (n, q), size in {(2, 4): 138, (2, 5): 4320, (3, 3): 0, (3, 4): 648}.items():
        params = GraphParams(n, q)
        h2q = GraphParams(2, q)
        bases = [TwoPartition(h2q, cell)
                 for cell in backtracking_enumerate(h2q, EnumConstraints(eigenvalue_index=2))]
        outputs = []
        for assignment in itertools.product(range(n - 1), repeat=q):
            if set(assignment) != set(range(n - 1)):
                continue
            blocks = AlphabetBlocks(tuple(
                frozenset(s for s in range(q) if assignment[s] == i) for i in range(n - 1)
            ))
            for base in bases:
                out = permutation_switching(blocks, base)
                if not isinstance(out, FailedGate):
                    outputs.append(out)
        closure = _orbit_closure(outputs)
        reduced = backtracking_enumerate(
            params, EnumConstraints(eigenvalue_index=2, reduced_only=True)
        )
        accepted = {cell for cell in reduced
                    if search._match_switching(TwoPartition(params, cell)) is not None}
        assert len(closure) == size and accepted == closure, (n, q)
        for cell in sorted(accepted):
            flipped = TwoPartition(params, cell ^ 1 << rng.randrange(params.vertex_count))
            assert search._match_switching(flipped) is None, (n, q, cell)


def _cycle_pairs_h42():
    """The 2-partitions of H(4, 2) whose cells are both induced 8-cycles,
    in lexicographic order of their ascending vertex tuples.  Both cells
    are 2-regular iff the quotient is [[2, 2], [2, 2]]."""
    found = backtracking_enumerate(H42, EnumConstraints(quotient=QuotientMatrix(((2, 2),) * 2)))
    parts = [TwoPartition(H42, cell) for cell in found]
    cycles = [p for p in parts if is_induced_cycle(H42, p.vertices()) == 8]
    return sorted((p for p in cycles if p.complement() in cycles), key=TwoPartition.vertices)


@lru_cache(maxsize=2)
def _lift_orbit(q):
    """The cells of the orbit of lifted_cycle_pair(q, range(q // 2))."""
    return frozenset(_orbit_closure([lifted_cycle_pair(q, range(q // 2))]))


def test_cycle_pair_recognizer_matches_lift_orbit():
    """_match_cycle_pair_lifting gives the first split and the constant
    pair on every cell of the orbit of a lift, and _match_switching none.
    On H(4, 2) the orbit has 24 cells; on H(4, 4) its 1,944 cells are
    24 * (C(4, 2) / 2)^4, the number of distinct lifts.  A one-bit flip of
    each orbit cell is refused by both recognizers."""
    assert len(_lift_orbit(2)) == 24
    assert len(_lift_orbit(4)) == 24 * (comb(4, 2) // 2) ** 4 == 1944
    rng = random.Random(12)
    for q in (2, 4):
        params = GraphParams(4, q)
        tag = CyclePairLifting(split=frozenset(range(q // 2)), cycle_pair=search._TAG_CYCLE_PAIR)
        for cell in sorted(_lift_orbit(q)):
            p = TwoPartition(params, cell)
            assert search._match_cycle_pair_lifting(p) == tag, (q, cell)
            assert search._match_switching(p) is None, (q, cell)
            flipped = TwoPartition(params, cell ^ 1 << rng.randrange(params.vertex_count))
            assert search._match_cycle_pair_lifting(flipped) is None, (q, cell)
            assert search._match_switching(flipped) is None, (q, cell)


def test_reduced_lambda2_cells_are_the_predicted_orbits():
    """The theorem by counting.  For n >= 4 every reduced lambda_2
    partition is, up to isomorphism, a lifted cycle pair (n = 4, q even) or
    a permutation switching (q >= 2(n - 1)), so the reduced lambda_2 cells
    are the union of the orbits of the constructions' outputs.  No graph
    here has a switching output, so the cells are the orbit of
    lifted_cycle_pair on H(4, 2) and H(4, 4) and there are none on the
    others.  The orbits come from the breadth-first closure through
    transform.  On H(4, 4) the reduced filter runs on the cells that
    test_sorted_output_is_pinned found, with no second search."""
    reduced_only = EnumConstraints(eigenvalue_index=2, reduced_only=True)
    for n, q in ((4, 2), (4, 3), (5, 2), (6, 2), (5, 3), (7, 2), (8, 2), (9, 2)):
        found = backtracking_enumerate(GraphParams(n, q), reduced_only)
        predicted = _lift_orbit(q) if n == 4 and q % 2 == 0 else set()
        assert set(found) == predicted, (n, q)
    h44 = GraphParams(4, 4)
    reduced = search._filtered(h44, list(_pinned_cells(4, 4, 2, 2)), reduced_only)
    assert set(reduced) == _lift_orbit(4) and len(reduced) == 1944


def test_ternary_census_counts():
    # closed form: 3 + n(3^q - 3) + C(n,2)(2^q - 2)^2
    assert enumerate_ternary_census(GraphParams(1, 3)) == TernaryCensus(3, 24, 0, 0)
    assert enumerate_ternary_census(H22) == TernaryCensus(3, 12, 4, 62)
    c = enumerate_ternary_census(H32)
    assert (c.constants, c.quasi_strings, c.quasi_crosses) == (3, 18, 12)
    assert c.members == 33 and c.total == 3 ** 8
    for n, q in ((1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2)):
        c = enumerate_ternary_census(GraphParams(n, q))
        assert (c.constants, c.quasi_strings, c.quasi_crosses) == (
            3, n * (3 ** q - 3), comb(n, 2) * (2 ** q - 2) ** 2
        ), (n, q)
        assert c.total == 3 ** (q ** n)


def test_ternary_census_guard():
    """q^n <= 18 bounds the join and 2^16 members the classify calls:
    H(1, 11) has 3^11 = 177,147 members, and H(3, 3) 27 vertices."""
    with pytest.raises(ValueError, match="guarded to 65536 members, got 177147"):
        enumerate_ternary_census(GraphParams(1, 11))
    with pytest.raises(ValueError, match="guarded to q.n <= 18, got 27"):
        enumerate_ternary_census(GraphParams(3, 3))


def test_ternary_members_match_operator_sweep():
    """The join finds exactly the ternary functions that the operator test
    of the top-two span accepts, each once, on every graph the census
    sweeps in the suite."""
    for n, q in ((1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2)):
        params = GraphParams(n, q)
        members = list(search._ternary_members(params))
        swept = {
            values
            for values in itertools.product((-1, 0, 1), repeat=params.vertex_count)
            if in_top_two_eigenspaces(VertexFunction(params, values))
        }
        assert len(members) == len(set(members)), (n, q)
        assert set(members) == swept, (n, q)


def test_ternary_census_refuses_a_joined_non_member(monkeypatch):
    """A function the join yields but the operator test refuses is a
    disagreement between the two, not a count."""
    monkeypatch.setattr(search, "_ternary_members", lambda params: iter([(1, 0, 0, 0)]))
    with pytest.raises(AssertionError, match="disagree"):
        enumerate_ternary_census(H22)


def test_ternary_census_on_h24_and_h42():
    """The census of H(2, 4) and H(4, 2), 16 vertices each and within the
    guard, gives the closed-form counts: 355 and 51 members."""
    for (n, q), counts in {(2, 4): (3, 156, 196), (4, 2): (3, 24, 24)}.items():
        assert counts == (3, n * (3 ** q - 3), comb(n, 2) * (2 ** q - 2) ** 2)
        assert enumerate_ternary_census(GraphParams(n, q)) == TernaryCensus(
            *counts, 3 ** 16 - sum(counts)
        ), (n, q)


def test_classify_preconditions():
    assert classify_reduced_lambda2(TwoPartition.from_vertices(H42, [0])) == FailedGate(
        "partition is not equitable")
    # eigenvalue index 1, not 2
    half = TwoPartition.from_vertices(H32, [0, 1, 2, 3])
    assert classify_reduced_lambda2(half) == FailedGate(
        "second quotient eigenvalue 1 is not lambda_2 = -1")
    padded = extend(TwoPartition.from_vertices(H32, [0, 7]), 1)
    assert classify_reduced_lambda2(padded) == FailedGate(
        "partition is not reduced; delete nonessential coordinates first")
    # H(1, q) has no lambda_2: a refused input, not a failed gate
    with pytest.raises(ValueError, match="eigenvalue index 2 outside"):
        classify_reduced_lambda2(TwoPartition.from_vertices(GraphParams(1, 3), [0]))


def test_classify_small_base():
    """n <= 3 is a base case, which also says whether a switching matches:
    the H(2, 2) cell is its own base, the antipodal pair of H(3, 2) is no
    switching output."""
    p = TwoPartition.from_vertices(H22, [1, 2])
    assert classify_reduced_lambda2(p) == SmallBase(secondary_switching=True)
    pair = TwoPartition.from_vertices(H32, [0, 7])
    assert classify_reduced_lambda2(pair) == SmallBase(secondary_switching=False)


def test_classify_cycle_pair_lifting():
    p = eight_cycle_partition()
    tag = classify_reduced_lambda2(p)
    assert isinstance(tag, CyclePairLifting)
    assert tag.split == frozenset({0})
    rebuilt = lifted_cycle_pair(2, tag.split, tag.cycle_pair)
    assert _group_minimum(rebuilt.params, rebuilt.cell) == _group_minimum(p.params, p.cell)


def test_classify_lifted_q4():
    p = lifted_cycle_pair(4, (1, 3))
    tag = classify_reduced_lambda2(p)
    assert isinstance(tag, CyclePairLifting)
    rebuilt = lifted_cycle_pair(4, tag.split, tag.cycle_pair)
    # H(4, 4) has 4! * (4!)^4 automorphisms, too many to sweep, but only
    # 1,944 images of a lift
    assert {rebuilt.cell, p.cell} <= _lift_orbit(4)


def test_classify_never_warns_on_reduced_h42():
    reduced = backtracking_enumerate(
        H42, EnumConstraints(eigenvalue_index=2, reduced_only=True)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tags = [classify_reduced_lambda2(TwoPartition(H42, cell)) for cell in reduced]
    assert all(isinstance(t, CyclePairLifting) for t in tags)


def test_reduced_lambda2_classes_are_tagged():
    """Every reduced lambda_2 class on the graphs within budget is tagged
    by a construction family, with warnings as errors."""
    expected = {
        (3, 3): [SmallBase, SmallBase],
        (4, 2): [CyclePairLifting],
        (5, 2): [], (4, 3): [], (6, 2): [],
        (5, 3): [], (7, 2): [], (8, 2): [],
    }
    c = EnumConstraints(eigenvalue_index=2, reduced_only=True, up_to_iso=True)
    for (n, q), tags in expected.items():
        params = GraphParams(n, q)
        reps = backtracking_enumerate(params, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = [classify_reduced_lambda2(TwoPartition(params, cell)) for cell in reps]
        assert [type(t) for t in found] == tags, (n, q)


def test_counts_sum_over_essential_coordinates():
    """T_i(n, q) = sum over m of C(n, m) R_i(m, q), at every index: each
    index-i cell of H(n, q) extends exactly one reduced cell on its m
    essential coordinates, and extension keeps the index.  T counts the
    index-i cells, R the reduced ones, and R_i(m, q) = 0 for i > m.  The
    totals T_0..T_n of H(4, 3), H(3, 4) and H(6, 2) are pinned too."""
    counts = {}

    def count(n, q, i, reduced):
        if i > n:
            return 0
        if (n, q, i, reduced) not in counts:
            c = EnumConstraints(eigenvalue_index=i, reduced_only=reduced)
            counts[n, q, i, reduced] = len(backtracking_enumerate(GraphParams(n, q), c))
        return counts[n, q, i, reduced]

    graphs = [(n, 2) for n in range(1, 7)] + [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5)]
    for n, q in graphs:
        for i in range(n + 1):
            total = sum(comb(n, m) * count(m, q, i, True) for m in range(1, n + 1))
            assert count(n, q, i, False) == total, (n, q, i)
    for (n, q), totals in {(4, 3): [0, 24, 648, 60144, 48], (3, 4): [0, 42, 26766, 52830],
                           (6, 2): [0, 12, 550, 19600, 894, 12, 2]}.items():
        assert [count(n, q, i, False) for i in range(n + 1)] == totals, (n, q)
    # the closed form at index 2 for q = 2: R_2(m, 2) = 2, 8, 24, 0 for m = 2..5
    assert [count(m, 2, 2, True) for m in range(2, 6)] == [2, 8, 24, 0]


def test_cycle_pair_lifts_form_one_class():
    """For q = 2, 4, 6 and 8, the lift of every induced-8-cycle pair over
    every split is an image of the first lift under an automorphism of
    H(4, q), so _match_cycle_pair_lifting may tag every lift with the
    first split and pair.

    The automorphism (coordinate permutation pi, flips a_k) of H(4, 2)
    that takes the first pair to a pair lifts to H(4, q): at coordinate k,
    beta_k maps the first split onto the split and its complement onto the
    complement, after exchanging the two if a_k flips."""
    pairs = _cycle_pairs_h42()
    first = pairs[0]
    moves = [
        next(
            (perm, alphas)
            for perm in itertools.permutations(range(1, 5))
            for alphas in itertools.product(((0, 1), (1, 0)), repeat=4)
            if transform(first, Automorphism(perm, alphas)) == pair
        )
        for pair in pairs
    ]
    for q in (2, 4, 6, 8):
        splits = list(itertools.combinations(range(q), q // 2))
        blocks0 = (splits[0], tuple(s for s in range(q) if s not in splits[0]))
        base = lifted_cycle_pair(q, splits[0], first)
        for split in splits:
            blocks = (split, tuple(s for s in range(q) if s not in split))
            for pair, (perm, alphas) in zip(pairs, moves):
                betas = []
                for a in alphas:
                    beta = [0] * q
                    for src, dst in zip(blocks0, (blocks[a[0]], blocks[a[1]])):
                        for s, t in zip(src, dst):
                            beta[s] = t
                    betas.append(tuple(beta))
                image = transform(base, Automorphism(perm, tuple(betas)))
                assert image == lifted_cycle_pair(q, split, pair), (q, split, pair.cell)


def test_cycle_pairs_h42_order():
    """The 24 induced-8-cycle pairs come in lexicographic order of their
    vertex tuples, which is not cell bitset order; classify-t5 prints the
    first pair, the constant _TAG_CYCLE_PAIR."""
    pairs = _cycle_pairs_h42()
    assert pairs[0] == search._TAG_CYCLE_PAIR
    assert len(pairs) == 24
    words = [tuple(p.vertices()) for p in pairs]
    assert words == sorted(words)
    cells = [p.cell for p in pairs]
    assert cells != sorted(cells)
    assert [cell_to_hex(c, 16) for c in cells] == [
        "724e", "742e", "b18d", "b81d", "35ac", "3a5c", "d18b", "d81b",
        "53ca", "5c3a", "1bd8", "1db8", "e247", "e427", "a3c5", "ac35",
        "27e4", "2e74", "c5a3", "ca53", "47e2", "4e72", "8bd1", "8db1",
    ]

"""Exhaustive search over 2-partitions and ternary functions of H(n, q).

Two independent enumeration routes are kept deliberately separate so they
can certify each other: a plain sweep over all cell bitsets (desk scale
only) and a backtracking search driven by candidate quotient matrices.
The backtracking search branches only on the free vertices of an
echelon form of (A - lam I) x = s21 * 1, which every cell with second
quotient eigenvalue lam satisfies, and takes every other vertex from its
row.  It is sharded at the states it reaches at a fixed vertex; shards
can run in worker processes, and their merged, sorted union is identical
for any thread count.  A cell with quotient [[a, b], [c, d]] has a
complement with quotient [[d, c], [b, a]], so each candidate and this
partner are searched only over the cells that hold vertex 0, and every
other cell is the complement of one found.

The up-to-iso filter keeps the least cell of each orbit of the group of
coordinate and symbol permutations: the enumerated set is closed under
that group, so a union-find over the images of its cells under the
group's generators finds the orbits.  Complement swaps are not
quotiented out: (C, complement) and (complement, C) are distinct.  The
classification walks no group: it reads a construction's parameters off
the slices of a partition and rebuilds the partition from them.

The ternary census classifies only the functions in the span of the top
two eigenspaces, which a meet-in-the-middle join over the linear
residual of the lambda_1 eigen-equation finds, and counts the rest.
"""

from __future__ import annotations

import os
import warnings
from functools import lru_cache
from math import comb, gcd
from operator import itemgetter
from typing import Iterator, Optional, Union

from .constructions import (
    AlphabetBlocks,
    lifted_cycle_pair,
    permutation_switching,
)
from .eigenfunctions import (
    Constant,
    NotMember,
    QuasiCross,
    QuasiString,
    VertexFunction,
    classify_top_two,
)
from .hamming import (
    Automorphism,
    GraphParams,
    Record,
    digit_masks,
    digit_table,
    eigenvalue,
    neighbor_table,
    vertex_map,
)
from .partitions import (
    NotEquitable,
    QuotientMatrix,
    TwoPartition,
    equitable_check,
    essential_coordinates,
    predicted_cell_size,
    pull,
    transform,
)

BRUTE_FORCE_LIMIT = 25          # vertex-count bound for the 2^(q^n) sweep
# Vertex-count bound for the backtracking search.  Its stack is a list, so
# the bound is not a frame limit; it stays well beyond the graphs the search
# finishes in minutes (H(3, 4), 64 vertices, takes about 2 s at index 2,
# and H(3, 5), 125 vertices, about 2.5 min).
BACKTRACK_LIMIT = 512
# Census bounds: q^n <= 18 keeps each half of the join at most 3^9 keys, and
# the closed-form member count bounds the classify calls, one per member.
TERNARY_VERTEX_LIMIT = 18
TERNARY_MEMBER_LIMIT = 1 << 16
_SHARD_DEPTH = 10               # shards are the live states at this vertex
_Rows = tuple[tuple[int, ...], ...]     # the rows of a QuotientMatrix


class EnumConstraints(Record):
    """Restrictions applied while enumerating 2-partitions.

    At most one of quotient / eigenvalue_index may be set.  reduced_only
    keeps partitions with every coordinate essential; up_to_iso keeps one
    representative per isomorphism class, the least cell of its orbit.
    """

    quotient: Optional[QuotientMatrix] = None
    eigenvalue_index: Optional[int] = None
    reduced_only: bool = False
    up_to_iso: bool = False

    def __post_init__(self) -> None:
        if self.quotient is not None and self.eigenvalue_index is not None:
            raise ValueError("give a quotient matrix or an eigenvalue index, not both")


def candidate_quotient_matrices(
    params: GraphParams, constraints: EnumConstraints
) -> tuple[QuotientMatrix, ...]:
    """All 2x2 quotient matrices compatible with the constraints.

    An explicit quotient must have row sums equal to the degree.  For an
    eigenvalue index i the candidates are the matrices with S11 - S21 =
    lambda_i, correct row sums and S12, S21 >= 1.  Either way only matrices
    with an integer predicted cell size strictly between 0 and q^n are kept.
    Guarded to q^n <= 512, the bound of the backtracking search, since on
    H(1, q) an eigenvalue index has up to q - 1 candidates.
    """
    if params.vertex_count > BACKTRACK_LIMIT:
        raise ValueError(f"search guarded to q^n <= {BACKTRACK_LIMIT}, got {params.vertex_count}")
    k = params.degree
    if constraints.quotient is not None:
        if constraints.quotient.row_sums() != (k, k):
            raise ValueError("quotient constraint has wrong shape or row sums")
        candidates: tuple[QuotientMatrix, ...] = (constraints.quotient,)
    elif constraints.eigenvalue_index is None:
        raise ValueError("constraints resolve to no candidate quotient matrices")
    else:
        lam = eigenvalue(params, constraints.eigenvalue_index)
        candidates = tuple(
            QuotientMatrix(((lam + s21, k - lam - s21), (s21, k - s21)))
            for s21 in range(1, k + 1)
            if lam + s21 >= 0 and k - lam - s21 >= 1
        )
    return tuple(
        s for s in candidates
        if (size := predicted_cell_size(s, params)).denominator == 1
        and 0 < size < params.vertex_count
    )


def _fast_two_quotient(masks, cell: int, deg: int):
    """(s11, s12, s21, s22) of the cell bitset, or None; early abort.
    masks[v] is the neighbor bitset of vertex v."""
    s11 = s21 = -1
    for v, mask in enumerate(masks):
        cnt = (cell & mask).bit_count()
        if (cell >> v) & 1:
            if s11 < 0:
                s11 = cnt
            elif cnt != s11:
                return None
        else:
            if s21 < 0:
                s21 = cnt
            elif cnt != s21:
                return None
    return s11, deg - s11, s21, deg - s21


def _satisfies(params, s_tuple, constraints) -> bool:
    if constraints.quotient is not None:
        s = constraints.quotient
        return s_tuple == (s.rows[0][0], s.rows[0][1], s.rows[1][0], s.rows[1][1])
    if constraints.eigenvalue_index is not None:
        return s_tuple[0] - s_tuple[2] == eigenvalue(params, constraints.eigenvalue_index)
    return True


def brute_force_enumerate(
    params: GraphParams, constraints: EnumConstraints = EnumConstraints()
) -> list[TwoPartition]:
    """Sweep all 2^(q^n) - 2 proper cells; keep the equitable ones that
    satisfy the constraints.  Guarded to q^n <= 25.  Output is sorted by
    cell bitset."""
    n_vertices = params.vertex_count
    if n_vertices > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force sweep guarded to q^n <= {BRUTE_FORCE_LIMIT}, got {n_vertices}"
        )
    # built here from neighbor_table, not from _pruning_table, so that this
    # route shares nothing with the backtracking route it certifies
    masks = [sum(1 << w for w in ws) for ws in neighbor_table(params)]
    out = []
    for cell in range(1, (1 << n_vertices) - 1):
        s = _fast_two_quotient(masks, cell, params.degree)
        if s is None or not _satisfies(params, s, constraints):
            continue
        p = TwoPartition(params, cell)
        if constraints.reduced_only and len(essential_coordinates(p)) != params.n:
            continue
        out.append(p)
    if constraints.up_to_iso:
        out = _orbit_minima(out)
    return out


# --- backtracking route -----------------------------------------------------


@lru_cache(maxsize=4)
def _pruning_table(params: GraphParams) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each vertex v, the vertices whose count is checked once v is set:
    v and each neighbor w < v, as (bit of w, neighbor bitset of w, number
    of neighbors of w still unassigned once vertices 0..v are set)."""
    nbrs = neighbor_table(params)
    masks = [sum(1 << w for w in ws) for ws in nbrs]
    return tuple(
        tuple(
            (1 << w, masks[w], sum(1 for x in nbrs[w] if x > v))
            for w in (v, *(w for w in nbrs[v] if w < v))
        )
        for v in range(params.vertex_count)
    )


@lru_cache(maxsize=4)
def _forced_table(
    params: GraphParams, lam: int
) -> tuple[Optional[tuple[int, int, tuple[tuple[int, int], ...]]], ...]:
    """For each vertex p, None if p is free, else the row of an echelon
    form of (A - lam I) x = s21 * 1 whose latest vertex is p.

    A cell with quotient [[s11, s12], [s21, s22]] and lam = s11 - s21 has
    s21 + lam * x_v members among the neighbors of v, so its indicator x
    solves that system.  Rows are reduced in exact integers, each divided
    by its gcd.  The row of p is (d, beta, ((g, mask), ...)) with d > 0:
    d * x_p = s21 * beta - sum of g * |cell & mask|, the masks bucketing
    the vertices below p by their coefficient g.  Rows that reduce to zero
    are dropped: for lam != degree the constant vector s21 / (degree - lam)
    solves the system, and lam = degree forces s21 = s11 - degree = 0.
    """
    rows: dict[int, tuple[dict[int, int], int]] = {}
    for v, ws in enumerate(neighbor_table(params)):
        row = dict.fromkeys(ws, 1)
        if lam:
            row[v] = -lam
        beta = 1
        while row:
            p = max(row)
            g = gcd(beta, *row.values())
            if row[p] < 0:
                g = -g
            if g != 1:
                row = {w: c // g for w, c in row.items()}
                beta //= g
            if p not in rows:
                rows[p] = (row, beta)
                break
            prow, pbeta = rows[p]
            g = gcd(prow[p], row[p])
            a, b = prow[p] // g, row[p] // g
            if a != 1:
                row = {w: a * c for w, c in row.items()}
            for w, c in prow.items():
                x = row.get(w, 0) - b * c
                if x:
                    row[w] = x
                else:
                    del row[w]
            beta = a * beta - b * pbeta
    table = []
    for p in range(params.vertex_count):
        if p not in rows:
            table.append(None)
            continue
        row, beta = rows[p]
        buckets: dict[int, int] = {}
        for w, g in row.items():
            if w != p:
                buckets[g] = buckets.get(g, 0) | 1 << w
        table.append((row[p], beta, tuple(buckets.items())))
    return tuple(table)


def _walk(
    params: GraphParams, s11: int, s21: int, size_c: int,
    state: tuple[int, int, int], stop: int,
) -> list[tuple[int, int, int]]:
    """The states (next vertex, cell bitset, cell size) that the search
    reaches at vertex stop from state.

    Vertices are assigned in index order on an explicit stack.  A vertex
    with a row in _forced_table takes the one value that row gives, since
    every vertex below it is assigned; the state dies unless that value is
    0 or 1.  A free vertex branches 0/1.  Feasibility pruning: a vertex w
    with cnt assigned neighbors in C, pending unassigned neighbors and
    target count req must satisfy cnt <= req <= cnt + pending.
    """
    table = _pruning_table(params)
    forced = _forced_table(params, s11 - s21)
    n_vertices = len(table)
    found = []
    stack = [state]
    while stack:
        v, cell, size = stack.pop()
        if v == stop:
            found.append((v, cell, size))
            continue
        row = forced[v]
        if row is None:
            choices: tuple[int, ...] = (0, 1)
        else:
            d, beta, terms = row
            val = s21 * beta
            for g, mask in terms:
                val -= g * (cell & mask).bit_count()
            if val == 0:
                choices = (0,)
            elif val == d:
                choices = (1,)
            else:
                continue
        rest = n_vertices - v - 1
        for c in choices:
            new_size = size + c
            if new_size > size_c or size_c - new_size > rest:
                continue
            new_cell = cell | (c << v)
            for bit, mask, pending in table[v]:
                cnt = (new_cell & mask).bit_count()
                req = s11 if new_cell & bit else s21
                if not cnt <= req <= cnt + pending:
                    break
            else:
                stack.append((v + 1, new_cell, new_size))
    return found


def _search_shard(shard: tuple[GraphParams, _Rows, int, tuple[int, int, int]]) -> list[int]:
    """All cells the search completes from one live state, as ints.

    shard is (params, quotient rows, size_c, state), state one of those
    that _walk reaches at the shard depth; see _live_shards.
    """
    params, ((s11, _), (s21, _)), size_c, state = shard
    return [cell for _, cell, _ in _walk(params, s11, s21, size_c, state, params.vertex_count)]


def _partner(rows: _Rows) -> _Rows:
    """The complement's quotient rows: [[a, b], [c, d]] -> [[d, c], [b, a]]."""
    (a, b), (c, d) = rows
    return (d, c), (b, a)


def _live_shards(
    params: GraphParams, searched: tuple[_Rows, ...]
) -> list[tuple[GraphParams, _Rows, int, tuple[int, int, int]]]:
    """The shards of the searched quotient rows: for each, in order, the
    states with vertex 0 in C that the search reaches at vertex
    min(q^n, _SHARD_DEPTH), sorted, so the list is the same for every
    thread count."""
    depth = min(params.vertex_count, _SHARD_DEPTH)
    shards = []
    for rows in searched:
        (s11, _), (s21, _) = rows
        size = int(predicted_cell_size(QuotientMatrix(rows), params))
        # vertex 0 is free, and its count check passes since s11 <= degree
        states = sorted(_walk(params, s11, s21, size, (1, 1, 1), depth))
        shards.extend((params, rows, size, x) for x in states)
    return shards


def backtracking_enumerate(
    params: GraphParams,
    constraints: EnumConstraints,
    threads: int = 1,
) -> list[TwoPartition]:
    """Enumerate equitable 2-partitions matching a quotient matrix or an
    eigenvalue index by backtracking over vertex assignments, forcing
    every vertex that an echelon row of (A - lam I) x = s21 * 1 determines.

    The complement of a cell with quotient rows r = [[a, b], [c, d]] has
    quotient rows partner(r) = [[d, c], [b, a]], with the same lam.  Every
    row set in the candidates W and their partners is searched only over
    the cells with vertex 0 in C; a cell found is kept when its rows are in
    W, and its complement when their partner is.  So each cell with rows
    in W is found: it holds vertex 0, or its complement holds it and has
    the partner rows.

    The search is split at the live states of a fixed depth into shards
    whose results are merged and sorted, so the output is identical for
    every thread count.  Output is sorted by cell bitset and agrees with
    brute_force_enumerate wherever both are allowed to run.  All shards
    share one pool of min(threads, os.cpu_count(), shard count) worker
    processes; with one worker they run in this process.  Guarded to
    q^n <= 512 by candidate_quotient_matrices.
    """
    kept = [s.rows for s in candidate_quotient_matrices(params, constraints)]
    shards = _live_shards(params, tuple(dict.fromkeys(kept + [_partner(r) for r in kept])))
    workers = min(threads, os.cpu_count() or 1, len(shards))
    if workers <= 1:
        results = map(_search_shard, shards)
    else:
        # imported here so that no other command pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunksize = max(1, len(shards) // (8 * workers))
            results = list(ex.map(_search_shard, shards, chunksize=chunksize))
    full = (1 << params.vertex_count) - 1
    cells: set[int] = set()
    for (_, rows, _, _), found in zip(shards, results):
        if rows in kept:
            cells.update(found)
        if _partner(rows) in kept:
            cells.update(full ^ cell for cell in found)
    out = [TwoPartition(params, c) for c in sorted(cells)]
    if constraints.reduced_only:
        out = [p for p in out if len(essential_coordinates(p)) == params.n]
    if constraints.up_to_iso:
        out = _orbit_minima(out)
    return out


# --- isomorphism: orbit minima ----------------------------------------------


def _orbit_minima(found: list[TwoPartition]) -> list[TwoPartition]:
    """The partitions of found whose cell is the least of its orbit under
    the graph automorphisms, in the order of found.

    found is a set the group maps into itself: union-find joins each cell
    with its image under each generator, keeping the smaller root, so each
    class is an orbit and its root the orbit's least cell.  The image is
    the pull along the generator's vertex_map, that is the image under its
    inverse: g and g^-1 give the same orbits, and a finite set is closed
    under g iff it is closed under g^-1.  An image that is not in found
    raises AssertionError: the search lost part of an orbit.
    """
    if not found:
        return found
    params = found[0].params
    n, q = params.n, params.q
    coords, ident = tuple(range(1, n + 1)), tuple(range(q))
    # the adjacent coordinate transpositions, and on coordinate 1 the symbol
    # transposition (0 1) and the q-cycle s -> s + 1 (one map when q = 2)
    generators = [
        Automorphism(coords[:k] + (k + 2, k + 1) + coords[k + 2:], (ident,) * n)
        for k in range(n - 1)
    ] + [
        Automorphism(coords, (alpha, *(ident,) * (n - 1)))
        for alpha in dict.fromkeys(((1, 0, *ident[2:]), (*ident[1:], 0)))
    ]
    parent = {p.cell: p.cell for p in found}

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    # each generator's getter once, each cell's binary digits once: digit j
    # stands for vertex q^n - 1 - j, so the pull along vmap takes digit j of
    # the image from digit q^n - 1 - vmap[q^n - 1 - j] of the cell
    top = params.vertex_count - 1
    getters = [itemgetter(*[top - w for w in reversed(vertex_map(params, g))]) for g in generators]
    for p in found:
        digits = format(p.cell, f"0{top + 1}b")
        for getter in getters:
            image = int("".join(getter(digits)), 2)
            if image not in parent:
                raise AssertionError(f"image {image:#x} of cell {p.cell:#x} is missing")
            a, b = root(p.cell), root(image)
            parent[max(a, b)] = min(a, b)
    return [p for p in found if root(p.cell) == p.cell]


# --- ternary function census -------------------------------------------------


class TernaryCensus(Record):
    """Exact counts of the classifier outcomes over all ternary functions."""

    constants: int
    quasi_strings: int
    quasi_crosses: int
    not_member: int

    @property
    def members(self) -> int:
        return self.constants + self.quasi_strings + self.quasi_crosses

    @property
    def total(self) -> int:
        return self.members + self.not_member


def _ternary_members(params: GraphParams) -> Iterator[tuple[int, ...]]:
    """The value tuples of the ternary functions in the span of the top
    two eigenspaces, found by a meet-in-the-middle join; no guard.

    f is a member iff D f = 0, where D f is r = (A - lambda_1 I) f less
    r(0) at every vertex.  D is linear, so D f is the sum of f(v) D e_v.
    Each column D e_v is read off neighbor_table and packed in signed
    lanes of one integer, wide enough that a sum of them is 0 only when
    every lane is.  Tripling gives, for each half of the vertices, the
    table key -> half-assignments; a left key k joins the right key -k.
    """
    n_vertices, lam = params.vertex_count, eigenvalue(params, 1)
    # |r(w) - r(0)| <= 2 (degree + |lam|) for a ternary f, under 2^(width - 1)
    width = (2 * (params.degree + abs(lam))).bit_length() + 1
    repunit = sum(1 << w * width for w in range(n_vertices))
    columns = []
    for v, ws in enumerate(neighbor_table(params)):
        r = sum(1 << w * width for w in ws) - (lam << v * width)
        r0 = (1 if 0 in ws else 0) - (lam if v == 0 else 0)
        columns.append(r - r0 * repunit)

    def table(cols: list[int]) -> dict[int, list[tuple[int, ...]]]:
        keys: dict[int, list[tuple[int, ...]]] = {0: [()]}
        for col in cols:
            grown: dict[int, list[tuple[int, ...]]] = {}
            for key, heads in keys.items():
                for x in (-1, 0, 1):
                    grown.setdefault(key + x * col, []).extend(h + (x,) for h in heads)
            keys = grown
        return keys

    half = n_vertices // 2
    right = table(columns[half:])
    for key, heads in table(columns[:half]).items():
        for tail in right.get(-key, ()):
            for head in heads:
                yield head + tail


def enumerate_ternary_census(params: GraphParams) -> TernaryCensus:
    """Classify every ternary function in the span of the top two
    eigenspaces; the other 3^(q^n) - members count as not members.

    Four checks certify the counts:
    - the join of _ternary_members, over residual columns built from
      neighbor_table, finds the members;
    - classify_top_two runs on each one.  Its operator test reads the
      separate kernel residual_witness, so a joined function it refuses
      raises AssertionError here, and it rebuilds every shape it reports
      (AssertionError otherwise);
    - test_ternary_members_match_operator_sweep holds the joined set to
      the operator test on every ternary function of small graphs, so
      the join misses no member there;
    - test_ternary_census_counts holds the counts to their closed form
      3 + n(3^q - 3) + C(n, 2)(2^q - 2)^2.

    Guarded to q^n <= 18 and to at most 2^16 members by that closed form.
    """
    n, q, n_vertices = params.n, params.q, params.vertex_count
    # the vertex bound comes first, so that no power below exceeds 3^18
    if n_vertices > TERNARY_VERTEX_LIMIT:
        raise ValueError(
            f"ternary sweep guarded to q^n <= {TERNARY_VERTEX_LIMIT}, got {n_vertices}"
        )
    members = 3 + n * (3 ** q - 3) + comb(n, 2) * (2 ** q - 2) ** 2
    if members > TERNARY_MEMBER_LIMIT:
        raise ValueError(
            f"ternary sweep guarded to {TERNARY_MEMBER_LIMIT} members, got {members}"
        )
    counts = {Constant: 0, QuasiString: 0, QuasiCross: 0}
    for values in _ternary_members(params):
        form = classify_top_two(VertexFunction(params, values))
        if isinstance(form, NotMember):
            raise AssertionError(f"the residual join and the operator test disagree on {values}")
        counts[type(form)] += 1
    return TernaryCensus(
        constants=counts[Constant],
        quasi_strings=counts[QuasiString],
        quasi_crosses=counts[QuasiCross],
        not_member=3 ** n_vertices - sum(counts.values()),
    )


# --- classification of reduced lambda_2 partitions ---------------------------


class SmallBase(Record):
    """Reduced lambda_2 partition on n <= 3 coordinates: a base case.

    secondary_switching records whether the partition is also isomorphic
    to a permutation-switching output.
    """

    secondary_switching: bool


class CyclePairLifting(Record):
    """Isomorphic to an alphabet lift of an induced-8-cycle pair."""

    split: frozenset[int]
    cycle_pair: TwoPartition


class SwitchingConstruction(Record):
    """Isomorphic to a permutation-switching output."""

    blocks: AlphabetBlocks
    base: TwoPartition


class Unclassified(Record):
    pass


ReducedLambda2Tag = Union[SmallBase, CyclePairLifting, SwitchingConstruction, Unclassified]


# The least of the 24 induced-8-cycle pairs of H(4, 2) by ascending vertex
# tuple (vertices 0, 1, 2, 5, 10, 13, 14, 15): the pair every lift is tagged with.
_TAG_CYCLE_PAIR = TwoPartition(GraphParams(4, 2), 0xE427)


def _slices(params: GraphParams, cell: int, k: int) -> list[int]:
    """The slices x_k = a of a cell, a = 0..q-1, each shifted onto the
    slice x_k = 0, so that equal slices are equal ints."""
    stride = params.q ** (params.n - k)
    return [(cell & fiber) >> a * stride for a, fiber in enumerate(digit_masks(params)[k - 1])]


def _match_cycle_pair_lifting(p: TwoPartition) -> Optional[CyclePairLifting]:
    """The tag of the first split and _TAG_CYCLE_PAIR if p is isomorphic
    to a lifted cycle pair, else None.

    A lift is constant on the two blocks of its split along each
    coordinate, so along coordinate k the slices of p must take two
    values, each on q/2 symbols.  beta_k maps range(q/2) onto the class of
    symbol 0; reading one symbol of each class pulls p onto H(4, 2), and
    that pull must be a cycle pair (lifted_cycle_pair refuses it
    otherwise).  Its lift moved by the betas is then p itself, which is
    asserted.  The lifts of all 24 cycle pairs over all splits form one
    isomorphism class (test_cycle_pair_lifts_form_one_class), so the tag
    names the first split and the least pair.
    """
    params = p.params
    q = params.q
    if params.n != 4 or q % 2:
        return None
    half = q // 2
    betas = []
    for k in range(1, 5):
        slices = _slices(params, p.cell, k)
        zero = [a for a in range(q) if slices[a] == slices[0]]
        if len(zero) != half or len(set(slices)) != 2:
            return None
        betas.append(tuple(zero + [a for a in range(q) if a not in zero]))
    h42 = GraphParams(4, 2)
    # binary digit b of coordinate k reads symbol beta_k(b * q/2) of p
    reads = digit_table(h42, [[beta[0] * q ** (4 - k), beta[half] * q ** (4 - k)]
                              for k, beta in enumerate(betas, 1)])
    try:
        lift = lifted_cycle_pair(q, range(half), pull(p, h42, reads))
    except ValueError:
        return None
    if transform(lift, Automorphism((1, 2, 3, 4), tuple(betas))) != p:
        raise AssertionError(f"the lift read off {p.cell:#x} does not rebuild it")
    return CyclePairLifting(split=frozenset(range(half)), cycle_pair=_TAG_CYCLE_PAIR)


def _match_switching(p: TwoPartition) -> Optional[SwitchingConstruction]:
    """The blocks and lambda_2 base of a permutation switching that is
    isomorphic to p, if any.

    A switching output has a selector coordinate c: each slice x_c = a
    depends on exactly one other coordinate sigma(a), and sigma maps onto
    the other n - 1.  Row a of the base is that slice read along sigma(a);
    the blocks are the fibers of sigma over the other coordinates in
    ascending order.  An automorphism permutes the rows of the base and
    the columns of each block separately, which keeps a base balanced, so
    the base read off must itself be balanced (permutation_switching
    refuses it otherwise, and the next c is tried).  Its switching, moved
    by the coordinate permutation that sends 1 to c, is then p itself,
    which is asserted.
    """
    params = p.params
    n, q = params.n, params.q
    ident = (tuple(range(q)),) * n
    for c in range(1, n + 1):
        others = [k for k in range(1, n + 1) if k != c]
        sigma, rows = [], []
        for piece in _slices(params, p.cell, c):
            reads = [(k, subs) for k in others if len(set(subs := _slices(params, piece, k))) > 1]
            if len(reads) != 1:
                break
            (k, subs), = reads
            sigma.append(k)
            rows.extend(int(sub != 0) for sub in subs)
        else:
            if set(sigma) != set(others):
                continue
            blocks = AlphabetBlocks(tuple(
                frozenset(a for a in range(q) if sigma[a] == k) for k in others
            ))
            base = TwoPartition.from_indicator(GraphParams(2, q), rows)
            try:
                switched = permutation_switching(blocks, base)
            except ValueError:
                continue
            # target coordinate c reads source 1, the others sources 2..n
            perm = tuple(1 if k == c else others.index(k) + 2 for k in range(1, n + 1))
            if transform(switched, Automorphism(perm, ident)) != p:
                raise AssertionError(f"the switching read off {p.cell:#x} does not rebuild it")
            return SwitchingConstruction(blocks=blocks, base=base)
    return None


def classify_reduced_lambda2(p: TwoPartition) -> ReducedLambda2Tag:
    """Tag a reduced equitable lambda_2 partition by the construction
    family that produces it.

    Preconditions (ValueError): p is equitable, its second quotient
    eigenvalue is lambda_2(n, q), and every coordinate is essential.
    n <= 3 is tagged SmallBase, which records whether the switching
    recognizer also matches.  For n >= 4 the cycle-pair lifting
    recognizer runs first, then the switching recognizer.  Each reads its
    construction's parameters off the slices of p and rebuilds p from
    them, so neither walks the automorphism group and neither has a guard.
    Every reduced lambda_2 partition is expected to match a family; an
    Unclassified result is flagged loudly because it would be a
    counterexample to that classification.
    """
    params = p.params
    s = equitable_check(p)
    if isinstance(s, NotEquitable):
        raise ValueError("partition is not equitable")
    lam = s.rows[0][0] - s.rows[1][0]
    if lam != eigenvalue(params, 2):
        raise ValueError(
            f"second quotient eigenvalue {lam} is not lambda_2 = {eigenvalue(params, 2)}"
        )
    if len(essential_coordinates(p)) != params.n:
        raise ValueError("partition is not reduced; delete nonessential coordinates first")
    if params.n <= 3:
        return SmallBase(secondary_switching=_match_switching(p) is not None)
    tag = _match_cycle_pair_lifting(p)
    if tag is not None:
        return tag
    tag_a = _match_switching(p)
    if tag_a is not None:
        return tag_a
    warnings.warn(
        "reduced lambda_2 partition matched no construction family; "
        "this would be a counterexample to the expected classification",
        stacklevel=2,
    )
    return Unclassified()

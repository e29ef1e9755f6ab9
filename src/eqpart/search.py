"""Exhaustive search over 2-partitions and ternary functions of H(n, q).

Two independent enumeration routes are kept deliberately separate so they
can certify each other: a plain sweep over all cell bitsets (desk scale
only) and a backtracking search driven by candidate quotient matrices.
The backtracking search (module backtrack) branches only on the free
vertices of an echelon form of (A - lam I) x = s21 * 1, which every cell
with second quotient eigenvalue lam satisfies, and takes every other
vertex from its row.  A cell with quotient [[a, b], [c, d]] has a
complement with quotient [[d, c], [b, a]], so each candidate and this
partner are searched only over the cells that hold vertex 0, and every
other cell is the complement of one found.  Root conditions break the
symmetry of the stabilizer of vertex 0 (lex-leader predicates, Crawford,
Ginsberg, Luks and Roy 1996), and the cells found are closed under its
generators afterwards (as in canonical augmentation, McKay 1998).  The
search is sharded at the states it reaches at a fixed vertex; shards can
run in forked worker processes, and the output is identical for any
thread count.

The up-to-iso filter keeps the least cell of each orbit of the group of
coordinate and symbol permutations: the enumerated set is closed under
that group, so the closure of each cell under the group's generators,
the same closure that completes the search, is its orbit.  Complement
swaps are not quotiented out: (C, complement) and (complement, C) are
distinct.  The classification walks no group: it reads a construction's
parameters off the slices of a partition and rebuilds the partition
from them.

The ternary census classifies only the functions in the span of the top
two eigenspaces, which a meet-in-the-middle join over the linear
residual of the lambda_1 eigen-equation finds, and counts the rest.
"""

from __future__ import annotations

import warnings
from math import comb
from operator import itemgetter
from typing import Callable, Iterator, Optional, Union

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
# finishes in minutes (H(3, 4), 64 vertices, takes about 0.3 s at index 2,
# and H(3, 5), 125 vertices, about 26 s).
BACKTRACK_LIMIT = 512
# Census bounds: q^n <= 18 keeps each half of the join at most 3^9 keys, and
# the closed-form member count bounds the classify calls, one per member.
TERNARY_VERTEX_LIMIT = 18
TERNARY_MEMBER_LIMIT = 1 << 16
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
    # built here from neighbor_table, not from backtrack._pruning_table, so
    # that this route shares nothing with the backtracking route it certifies
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


def _partner(rows: _Rows) -> _Rows:
    """The complement's quotient rows: [[a, b], [c, d]] -> [[d, c], [b, a]]."""
    (a, b), (c, d) = rows
    return (d, c), (b, a)


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

    Root conditions: the search keeps only the cells in which, along each
    coordinate k, the members of C among the neighbors of vertex 0 are
    the least symbols 1..c_k, and c_1 <= ... <= c_n (backtrack._root_needs).  The
    cells with vertex 0 in C and given quotient rows form a set that the
    stabilizer of vertex 0, Stab(0) = S_n x| S_{q-1}^n, maps into itself,
    since an automorphism keeps the quotient.  Every orbit of that set
    meets the root conditions: symbol maps fixing 0 move each coordinate's
    members onto the least symbols, and then a coordinate permutation
    sorts the counts c_k.  So the closure of the cells found under the
    generators of Stab(0), the adjacent coordinate transpositions and on
    coordinate 1 the symbol maps (1 2) and (1 2 ... q-1), is every such
    cell.  The closure runs in this process, before the sorted union.

    The search (module backtrack, imported here so that commands that
    never search do not compile it) is split at the live states of a
    fixed depth into shards.  All shards are searched by min(threads,
    os.cpu_count(), shard count) forked worker processes, or in this
    process when that is one or os.fork is missing.  Output is sorted by
    cell bitset, is identical for every thread count and agrees with
    brute_force_enumerate wherever both are allowed to run.  Guarded to
    q^n <= 512 by candidate_quotient_matrices.
    """
    from . import backtrack

    kept = [s.rows for s in candidate_quotient_matrices(params, constraints)]
    searched = tuple(dict.fromkeys(kept + [_partner(r) for r in kept]))
    shards = backtrack.live_shards(params, searched)
    found: dict[_Rows, list[int]] = {rows: [] for rows in searched}
    for (_, rows, _, _), cells_found in zip(shards, backtrack.run_shards(shards, threads)):
        found[rows] += cells_found
    close = _orbit_closure(params, 1)
    full = (1 << params.vertex_count) - 1
    cells: set[int] = set()
    for rows, seeds in found.items():
        closed = close(seeds)
        if rows in kept:
            cells |= closed
        if _partner(rows) in kept:
            cells.update(full ^ cell for cell in closed)
    out = [TwoPartition(params, c) for c in sorted(cells)]
    if constraints.reduced_only:
        out = [p for p in out if len(essential_coordinates(p)) == params.n]
    if constraints.up_to_iso:
        out = _orbit_minima(out)
    return out


# --- orbits: closure and minima ---------------------------------------------


def _orbit_closure(params: GraphParams, lo: int) -> Callable[[list[int]], set[int]]:
    """The map from a list of cells to the cells reached from them by the
    adjacent coordinate transpositions and, on coordinate 1, the
    transposition and the cycle of the symbols lo..q-1: their orbits under
    the whole group for lo = 0, and under the stabilizer of vertex 0 for
    lo = 1.

    The image of a cell is its pull along the generator's vertex_map, that
    is its image under the inverse, which generates the same group.  Each
    generator's getter is built once and each cell's binary digits are
    formatted once: digit j stands for vertex q^n - 1 - j, so the pull
    along vmap takes digit j of the image from digit q^n - 1 - vmap[q^n -
    1 - j] of the cell.
    """
    n, top = params.n, params.vertex_count - 1
    coords, ident = tuple(range(1, n + 1)), tuple(range(params.q))
    fixed, moved = ident[:lo], ident[lo:]
    swap, cycle = fixed + moved[1:2] + moved[:1] + moved[2:], fixed + moved[1:] + moved[:1]
    gens = [Automorphism(coords[:k] + (k + 2, k + 1) + coords[k + 2:], (ident,) * n)
            for k in range(n - 1)]
    gens += [Automorphism(coords, (alpha, *(ident,) * (n - 1)))
             for alpha in dict.fromkeys((swap, cycle)) if alpha != ident]
    getters = [itemgetter(*[top - w for w in reversed(vertex_map(params, g))]) for g in gens]
    width = f"0{top + 1}b"

    def close(seeds: list[int]) -> set[int]:
        closed, todo = set(seeds), list(seeds)
        for cell in todo:       # todo grows while it is read
            digits = format(cell, width)
            for getter in getters:
                image = int("".join(getter(digits)), 2)
                if image not in closed:
                    closed.add(image)
                    todo.append(image)
        return closed

    return close


def _orbit_minima(found: list[TwoPartition]) -> list[TwoPartition]:
    """The partitions of found whose cell is the least of its orbit under
    the graph automorphisms, in the order of found.

    found is a set the group maps into itself, so the _orbit_closure of
    each cell is its orbit.  An orbit that leaves found raises
    AssertionError: the search lost part of it.
    """
    if not found:
        return found
    close = _orbit_closure(found[0].params, 0)
    cells, least = {p.cell for p in found}, {}
    for p in found:
        if p.cell not in least:
            orbit = close([p.cell])
            if not orbit <= cells:
                raise AssertionError(f"the orbit of cell {p.cell:#x} is missing cells")
            least.update(dict.fromkeys(orbit, min(orbit)))
    return [p for p in found if least[p.cell] == p.cell]


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

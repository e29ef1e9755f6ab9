"""Exhaustive search over 2-partitions and ternary functions of H(n, q).

Two independent enumeration routes are kept deliberately separate so they
can certify each other: brute_force_enumerate, a plain sweep over all cell
bitsets (desk scale only), and backtracking_enumerate, a backtracking
search driven by candidate quotient matrices (module backtrack).  Both
return the sorted cell bitsets as ints, which the enumerate command
prints from.

The up-to-iso filter keeps the least cell of each orbit of the group of
coordinate and symbol permutations: the enumerated set is closed under
that group, so the closure of each cell under the group's generators,
partitions.orbit_closure, is its orbit.  Complement swaps are not
quotiented out: (C, complement) and (complement, C) are distinct.  The
classification walks no group: it reads a construction's parameters off
the slices of a partition and rebuilds the partition from them.

The ternary census classifies only the functions in the span of the top
two eigenspaces, which a meet-in-the-middle join over the linear
residual of the lambda_1 eigen-equation finds, and counts the rest.
The census and the classification import eigenfunctions and
constructions when they run, so that enumerate compiles neither.
"""

from __future__ import annotations

import warnings
from math import comb
from typing import Iterator, Optional, Union

from .hamming import (
    AlphabetBlocks,
    Automorphism,
    GraphParams,
    Record,
    digit_table,
    eigenvalue,
    neighbor_table,
)
from .partitions import (
    NotEquitable,
    QuotientMatrix,
    TwoPartition,
    equitable_check,
    essential_coordinates,
    orbit_closure,
    predicted_cell_size,
    pull,
    slices,
    transform,
)

BRUTE_FORCE_LIMIT = 25          # vertex-count bound for the 2^(q^n) sweep
# Vertex-count bound for the backtracking search.  Its stack is a list, so
# the bound is not a frame limit; it stays well beyond the graphs the search
# finishes in minutes (H(3, 4), 64 vertices, takes about 0.3 s at index 2,
# and H(3, 5), 125 vertices, 8 to 11 s on 2 vCPUs).
BACKTRACK_LIMIT = 512
# Census bounds: q^n <= 18 keeps each half of the join at most 3^9 keys, and
# the closed-form member count bounds the classify calls, one per member.
TERNARY_VERTEX_LIMIT = 18
TERNARY_MEMBER_LIMIT = 1 << 16
# Bound on the cells of a lambda_1 enumeration: H(1, 18), 262,142 cells, takes
# about 1.2 s and 37 MB from search to stdout on 2 vCPUs; H(1, 20), 4.8 s and 99 MB.
INDEX1_CELL_LIMIT = 1 << 18


class EnumConstraints(Record):
    """Restrictions applied while enumerating 2-partitions.

    Exactly one of quotient / eigenvalue_index is set.  __post_init__
    refuses neither and both with the same ValueError, and no other code
    checks the rule: candidate_quotient_matrices, the sweep and the
    enumerate command take a record as proof of it.  reduced_only keeps
    partitions with every coordinate essential; up_to_iso keeps one
    representative per isomorphism class, the least cell of its orbit.
    """

    quotient: Optional[QuotientMatrix] = None
    eigenvalue_index: Optional[int] = None
    reduced_only: bool = False
    up_to_iso: bool = False

    def __post_init__(self) -> None:
        if (self.quotient is None) == (self.eigenvalue_index is None):
            raise ValueError("give one of a quotient matrix and an eigenvalue index")


def candidate_quotient_matrices(
    params: GraphParams, constraints: EnumConstraints
) -> tuple[QuotientMatrix, ...]:
    """All 2x2 quotient matrices compatible with the constraints.

    An explicit quotient must have row sums equal to the degree.  For an
    eigenvalue index i the candidates are the matrices with S11 - S21 =
    lambda_i, correct row sums and S12, S21 >= 1.  Either way only matrices
    with an integer predicted cell size strictly between 0 and q^n are kept.
    Guarded to q^n <= 512, the bound of the backtracking search, since on
    H(1, q) an eigenvalue index has up to q - 1 candidates, and to at most
    INDEX1_CELL_LIMIT lambda_1 cells by their closed-form count, n(2^q - 2)
    at index 1.
    """
    if params.vertex_count > BACKTRACK_LIMIT:
        raise ValueError(f"search guarded to q^n <= {BACKTRACK_LIMIT}, got {params.vertex_count}")
    k = params.degree
    if constraints.quotient is not None:
        if constraints.quotient.row_sums() != (k, k):
            raise ValueError("quotient constraint has wrong shape or row sums")
        candidates: tuple[QuotientMatrix, ...] = (constraints.quotient,)
    else:
        lam = eigenvalue(params, constraints.eigenvalue_index)
        candidates = tuple(
            QuotientMatrix(((lam + s21, k - lam - s21), (s21, k - s21)))
            for s21 in range(1, k + 1)
            if lam + s21 >= 0 and k - lam - s21 >= 1
        )
    kept = tuple(
        s for s in candidates
        if (size := predicted_cell_size(s, params)).denominator == 1
        and 0 < size < params.vertex_count
    )
    # a lambda_1 cell depends on one coordinate (Meyerowitz), so the s21
    # q^(n-1) vertices of a cell take s21 symbols there: n C(q, s21) cells
    lam1 = eigenvalue(params, 1)
    cells = sum(params.n * comb(params.q, s.rows[1][0])
                for s in kept if s.rows[0][0] - s.rows[1][0] == lam1)
    if cells > INDEX1_CELL_LIMIT:
        raise ValueError(f"index-1 output guarded to {INDEX1_CELL_LIMIT} cells, got {cells}")
    return kept


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
    return s_tuple[0] - s_tuple[2] == eigenvalue(params, constraints.eigenvalue_index)


def brute_force_enumerate(params: GraphParams, constraints: EnumConstraints) -> list[int]:
    """Sweep all 2^(q^n) - 2 proper cells; keep the equitable ones that
    satisfy the constraints.  Guarded to q^n <= 25.  Output is the sorted
    cell bitsets."""
    n_vertices = params.vertex_count
    if n_vertices > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force sweep guarded to q^n <= {BRUTE_FORCE_LIMIT}, got {n_vertices}"
        )
    # built here from neighbor_table, not from backtrack._pruning_table, so
    # that this route shares nothing with the backtracking route it certifies
    masks = [sum(1 << w for w in ws) for ws in neighbor_table(params)]
    cells = [cell for cell in range(1, (1 << n_vertices) - 1)
             if (s := _fast_two_quotient(masks, cell, params.degree)) is not None
             and _satisfies(params, s, constraints)]
    return _filtered(params, cells, constraints)


def _filtered(params: GraphParams, cells: list[int], constraints: EnumConstraints) -> list[int]:
    """The cells that reduced_only and up_to_iso keep, in order; the
    reduced filter builds one partition at a time."""
    if constraints.reduced_only:
        cells = [c for c in cells
                 if len(essential_coordinates(TwoPartition(params, c))) == params.n]
    return _orbit_minima(params, cells) if constraints.up_to_iso else cells


# --- backtracking route -----------------------------------------------------


def backtracking_enumerate(
    params: GraphParams, constraints: EnumConstraints, threads: int = 1
) -> list[int]:
    """The sorted cell bitsets of the equitable 2-partitions matching a
    quotient matrix or an eigenvalue index, found by the backtracking
    search of module backtrack (imported here, so that commands that never
    search do not compile it) on min(threads, os.cpu_count(), shard count)
    forked worker processes; see backtrack.search_cells.  Output is
    identical for every thread count, and agrees with brute_force_enumerate
    wherever both are allowed to run.  Guarded by
    candidate_quotient_matrices.
    """
    from . import backtrack

    kept = [s.rows for s in candidate_quotient_matrices(params, constraints)]
    return _filtered(params, backtrack.search_cells(params, kept, threads), constraints)


# --- orbit minima ------------------------------------------------------------


def _orbit_minima(params: GraphParams, cells: list[int]) -> list[int]:
    """The cells that are the least of their orbit under the graph
    automorphisms, in the order of cells.

    cells is a set the group maps into itself, so the orbit_closure of
    each cell is its orbit.  An orbit that leaves cells raises
    AssertionError: the search lost part of it.
    """
    close = orbit_closure(params, 0)
    members, least = set(cells), {}
    for cell in cells:
        if cell not in least:
            orbit = close([cell])
            if not orbit <= members:
                raise AssertionError(f"the orbit of cell {cell:#x} is missing cells")
            least.update(dict.fromkeys(orbit, min(orbit)))
    return [c for c in cells if least[c] == c]


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
    from .eigenfunctions import (Constant, NotMember, QuasiCross, QuasiString, VertexFunction,
                                 classify_top_two)

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


ReducedLambda2Tag = Union[SmallBase, CyclePairLifting, SwitchingConstruction, Unclassified,
                          "FailedGate"]


# The least of the 24 induced-8-cycle pairs of H(4, 2) by ascending vertex
# tuple (vertices 0, 1, 2, 5, 10, 13, 14, 15): the pair every lift is tagged with.
_TAG_CYCLE_PAIR = TwoPartition(GraphParams(4, 2), 0xE427)


def _match_cycle_pair_lifting(p: TwoPartition) -> Optional[CyclePairLifting]:
    """The tag of the first split and _TAG_CYCLE_PAIR if p is isomorphic
    to a lifted cycle pair, else None.

    A lift is constant on the two blocks of its split along each
    coordinate, so along coordinate k the slices of p must take two
    values, each on q/2 symbols.  beta_k maps range(q/2) onto the class of
    symbol 0; reading one symbol of each class pulls p onto H(4, 2), and
    that pull must be a cycle pair (lifted_cycle_pair returns FailedGate
    otherwise).  Its lift moved by the betas is then p itself, which is
    asserted.  The lifts of all 24 cycle pairs over all splits form one
    isomorphism class (test_cycle_pair_lifts_form_one_class), so the tag
    names the first split and the least pair.
    """
    from .constructions import FailedGate, lifted_cycle_pair

    params = p.params
    q = params.q
    if params.n != 4 or q % 2:
        return None
    half = q // 2
    betas = []
    for along in slices(params, p.cell):
        zero = [a for a in range(q) if along[a] == along[0]]
        if len(zero) != half or len(set(along)) != 2:
            return None
        betas.append(tuple(zero + [a for a in range(q) if a not in zero]))
    h42 = GraphParams(4, 2)
    # binary digit b of coordinate k reads symbol beta_k(b * q/2) of p; p is the
    # lift of this pull, so the pull is never empty or full, as p is neither
    reads = digit_table(h42, [[beta[0] * q ** (4 - k), beta[half] * q ** (4 - k)]
                              for k, beta in enumerate(betas, 1)])
    lift = lifted_cycle_pair(q, range(half), pull(p, h42, reads))
    if isinstance(lift, FailedGate):
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
    returns FailedGate otherwise, and the next c is tried).  Its
    switching, moved by the coordinate permutation that sends 1 to c, is
    then p itself, which is asserted.
    """
    from .constructions import FailedGate, permutation_switching

    params = p.params
    n, q = params.n, params.q
    ident = (tuple(range(q)),) * n
    for c, pieces in enumerate(slices(params, p.cell), 1):
        others = [k for k in range(1, n + 1) if k != c]
        sigma, rows = [], []
        for piece in pieces:
            along = slices(params, piece)
            reads = [(k, subs) for k in others if len(set(subs := along[k - 1])) > 1]
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
            switched = permutation_switching(blocks, base)
            if isinstance(switched, FailedGate):
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

    Preconditions, each a FailedGate when unmet: p is equitable, its second
    quotient eigenvalue is lambda_2(n, q), and every coordinate is essential.
    n <= 3 is tagged SmallBase, which records whether the switching
    recognizer also matches.  For n >= 4 the cycle-pair lifting
    recognizer runs first, then the switching recognizer.  Each reads its
    construction's parameters off the slices of p and rebuilds p from
    them, so neither walks the automorphism group and neither has a guard.
    Every reduced lambda_2 partition is expected to match a family; an
    Unclassified result is flagged loudly because it would be a
    counterexample to that classification.
    """
    from .constructions import FailedGate

    params = p.params
    s = equitable_check(p)
    if isinstance(s, NotEquitable):
        return FailedGate("partition is not equitable")
    lam = s.rows[0][0] - s.rows[1][0]
    if lam != eigenvalue(params, 2):
        return FailedGate(
            f"second quotient eigenvalue {lam} is not lambda_2 = {eigenvalue(params, 2)}"
        )
    if len(essential_coordinates(p)) != params.n:
        return FailedGate("partition is not reduced; delete nonessential coordinates first")
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

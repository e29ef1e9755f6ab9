"""2-partitions of H(n, q) and their equitable-partition certificates.

A 2-partition (C, complement) is equitable when every vertex of cell i has
a number of neighbors in cell j depending only on (i, j); those counts form
the 2x2 quotient matrix S.  The cell order is (C, complement), so S[0][0]
counts neighbors inside C of a C vertex.  All checks run on exact
integers; rationals use fractions.Fraction.  Automorphisms act on cells
here: transform moves a partition by one automorphism, and orbit_closure
closes a set of cells under generators of the group.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .hamming import (
    Automorphism,
    GraphParams,
    Record,
    digit_masks,
    digit_table,
    eigenvalue,
    encode_vertex,
    neighbors,
    residual_witness,
)


class QuotientMatrix(Record):
    """2x2 matrix of neighbor counts, rows indexed by cell."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != 2 or any(len(row) != 2 for row in self.rows):
            raise ValueError("quotient matrix must be 2x2")
        if any(x < 0 for row in self.rows for x in row):
            raise ValueError("quotient matrix entries must be nonnegative")

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)


class NotEquitable(Record):
    """Witness that a partition is not equitable.

    vertices = (u, v) lie in the same cell but have count_u != count_v
    neighbors in the cell target_cell; u is the first vertex of that cell
    in index order and v the first conflicting vertex after it.
    """

    cell: int
    vertices: tuple[int, int]
    target_cell: int
    counts: tuple[int, int]


class FiberMismatch(Record):
    """A fiber {x in C : x_k = symbol} with an unexpected size."""

    coordinate: int
    symbol: int
    count: int
    expected: Fraction


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BYTE_BITS = bytes.maketrans(b"\x00\x01", b"01")


class TwoPartition(Record):
    """An ordered 2-partition (C, complement) of H(n, q).

    cell is an integer bitset with bit v set iff vertex v lies in C.
    Both cells must be nonempty.
    """

    params: GraphParams
    cell: int

    def __post_init__(self) -> None:
        n_bits = self.params.vertex_count
        if self.cell >> n_bits:
            raise ValueError("cell bitset has bits beyond q^n")
        if self.cell == 0 or self.cell == (1 << n_bits) - 1:
            raise ValueError("both cells of a 2-partition must be nonempty")

    @classmethod
    def from_vertices(cls, params: GraphParams, vertices: Iterable[int]) -> "TwoPartition":
        bits = 0
        for v in vertices:
            if not 0 <= v < params.vertex_count:
                raise ValueError(f"vertex {v} outside [0, {params.vertex_count})")
            bits |= 1 << v
        return cls(params, bits)

    @classmethod
    def from_tuples(cls, params: GraphParams, tuples: Iterable[Sequence[int]]) -> "TwoPartition":
        return cls.from_vertices(params, (encode_vertex(params, t) for t in tuples))

    @classmethod
    def from_indicator(cls, params: GraphParams, indicator: Sequence[int]) -> "TwoPartition":
        """The inverse of indicator(): C holds v iff indicator[v] is 1."""
        if len(indicator) != params.vertex_count:
            raise ValueError(f"need one indicator entry per vertex, got {len(indicator)}")
        return cls(params, int(bytes(indicator)[::-1].translate(_BYTE_BITS), 2))

    def contains(self, v: int) -> bool:
        return bool((self.cell >> v) & 1)

    def indicator(self) -> bytes:
        """Byte v is 1 if vertex v lies in C, else 0; built in one pass."""
        bits = format(self.cell, f"0{self.params.vertex_count}b")[::-1]
        return bits.encode("ascii").translate(_BIT_BYTES)

    @property
    def size(self) -> int:
        return self.cell.bit_count()

    def vertices(self) -> list[int]:
        return list(compress(range(self.params.vertex_count), self.indicator()))

    def complement_bits(self) -> int:
        return ((1 << self.params.vertex_count) - 1) ^ self.cell

    def complement(self) -> "TwoPartition":
        """The same partition with the cells swapped."""
        return TwoPartition(self.params, self.complement_bits())


def _neighbor_indicators(p: TwoPartition) -> Iterator[int]:
    """Bitsets of the vertices x whose neighbor x + t*e_k lies in C.

    Symbols add mod q; coordinates k run ascending and, within each, the
    offsets t = 1..q-1.  Each bitset is two masked shifts of the whole
    cell: by t*s down where x_k < q - t, and by (q - t)*s up where
    x_k >= q - t, with s = q^(n-k).
    """
    params = p.params
    q, cell = params.q, p.cell
    full = (1 << params.vertex_count) - 1
    for k, fibers in enumerate(digit_masks(params), 1):
        s = q ** (params.n - k)
        high = 0
        for t in range(1, q):
            high |= fibers[q - t]
            yield ((cell >> t * s) & (full ^ high)) | ((cell << (q - t) * s) & high)


def _neighbor_count_planes(p: TwoPartition) -> list[int]:
    """Neighbors in C of every vertex, bit-sliced: bit v of planes[j] is
    bit j of the count at v.  The n(q-1) neighbor indicators are summed
    into the planes with a ripple carry."""
    planes = [0] * p.params.degree.bit_length()
    for carry in _neighbor_indicators(p):
        j = 0
        while carry:
            planes[j], carry = planes[j] ^ carry, planes[j] & carry
            j += 1
    return planes


def _count_at(planes: list[int], v: int) -> int:
    return sum(((plane >> v) & 1) << j for j, plane in enumerate(planes))


def equitable_check(p: TwoPartition) -> QuotientMatrix | NotEquitable:
    """Quotient matrix of p, or the first witness that none exists.

    The reference count of a cell is that of its lowest vertex, and the
    witness pairs it with the lowest vertex, over both cells, whose number
    of neighbors in C differs.  p is equitable iff every bit plane of the
    neighbor counts is constant on C and constant on the complement.
    """
    planes = _neighbor_count_planes(p)
    cells = (p.cell, p.complement_bits())
    firsts = [(c & -c).bit_length() - 1 for c in cells]
    mismatch = 0
    for plane in planes:
        # the plane made constant on each cell, at the bit of its lowest vertex
        flat = sum(c for c, u in zip(cells, firsts) if (plane >> u) & 1)
        mismatch |= plane ^ flat
    ref = [_count_at(planes, u) for u in firsts]
    if mismatch:
        v = (mismatch & -mismatch).bit_length() - 1
        c = 0 if p.contains(v) else 1
        # built positionally: a keyword construction takes Record._bind
        return NotEquitable(c, (firsts[c], v), 0, (ref[c], _count_at(planes, v)))
    degree = p.params.degree
    return QuotientMatrix(tuple((k, degree - k) for k in ref))


def quotient_eigenvalues(s: QuotientMatrix, params: GraphParams) -> tuple[int, int]:
    """(degree, S11 - S21): the two eigenvalues of a 2x2 quotient matrix."""
    if s.row_sums() != (params.degree, params.degree):
        raise ValueError(
            f"row sums {s.row_sums()} do not match the degree {params.degree}"
        )
    return params.degree, s.rows[0][0] - s.rows[1][0]


def quotient_eigenvalue_indices(s: QuotientMatrix, params: GraphParams) -> dict[int, int]:
    """Multiplicity of each graph eigenvalue index in the quotient spectrum.

    The spectrum of a 2x2 quotient is (degree, S11 - S21), so the result is
    {0: 1, i: 1}, or {0: 2} when S11 - S21 is the degree.  A ValueError is
    raised when S11 - S21 lies outside the graph spectrum.
    """
    degree, lam = quotient_eigenvalues(s, params)
    i, rem = divmod(degree - lam, params.q)
    if rem or not 0 <= i <= params.n:
        raise ValueError("quotient matrix has an eigenvalue outside the graph spectrum")
    return {0: 2} if i == 0 else {0: 1, i: 1}


def predicted_cell_size(s: QuotientMatrix, params: GraphParams) -> Fraction:
    """|C| = q^n * S21 / (S12 + S21), exactly, for a 2x2 quotient matrix."""
    s12, s21 = s.rows[0][1], s.rows[1][0]
    if s12 + s21 == 0:
        raise ValueError("S12 + S21 = 0 admits no 2-partition of a connected graph")
    return Fraction(params.vertex_count * s21, s12 + s21)


def orthogonal_array_check(p: TwoPartition, s: QuotientMatrix) -> FiberMismatch | None:
    """Check every fiber {x in C : x_k = a} has size S21 * q^(n-2) / 2.

    Applies only when the second quotient eigenvalue is the second graph
    eigenvalue; otherwise a ValueError is raised.  Returns None on pass or
    the first mismatching fiber (coordinates ascending, symbols ascending).
    """
    params = p.params
    lam = quotient_eigenvalues(s, params)[1]
    if lam != eigenvalue(params, 2):
        raise ValueError(
            f"fiber size law needs second eigenvalue {eigenvalue(params, 2)}, got {lam}"
        )
    expected = Fraction(s.rows[1][0] * params.q ** (params.n - 2), 2)
    for k, fibers in enumerate(digit_masks(params), 1):
        for a, fiber in enumerate(fibers):
            count = (p.cell & fiber).bit_count()
            if count != expected:
                return FiberMismatch(k, a, count, expected)
    return None


def is_induced_cycle(params: GraphParams, code: Iterable[int]) -> int | None:
    """Length of the cycle induced by the vertex set, or None.

    The induced subgraph must be connected and 2-regular; sets of fewer
    than 3 vertices never qualify.
    """
    vs = set(code)
    if any(not 0 <= v < params.vertex_count for v in vs):
        raise ValueError("code contains out-of-range vertices")
    if len(vs) < 3:
        return None
    # the members' neighbors alone: a table of the whole graph costs q^n rows
    nbrs = {v: [w for _, w in neighbors(params, v) if w in vs] for v in vs}
    if any(len(ws) != 2 for ws in nbrs.values()):
        return None
    seen, stack = set(), [min(vs)]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack += nbrs[v]
    return len(vs) if seen == vs else None


def slices(params: GraphParams, cell: int) -> list[list[int]]:
    """The slices x_k = a of a cell at [k - 1][a], each shifted onto the
    slice x_k = 0: the cell does not depend on x_k iff its slices along k
    are all equal ints.  The package reads how a cell depends on a
    coordinate off these slices only."""
    q, n = params.q, params.n
    return [[(cell & fiber) >> a * q ** (n - k) for a, fiber in enumerate(fibers)]
            for k, fibers in enumerate(digit_masks(params), 1)]


def essential_coordinates(p: TwoPartition) -> frozenset[int]:
    """Coordinates along which some adjacent pair changes cell: those
    whose slices are not all equal."""
    q = p.params.q
    return frozenset(k for k, along in enumerate(slices(p.params, p.cell), 1)
                     if along.count(along[0]) != q)


def reduce(p: TwoPartition) -> tuple[TwoPartition, tuple[int, ...]]:
    """Delete all nonessential coordinates, highest index first.

    Returns the reduced partition together with the deleted coordinates
    (descending).  Deleting a nonessential coordinate keeps the partition
    equitable with the same eigenvalue index.
    """
    params = p.params
    ess = essential_coordinates(p)
    removed = tuple(sorted(set(range(1, params.n + 1)) - ess, reverse=True))
    if not removed:
        return p, ()
    # ess is not empty: a proper cell of a connected graph is not constant
    q = params.q
    new_params = GraphParams(params.n - len(removed), q)
    # the digits of a reduced vertex fill the kept coordinates, in order,
    # and every deleted coordinate reads 0
    table = digit_table(
        new_params, [[a * q ** (params.n - k) for a in range(q)] for k in sorted(ess)]
    )
    return pull(p, new_params, table), removed


def extend(p: TwoPartition, d: int) -> TwoPartition:
    """Append d fresh nonessential coordinates: C x A^d inside H(n+d, q).

    The quotient matrix gains d(q-1) on the diagonal and the eigenvalue
    index is preserved.
    """
    if d < 0:
        raise ValueError("cannot extend by a negative number of coordinates")
    if d == 0:
        return p
    params = p.params
    new_params = GraphParams(params.n + d, params.q)
    block = params.q ** d
    run = (1 << block) - 1
    bits = 0
    for v in p.vertices():
        bits |= run << (v * block)
    return TwoPartition(new_params, bits)


def spectral_check(p: TwoPartition, lam: int) -> tuple[int, int] | None:
    """Check that (A - lam I) applied to the cell indicator is constant.

    This holds iff p is equitable with second quotient eigenvalue lam.
    Returns None on pass, else (0, v) for the lowest vertex v whose
    residual differs from that of vertex 0.  The residual comes from
    hamming.residual_witness, which shares no masks with equitable_check,
    so the two routes certify each other.
    """
    v = residual_witness(p.params, p.indicator(), lam)[1]
    return None if v is None else (0, v)


def pull(p: TwoPartition, params: GraphParams, table: Sequence[int]) -> TwoPartition:
    """The partition of H(params) whose cell holds w iff p's cell holds
    table[w], for a table such as hamming.digit_table builds."""
    return TwoPartition.from_indicator(params, itemgetter(*table)(p.indicator()))


def transform(p: TwoPartition, g: Automorphism) -> TwoPartition:
    """The image partition (g(C), g(C) complement).

    y lies in g(C) iff g^-1(y) lies in C, and g^-1(y) has digit
    alpha_k^-1(y_k) at coordinate pi(k): a digit table to pull C along.
    """
    params = p.params
    n, q = params.n, params.q
    if len(g.coord_perm) != n or len(g.alpha_perms[0]) != q:
        raise ValueError("automorphism shape does not match the graph")
    terms = []
    for j, alpha in zip(g.coord_perm, g.alpha_perms):
        back = [0] * q
        for x, y in enumerate(alpha):
            back[y] = x * q ** (n - j)
        terms.append(back)
    return pull(p, params, digit_table(params, terms))


def orbit_closure(params: GraphParams, lo: int) -> Callable[[list[int]], set[int]]:
    """The map from a list of cells to the cells reached from them by the
    adjacent coordinate transpositions and, on coordinate 1, the
    transposition and the cycle of the symbols lo..q-1: their orbits under
    the whole group for lo = 0, and under the stabilizer of vertex 0 for
    lo = 1.

    Each generator adds one offset to the index of every vertex in a block
    of digit_masks fibers, so the image of a cell is an OR of masked
    shifts.  The transposition of coordinates k and k + 1 moves the block
    x_k = a, x_(k+1) = b by d (q^(n-k) - q^(n-k-1)) with d = b - a: 2q - 1
    masks, one per d.  A symbol map alpha on coordinate 1 moves the fiber
    x_1 = a by (alpha(a) - a) q^(n-1).  No offset is below -base, so each
    masked part is shifted up by its offset plus base, and the OR down by
    base.
    """
    n, q = params.n, params.q
    fibers, base = digit_masks(params), (q - 1) * q ** (n - 1)
    ident = tuple(range(q))
    fixed, moved = ident[:lo], ident[lo:]
    swap, cycle = fixed + moved[1:2] + moved[:1] + moved[2:], fixed + moved[1:] + moved[:1]
    gens = [[(sum(x & fibers[k][a + d] for a, x in enumerate(fibers[k - 1]) if 0 <= a + d < q),
              base + d * (q ** (n - k) - q ** (n - k - 1))) for d in range(1 - q, q)]
            for k in range(1, n)]
    gens += [[(x, base + (alpha[a] - a) * q ** (n - 1)) for a, x in enumerate(fibers[0])]
             for alpha in dict.fromkeys((swap, cycle)) if alpha != ident]

    def close(seeds: list[int]) -> set[int]:
        closed, todo = set(seeds), list(seeds)
        for cell in todo:       # todo grows while it is read
            for gen in gens:
                image = 0
                for mask, shift in gen:
                    image |= (cell & mask) << shift
                image >>= base
                if image not in closed:
                    closed.add(image)
                    todo.append(image)
        return closed

    return close

"""Exact integer model of the Hamming graph H(n, q).

Vertices are the q-ary n-tuples over {0, ..., q-1}, encoded as integers in
[0, q^n) by the big-endian rule

    index = sum_k x_k * q^(n-k)

so coordinate 1 is the most significant digit.  Coordinates are numbered
1..n throughout; symbols run 0..q-1.  Two vertices are adjacent iff they
differ in exactly one coordinate, hence the graph is regular of degree
n(q-1).  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from operator import attrgetter
from typing import Any, Iterator, Sequence

# Hard ceiling on q^n so vertex indices stay comfortably machine-sized.
MAX_VERTICES = 1 << 32


class Record:
    """Base of the package's immutable value classes.

    The fields of a subclass are its annotated names, those of its bases
    first; a class attribute of the same name is the field's default.
    Construction takes the fields by position or keyword, sets them, and
    then calls __post_init__.  Two records are equal iff they are of the
    same class with equal field tuples, and the hash is the hash of that
    tuple.  Assigning or deleting an attribute raises AttributeError; a
    __post_init__ that derives more attributes sets them with
    object.__setattr__.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        names = cls._fields + tuple(name for name in own if name not in cls._fields)
        cls._fields = names
        cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
        # the field tuple; attrgetter returns a tuple for two or more names only
        cls._key = staticmethod(attrgetter(*names) if len(names) > 1 else
                                lambda record: tuple([getattr(record, n) for n in names]))

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        set_field = object.__setattr__
        for i, name in enumerate(fields):
            set_field(self, name, args[i])
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, Any]) -> list[Any]:
        """The field values in order, from positions, keywords and defaults."""
        name = cls.__name__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name} takes {len(cls._fields)} fields, got {len(args)}")
        values = list(args)
        for field in cls._fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name} is missing field {field!r}")
        if kwargs:
            raise TypeError(f"{name} got unknown or repeated fields {sorted(kwargs)}")
        return values

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class GraphParams(Record):
    """The pair (n, q) defining H(n, q).

    __post_init__ attaches the derived sizes vertex_count = q^n and
    degree = n(q - 1), which are not fields.
    """

    n: int
    q: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if self.q < 2:
            raise ValueError(f"need q >= 2, got q={self.q}")
        # As q >= 2 and n >= 1, n > 32 or q > 2^32 puts q^n past the guard;
        # testing them first keeps the power below 2^1024.
        if self.n > 32 or self.q > MAX_VERTICES or self.q ** self.n > MAX_VERTICES:
            raise ValueError("q^n exceeds the 2^32 vertex guard")
        object.__setattr__(self, "vertex_count", self.q ** self.n)
        object.__setattr__(self, "degree", self.n * (self.q - 1))


def eigenvalue(params: GraphParams, i: int) -> int:
    """The i-th adjacency eigenvalue (q-1)n - qi of H(n, q), 0 <= i <= n.

    Index 0 gives the degree; the sequence is strictly decreasing in i.
    """
    if not 0 <= i <= params.n:
        raise ValueError(f"eigenvalue index {i} outside [0, {params.n}]")
    return (params.q - 1) * params.n - params.q * i


def coordinate_stride(params: GraphParams, k: int) -> int:
    """Weight q^(n-k) of coordinate k in the vertex encoding."""
    if not 1 <= k <= params.n:
        raise ValueError(f"coordinate {k} outside [1, {params.n}]")
    return params.q ** (params.n - k)


def encode_vertex(params: GraphParams, coords: Sequence[int]) -> int:
    """Vertex index of the tuple (x_1, ..., x_n)."""
    if len(coords) != params.n:
        raise ValueError(f"expected {params.n} coordinates, got {len(coords)}")
    v = 0
    for x in coords:
        if not 0 <= x < params.q:
            raise ValueError(f"symbol {x} outside [0, {params.q})")
        v = v * params.q + x
    return v


def neighbors(params: GraphParams, v: int) -> list[tuple[int, int]]:
    """All (k, w) with w adjacent to v by changing coordinate k.

    Ordered by coordinate ascending, then by the replacement symbol.
    """
    if not 0 <= v < params.vertex_count:
        raise ValueError(f"vertex {v} outside [0, {params.vertex_count})")
    q = params.q
    out = []
    stride = params.vertex_count
    for k in range(1, params.n + 1):
        stride //= q
        d = (v // stride) % q
        base = v - d * stride
        for s in range(q):
            if s != d:
                out.append((k, base + s * stride))
    return out


@lru_cache(maxsize=4)
def neighbor_table(params: GraphParams) -> tuple[tuple[int, ...], ...]:
    """Adjacency lists for all vertices, same neighbor order as neighbors()."""
    return tuple(
        tuple(w for _, w in neighbors(params, v))
        for v in range(params.vertex_count)
    )


@lru_cache(maxsize=4)
def digit_masks(params: GraphParams) -> tuple[tuple[int, ...], ...]:
    """Vertex bitsets of the fibers {x : x_k = a}, at [k - 1][a].

    In coordinate k with stride s = q^(n-k), the fiber of symbol 0 is a
    run of s ones repeated with period q*s: the run times the repunit of
    that period.  The fiber of symbol a is that bitset shifted by a*s.
    """
    q, n_bits = params.q, params.vertex_count
    out = []
    for k in range(1, params.n + 1):
        s = q ** (params.n - k)
        repunit, width = 1, q * s
        while width < n_bits:
            repunit |= repunit << width
            width *= 2
        zero = ((1 << s) - 1) * (repunit & ((1 << n_bits) - 1))
        out.append(tuple(zero << (a * s) for a in range(q)))
    return tuple(out)


def digit_table(
    params: GraphParams, terms: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """table[v] = sum over k of terms[k-1][x_k], for every vertex v.

    Every map between vertex sets that acts digit by digit (deleting or
    reordering coordinates, renaming symbols) is such a table, and so is
    every function of the digits that is a sum of one term per coordinate.
    The table grows one coordinate at a time, most significant first.
    """
    if len(terms) != params.n or any(len(t) != params.q for t in terms):
        raise ValueError(f"need {params.n} terms of {params.q} entries each")
    table = [0]
    for t in terms:
        table = [w + x for w in table for x in t]
    return tuple(table)


# Bound on the bytes of the degree masks of q^n lanes that residual_witness
# keeps per graph and lane width (3 KiB of 8-bit lanes on H(4, 4), 48 KiB on
# H(12, 2)): past it each call builds them anew, one at a time.
LANE_MASK_CACHE_BYTES = 1 << 15


def _lane_masks(n: int, q: int, width: int) -> Iterator[tuple[int, int, int]]:
    """For k = 1..n and then t = 1..q-1, with s = q^(n-k): the bit shifts
    of t*s and of (q-t)*s lanes of width bits, and the mask of the lanes
    whose symbol x_k is below q - t, built from bytes patterns."""
    n_vertices = q ** n
    ones, zeros = b"\xff" * (width // 8), bytes(width // 8)
    for k in range(1, n + 1):
        s = q ** (n - k)
        for t in range(1, q):
            yield t * s * width, (q - t) * s * width, int.from_bytes(
                (ones * ((q - t) * s) + zeros * (t * s)) * (n_vertices // (q * s)), "little"
            )


@lru_cache(maxsize=4)
def _cached_lane_masks(n: int, q: int, width: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(_lane_masks(n, q, width))


def residual_witness(
    params: GraphParams, values: Sequence[int], lam: int
) -> tuple[int, int | None]:
    """(r(0), v) for the residual r = (A - lam I) values.

    v is the lowest vertex with r(v) != r(0), or None when r is constant.
    The values less their minimum are packed into little-endian lanes of
    the smallest of 8, 16, 32 or 64 bits that holds (degree + |lam|) *
    (max - min); a larger bound raises ValueError.  Each shift x_k ->
    x_k + t (mod q) adds two masked shifts of the packed integer.  The
    masks are built from bytes patterns (_lane_masks), not taken from
    digit_masks, so the partition checks that use digit_masks and this
    kernel certify each other; they are kept between calls while they
    take at most LANE_MASK_CACHE_BYTES.
    """
    q, n_vertices, degree = params.q, params.vertex_count, params.degree
    low = min(values)
    span = max(values) - low
    bound = (degree + abs(lam)) * span
    width = 8
    while bound >> width:
        width *= 2
    if width > 64:
        raise ValueError(f"residual bound {bound} does not fit 64-bit lanes")
    if low:
        values = [x - low for x in values]
    nbytes = width // 8
    if nbytes == 1:
        packed = int.from_bytes(bytes(values), "little")
    else:
        from array import array     # only wide lanes need it: start-up skips loading it
        # iter(): array() would read an indicator's bytes as raw machine words
        lanes = array(next(c for c in "HILQ" if array(c).itemsize == nbytes), iter(values))
        if sys.byteorder == "big":
            lanes.byteswap()
        packed = int.from_bytes(lanes, "little")
    lane = (1 << width) - 1
    full = (1 << n_vertices * width) - 1
    repunit = full // lane
    # lane x holds r(x) + offset, which lies in [0, bound]; every term
    # added below is nonnegative in each lane, so no lane carries
    offset = max(lam, 0) * span
    acc = offset * repunit - lam * packed
    cached = degree * n_vertices * nbytes <= LANE_MASK_CACHE_BYTES
    for down, up, below in (_cached_lane_masks if cached else _lane_masks)(params.n, q, width):
        # the lanes of below find their neighbor x_k + t (mod q) down bits
        # higher, the others up bits lower
        acc += (packed >> down) & below
        acc += (packed << up) & (full ^ below)
    first = acc & lane
    diff = acc ^ first * repunit
    r0 = first - offset + (degree - lam) * low
    return r0, ((diff & -diff).bit_length() - 1) // width if diff else None


# ---------------------------------------------------------------------------
# automorphisms: coordinate permutation composed with per-coordinate symbol
# permutations (the full automorphism group of H(n, q) for n >= 2, q >= 3)
# ---------------------------------------------------------------------------


class Automorphism(Record):
    """A map y = g(x) with y_k = alpha_k(x_{pi(k)}).

    coord_perm[k-1] = pi(k) says which source coordinate feeds target
    coordinate k; alpha_perms[k-1] is the symbol permutation applied at
    target coordinate k (alpha_perms[k-1][s] is the image of symbol s).
    partitions.transform applies it to a partition.
    """

    coord_perm: tuple[int, ...]
    alpha_perms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.coord_perm)
        if sorted(self.coord_perm) != list(range(1, n + 1)):
            raise ValueError(f"coord_perm {self.coord_perm} is not a permutation of 1..{n}")
        if len(self.alpha_perms) != n:
            raise ValueError("need one symbol permutation per coordinate")
        q = len(self.alpha_perms[0]) if self.alpha_perms else 0
        for a in self.alpha_perms:
            if sorted(a) != list(range(q)):
                raise ValueError(f"alpha permutation {a} is not a permutation of 0..{q - 1}")


def random_automorphism(params: GraphParams, rng) -> Automorphism:
    """Uniform random automorphism drawn from the given random.Random."""
    coord = tuple(rng.sample(range(1, params.n + 1), params.n))
    alphas = tuple(
        tuple(rng.sample(range(params.q), params.q)) for _ in range(params.n)
    )
    return Automorphism(coord, alphas)

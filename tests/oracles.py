"""Reference maps of H(n, q) that the tests hold the package to.

The package never takes a vertex apart digit by digit: it reaches the
digits through hamming's tables and masks, and it moves a partition by an
automorphism with partitions.transform.  These helpers do both one vertex
at a time, so that the tests can check digit_table, digit_masks,
transform and partitions.orbit_closure against them.  The package reads
how a cell depends on a coordinate off partitions.slices;
essential_coordinates_of_values reads it off a value sequence instead.
"""

from typing import Sequence

from eqpart.hamming import Automorphism, GraphParams, encode_vertex


def decode_vertex(params: GraphParams, v: int) -> tuple[int, ...]:
    """Tuple (x_1, ..., x_n) of the vertex with index v."""
    if not 0 <= v < params.vertex_count:
        raise ValueError(f"vertex {v} outside [0, {params.vertex_count})")
    out = []
    for _ in range(params.n):
        out.append(v % params.q)
        v //= params.q
    return tuple(reversed(out))


def apply_automorphism(params: GraphParams, g: Automorphism, v: int) -> int:
    """Image of vertex v under g: y_k = alpha_k(x_{pi(k)})."""
    if len(g.coord_perm) != params.n or len(g.alpha_perms[0]) != params.q:
        raise ValueError("automorphism shape does not match the graph")
    x = decode_vertex(params, v)
    y = tuple(
        g.alpha_perms[k][x[g.coord_perm[k] - 1]] for k in range(params.n)
    )
    return encode_vertex(params, y)


def vertex_map(params: GraphParams, g: Automorphism) -> tuple[int, ...]:
    """The image of every vertex under g, in vertex order."""
    return tuple(apply_automorphism(params, g, v) for v in range(params.vertex_count))


def essential_coordinates_of_values(
    params: GraphParams, values: Sequence[int]
) -> frozenset[int]:
    """Coordinates k such that some line in direction k is non-constant.

    With s = q^(n-k), every line in direction k is constant iff, within
    each period of q*s vertices, the values of x_k < q - 1 equal those one
    stride later.
    """
    q, n_vertices = params.q, params.vertex_count
    ess = []
    for k in range(1, params.n + 1):
        s = q ** (params.n - k)
        period = q * s
        if any(
            values[b:b + period - s] != values[b + s:b + period]
            for b in range(0, n_vertices, period)
        ):
            ess.append(k)
    return frozenset(ess)

"""The backtracking route of search.backtracking_enumerate.

Vertices are assigned in index order.  Each vertex that an echelon row of
(A - lam I) x = s21 * 1 determines is forced, the others branch 0/1, and
neighbor counts prune.  Root conditions keep only the cells that meet
them, at least one in each orbit of the stabilizer of vertex 0 (see
search.backtracking_enumerate).  The search is split into shards at the
live states it reaches at a fixed vertex, and the shards run in forked
worker processes or in this process.

search imports this module only when it searches, so that no other
command compiles it.
"""

from __future__ import annotations

import marshal
import os
from functools import lru_cache
from math import gcd
from typing import Any, Callable, Optional, Sequence

from .hamming import GraphParams, neighbor_table
from .partitions import QuotientMatrix, predicted_cell_size

_SHARD_DEPTH = 10               # shards are the live states at this vertex
_Rows = tuple[tuple[int, ...], ...]     # the rows of a QuotientMatrix
_Shard = tuple[GraphParams, _Rows, int, tuple[int, int, int]]


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


@lru_cache(maxsize=4)
def _root_needs(params: GraphParams) -> tuple[int, ...]:
    """For each vertex v, the bitset of the vertices that the root
    conditions require in C once v is in C: vertex a q^(n-k), the
    neighbor of vertex 0 with symbol a at coordinate k, needs symbol a - 1
    at coordinate k if a >= 2 and symbol a at coordinate k + 1 if k < n.
    Both lie below v, so they are assigned when v is."""
    n, q = params.n, params.q
    needs = [0] * params.vertex_count
    for k in range(1, n + 1):
        stride = q ** (n - k)
        for v in range(stride, q * stride, stride):
            needs[v] = (v > stride) << v - stride | (k < n) << v // q
    return tuple(needs)


def _walk(
    params: GraphParams, s11: int, s21: int, size_c: int,
    state: tuple[int, int, int], stop: int,
) -> list[tuple[int, int, int]]:
    """The states (next vertex, cell bitset, cell size) that the search
    reaches at vertex stop from state.

    Vertices are assigned in index order on an explicit stack.  A vertex
    with a row in _forced_table takes the one value that row gives, since
    every vertex below it is assigned; the state dies unless that value is
    0 or 1.  A free vertex branches 0/1.  A vertex goes into C only if
    its _root_needs are in C.  Feasibility pruning: a vertex w with cnt
    assigned neighbors in C, pending unassigned neighbors and target count
    req must satisfy cnt <= req <= cnt + pending.
    """
    table = _pruning_table(params)
    forced = _forced_table(params, s11 - s21)
    needs = _root_needs(params)
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
            if c and needs[v] & cell != needs[v]:
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


def _search_shard(shard: _Shard) -> list[int]:
    """All cells the search completes from one live state, as ints.

    shard is (params, quotient rows, size_c, state), state one of those
    that _walk reaches at the shard depth; see live_shards.
    """
    params, ((s11, _), (s21, _)), size_c, state = shard
    return [cell for _, cell, _ in _walk(params, s11, s21, size_c, state, params.vertex_count)]


def live_shards(params: GraphParams, searched: tuple[_Rows, ...]) -> list[_Shard]:
    """The shards of the searched quotient rows: for each, in order, the
    states with vertex 0 in C that meet the root conditions and that the
    search reaches at vertex min(q^n, _SHARD_DEPTH), sorted, so the list
    is the same for every thread count."""
    depth = min(params.vertex_count, _SHARD_DEPTH)
    shards = []
    for rows in searched:
        (s11, _), (s21, _) = rows
        size = int(predicted_cell_size(QuotientMatrix(rows), params))
        # vertex 0 is free, and its count check passes since s11 <= degree
        states = sorted(_walk(params, s11, s21, size, (1, 1, 1), depth))
        shards.extend((params, rows, size, x) for x in states)
    return shards


def _fork_map(fn: Callable[[Any], Any], items: Sequence, workers: int) -> list:
    """[fn(x) for x in items], computed by workers forked children.

    Child i maps items i, i + workers, ..., sends its results, or the
    error fn raised, down a pipe with marshal (so results must be values
    that marshal writes) and leaves by os._exit: it runs no atexit handler
    and flushes no buffer it inherited.  This process reads every pipe and
    reaps every child, also on error, when it kills them first.  A child
    that failed or sent nothing raises RuntimeError here.
    """
    children, payloads = [], []     # (pid, read end of its pipe), what each sent
    try:
        for i in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        out = [fn(x) for x in items[i::workers]]
                    except BaseException as exc:
                        out = f"{type(exc).__name__}: {exc}"
                    with open(write, "wb") as pipe:
                        marshal.dump(out, pipe)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        for _, read in children:
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for pid, read in children:
            os.close(read)
            if len(payloads) < workers:
                os.kill(pid, 9)     # SIGKILL
            os.waitpid(pid, 0)
    results: list = [None] * len(items)
    for i, payload in enumerate(payloads):
        out = marshal.loads(payload) if payload else "it sent nothing"
        if isinstance(out, str):
            raise RuntimeError(f"worker {i} failed: {out}")
        results[i::workers] = out
    return results


def run_shards(shards: list[_Shard], threads: int) -> list[list[int]]:
    """_search_shard of every shard, in order, by _fork_map over
    min(threads, os.cpu_count(), shard count) workers, or in this process
    when that is one or os.fork is missing."""
    workers = min(threads, os.cpu_count() or 1, len(shards))
    if workers > 1 and hasattr(os, "fork"):
        return _fork_map(_search_shard, shards, workers)
    return [_search_shard(x) for x in shards]

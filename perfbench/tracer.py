"""In-process tracing of the eqpart modules, and the arithmetic on its spans.

`install` replaces every public function of each eqpart module, and every
public method of the classes those modules define, by a wrapper.  Because
the package imports names with `from .x import y`, one function object can
sit in several module namespaces; the wrapper is patched into each of them.

Entry-level functions record a span `[name, start, end, parent, work]` in
memory; `work` counts what the call did where `WORK` says how, else 0.
Hot helpers, called once per vertex or per function, only count calls, so
their cost is charged to the span that called them.  The span name is
`<layer>.<function>` or `<layer>.<Class>.<method>`, where the layer is the
module's short name.

The parent process reads the dumped spans back and computes self times:
a span's self time is its duration minus the durations of its children,
so the self times of all spans of one command sum to its root span.

This module must not import eqpart: the traced entry point times that
import itself.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import Counter
from typing import Any, Callable, Iterable

# Called per vertex, per coordinate or per classified function: counts only.
HOT = frozenset({
    "hamming.encode_vertex",
    "hamming.decode_vertex",
    "hamming.coordinate_stride",
    "hamming.coordinate_value",
    "hamming.neighbors",
    "hamming.apply_automorphism",
    "hamming.eigenvalue",
    "partitions.TwoPartition.contains",
    "eigenfunctions.VertexFunction.is_ternary",
    "eigenfunctions.VertexFunction.is_zero",
})

CODEC = ("hamming.encode_vertex", "hamming.decode_vertex")
LAYERS = ("hamming", "partitions", "constructions", "search", "eigenfunctions",
          "documents", "cli")
ROOT = "cli.run_command"


def _checked_vertices(args: tuple, result: Any) -> int:
    """Vertices an equitability check looked at before it returned."""
    witness = getattr(result, "vertices", result)
    if isinstance(witness, tuple) and len(witness) == 2:
        return witness[1] + 1
    return args[0].params.vertex_count


def _length(args: tuple, result: Any) -> int:
    return len(result)


# What one call did, stored in its span: name -> f(args, result).
WORK: dict[str, Callable[[tuple, Any], int]] = {
    "partitions.equitable_check": _checked_vertices,
    "partitions.spectral_check": _checked_vertices,
    "search.candidate_quotient_matrices": _length,
    "search.backtracking_enumerate": _length,
    "search.brute_force_enumerate": _length,
}


class Tracer:
    """Spans and call counts of one process, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock, work = self.spans, self._stack, self.clock, WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[4] = work(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, name: str, fn: Callable) -> Callable:
        if name in HOT or inspect.isgeneratorfunction(fn):
            return self.counted(name, fn)
        return self.spanned(name, fn)

    def dump(self, path: str, **extra: Any) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[n], *rest] for n, *rest in self.spans],
            "counts": dict(self.counts),
            **extra,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def _wrap_class(tracer: Tracer, layer: str, cls: type) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, (classmethod, staticmethod)):
            setattr(cls, attr, type(value)(tracer.wrap(name, value.__func__)))
        elif inspect.isfunction(value):
            setattr(cls, attr, tracer.wrap(name, value))


def install(tracer: Tracer, modules: Iterable[Any]) -> dict[str, Any]:
    """Wrap the public callables of the given modules in every namespace.

    Returns the original objects that carry an lru_cache, by span name, so
    their `cache_info()` can be read after the run.
    """
    modules = list(modules)
    wrappers: dict[int, tuple[Any, Callable]] = {}
    caches: dict[str, Any] = {}
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, layer, obj)
            elif callable(obj):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, tracer.wrap(name, obj))
                if hasattr(obj, "cache_info"):
                    caches[name] = obj
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return caches


# --- analysis in the parent process -----------------------------------------


def load(path: str) -> dict[str, Any]:
    with open(path) as f:
        doc = json.load(f)
    names = doc["names"]
    doc["spans"] = [(names[i], *rest) for i, *rest in doc["spans"]]
    return doc


def self_times(spans: list[tuple]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for _, a, b, parent, _ in spans:
        if parent >= 0:
            out[parent] -= b - a
    return out


def layer_self_times(spans: list[tuple]) -> dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for (name, *_), t in zip(spans, self_times(spans)):
        layer = name.partition(".")[0]
        totals[layer] = totals.get(layer, 0.0) + t
    return totals


def _ancestors_in(spans: list[tuple], i: int, names: frozenset) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def outermost(spans: list[tuple], names: Iterable[str]) -> tuple[float, int]:
    """Total duration and number of the spans named in `names` that have no
    ancestor named in `names`, so nested calls are not counted twice."""
    names = frozenset(names)
    total, calls = 0.0, 0
    for i, (name, a, b, _, _) in enumerate(spans):
        if name in names and not _ancestors_in(spans, i, names):
            total += b - a
            calls += 1
    return total, calls


def children_named(spans: list[tuple], i: int, child: str) -> int:
    """Number of direct children of span i named `child`."""
    return sum(1 for name, _, _, p, _ in spans if name == child and p == i)


def root_duration(spans: list[tuple]) -> float:
    return sum(b - a for name, a, b, p, _ in spans if name == ROOT and p < 0)


# --- per-layer metrics ----------------------------------------------------------

BUILD = ("constructions.eight_cycle_partition", "constructions.lifted_cycle_pair",
         "constructions.lift_two_partition", "constructions.alphabet_lift",
         "constructions.permutation_switching")
PARSE = ("documents.load_json", "documents.partition_from_doc", "documents.function_from_doc",
         "documents.parse_blocks", "documents.hex_to_cell")
EMIT = ("documents.partition_to_doc", "documents.function_to_doc", "documents.cell_to_hex",
        "documents.blocks_to_text")
TIMED = {
    "hamming.neighbor_table_s": ("hamming.neighbor_table",),
    "partitions.equitable_check_s": ("partitions.equitable_check",),
    "partitions.spectral_check_s": ("partitions.spectral_check",),
    "partitions.essential_coordinates_s": ("partitions.essential_coordinates",),
    "partitions.orthogonal_array_check_s": ("partitions.orthogonal_array_check",),
    "partitions.reduce_s": ("partitions.reduce",),
    "constructions.is_induced_cycle_s": ("constructions.is_induced_cycle",),
    "constructions.build_s": BUILD,
    "search.backtracking_enumerate_s": ("search.backtracking_enumerate",),
    "search.brute_force_enumerate_s": ("search.brute_force_enumerate",),
    "search.canonical_form_s": ("search.canonical_form",),
    "search.classify_reduced_lambda2_s": ("search.classify_reduced_lambda2",),
    "search.census_s": ("search.enumerate_ternary_census",),
    "eigenfunctions.membership_s": ("eigenfunctions.in_top_two_eigenspaces",),
    "eigenfunctions.classify_s": ("eigenfunctions.classify_top_two",
                                  "eigenfunctions.classify_lambda1"),
    "documents.parse_s": PARSE,
    "documents.emit_s": EMIT,
}
ENUMERATORS = ("search.backtracking_enumerate", "search.brute_force_enumerate")


def op_metrics(doc: dict[str, Any]) -> dict[str, float]:
    """Additive per-layer quantities of one traced command.

    Times are inclusive, over the outermost spans of the named functions.
    An enumeration "found" as many partitions as its largest of: the
    partitions it returned, and the calls it made to the reduced filter
    (essential_coordinates) and the isomorphism filter (canonical_form).
    """
    spans, counts, caches = doc["spans"], doc["counts"], doc["caches"]
    out: dict[str, float] = {}
    for metric, names in TIMED.items():
        out[metric], calls = outermost(spans, names)
        if metric == "partitions.equitable_check_s":
            out["partitions.equitable_check_calls"] = calls
        elif metric == "eigenfunctions.membership_s":
            out["_membership_calls"] = calls
    out["hamming.neighbor_table_builds"] = caches.get("hamming.neighbor_table", {}).get("misses", 0)
    out["hamming.codec_calls"] = sum(counts.get(n, 0) for n in CODEC)
    out["search.canonical_form_calls"] = sum(1 for s in spans if s[0] == "search.canonical_form")
    out["search.canonical_cache_hits"] = caches.get("search.canonical_form", {}).get("hits", 0)
    out["search.candidate_quotients"] = sum(
        s[4] for s in spans if s[0] == "search.candidate_quotient_matrices")
    out["_vertices_checked"] = sum(
        s[4] for s in spans if s[0] in ("partitions.equitable_check", "partitions.spectral_check"))
    out["_kept"] = out["_found"] = 0
    for i, s in enumerate(spans):
        if s[0] in ENUMERATORS:
            out["_kept"] += s[4]
            out["_found"] += max(s[4], children_named(spans, i, "partitions.essential_coordinates"),
                                 children_named(spans, i, "search.canonical_form"))
    for layer, t in layer_self_times(spans).items():
        out[f"{layer}.self_s"] = t
    out["trace.root_s"] = root_duration(spans)
    out["trace.spans"] = len(spans)
    out["_import_s"] = doc["import_s"]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_metrics(ops: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one pass: sums over its commands, then rates.
    A rate or ratio whose base is zero in the pass reads 0."""
    total = {k: sum(op[k] for op in ops) for k in ops[0]} if ops else {}
    out = {k: v for k, v in total.items() if not k.startswith("_")}
    out["partitions.vertices_checked_per_s"] = _ratio(
        total.get("_vertices_checked", 0),
        total.get("partitions.equitable_check_s", 0) + total.get("partitions.spectral_check_s", 0))
    out["search.kept_ratio"] = _ratio(total.get("_kept", 0), total.get("_found", 0))
    out["eigenfunctions.functions_per_s"] = _ratio(
        total.get("_membership_calls", 0), total.get("eigenfunctions.membership_s", 0))
    out["cli.import_s"] = statistics.median(op["_import_s"] for op in ops) if ops else 0.0
    return out

"""Command line interface.

Results go to stdout as JSON (one object, or for enumerate one object per
line followed by a summary).  Exit codes: 0 for success, 1 for a failed
mathematical gate only (a partition that is not equitable, a construction
or classify-t5 input whose gate returns a FailedGate, an unclassified
partition), 2 for usage errors and for every ValueError: a document that
cannot be read, decoded or parsed, an input beyond a guard, and a base,
input or cycle pair on the wrong graph.  An AssertionError is a broken
invariant and ends in a traceback.  A reader that closes stdout early
(eqpart ... | head) ends the run with exit 1 and no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Any

# search first: its compile, the largest, runs before the rest load (lower peak RSS)
from .search import (
    EnumConstraints,
    Unclassified,
    backtracking_enumerate,
    brute_force_enumerate,
    candidate_quotient_matrices,
    classify_reduced_lambda2,
    enumerate_ternary_census,
)
from .constructions import (
    AlphabetBlocks,
    FailedGate,
    LiftBlocks,
    eight_cycle_partition,
    is_induced_cycle,
    lift_two_partition,
    lifted_cycle_pair,
    permutation_switching,
)
from .documents import (
    function_from_doc,
    guarded_params,
    load_json,
    parse_blocks,
    partition_from_doc,
    partition_lines,
    tagged,
    to_json,
)
from .eigenfunctions import NotMember, classify_lambda1, classify_top_two
from .hamming import GraphParams, eigenvalue
from .partitions import (
    NotEquitable,
    QuotientMatrix,
    TwoPartition,
    equitable_check,
    essential_coordinates,
    orthogonal_array_check,
    predicted_cell_size,
    quotient_eigenvalue_indices,
    reduce as reduce_partition,
    spectral_check,
)


def _print_json(obj: Any) -> None:
    print(json.dumps(obj, sort_keys=True))


def _read_doc(path: str) -> Any:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    return load_json(text)


def _print_construction(p: TwoPartition | FailedGate, **extra: Any) -> int:
    """Print the certificate of the partition p, with the extra fields, and
    exit 0; or print {"error": ...} and exit 1 when p is a FailedGate."""
    if isinstance(p, FailedGate):
        _print_json({"error": p.reason})
        return 1
    s = equitable_check(p)
    assert isinstance(s, QuotientMatrix)
    _print_json({
        "partition": to_json(p),
        "quotient": to_json(s.rows),
        "eigenvalue_index": max(quotient_eigenvalue_indices(s, p.params)),
        "essential_coordinates": to_json(essential_coordinates(p)),
        **extra,
    })
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    p = partition_from_doc(_read_doc(args.input))
    params = p.params
    cert: dict[str, Any] = {
        "partition": to_json(p),
        "size": p.size,
    }
    s = equitable_check(p)
    if isinstance(s, NotEquitable):
        cert["equitable"] = False
        cert["witness"] = to_json(s)
        _print_json(cert)
        return 1
    lam = s.rows[0][0] - s.rows[1][0]
    if spectral_check(p, lam) is not None:
        raise AssertionError("equitability checks disagree")
    cert["equitable"] = True
    cert["quotient"] = to_json(s.rows)
    cert["eigenvalues"] = [params.degree, lam]
    cert["eigenvalue_index"] = max(quotient_eigenvalue_indices(s, params))
    cert["spectral_check"] = True
    ess = to_json(essential_coordinates(p))
    cert["essential_coordinates"] = ess
    cert["reduced"] = len(ess) == params.n
    applicable = params.n >= 2 and lam == eigenvalue(params, 2)
    oa: dict[str, Any] = {"applicable": applicable}
    if applicable:
        mismatch = orthogonal_array_check(p, s)
        oa["balanced"] = mismatch is None
        if mismatch is not None:
            oa["mismatch"] = to_json(mismatch)
    cert["orthogonal_array"] = oa
    # An induced cycle is 2-regular; the quotient diagonal says whether a cell is.
    cert["induced_cycle_lengths"] = {
        "cell": is_induced_cycle(params, p.vertices()) if s.rows[0][0] == 2 else None,
        "complement": (
            is_induced_cycle(params, p.complement().vertices()) if s.rows[1][1] == 2 else None
        ),
    }
    _print_json(cert)
    return 0


def _cmd_construct_a(args: argparse.Namespace) -> int:
    try:
        blocks = AlphabetBlocks(parse_blocks(args.blocks))
    except ValueError as exc:
        raise ValueError(f"invalid --blocks: {exc}") from None
    guarded_params(len(blocks.blocks) + 1, blocks.q)
    base = partition_from_doc(_read_doc(args.base))
    return _print_construction(permutation_switching(blocks, base), blocks=to_json(blocks))


def _cmd_construct_b(args: argparse.Namespace) -> int:
    split, *others = parse_blocks(args.split)
    if others:
        raise ValueError("--split must be a single comma-separated symbol list")
    guarded_params(4, args.q)
    cycle_pair = None
    if args.cycle_pair is not None:
        cycle_pair = partition_from_doc(_read_doc(args.cycle_pair))
    return _print_construction(lifted_cycle_pair(args.q, split, cycle_pair), split=to_json(split))


def _cmd_lift(args: argparse.Namespace) -> int:
    try:
        blocks = LiftBlocks(parse_blocks(args.blocks))
    except ValueError as exc:
        raise ValueError(f"invalid --blocks: {exc}") from None
    p = partition_from_doc(_read_doc(args.input))
    guarded_params(p.params.n, blocks.q)
    return _print_construction(lift_two_partition(p, blocks), blocks=to_json(blocks))


def _cmd_eight_cycle(args: argparse.Namespace) -> int:
    return _print_construction(eight_cycle_partition())


def _cmd_classify_fn(args: argparse.Namespace) -> int:
    f = function_from_doc(_read_doc(args.input))
    form = classify_top_two(f)
    _print_json({
        "member": not isinstance(form, NotMember),
        "top_two_form": tagged(form),
        "lambda1_form": tagged(classify_lambda1(f, form)),
    })
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    p = partition_from_doc(_read_doc(args.input))
    reduced, removed = reduce_partition(p)
    _print_json({
        "partition": to_json(reduced),
        "removed_coordinates": to_json(removed),
    })
    return 0


def _parse_quotient(text: str) -> QuotientMatrix:
    rows = []
    for part in text.split(";"):
        try:
            rows.append(tuple(int(x.strip()) for x in part.split(",")))
        except ValueError:
            raise ValueError(
                f"invalid --quotient row {part!r}; expected comma-separated integers"
            ) from None
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError('--quotient must look like "s11,s12;s21,s22"')
    try:
        return QuotientMatrix(tuple(rows))
    except ValueError as exc:
        raise ValueError(f"invalid --quotient: {exc}") from None


def _cmd_enumerate(args: argparse.Namespace) -> int:
    params = GraphParams(args.n, args.q)
    constraints = EnumConstraints(
        quotient=_parse_quotient(args.quotient) if args.quotient else None,
        eigenvalue_index=args.eig_index,
        reduced_only=args.reduced_only,
        up_to_iso=args.up_to_iso,
    )
    # refuses a malformed quotient for both routes, not just the search
    candidates = candidate_quotient_matrices(params, constraints)
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    if args.brute_force:
        cells = brute_force_enumerate(params, constraints)
    else:
        cells = backtracking_enumerate(params, constraints, threads=args.threads)
    for i in range(0, len(cells), 256):     # few writes, few lines held at once
        sys.stdout.write(partition_lines(params, cells[i:i + 256]))
    # Every proper equitable cell of a connected graph has S12, S21 >= 1, so
    # it has a candidate quotient, the one of its size: candidate sizes differ.
    sizes = Counter(map(int.bit_count, cells))
    counts = sorted((s.rows, sizes.pop(int(predicted_cell_size(s, params)), 0)) for s in candidates)
    if sizes:
        raise AssertionError(f"cells of sizes {sorted(sizes)} have no candidate quotient")
    _print_json({
        "count": len(cells),
        "quotients": [{"matrix": to_json(rows), "count": cnt} for rows, cnt in counts if cnt],
    })
    return 0


def _cmd_classify_t5(args: argparse.Namespace) -> int:
    p = partition_from_doc(_read_doc(args.input))
    tag = classify_reduced_lambda2(p)
    if isinstance(tag, FailedGate):
        _print_json({"error": tag.reason})
        return 1
    _print_json({"tag": tagged(tag)})
    return 1 if isinstance(tag, Unclassified) else 0


def _cmd_sweep_ternary(args: argparse.Namespace) -> int:
    census = enumerate_ternary_census(GraphParams(args.n, args.q))
    _print_json({**to_json(census), "members": census.members, "total": census.total})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqpart",
        description="equitable 2-partitions and eigenfunctions of Hamming graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("verify", help="certify a partition document")
    s.add_argument("input", help="partition document path, or - for stdin")
    s.set_defaults(func=_cmd_verify)

    s = sub.add_parser("construct-a", help="permutation switching of a balanced base")
    s.add_argument("--blocks", required=True, help='alphabet blocks, e.g. "0,1|2,3"')
    s.add_argument("--base", required=True, help="base partition document of H(2, q)")
    s.set_defaults(func=_cmd_construct_a)

    s = sub.add_parser("construct-b", help="alphabet-lifted induced-8-cycle pair")
    s.add_argument("--q", type=int, required=True, help="even target alphabet size")
    s.add_argument("--split", required=True, help='symbols lifting 0, e.g. "0,1"')
    s.add_argument("--cycle-pair", help="optional 8-cycle pair document for H(4, 2)")
    s.set_defaults(func=_cmd_construct_b)

    s = sub.add_parser("lift", help="blow up each symbol to an alphabet block")
    s.add_argument("--blocks", required=True, help='equal-size blocks, e.g. "0,1|2,3"')
    s.add_argument("--input", required=True, help="partition document to lift")
    s.set_defaults(func=_cmd_lift)

    s = sub.add_parser("eight-cycle", help="the induced-8-cycle pair of H(4, 2)")
    s.set_defaults(func=_cmd_eight_cycle)

    s = sub.add_parser("classify-fn", help="classify a ternary function document")
    s.add_argument("input", help="function document path, or - for stdin")
    s.set_defaults(func=_cmd_classify_fn)

    s = sub.add_parser("reduce", help="delete nonessential coordinates")
    s.add_argument("input", help="partition document path, or - for stdin")
    s.set_defaults(func=_cmd_reduce)

    s = sub.add_parser("enumerate", help="enumerate equitable 2-partitions")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    g = s.add_mutually_exclusive_group()
    g.add_argument("--eig-index", type=int, help="second quotient eigenvalue index")
    g.add_argument("--quotient", help='explicit quotient matrix "s11,s12;s21,s22"')
    s.add_argument("--reduced-only", action="store_true")
    s.add_argument("--up-to-iso", action="store_true")
    s.add_argument("--brute-force", action="store_true",
                   help="sweep all cells instead of the pruned search")
    s.add_argument("--threads", type=int, default=1,
                   help="worker processes for the pruned search (at most the CPU count)")
    s.set_defaults(func=_cmd_enumerate)

    s = sub.add_parser("classify-t5", help="tag a reduced second-eigenvalue partition")
    s.add_argument("input", help="partition document path, or - for stdin")
    s.set_defaults(func=_cmd_classify_t5)

    s = sub.add_parser("sweep-ternary", help="classify every ternary function")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.set_defaults(func=_cmd_sweep_ternary)

    return parser


def run_command(argv: list[str], stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
        try:
            return args.func(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (eqpart ... | head): point stdout at devnull,
        # so that the flush at exit raises nothing either, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

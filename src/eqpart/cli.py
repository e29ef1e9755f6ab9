"""Command line interface.

Results go to stdout as JSON (one object, or for enumerate one object per
line followed by a summary).  Exit codes: 0 for success, 1 for a verified
negative result (a partition that is not equitable, a construction whose
input fails its balance gate, an unclassified partition), 2 for usage or
document format errors and for inputs beyond a guard.  A reader that
closes stdout early (eqpart ... | head) ends the run with exit 1 and no
traceback.
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

from .constructions import (
    AlphabetBlocks,
    LiftBlocks,
    eight_cycle_partition,
    is_induced_cycle,
    lift_two_partition,
    lifted_cycle_pair,
    permutation_switching,
)
from .documents import (
    DocumentError,
    function_from_doc,
    guarded_params,
    load_json,
    parse_blocks,
    partition_from_doc,
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
from .search import (
    EnumConstraints,
    Unclassified,
    backtracking_enumerate,
    brute_force_enumerate,
    candidate_quotient_matrices,
    classify_reduced_lambda2,
    enumerate_ternary_census,
)


def _print_json(obj: Any) -> None:
    print(json.dumps(obj, sort_keys=True))


def _read_doc(path: str) -> Any:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    return load_json(text)


def _construction_result(p: TwoPartition) -> dict[str, Any]:
    s = equitable_check(p)
    assert isinstance(s, QuotientMatrix)
    return {
        "partition": to_json(p),
        "quotient": to_json(s.rows),
        "eigenvalue_index": max(quotient_eigenvalue_indices(s, p.params)),
        "essential_coordinates": to_json(essential_coordinates(p)),
    }


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
        raise DocumentError(f"invalid --blocks: {exc}") from None
    guarded_params(len(blocks.blocks) + 1, blocks.q)
    base = partition_from_doc(_read_doc(args.base))
    try:
        switched = permutation_switching(blocks, base)
    except ValueError as exc:
        _print_json({"error": str(exc)})
        return 1
    result = _construction_result(switched)
    result["blocks"] = to_json(blocks)
    _print_json(result)
    return 0


def _cmd_construct_b(args: argparse.Namespace) -> int:
    q = args.q
    split_blocks = parse_blocks(args.split)
    if len(split_blocks) != 1:
        raise DocumentError("--split must be a single comma-separated symbol list")
    split = split_blocks[0]
    if q < 2 or q % 2:
        raise DocumentError("--q must be even and >= 2")
    guarded_params(4, q)
    if any(not 0 <= x < q for x in split) or len(split) != q // 2:
        raise DocumentError(f"--split must name q/2 = {q // 2} symbols from 0..{q - 1}")
    cycle_pair = None
    if args.cycle_pair is not None:
        cycle_pair = partition_from_doc(_read_doc(args.cycle_pair))
    try:
        lifted = lifted_cycle_pair(q, split, cycle_pair)
    except ValueError as exc:
        _print_json({"error": str(exc)})
        return 1
    result = _construction_result(lifted)
    result["split"] = to_json(split)
    _print_json(result)
    return 0


def _cmd_lift(args: argparse.Namespace) -> int:
    try:
        blocks = LiftBlocks(parse_blocks(args.blocks))
    except ValueError as exc:
        raise DocumentError(f"invalid --blocks: {exc}") from None
    p = partition_from_doc(_read_doc(args.input))
    guarded_params(p.params.n, blocks.q)
    try:
        lifted = lift_two_partition(p, blocks)
    except ValueError as exc:
        _print_json({"error": str(exc)})
        return 1
    result = _construction_result(lifted)
    result["blocks"] = to_json(blocks)
    _print_json(result)
    return 0


def _cmd_eight_cycle(args: argparse.Namespace) -> int:
    _print_json(_construction_result(eight_cycle_partition()))
    return 0


def _cmd_classify_fn(args: argparse.Namespace) -> int:
    f = function_from_doc(_read_doc(args.input))
    if not f.is_ternary():
        raise DocumentError("classification applies to ternary functions only")
    form = classify_top_two(f)
    return_doc = {
        "member": not isinstance(form, NotMember),
        "top_two_form": tagged(form),
        "lambda1_form": tagged(classify_lambda1(f, form)),
    }
    _print_json(return_doc)
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
            raise DocumentError(
                f"invalid --quotient row {part!r}; expected comma-separated integers"
            ) from None
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise DocumentError('--quotient must look like "s11,s12;s21,s22"')
    try:
        return QuotientMatrix(tuple(rows))
    except ValueError as exc:
        raise DocumentError(f"invalid --quotient: {exc}") from None


def _cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        params = GraphParams(args.n, args.q)
        constraints = EnumConstraints(
            quotient=_parse_quotient(args.quotient) if args.quotient else None,
            eigenvalue_index=args.eig_index,
            reduced_only=args.reduced_only,
            up_to_iso=args.up_to_iso,
        )
        if constraints.quotient is None and constraints.eigenvalue_index is None:
            raise ValueError("give one of --eig-index and --quotient")
        # refuses a malformed quotient for both routes, not just the search
        candidates = candidate_quotient_matrices(params, constraints)
        if args.threads < 1:
            raise ValueError("--threads must be >= 1")
        if args.brute_force:
            found = brute_force_enumerate(params, constraints)
        else:
            found = backtracking_enumerate(params, constraints, threads=args.threads)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    for p in found:
        _print_json(to_json(p))
    # Every proper equitable cell of a connected graph has S12, S21 >= 1, so
    # it has a candidate quotient, the one of its size: candidate sizes differ.
    sizes = Counter(p.size for p in found)
    counts = sorted((s.rows, sizes.pop(int(predicted_cell_size(s, params)), 0)) for s in candidates)
    if sizes:
        raise AssertionError(f"cells of sizes {sorted(sizes)} have no candidate quotient")
    _print_json({
        "count": len(found),
        "quotients": [{"matrix": to_json(rows), "count": cnt} for rows, cnt in counts if cnt],
    })
    return 0


def _cmd_classify_t5(args: argparse.Namespace) -> int:
    p = partition_from_doc(_read_doc(args.input))
    try:
        tag = classify_reduced_lambda2(p)
    except ValueError as exc:
        _print_json({"error": str(exc)})
        return 1
    _print_json({"tag": tagged(tag)})
    return 1 if isinstance(tag, Unclassified) else 0


def _cmd_sweep_ternary(args: argparse.Namespace) -> int:
    try:
        census = enumerate_ternary_census(GraphParams(args.n, args.q))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
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
        except DocumentError as exc:
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

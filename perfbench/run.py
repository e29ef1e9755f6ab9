"""eqpart benchmark: the CLI as a user runs it, one fresh interpreter per command.

    python3 perfbench/run.py --workload certify|enumerate|classify|all \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-digests

One client runs the operations of a workload one at a time, in a closed
loop, and repeats the pass while its next operation fits in --seconds;
after the first pass, the operations around the median latency run
several times in each pass.
Every operation's exit code and stdout go through the output gate.

--trace 0 reports the end-to-end metrics: set-up time (a fresh interpreter
importing eqpart.cli and building the parser), the wall time of a typical
pass, the median operation latency and the largest child max-RSS.  --trace 1
runs one plain pass, then traced passes through traced_cli.py, and reports
per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracer
from workloads import WORKLOADS, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"
WORK = HERE / "work"

DEFAULT_SEED = 1
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0      # no operation starts or runs past this point of a run
SETUP_EVERY = 6          # one cold-start sample before every 6th operation
MIDDLE_REPEATS = 3       # runs per pass of the operations around the median latency
SETUP = "import eqpart.cli; eqpart.cli.build_parser()"


# --- child processes ----------------------------------------------------------


@dataclass
class Child:
    code: Optional[int]          # None when killed at its timeout
    seconds: float
    stdout: bytes
    stderr: bytes


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 5.0) -> None:
    """Wait until no process of the group is left, e.g. pool workers."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.005)


def run_child(argv: list[str], timeout: float, scratch: Path) -> Child:
    """Run argv in its own process group, from the checkout root.

    Times it from spawn to exit, and kills the whole group at the timeout,
    on an exception such as Ctrl-C, and after the exit, so that no worker
    it started outlives it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
    timed_out = threading.Event()

    def expire() -> None:
        timed_out.set()
        _kill_group(proc.pid)

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        # WNOWAIT leaves the child a zombie, so its pid and group cannot be
        # reused before the group is killed below.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        seconds = time.perf_counter() - start
    finally:
        timer.cancel()
        timer.join()
        _kill_group(proc.pid)
        _, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _wait_group_gone(proc.pid)
    return Child(
        code=None if timed_out.is_set() else proc.returncode,
        seconds=seconds,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


# --- passes -------------------------------------------------------------------


@dataclass
class Pass:
    names: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    max_rss_mb: float = 0.0
    stdout_bytes: int = 0
    setup_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    complete: bool = True

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


class Bench:
    def __init__(self, workload: str, seed: int, scratch: Path, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        docs = scratch / "docs"
        docs.mkdir()
        self.ops = build(workload, seed, docs, nproc())
        self.attempted = 0
        self.last: dict[str, float] = {}    # latest latency of each operation

    def failure(self, op, child: Child) -> Optional[str]:
        reason = op.check(child.code, child.stdout)
        if reason is None and (not op.seeded or self.seed == DEFAULT_SEED):
            want = self.digests.get(f"{self.workload}/{op.key}")
            got = hashlib.sha256(child.stdout).hexdigest()
            if want is None:
                reason = "no recorded stdout digest"
            elif got != want:
                reason = f"stdout sha256 {got[:12]} != recorded {want[:12]}"
        if reason is not None and child.stderr:
            reason += f" (stderr: {child.stderr.decode(errors='replace').strip()[-200:]})"
        return reason

    def run_pass(self, traced: bool, until: Optional[float] = None,
                 ops: Optional[list] = None) -> Pass:
        """Run the operations (by default each once, in order); with `until`,
        skip each operation whose last latency says it would end after that
        time."""
        result = Pass()
        trace_path, rss_path = self.scratch / "trace.json", self.scratch / "peak_rss_kb"
        for i, op in enumerate(self.ops if ops is None else ops):
            if until is not None and time.monotonic() + self.last.get(op.name, 0.0) > until:
                result.complete = False
                continue
            self.attempted += 1
            if time.monotonic() >= self.deadline:
                result.failures.append(f"{op.name}: not run, run time limit reached")
                continue
            if not traced and i % SETUP_EVERY == 0:
                result.setup_s.append(cold_start(self.scratch, self.deadline - time.monotonic()))
            remaining = self.deadline - time.monotonic()
            out_path = trace_path if traced else rss_path
            out_path.unlink(missing_ok=True)
            entry = "traced_cli.py" if traced else "plain_cli.py"
            argv = [sys.executable, str(HERE / entry), str(out_path), *op.argv]
            child = run_child(argv, min(OP_TIMEOUT_S, remaining), self.scratch)
            self.last[op.name] = child.seconds
            result.names.append(op.name)
            result.latencies.append(child.seconds)
            if not traced and rss_path.exists():
                result.max_rss_mb = max(result.max_rss_mb, int(rss_path.read_text()) / 1024)
            result.stdout_bytes += len(child.stdout)
            reason = self.failure(op, child)
            if reason is None and traced:
                try:
                    trace = tracer.op_metrics(tracer.load(str(trace_path)))
                except (OSError, ValueError, KeyError) as exc:
                    reason = f"unreadable trace: {exc!r}"
                else:
                    layers = sum(v for k, v in trace.items() if k.endswith(".self_s"))
                    if abs(layers - trace["trace.root_s"]) > 1e-6:
                        reason = (f"layer self times sum to {layers}, "
                                  f"root span is {trace['trace.root_s']}")
                    result.traces.append(trace)
            if reason is not None:
                result.failures.append(f"{op.name}: {reason}")
        return result


def cold_start(scratch: Path, timeout: float = OP_TIMEOUT_S) -> float:
    """Seconds for a fresh interpreter to import eqpart.cli and build the
    parser: the set-up every command pays."""
    child = run_child([sys.executable, "-c", SETUP], min(OP_TIMEOUT_S, timeout), scratch)
    if child.code != 0:
        raise RuntimeError(f"cannot import eqpart.cli: {child.stderr.decode()[-500:]}")
    return child.seconds


def schedule(ops: list, latency: dict[str, float]) -> list:
    """Each operation once, in order, and the four or five operations
    around the median latency MIDDLE_REPEATS times, their repeats spread
    evenly over the pass.

    op_p50_s is the latency of the middle operation, so it rests on many
    samples taken at many moments of a run rather than on one per pass;
    the other operations are not repeated, and the time saved goes to more
    passes, whose largest operations set wall_s."""
    ranked = sorted(ops, key=lambda op: latency.get(op.name, 0.0))
    mid = (len(ops) - 1) / 2
    extra = [op for r, op in enumerate(ranked) if abs(r - mid) <= 2] * (MIDDLE_REPEATS - 1)
    out = []
    for i, op in enumerate(ops):
        out += [op, *extra[len(extra) * i // len(ops):len(extra) * (i + 1) // len(ops)]]
    return out


def run_passes(bench: Bench, seconds: float) -> list[Pass]:
    """One whole pass, then passes that repeat the operations whose median
    latency so far is in the middle; an operation not expected to end within
    `seconds` is skipped, so the last pass may be partial."""
    until = time.monotonic() + seconds
    passes = [bench.run_pass(traced=False)]
    while passes[-1].complete and time.monotonic() < until:
        typical = {name: statistics.median(v) for name, v in per_op(passes).items()}
        passes.append(bench.run_pass(traced=False, until=until,
                                     ops=schedule(bench.ops, typical)))
    return [p for p in passes if p.names or p.failures]


def run_traced_passes(bench: Bench, seconds: float) -> list[Pass]:
    """Whole traced passes: at least one, another while it is expected to fit."""
    start, passes = time.monotonic(), []
    while True:
        began = time.monotonic()
        passes.append(bench.run_pass(traced=True))
        now = time.monotonic()
        if now - start + (now - began) > seconds or now >= bench.deadline:
            return passes


# --- metrics and record ---------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def record(workload: str, seed: int, trace: int, samples: dict) -> dict:
    describe = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "describe", "--always", "--dirty"], cwd=ROOT,
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            describe = f"unknown: {exc}"
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "eqpart").glob("*.py")))
    return {
        "git_describe": describe,
        "python": platform.python_version(),
        "nproc": nproc(),
        "src_lines": lines,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "samples": samples,
    }


def per_op(passes: list[Pass]) -> dict[str, list[float]]:
    latencies: dict[str, list[float]] = {}
    for p in passes:
        for name, seconds in zip(p.names, p.latencies):
            latencies.setdefault(name, []).append(seconds)
    return latencies


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """A typical pass: each operation at its median latency over passes.

    Per-operation medians use every sample of a partial last pass, and
    shrug off a slow moment of the machine in one pass."""
    typical = [statistics.median(v) for v in per_op(passes).values()]
    return {
        "setup_s": statistics.median(t for p in passes for t in p.setup_s),
        "wall_s": sum(typical),
        "op_p50_s": statistics.median(typical),
        "peak_rss_mb": max(p.max_rss_mb for p in passes),
    }


def per_layer(baseline: Pass, passes: list[Pass]) -> dict[str, float]:
    passes = [p for p in passes if p.traces]
    if not passes:
        return {}
    values = [tracer.pass_metrics(p.traces) | {
        "cli.stdout_bytes": p.stdout_bytes,
        "trace.overhead_ratio": p.wall_s / baseline.wall_s,
    } for p in passes]
    return {name: statistics.median(v[name] for v in values) for name in values[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns its metrics, failures and counts."""
    start = time.monotonic()
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        scratch = Path(tmp)
        bench = Bench(workload, seed, scratch, start + RUN_LIMIT_S)
        cold_start(scratch)   # writes the bytecode cache, as a user's first command does
        if trace:
            baseline = bench.run_pass(traced=False)
            passes = run_traced_passes(bench, seconds - (time.monotonic() - start))
            metrics = per_layer(baseline, passes)
            passes = [baseline, *passes]
        else:
            passes = run_passes(bench, seconds)
            metrics = end_to_end(passes)
    return {
        "metrics": metrics,
        "failures": [f for p in passes for f in p.failures],
        "attempted": bench.attempted,
        "samples": {"passes": len(passes), "operations": bench.attempted,
                    "setup_samples": sum(len(p.setup_s) for p in passes)},
        "latencies_s": per_op(passes),
    }


# --- digests --------------------------------------------------------------------


def record_digests() -> int:
    """Run every operation once at the default seed; if all pass the gate,
    write the SHA-256 of each stdout to digests.json."""
    digests, failed = {}, []
    WORK.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            bench = Bench(workload, DEFAULT_SEED, Path(tmp), time.monotonic() + 10 * RUN_LIMIT_S)
            for op in bench.ops:
                argv = [sys.executable, str(HERE / "plain_cli.py"), f"{tmp}/peak_rss_kb", *op.argv]
                child = run_child(argv, OP_TIMEOUT_S, Path(tmp))
                reason = op.check(child.code, child.stdout)
                if reason:
                    failed.append(f"{workload}/{op.name}: {reason}")
                key = f"{workload}/{op.key}"
                digest = hashlib.sha256(child.stdout).hexdigest()
                if digests.setdefault(key, digest) != digest:
                    failed.append(f"{key}: operations sharing this digest differ")
    if failed:
        print("\n".join(failed), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS.relative_to(ROOT)}")
    return 0


# --- main -----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="record stdout digests at the default seed and exit")
    args = parser.parse_args()
    if not (SRC / "eqpart" / "cli.py").is_file():
        print(f"error: no eqpart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted, failures, samples, latencies = 0, [], {}, {}
    for workload in chosen:
        res = run_workload(workload, args.seed, args.seconds, args.trace)
        attempted += res["attempted"]
        failures += [f"{workload}/{f}" for f in res["failures"]]
        samples[workload] = res["samples"]
        latencies[workload] = res["latencies_s"]
        for m in listed:
            if m["name"] in res["metrics"]:
                label = m["name"] if len(chosen) == 1 else f"{workload}.{m['name']}"
                metrics[label] = {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                print(f"{workload:10} {m['name']:36} {metrics[label]['value']:>16.6g} {m['unit']}")
        if not args.trace:
            # Also in the result as failed / attempted; never a bounded
            # metric, because it reads 0 when the program is right.
            ratio = len(res["failures"]) / res["attempted"]
            print(f"{workload:10} {'fail_ratio':36} {ratio:>16.6g} ratio")
    for line in failures:
        print(f"FAILED {line}")
    run_record = record(args.workload, args.seed, args.trace, samples)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({
        **run_record, "failures": failures, "metrics": metrics, "latencies_s": latencies,
    }, indent=1) + "\n")
    print(json.dumps({"record": run_record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

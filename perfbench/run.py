"""detsched benchmark: one closed-loop client, in one process, driving the
``detsched`` commands in-process through ``detsched.cli.main``.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a detsched checkout; the package is imported from
its ``src/``.  A run sets up its inputs several times (the median is
``setup_s``), then repeats whole passes over the same operations until
the next pass would end after ``--seconds``; it always makes at least one.
Every pass must write byte-identical outputs.  The outputs are checked
after the timed passes.  The last line of standard output is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  End-to-end times are paced (see ``pace.py``); the
wall times are printed as text.  The traced run runs each operation
twice, untraced then traced, and reports the tracing overhead from the
pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
from pace import REFERENCE_S, Pacer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / ".out"
SETUP_REPEATS = 5


def _import_detsched() -> None:
    src = ROOT / "src"
    if not (src / "detsched" / "cli.py").is_file():
        raise SystemExit(f"error: no detsched sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import detsched

    if Path(detsched.__file__).resolve().parent != src / "detsched":
        raise SystemExit(f"error: detsched imported from {detsched.__file__}, not {src}")


@dataclass
class OpRun:
    """One operation in one pass: the clock when each command it started
    began and when the last ended, their exit codes, and the error of the
    command that failed."""

    op: "workloads.Op"
    marks: list[float]
    codes: list[int]
    error: str | None

    @property
    def started(self) -> float:
        return self.marks[0]

    @property
    def ended(self) -> float:
        return self.marks[-1]

    @property
    def seconds(self) -> float:
        return self.ended - self.started

    @property
    def commands(self) -> int:
        return len(self.marks) - 1

    @property
    def completed(self) -> bool:
        """Every command ran and none failed; exit 2 is a finding."""
        return len(self.codes) == len(self.op.steps) and all(c in (0, 2) for c in self.codes)


def _run_op(cli, op, tracer, op_id: str) -> OpRun:
    for path in op.outputs:
        path.unlink(missing_ok=True)
    codes: list[int] = []
    marks: list[float] = []
    error = None
    stderr = io.StringIO()
    span = None
    if tracer is not None:
        tracer.op = op_id
        span = tracer.open("op")
    with contextlib.redirect_stderr(stderr):
        for argv in op.steps:
            marks.append(time.perf_counter())
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                error = f"usage error: exit {exc.code}"
                break
            except Exception as exc:  # an escaped exception is a failed operation
                error = "".join(traceback.format_exception_only(exc)).strip()
                break
            codes.append(code)
            if code not in (0, 2):
                break
    marks.append(time.perf_counter())
    if span is not None:
        tracer.close(span)
    if error is None and stderr.getvalue():
        error = stderr.getvalue().strip()
    return OpRun(op, marks, codes, error)


@dataclass
class Pass:
    """Every operation run once, and with a tracer once more, traced, right
    after its untraced run; each side has a sha256 of its exit codes and
    outputs."""

    runs: list[OpRun] = field(default_factory=list)
    traced_runs: list[OpRun] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)


def _run_pass(cli, workload, tracer, index: int, after_op) -> Pass:
    """``after_op`` runs after each operation, outside its time."""
    gc.collect()
    result = Pass()
    plain = hashlib.sha256()
    traced = hashlib.sha256()
    for k, op in enumerate(workload.ops):
        result.runs.append(_run_op(cli, op, None, ""))
        _digest(plain, result.runs[-1])
        if tracer is not None:
            tracer.counting = index == 0
            tracer.install()
            try:
                result.traced_runs.append(_run_op(cli, op, tracer, f"p{index}.o{k}"))
            finally:
                tracer.uninstall()
            _digest(traced, result.traced_runs[-1])
        if after_op is not None:
            after_op()
    result.digests = [plain.hexdigest()] + ([traced.hexdigest()] if tracer else [])
    return result


def _digest(digest, run: OpRun) -> None:
    digest.update(f"{run.op.kind}\t{run.codes}\n".encode())
    for path in run.op.outputs:
        if path.exists():
            digest.update(path.read_bytes())


def _tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def _check(runs: list[OpRun]) -> dict[int, str]:
    """Problems by operation index, from the first pass's exit codes and
    the outputs on disk (every pass writes the same bytes)."""
    problems = {}
    for k, run in enumerate(runs):
        if not run.completed:
            problems[k] = run.error or f"exit {run.codes}"
            continue
        try:
            problem = run.op.check(run.codes)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is not None:
            problems[k] = f"check failed: {problem}"
    return problems


def _print_metrics(metrics: dict[str, tuple[float, str]], notes: dict[str, str]) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_detsched()
    from detsched import cli
    from workloads import WORKLOADS

    if args.workload == "all":
        # each workload in a fresh process, so that peak_rss_mb is its own
        code = 0
        for name in WORKLOADS:
            child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            returncode = subprocess.run(child, check=False).returncode
            code = code or returncode
        return code
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, cli, WORKLOADS[args.workload](args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _timed_setup(workload) -> tuple[float, float]:
    started = time.perf_counter()
    workload.setup()
    return started, time.perf_counter()


def _passes(cli, workload, seconds: float, tracer, after_op=None) -> list[Pass]:
    """Whole passes until the next would end after ``seconds``; twice that
    with a tracer, since half of a traced run is its untraced reference."""
    budget = seconds if tracer is None else 2 * seconds
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        passes.append(_run_pass(cli, workload, tracer, len(passes), after_op))
        now = time.perf_counter()
        if now - started + (now - pass_started) > budget:
            return passes


def _times(passes: list[Pass], setups, seconds):
    """The median set-up, the median pass and every operation's time, each
    interval timed with ``seconds(start, end)``."""
    setup_s = statistics.median(seconds(*interval) for interval in setups)
    pass_s = statistics.median(sum(seconds(r.started, r.ended) for r in p.runs) for p in passes)
    op_s = [seconds(r.started, r.ended) for p in passes for r in p.runs]
    return setup_s, pass_s, op_s


def _end_to_end(workload, passes: list[Pass], problems, setups, pacer: Pacer):
    first = passes[0].runs
    setup_s, pass_s, op_s = _times(passes, setups, pacer.paced)
    tail, tail_note = _tail(op_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (workload.trials_per_pass / pass_s, "1/s"),
        "commands_per_s": (sum(r.commands for r in first) / pass_s, "1/s"),
        "jobs_per_s": (
            sum(r.op.jobs for k, r in enumerate(first) if k not in problems) / pass_s,
            "1/s",
        ),
        "op_p50_s": (statistics.median(op_s), "s"),
        "op_tail_s": (tail, "s"),
        "success_share": (1.0 - len(problems) / len(first), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "trials_per_s": f"per median pass of {len(passes)}",
        "op_p50_s": f"{len(op_s)} ops in {len(passes)} passes",
        "op_tail_s": tail_note,
    }
    commands: dict[str, list[float]] = {}
    for p in passes:
        for r in p.runs:
            for name, start, end in zip(r.op.names, r.marks, r.marks[1:]):
                commands.setdefault(name, []).append(pacer.paced(start, end))
    for name, seconds in commands.items():
        print(f"command {name}: p50 {statistics.median(seconds):.4f} s over {len(seconds)}")
    command_tail, command_note = _tail([s for seconds in commands.values() for s in seconds])
    print(f"command tail: {command_tail:.4f} s ({command_note})")
    wall_setup, wall_pass, wall_ops = _times(passes, setups, lambda start, end: end - start)
    print(
        f"wall: set-up p50 {wall_setup:.4f} s, pass p50 {wall_pass:.4f} s, "
        f"op p50 {statistics.median(wall_ops):.4f} s"
    )
    q1, q2, q3 = statistics.quantiles(pacer.seconds, n=4)
    print(
        f"pace: {len(pacer.seconds)} reference samples, p25/p50/p75 "
        f"{q1 * 1e3:.3f}/{q2 * 1e3:.3f}/{q3 * 1e3:.3f} ms; paced = wall x "
        f"{REFERENCE_S * 1e3:g} ms / reference"
    )
    return metrics, notes


def _per_layer(tracer, passes: list[Pass], trace_file: Path, pacer: Pacer):
    tracer.finish_counts()
    traced_s = sum(pacer.paced(r.started, r.ended) for p in passes for r in p.traced_runs)
    plain_s = sum(pacer.paced(r.started, r.ended) for p in passes for r in p.runs)
    metrics = tracer.layer_metrics(len(passes), traced_s / plain_s - 1.0, pacer.paced)
    notes = {
        "trace.overhead_share": f"each operation traced right after its untraced run, "
        f"{len(passes)} passes"
    }
    tracer.write_jsonl(trace_file)
    print(f"trace: {len(tracer.spans)} spans in {trace_file.relative_to(ROOT)}")
    return metrics, notes


def _measure(args, cli, workload) -> int:
    print(
        f"env python={sys.version.split()[0]} nproc={os.cpu_count()} "
        f"int_max_str_digits={sys.get_int_max_str_digits()} seed={args.seed} "
        f"workload={args.workload} seconds={args.seconds:g} trace={args.trace}"
    )
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        for name in tracer.missing:
            print(f"trace: {name} is missing")
    with Pacer() as pacer:
        if tracer is None:
            # set-up is repeated after every operation too, so that the
            # samples of setup_s are paced at many points of the run
            setups = [_timed_setup(workload) for _ in range(SETUP_REPEATS)]
            passes = _passes(cli, workload, args.seconds, None,
                             lambda: setups.append(_timed_setup(workload)))
        else:
            workload.setup()  # untraced, as the untraced run's first set-up
            tracer.install()
            tracer.counting = True
            tracer.op = spans.SETUP_OP
            span = tracer.open("setup")
            workload.setup()
            tracer.close(span)
            tracer.uninstall()
            passes = _passes(cli, workload, args.seconds, tracer)
    first = passes[0].runs
    problems = _check(first)
    for k, problem in problems.items():
        print(f"failed op {k} ({first[k].op.kind}): {problem.splitlines()[-1][:200]}")
    same = len({d for p in passes for d in p.digests}) == 1
    if not same:
        print("error: passes wrote different outputs")
    print(f"outputs_sha256 = {passes[0].digests[0]}")

    if tracer is None:
        metrics, notes = _end_to_end(workload, passes, problems, setups, pacer)
    else:
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics, notes = _per_layer(tracer, passes, trace_file, pacer)
    _print_metrics(metrics, notes)
    runs_per_op = 1 if tracer is None else 2
    result = {
        "correct": same and not any(p.startswith("check failed") for p in problems.values()),
        "attempted": len(first) * len(passes) * runs_per_op,
        "failed": len(problems) * len(passes) * runs_per_op,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

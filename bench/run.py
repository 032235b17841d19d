"""agectl benchmark: one workload per fresh, single-threaded process.

    python3 bench/run.py --workload instances --seed 1 --seconds 20 --trace 0

The workloads are instances, traces, control and cli (see bench/README.md);
``--workload all`` runs each in its own process, one after another.  One
client runs ops in a closed loop: the next op starts when the last one and its
checks are done.  Only the calls into agectl are timed, each scaled to the
reference speed of a fixed probe (see ``timed``).  Every answer is checked
against an independent route, and an op that fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with spans around every public agectl function, and
reports the per-layer metrics plus the tracing overhead.  The last line of
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"   # before numpy loads its BLAS

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("instances", "traces", "control", "cli")
#: set-ups per run; setup_s is the median
SETUP_REPEATS = 3
#: fresh interpreters timed for the import share of setup_s
IMPORT_REPEATS = 5
#: runs of every op; its latency is their median
PASSES = 4
#: a measured phase stops rerunning ops after this many times its nominal length
RUN_CAP = 1.2
#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10
#: ``probe()`` seconds on an idle core of the box the benchmark was defined on
PROBE_REF_S = 450e-6
_PROBE_SLOTS = tuple((i * 7919) % 3 == 0 for i in range(2000))
_PROBE_VEC = numpy.linspace(0.0, 1.0, 256)


@dataclass
class Phase:
    """Outcome of one measured phase.  Latencies are in reference seconds."""
    attempted: int = 0       # distinct ops
    failed: int = 0
    cycles: int = 0
    executions: int = 0      # op runs over all passes
    latencies: list[float] = field(default_factory=list)   # per op, median over its runs
    wall: list[float] = field(default_factory=list)        # the same in plain seconds
    good_time: float = 0.0   # summed latencies of the correct ops
    counts: Counter = field(default_factory=Counter)       # work units of the first pass

    @property
    def ops_per_s(self) -> float:
        correct = self.attempted - self.failed
        return correct / self.good_time if self.good_time else 0.0


def probe() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls, the
    two things agectl's hot paths spend their time on."""
    t0 = time.perf_counter()
    age, total = 1, 0.0
    for contact in _PROBE_SLOTS:
        if age >= 4 and contact:
            age = 1
            total -= 0.5
        else:
            age = min(age + 1, 12)
        total += age
    v = _PROBE_VEC
    for _ in range(30):
        v = numpy.maximum(v * 0.5 + 0.25, _PROBE_VEC)
    return time.perf_counter() - t0


def timed(fn):
    """(result, seconds at reference speed, plain seconds) of one call.

    Probes just before and after the call measure how fast the machine runs
    right now; the call's time is scaled by ``PROBE_REF_S`` over their mean.
    """
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    speed = (before + probe()) / (2 * PROBE_REF_S)
    return result, elapsed / speed, elapsed


def _run_op(op, tracer, phase: Phase):
    """Run one op; (answer, reference seconds, plain seconds, error or None)."""
    if tracer is not None:
        tracer.op = phase.executions
    phase.executions += 1
    try:
        (answer, error), elapsed, wall = timed(lambda: (op.run(), None))
    except Exception as exc:  # an op that raises is a failed op, not a crash
        answer, elapsed, wall = None, math.nan, math.nan
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    finally:
        if tracer is not None:
            tracer.op = None
    return answer, elapsed, wall, error


def measure(workload, cycles: int, tracer=None, log=sys.stderr,
            deadline: float = math.inf) -> Phase:
    """Time ``cycles`` cycles of the workload's ops, ``PASSES`` runs each.

    The first pass checks every answer.  Each further pass reruns the same ops
    in the same order; a rerun must reproduce the first answer exactly.  An
    op's latency is the median of its runs, each scaled to reference speed
    (see ``timed``).  Reruns stop at ``deadline`` (a ``time.perf_counter``
    reading), so a slow machine cannot stretch a run without end.
    """
    phase = Phase()
    ops, renders, failures, runs = [], [], [], []
    for _ in range(cycles):
        for op in workload.cycle(phase.cycles):
            answer, elapsed, wall, error = _run_op(op, tracer, phase)
            if error is None:
                failures.append(op.check(answer))
                phase.counts.update(op.count(answer))
                renders.append(op.render(answer))
            else:
                failures.append([error])
                renders.append(None)
            ops.append(op)
            runs.append([(elapsed, wall)])
        phase.cycles += 1
    for _ in range(PASSES - 1):
        for i, op in enumerate(ops):
            if time.perf_counter() > deadline:
                break
            answer, elapsed, wall, error = _run_op(op, tracer, phase)
            runs[i].append((elapsed, wall))
            if not failures[i] and (error is not None or op.render(answer) != renders[i]):
                failures[i] = [error or "rerun differs from the first run"]
    phase.attempted = len(ops)
    for op, samples, failed in zip(ops, runs, failures):
        phase.latencies.append(statistics.median(s[0] for s in samples))
        phase.wall.append(statistics.median(s[1] for s in samples))
        if failed:
            phase.failed += 1
            if phase.failed <= 5:
                print(f"# FAILED {op.kind}: {'; '.join(failed)}", file=log)
        else:
            phase.good_time += phase.latencies[-1]
    return phase


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with
    ``TAIL_BEYOND`` samples beyond it; the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def import_seconds() -> float:
    """Median time of a fresh interpreter that imports agectl and exits."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import agectl"]
    return statistics.median(
        timed(lambda: subprocess.run(cmd, env=env, check=True))[1] for _ in range(IMPORT_REPEATS)
    )


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_record(workload: str, seed: int, trace: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "agectl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "git_sha": _git_sha(), "src_sha256": digest.hexdigest(),
    }


def _emit(name: str, value: float, unit: str, base: str, metrics: dict) -> None:
    metrics[name] = {"value": value, "unit": unit}
    print(f"{name} = {value:.6g} {unit}  ({base})")


def _cycles(cls, seconds: float) -> int:
    """Cycles that fill ``seconds`` at the speed measured when the benchmark was
    defined.  The op count is fixed by ``seconds`` alone, so every run and every
    commit reads the tail at the same percentile; a faster program finishes
    sooner."""
    return max(1, round(seconds / cls.CYCLE_SECONDS))


def _close(workload) -> None:
    close = getattr(workload, "close", None)
    if close is not None:
        close()


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Measure one workload; print the metric lines and return the result."""
    import workloads
    import tracing

    cls = workloads.WORKLOADS[name]
    metrics: dict = {}
    if not trace:
        t_import = import_seconds()
        builds = []
        wl = None
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                _close(wl)
            wl = None
            gc.collect()
            wl, build, _ = timed(lambda: cls(seed, small))
            builds.append(build)
        try:
            t_phase = time.perf_counter()
            phase = measure(wl, _cycles(cls, seconds), deadline=t_phase + RUN_CAP * seconds)
            t_phase = time.perf_counter() - t_phase
        finally:
            _close(wl)
        busy = sum(phase.latencies)
        correct = phase.attempted - phase.failed
        _emit("ops_per_s", phase.ops_per_s, "1/s",
              f"{correct} correct ops / {phase.good_time:.4f} s; plain seconds give "
              f"{phase.attempted / sum(phase.wall):.6g}", metrics)
        _emit("op_p50_ms", statistics.median(phase.latencies) * 1e3, "ms",
              f"median of {phase.attempted} ops; plain {statistics.median(phase.wall) * 1e3:.6g}",
              metrics)
        value, pct, beyond = tail(phase.latencies)
        _emit("op_tail_ms", value * 1e3, "ms",
              f"p{pct:.2f} of {phase.attempted} ops, {beyond} beyond; "
              f"plain {tail(phase.wall)[0] * 1e3:.6g}", metrics)
        _emit("setup_s", t_import + statistics.median(builds), "s",
              f"import {t_import:.4f} s, median of {IMPORT_REPEATS} fresh interpreters, "
              f"+ build {statistics.median(builds):.4f} s, median of {SETUP_REPEATS}", metrics)
        _emit("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
              "ru_maxrss of this process", metrics)
        slots = phase.counts.get("slots", 0)
        if slots:
            print(f"slots_per_s = {slots / busy:.6g} 1/s  ({slots} slot-steps / {busy:.4f} s)")
        print(f"# measured phase: {t_phase:.2f} s wall, {phase.cycles} cycles, "
              f"{phase.executions} runs of {phase.attempted} ops; times are at reference "
              f"speed: probe() = {PROBE_REF_S * 1e6:.0f} us")
        print(f"fail_ratio = {phase.failed / max(phase.attempted, 1):.6g}  "
              f"({phase.failed} failed / {phase.attempted} attempted)")
        return {"correct": phase.failed == 0, "attempted": phase.attempted,
                "failed": phase.failed, "metrics": metrics}

    wl = cls(seed, small)
    try:
        plain = measure(wl, _cycles(cls, seconds / 2),
                        deadline=time.perf_counter() + RUN_CAP * seconds / 2)
    finally:
        _close(wl)
    wl = None
    gc.collect()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        tracer.op = -1
        wl = cls(seed, small)
        tracer.op = None
        try:
            traced = measure(wl, _cycles(cls, seconds / 2), tracer,
                             deadline=time.perf_counter() + RUN_CAP * seconds / 2)
        finally:
            _close(wl)
    finally:
        restore()
    layers = tracing.layer_metrics(tracer.spans, traced.executions,
                                   traced.counts["bytes_out"] / max(traced.attempted, 1))
    for metric, (value, unit, base) in layers.items():
        _emit(metric, value, unit, base, metrics)
    _emit("trace.overhead_ratio",
          plain.ops_per_s / traced.ops_per_s if traced.ops_per_s else 0.0, "ratio",
          f"untraced {plain.ops_per_s:.6g} ops/s / traced {traced.ops_per_s:.6g} ops/s",
          metrics)
    _write_spans(tracer.spans, name, seed)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(f"fail_ratio = {failed / max(attempted, 1):.6g}  "
          f"({failed} failed / {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _write_spans(spans, name: str, seed: int) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-seed{seed}.tsv"
    with path.open("w") as f:
        f.write("op\tparent\tname\tstart_ns\tend_ns\n")
        for s in spans:
            f.write(f"{s[2]}\t{s[1]}\t{s[0]}\t{s[3]}\t{s[4]}\n")
    print(f"# {len(spans)} spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "agectl" / "__init__.py").is_file():
        print(f"bench: agectl sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code

    sys.path.insert(0, str(SRC))
    import agectl
    if Path(agectl.__file__).resolve().parent != (SRC / "agectl").resolve():
        print(f"bench: imported agectl from {agectl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("# record " + json.dumps(run_record(args.workload, args.seed, bool(args.trace))))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test for the benchmark itself.

    python3 bench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that each
run reports exactly the metrics BENCHMARK.json names.  Then it feeds each
workload one wrong answer and one rerun that differs from its first run, and
checks that both count as failed ops.  Last, it runs the benchmark in a copy
that holds only BENCHMARK.json and the benchmark's files, where it must fail.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the source path above)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def tiny(name: str):
    return workloads.WORKLOADS[name](0, small=True)


def check_reports() -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        names = {m["name"]: m["unit"] for m in SPEC[section]}
        for name in run.WORKLOAD_NAMES:
            result = run.run_workload(name, seed=0, seconds=0, trace=trace, small=True)
            expect(result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name}: {result['failed']} of {result['attempted']} ops failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == names, f"{name} trace={trace}: metrics {sorted(got)} != {sorted(names)}")


class Corrupted:
    """A workload whose first op of every cycle answers through ``perturb``."""

    def __init__(self, inner, perturb):
        self.inner, self.perturb = inner, perturb

    def cycle(self, index: int):
        ops = self.inner.cycle(index)
        first = ops[0]
        ops[0] = replace(first, run=lambda: self.perturb(first.run()))
        return ops


def _late(perturb):
    """Perturb only from the second run on, so the first answer is correct."""
    calls = []

    def maybe(answer):
        calls.append(1)
        return perturb(answer) if len(calls) > 1 else answer
    return maybe


def _bad_bonus(answer):
    first, second = answer
    first.rounds[0] = replace(first.rounds[0], bonus=-1.0)
    return first, second


WRONG = {
    "instances": lambda ans: replace(ans, gain=ans.gain + 1e-3),
    "traces": lambda res: replace(res, average_reward=res.average_reward + 1.0),
    "control": _bad_bonus,
    "cli": lambda code: 3,
}


def check_failures_count() -> None:
    for name, perturb in WRONG.items():
        for label, wrong in (("wrong answer", perturb), ("differing rerun", _late(perturb))):
            wl = tiny(name)
            try:
                phase = run.measure(Corrupted(wl, wrong), cycles=1, log=sys.stdout)
            finally:
                run._close(wl)
            expect(phase.failed == 1, f"{name} {label}: {phase.failed} failed ops, expected 1")


def check_needs_sources() -> None:
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = SPEC["command"] + ["--workload", "instances", "--seed", "0", "--seconds", "1",
                                 "--trace", "0"]
        out = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
        expect(out.returncode != 0, "benchmark succeeded without the agectl sources")
        expect("correct" not in out.stdout, "benchmark printed a result without the sources")


def main() -> int:
    check_reports()
    check_failures_count()
    check_needs_sources()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

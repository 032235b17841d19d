"""Mutant catalogue: each entry breaks the package on purpose in one place, and
the tests named with it must catch the break.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py

For each entry the runner copies ``src/``, ``tests/``, ``README.md`` and
``pyproject.toml`` to a temporary directory, replaces the entry's source
fragment, which must occur exactly once in its file, and runs only the
entry's tests there under ``-W error::RuntimeWarning``.  The mutant is killed
when they fail and alive when they pass.  An entry marked ``survives`` is a
control: its edit changes nothing a test can see, so it must stay alive,
which shows that the named tests pass on an unbroken copy.  The runner exits
1 when a mutant that should die lives or a control dies, and 2 when an
entry cannot run (a fragment not found once, or tests that error or are not
collected).  pytest does not collect this file: its name has no ``test_``
prefix.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")
THRESHOLDS = "src/agectl/thresholds.py"
STREAM = "tests/test_thresholds.py::TestTwoThresholdStream::"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                 # relative to the repository root
    fragment: str             # exact source text, found exactly once in path
    replacement: str
    tests: tuple[str, ...]    # pytest node ids that must fail on the mutant
    survives: bool = False    # a control: the edit must leave the tests passing


MUTANTS = (
    Mutant("read-on-through-ties", THRESHOLDS,
           "rising = np.flatnonzero(peak > tops)", "rising = np.flatnonzero(peak >= tops)",
           (STREAM + "test_reads_rows_one_panel_past_their_peaks",)),
    Mutant("retire-after-first-panel", THRESHOLDS,
           "            if not rising.size:\n                break",
           "            break",
           (STREAM + "test_matches_dense_pick_at_block_edges",)),
    Mutant("carry", "src/agectl/chain.py",
           "band[0] += self.carry[lo:hi]", "pass",
           (STREAM + "test_matches_dense_pick_at_block_edges",)),
    Mutant("tie", THRESHOLDS,
           "r = M - 1 - int(np.argmax(((row_top >= floor) | (wifi_only >= floor))[::-1]))",
           "r = int(np.argmax((row_top >= floor) | (wifi_only >= floor)))",
           (STREAM + "test_exact_tie_across_a_block_boundary",)),
    Mutant("utility-slack", "src/agectl/model.py",
           "            if b > a:", "            if b > a + SLACK_TOL:",
           ("tests/test_model.py::TestToleranceHome"
            "::test_utility_rise_rejected_at_any_slack_and_bonus_cap_slack",
            "tests/test_cli.py::TestSolve::test_a_rise_under_the_slack_exits_2_naming_both_ages")),
    Mutant("comment-only", THRESHOLDS,
           "# only WiFi-only reaches the floor in row r",
           "# no grid cell reaches the floor in row r",
           (STREAM + "test_reads_rows_one_panel_past_their_peaks",
            STREAM + "test_matches_dense_pick_at_block_edges",
            STREAM + "test_exact_tie_across_a_block_boundary"),
           survives=True),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=skip)
        else:
            shutil.copy2(source, dest / name)


def run(mutant: Mutant) -> int:
    """0 when the mutant lives, 1 when its tests kill it, else an error."""
    with tempfile.TemporaryDirectory(prefix="agectl-mutant-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        target = work / mutant.path
        text = target.read_text()
        found = text.count(mutant.fragment)
        if found != 1:
            print(f"{mutant.name}: fragment found {found} times in {mutant.path}, not once")
            return 2
        target.write_text(text.replace(mutant.fragment, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(work / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-W", "error::RuntimeWarning", *mutant.tests],
            cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            print(proc.stdout[-2000:] + proc.stderr[-2000:])
        return proc.returncode


def main() -> int:
    status = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run(mutant)
        seconds = time.perf_counter() - start
        if code not in (0, 1):
            verdict, status = "error", 2
        else:
            verdict = "killed" if code else "alive"
            if (code == 0) != mutant.survives:
                verdict += ", expected " + ("alive" if mutant.survives else "killed")
                status = status or 1
        print(f"{mutant.name}: {verdict} ({seconds:.1f} s)", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark's workloads briefly and require every run to be correct.

Run from the root of an fpet checkout:

    python3 ci/bench_correctness.py

``perfbench/run.py`` exits 0 whatever its checks find; the last line of its
output is a JSON report, which must read ``correct: true`` with no failed
operation.  Each workload runs for one second at the seeds 1, 2 and 3 (the
seed draws the inputs' values), and once more at seed 1 under the tracer,
which binds fpet's functions by name and wraps their calls, so a crash or a
failed check under it shows here rather than in a benchmark run.  As
``pyproject.toml``'s filterwarnings does for the tests, a numpy overflow or
invalid-value warning in a command fails that command.  Every run is
reported; the exit status is 1 when any of them fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("convergence", "timechange_vdc", "exact_descent")
RUNS = [(w, seed, 0) for seed in (1, 2, 3) for w in WORKLOADS] + [(w, 1, 1) for w in WORKLOADS]


def passes(workload: str, seed: int, trace: int) -> bool:
    """Run one workload and print its verdict; True when it is correct with
    no failed operation."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning"),
    )
    label = f"{workload} seed {seed}{' traced' if trace else ''}"
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{label}: no report (exit {proc.returncode})\n{proc.stderr[-2000:]}")
        return False
    print(f"{label} correct: {report['correct']} failed: {report['failed']}")
    return report["correct"] is True and report["failed"] == 0


def main() -> int:
    results = [passes(*run) for run in RUNS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

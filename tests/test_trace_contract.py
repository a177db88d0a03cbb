"""The benchmark's tracer (perfbench/spans.py) binds functions of fpet by
name and counts work at them.  A rename or a changed call path would leave
its counters at zero without failing anything else, and its report runs
mpmath on the arguments of every call it counts, so one run of each of the
six commands runs here under the tracer, on the benchmark self-test's small
inputs (the exact commands on the seed-1 exact_descent inputs, which the
self-test does not shrink), and the report is taken as the benchmark's
worker takes it.  The test only reads perfbench/."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, io, json, sys
from pathlib import Path

root, work = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import fpet.cli
import inputs
from spans import Tracer

ops = [
    next(op for op in inputs.generate(w, 1, work / w, scale_down=True) if op.command == c)
    for w, c in (("convergence", "run-convergence"), ("timechange_vdc", "check-vdc"),
                 ("timechange_vdc", "verify-timechange"),
                 ("exact_descent", "enumerate-precedents"),
                 ("exact_descent", "check-characteristic"),
                 ("exact_descent", "check-invariance"))
]

def run_all(out, chosen):
    with contextlib.redirect_stdout(io.StringIO()):
        return [fpet.cli.main(["--config", str(op.config), "--serial", "--out", str(work / out)])
                for op in chosen]

plain = run_all("plain", ops)
tracer = Tracer()
tracer.install()
# the exact commands first, so that their counts can be read on their own
exact = run_all("traced", ops[3:])
exact_counts = tracer.report()["counts"]
traced = run_all("traced", ops[:3]) + exact
same = [(work / "plain" / op.output).read_bytes() == (work / "traced" / op.output).read_bytes()
        for op in ops]
report = tracer.report()
print(json.dumps({"plain": plain, "traced": traced, "same": same, "counts": report["counts"],
                  "exact_counts": exact_counts}))
"""


def test_traced_commands_count_work_and_keep_outputs(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["plain"] == [0] * 6 and result["traced"] == [0] * 6
    assert result["same"] == [True] * 6
    counts = result["counts"]
    assert counts.get("averages.phase_vectors", 0) > 0
    # one outer integral over the shift, then one per batch of shifts for each
    # non-constant pair
    assert counts.get("averages.correlation_integrals", 0) > 1
    assert counts.get("quadrature.evals", 0) > 0
    assert counts.get("interval.kernel_points", 0) > 0
    assert counts.get("order.dag_nodes", 0) > 0
    # the zero-phase join of the exact commands enumerates its half tuples
    # through the one enumerator the tracer counts
    assert result["exact_counts"].get("averages.tuples", 0) > 0

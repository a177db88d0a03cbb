"""Self-test of the benchmark's output checks, on small inputs.

Run from the root of an fpet checkout:

    python3 perfbench/selftest.py

Every command of the three workloads runs once (float horizons shrunk, the
descent inputs at full size since the golden digest pins them).  Each check
must pass on the real output and fail once its reference is perturbed: a
check that cannot fail shows nothing.  The traced run of one command must
write byte-identical output.  Exits 0 when all of that holds.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"
os.environ.pop("PYTHONPATH", None)

import contextlib  # noqa: E402
import copy  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from run import run_op  # noqa: E402

SEED = 7
# a system on which the characteristic template's factor does not capture the
# limit: 52 surviving tuples lie outside it
OTHER_CHAR_A = [[1, 0, 1, 0, -2, 0], [0, 1, 0, 1, 0, -2], [1, 1, -1, 1, 0, -2]]


def _bump_coefficient(op, index=0):
    """A copy of the op whose model has one observable coefficient moved."""
    op = copy.deepcopy(op)
    f = op.problem.observables[index]
    chi = sorted(f)[0]
    f[chi] += 0.01
    return op


def _scale_observable(op, index, factor):
    op = copy.deepcopy(op)
    f = op.problem.observables[index]
    for chi in f:
        f[chi] *= factor
    return op


def perturbations(op, text):
    """(label, thunk, marker) triples; every thunk runs the op's check against
    a perturbed reference, and one of its problems must contain ``marker``."""
    cmd = op.command
    if cmd == "run-convergence":
        yield "observable coefficient", lambda: checks.check(_bump_coefficient(op), text), "distance"
        yield "closed form", lambda: _with(
            op, text, "phase_average", lambda cvec, a, b, real=checks.phase_average: real(cvec, a, b) * (1 + 1e-6)
        ), "closed form"
    elif cmd == "verify-timechange":
        yield "incomplete gamma", lambda: _with(
            op, text, "timechange_average", lambda al, a, b, real=checks.timechange_average: real(al, a, b) + 1e-7
        ), "incomplete gamma"
        yield "w0", lambda: _with(
            op, text, "time_change_w0", lambda al, a, b, real=checks.time_change_w0: real(al, a, b) * (1 + 1e-9)
        ), "w0"
        yield "tolerance", lambda: checks.check_timechange(
            text, op.params["alphas"], 1e-20, op.params["pass_tol"]
        ), "incomplete gamma"
    elif cmd == "check-vdc":
        yield "observable coefficient", lambda: checks.check(_bump_coefficient(op, 1), text), "lhs"
    elif cmd == "enumerate-precedents":
        yield "digest", lambda: checks.check_dag(text, op.problem, "0" * 64), "digest"
        scaled = copy.deepcopy(op)
        scaled.problem.scale = (scaled.problem.scale[0] * 2,) + scaled.problem.scale[1:]
        yield "scaling", lambda: checks.check(scaled, text), "root node"
        lines = text.splitlines()
        edge = next(i for i, line in enumerate(lines) if line.startswith("edge "))
        _, src, dst, rest = lines[edge].split(" ", 3)
        flipped = lines[:edge] + [f"edge {dst} {src} {rest}"] + lines[edge + 1:]
        yield "edge reversed", lambda: checks.check_dag("\n".join(flipped) + "\n", op.problem), "does not descend"
        # node 1 gets a copy of its last member: a repeated vector is a dependence
        repeated = lines[:]
        repeated[1] = lines[1] + " ; " + lines[1].rsplit(" ; ", 1)[1]
        yield "member repeated", lambda: checks.check_dag("\n".join(repeated) + "\n", op.problem), "not a good family"
    elif cmd == "check-characteristic":
        yield "lattice membership", lambda: _with(op, text, "in_lattice", lambda basis, v: False), "witnesses"
        moved = copy.deepcopy(op)
        moved.problem.A = [tuple(Fraction(x) for x in row) for row in OTHER_CHAR_A]
        yield "system matrix", lambda: checks.check(moved, text), "witnesses"
    elif cmd == "check-invariance":
        yield "f_0 coefficients", lambda: checks.check(_scale_observable(op, 0, 1.01), text), "moment"
        yield "shift phase", lambda: _with(
            op, text, "unit_phase", lambda x, real=checks.unit_phase: real(x + Fraction(1, 100))
        ), "shifted"


def _with(op, text, name, fn):
    """The op's check with the reference function ``checks.<name>`` swapped."""
    real = getattr(checks, name)
    setattr(checks, name, fn)
    try:
        return checks.check(op, text)
    finally:
        setattr(checks, name, real)


def main() -> int:
    root = Path.cwd().resolve()
    if not (root / "src" / "fpet" / "__init__.py").is_file():
        print(f"error: {root} is not an fpet checkout (src/fpet is missing)", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"selftest-p{os.getpid()}"
    failures = []
    try:
        for workload in inputs.WORKLOADS:
            ops = inputs.generate(workload, SEED, work / workload / "inputs", scale_down=True)
            for op in ops:
                res = run_op(op, work / workload / "out", root, False)
                if res["rc"] != 0:
                    failures.append(f"{op.stem}: exit {res['rc']} {res.get('error')}")
                    continue
                text = (work / workload / "out" / op.output).read_text()
                problems = checks.check(op, text)
                print(f"{op.stem}: check {'passes' if not problems else 'FAILS: ' + '; '.join(problems[:3])}")
                if problems:
                    failures.append(f"{op.stem}: check fails on the real output")
                for label, thunk, marker in perturbations(op, text):
                    caught = [p for p in thunk() if marker in p]
                    print(f"  perturbed {label}: {'caught' if caught else 'NOT CAUGHT'}"
                          + (f" ({caught[0][:90]})" if caught else ""))
                    if not caught:
                        failures.append(f"{op.stem}: perturbed {label} not caught")
            if workload == "convergence":
                res = run_op(ops[0], work / workload / "traced", root, True)
                same = res["rc"] == 0 and (work / workload / "traced" / ops[0].output).read_bytes() == (
                    work / workload / "out" / ops[0].output
                ).read_bytes()
                print(f"{ops[0].stem}: traced output {'identical' if same else 'DIFFERS'}")
                if not same:
                    failures.append(f"{ops[0].stem}: tracing changed the output")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".perfbench_work").rmdir()
    for f in failures:
        print("FAIL", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Serial end-to-end benchmark of the fpet command line.

Run from the root of an fpet checkout:

    python3 perfbench/run.py --workload convergence --seed 1 --seconds 20 --trace 0

The inputs are generated from the seed (``inputs.py``).  A run repeats whole
rounds of the workload's CLI commands until ``--seconds`` have passed; every
command runs with ``--serial`` in its own fresh interpreter, as a user runs
the CLI, so the ``lru_cache``s of ``fpoly`` start cold.  Outputs are checked
against independent references (``checks.py``); an operation (one command)
fails on a nonzero exit or a failed check.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).

``--regen-digest`` instead runs the descent template and prints the sha256
of its DAG text, the value stored as ``checks.DAG_DIGEST``.
"""

import os

# Pin the BLAS and OpenMP pools before anything loads numpy, here and in the
# workers: the `@ _W24` product in quadrature otherwise starts an OpenBLAS
# thread that adds CPU time but no speed.  A fixed hash seed keeps set and
# dict layouts, and so timings, the same from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"
os.environ.pop("PYTHONPATH", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 150
RUN_BUDGET_S = 140  # no new round starts once a round would end past this
COMMANDS = (
    "run-convergence", "verify-timechange", "check-vdc",
    "enumerate-precedents", "check-characteristic", "check-invariance",
)


def run_op(op, out_dir: Path, root: Path, trace: bool) -> dict:
    """Run one command in a fresh worker process and return its result."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"{op.stem}.result.json"
    spec_path = out_dir / f"{op.stem}.spec.json"
    spec_path.write_text(json.dumps({
        "root": str(root),
        "config": str(op.config),
        "files": [str(f) for f in op.files],
        "out": str(out_dir),
        "trace": trace,
        "result": str(result_path),
    }))
    log_path = out_dir / f"{op.stem}.log"
    with open(log_path, "wb") as log:
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(t_spawn)],
                stdout=log, stderr=subprocess.STDOUT, cwd=root, timeout=OP_TIMEOUT_S,
            )
            exit_code = proc.returncode
        except subprocess.TimeoutExpired:
            exit_code = "timeout"
    if exit_code != 0 or not result_path.is_file():
        return {"rc": None, "error": f"worker exit {exit_code}: {log_path.read_text()[-1500:]}"}
    return json.loads(result_path.read_text())


def check_outputs(ops, rounds, round_dirs) -> tuple[int, int, list[str]]:
    """Check every operation's output; each distinct output is checked once.
    Returns (failed operations, failed checks, messages)."""
    verdicts: dict = {}
    failed = bad = 0
    messages = []
    for rnd, rdir in zip(rounds, round_dirs):
        for op, res in zip(ops, rnd):
            if res["rc"] != 0:
                failed += 1
                messages.append(f"{op.stem}: exit {res['rc']} {res.get('error') or res.get('stdout', '')}")
                continue
            text = (rdir / op.output).read_text()
            key = (op.stem, hashlib.sha256(text.encode()).hexdigest())
            if key not in verdicts:
                try:
                    verdicts[key] = checks.check(op, text)
                except Exception as exc:  # a malformed output is a failed check
                    verdicts[key] = [f"check raised {exc!r}"]
            if verdicts[key]:
                failed += 1
                bad += 1
                messages.append(f"{op.stem}: " + "; ".join(verdicts[key][:5]))
    return failed, bad, messages


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops, rnd) -> dict:
    """Per-layer metrics of one traced round, summed over its commands."""
    self_s, incl, calls, counts = Counter(), Counter(), Counter(), Counter()
    extra = Counter()
    max_err = 0.0
    for res in rnd:
        lay = res["layers"]
        self_s.update(lay["self_s"])
        incl.update(lay["incl_s"])
        calls.update(lay["calls"])
        counts.update(lay["counts"])
        for key in ("osc_evals", "osc_cycles", "family_is_good.hits", "family_is_good.misses", "is_good.misses"):
            extra[key] += lay[key]
        max_err = max(max_err, lay["max_err_over_tol"])
    evals = counts["quadrature.evals"]
    queries = calls["quadrature.PanelTable.integral_to"]
    nodes = counts["order.dag_nodes"]
    m = {
        "quadrature.calls": (counts["quadrature.calls"], "count"),
        "quadrature.evals": (evals, "count"),
        "quadrature.self_s": (self_s["quadrature"], "s"),
        "quadrature.ns_per_eval": (_ratio(self_s["quadrature"] * 1e9, evals), "ns"),
        "quadrature.evals_per_cycle": (_ratio(extra["osc_evals"], extra["osc_cycles"]), "evals/cycle"),
        "quadrature.panel_queries": (queries, "count"),
        "quadrature.us_per_panel_query": (_ratio(incl["quadrature.PanelTable.integral_to"] * 1e6, queries), "us"),
        "quadrature.max_err_over_tol": (max_err, "ratio"),
        "averages.phase_vectors": (counts["averages.phase_vectors"], "count"),
        "averages.tuples": (counts["averages.tuples"], "count"),
        "averages.us_per_tuple": (_ratio(self_s["averages"] * 1e6, counts["averages.tuples"]), "us"),
        "averages.self_s": (self_s["averages"], "s"),
        "averages.correlation_integrals": (counts["averages.correlation_integrals"], "count"),
        "interval.self_s": (self_s["interval"], "s"),
        "interval.kernel_points": (counts["interval.kernel_points"], "count"),
        "order.dag_nodes": (nodes, "count"),
        "order.dag_edges": (counts["order.dag_edges"], "count"),
        "order.self_s": (self_s["order"], "s"),
        "order.ms_per_node": (_ratio(incl["order.induction_dag"] * 1e3, nodes), "ms"),
        "fpoly.family_is_good.hits": (extra["family_is_good.hits"], "count"),
        "fpoly.family_is_good.misses": (extra["family_is_good.misses"], "count"),
        "fpoly.is_good.misses": (extra["is_good.misses"], "count"),
        "fpoly.self_s": (self_s["fpoly"], "s"),
        "ratlinalg.rref_calls": (calls["ratlinalg.rref"], "count"),
        "ratlinalg.rref_s": (incl["ratlinalg.rref"], "s"),
        "ratlinalg.hermite_calls": (calls["ratlinalg.column_hermite"], "count"),
        "ratlinalg.hermite_s": (incl["ratlinalg.column_hermite"], "s"),
        "ratlinalg.self_s": (self_s["ratlinalg"], "s"),
        "torus.factor_s": (incl["torus.xi_factor"] + incl["torus.project_factor"], "s"),
        "torus.self_s": (self_s["torus"], "s"),
    }
    for command in COMMANDS:
        wall = sum(res["wall_s"] for op, res in zip(ops, rnd) if op.command == command)
        m[f"cli.{command}.wall_s"] = (wall, "s")
    m["cli.overhead_s"] = (self_s["cli"], "s")
    m["trace.wall_s"] = (sum(res["wall_s"] for res in rnd), "s")
    return m


def kernel_ns_per_point() -> float:
    """The numpy floor of one quadrature evaluation: the exp + polyval
    integrand of a height-2 phase on 2^20 points, median of 9 passes."""
    import numpy as np
    from numpy.polynomial import polynomial as npoly

    u = np.linspace(1.0, 181.0, 1 << 20)
    c = np.array([0.0, 1.2345, 0.5678])
    samples = []
    for _ in range(9):
        t0 = time.perf_counter()
        (2.0 * u) * np.exp(2j * np.pi * npoly.polyval(u, c))
        samples.append((time.perf_counter() - t0) * 1e9 / u.size)
    return statistics.median(samples)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def bench(args, root: Path, work: Path) -> dict:
    ops = inputs.generate(args.workload, args.seed, work / "inputs")
    rounds, round_dirs = [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rdir = work / f"round{len(rounds)}"
        rounds.append([run_op(op, rdir, root, bool(args.trace)) for op in ops])
        round_dirs.append(rdir)
        now = time.perf_counter()
        if now - t_start >= args.seconds or now - t_start + (now - t_round) > RUN_BUDGET_S:
            break
    failed, bad, messages = check_outputs(ops, rounds, round_dirs)
    attempted = len(ops) * len(rounds)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {[op.command for op in ops]}")
    for msg in messages[:10]:
        print("  FAIL", msg[:400])
    ok = [rnd for rnd in rounds if all(res["rc"] == 0 for res in rnd)] or rounds
    if args.trace:
        per_round = [layer_metrics(ops, rnd) for rnd in ok if all(res.get("layers") for res in rnd)]
        metrics = {
            name: _metric(statistics.median(m[name][0] for m in per_round), unit)
            for name, (_, unit) in per_round[0].items()
        } if per_round else {}
        metrics["kernel.ns_per_point"] = _metric(kernel_ns_per_point(), "ns")
    else:
        def med(values):
            return statistics.median(values) if values else 0.0

        metrics = {
            "setup_s": _metric(med([res["setup_s"] for rnd in ok for res in rnd if "setup_s" in res]), "s"),
            "wall_s": _metric(med([sum(res.get("wall_s", 0.0) for res in rnd) for rnd in ok]), "s"),
            "cpu_s": _metric(med([sum(res.get("cpu_s", 0.0) for res in rnd) for rnd in ok]), "s"),
            "peak_rss_mb": _metric(med([max(res.get("peak_rss_mb", 0.0) for res in rnd) for rnd in ok]), "MB"),
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": bad == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def regen_digest(root: Path, work: Path) -> int:
    p = inputs.descent_template()
    work.mkdir(parents=True, exist_ok=True)
    (work / "template.family").write_text(inputs.family_text(p))
    config = work / "template.cfg"
    config.write_text("command = enumerate-precedents\nfamily = template.family\n")
    op = inputs.Op("template", "enumerate-precedents", config, [config, work / "template.family"], "template.dag", p)
    res = run_op(op, work / "out", root, False)
    if res["rc"] != 0:
        print(f"template run failed: {res.get('error')}", file=sys.stderr)
        return 1
    text = (work / "out" / "template.dag").read_text()
    digest = checks.dag_digest(text)
    problems = checks.check_dag(text, p, digest)
    print(digest)
    if problems:
        print("structural problems: " + "; ".join(problems), file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-digest", action="store_true", help="print the golden DAG digest")
    args = parser.parse_args()
    root = Path.cwd().resolve()
    if not (root / "src" / "fpet" / "__init__.py").is_file():
        print(f"error: {root} is not an fpet checkout (src/fpet is missing)", file=sys.stderr)
        return 2
    if not args.regen_digest and args.workload is None:
        parser.error("--workload is required")
    base = root / ".perfbench_work"
    work = base / f"{args.workload or 'digest'}-s{args.seed}-p{os.getpid()}"
    try:
        if args.regen_digest:
            return regen_digest(root, work)
        result = bench(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

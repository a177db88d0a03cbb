"""Command-line front end: one experiment per invocation.

A run is described by a strict `key = value` config file (unknown or
duplicated keys are errors; relative paths resolve against the config file's
directory).  Outputs land in the --out directory: a CSV per convergence
experiment, a JSONL verdict stream for the checks, a text DAG for precedent
enumeration.  Exit codes: 0 pass, 1 check failure, 2 input error, 3 numeric
budget error.

Config keys and defaults:

    command       (required) run-convergence | check-invariance |
                  check-characteristic | check-vdc | enumerate-precedents |
                  verify-timechange
    system        path to a torus-system file
    family        path to a family file
    observables   comma-separated observable paths
    intervals     pinned | sliding-k1 | sliding-k5 | irregular   [pinned]
    n_max         interval index bound                           [12]
    tol           quadrature tolerance per phase integral        [1e-8]
    pass_tol      pass threshold for diagnostics                 [1e-2]
    budget        evaluation budget per oscillatory integral     [10000000]
    seed          recorded for reproducibility                   [0]
    T, H          van der Corput horizon and shift horizon       [1e4, 1e2]
    shift_times   rational off-diagonal times                    [-1, 1, -1/3, 1/3, 7]
    alphas        time-change exponents                          [1/5, 1/3, 2/5, 1/2, 3/5, 2, 3, 7/2]
    max_nodes     node budget for precedent enumeration          [10000]

The environment variable FPET_LOG in {error, info, debug} sets log verbosity
(default error).  --threads N controls internal parallelism (default: the
hardware count); --serial (= --threads 1) makes output files byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .averages import (
    MomentQuery,
    convergence_diagnostic,
    furstenberg_moment,
    partially_characteristic_check,
    vdc_bound_check,
)
from .fpoly import family_from_text
from .interval import (
    tempered_family,
    time_change_weights,
    time_changed_average,
    time_changed_average_via_weights,
)
from .order import DagBudgetError, dag_to_text, induction_dag
from .quadrature import ExpPhaseCurve, QuadratureBudgetError
from .textkv import ParseError, scan_kv
from .torus import system_from_text, trigpoly_from_text

log = logging.getLogger("fpet")

COMMANDS = (
    "run-convergence",
    "check-invariance",
    "check-characteristic",
    "check-vdc",
    "enumerate-precedents",
    "verify-timechange",
)

_DEFAULT_SHIFTS = (Fraction(-1), Fraction(1), Fraction(-1, 3), Fraction(1, 3), Fraction(7))
_DEFAULT_ALPHAS = (
    Fraction(1, 5), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
    Fraction(3, 5), Fraction(2), Fraction(3), Fraction(7, 2),
)


@dataclass(frozen=True)
class ExperimentSpec:
    command: str
    system: str | None = None
    family: str | None = None
    observables: tuple[str, ...] = ()
    intervals: str = "pinned"
    n_max: int = 12
    tol: float = 1e-8
    pass_tol: float = 1e-2
    budget: int = 10**7
    seed: int = 0
    T: float = 1e4
    H: float = 1e2
    shift_times: tuple[Fraction, ...] = _DEFAULT_SHIFTS
    alphas: tuple[Fraction, ...] = _DEFAULT_ALPHAS
    max_nodes: int = 10_000


_REQUIRED = {
    "run-convergence": ("system", "family", "observables"),
    "check-invariance": ("system", "family", "observables"),
    "check-characteristic": ("system", "family", "observables"),
    "check-vdc": ("system", "family", "observables"),
    "enumerate-precedents": ("family",),
    "verify-timechange": (),
}


def _parse_fraction_list(value: str, path: str, lineno: int) -> tuple[Fraction, ...]:
    out = []
    for tok in value.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ParseError(path, lineno, f"malformed rational {tok!r}") from None
    if not out:
        raise ParseError(path, lineno, "empty list")
    return tuple(out)


def parse_config(text: str, path: str = "<config>") -> ExperimentSpec:
    """Strict config parsing; see the module docstring for keys and defaults."""
    base = Path(path).parent if path not in ("<config>", "-") else Path(".")
    seen: set[str] = set()
    values: dict = {}
    for lineno, key, value in scan_kv(text, path):
        if key in seen:
            raise ParseError(path, lineno, f"duplicate key {key!r}")
        seen.add(key)
        if key == "command":
            if value not in COMMANDS:
                raise ParseError(
                    path, lineno, f"unknown command {value!r} (choose from: {', '.join(COMMANDS)})"
                )
            values["command"] = value
        elif key in ("system", "family"):
            values[key] = str((base / value).resolve())
        elif key == "observables":
            paths = tuple(
                str((base / tok.strip()).resolve()) for tok in value.split(",") if tok.strip()
            )
            if not paths:
                raise ParseError(path, lineno, "observables must list at least one path")
            values["observables"] = paths
        elif key == "intervals":
            values["intervals"] = value
        elif key in ("n_max", "budget", "seed", "max_nodes"):
            try:
                values[key] = int(value)
            except ValueError:
                raise ParseError(path, lineno, f"{key} must be an integer") from None
        elif key in ("tol", "pass_tol", "T", "H"):
            try:
                values[key] = float(value)
            except ValueError:
                raise ParseError(path, lineno, f"{key} must be a number") from None
        elif key == "shift_times":
            values["shift_times"] = _parse_fraction_list(value, path, lineno)
        elif key == "alphas":
            values["alphas"] = _parse_fraction_list(value, path, lineno)
        else:
            raise ParseError(path, lineno, f"unknown key {key!r}")
    if "command" not in values:
        raise ParseError(path, 0, "missing key 'command'")
    spec = ExperimentSpec(**values)
    for knob in ("n_max", "budget", "max_nodes"):
        if getattr(spec, knob) <= 0:
            raise ParseError(path, 0, f"{knob} must be positive")
    for knob in ("tol", "pass_tol", "T", "H"):
        value = getattr(spec, knob)
        if not (math.isfinite(value) and value > 0):
            raise ParseError(path, 0, f"{knob} must be finite and positive")
    if spec.seed < 0:
        raise ParseError(path, 0, "seed must be nonnegative")
    for field in _REQUIRED[spec.command]:
        if not getattr(spec, field):
            raise ParseError(path, 0, f"command {spec.command} requires key {field!r}")
    for file_field in ("system", "family"):
        p = getattr(spec, file_field)
        if p is not None and not Path(p).is_file():
            raise ParseError(path, 0, f"{file_field} file not found: {p}")
    for p in spec.observables:
        if not Path(p).is_file():
            raise ParseError(path, 0, f"observable file not found: {p}")
    if spec.intervals:
        try:
            tempered_family(spec.intervals)
        except ValueError as exc:
            raise ParseError(path, 0, str(exc)) from None
    return spec


def serialize_config(spec: ExperimentSpec) -> str:
    """Inverse of :func:`parse_config` (parse(serialize(s)) == s)."""
    lines = [f"command = {spec.command}"]
    if spec.system:
        lines.append(f"system = {spec.system}")
    if spec.family:
        lines.append(f"family = {spec.family}")
    if spec.observables:
        lines.append("observables = " + ", ".join(spec.observables))
    lines.append(f"intervals = {spec.intervals}")
    lines.append(f"n_max = {spec.n_max}")
    lines.append(f"tol = {spec.tol!r}")
    lines.append(f"pass_tol = {spec.pass_tol!r}")
    lines.append(f"budget = {spec.budget}")
    lines.append(f"seed = {spec.seed}")
    lines.append(f"T = {spec.T!r}")
    lines.append(f"H = {spec.H!r}")
    lines.append("shift_times = " + ", ".join(str(t) for t in spec.shift_times))
    lines.append("alphas = " + ", ".join(str(a) for a in spec.alphas))
    lines.append(f"max_nodes = {spec.max_nodes}")
    return "\n".join(lines) + "\n"


def _load_inputs(spec: ExperimentSpec):
    sys_obj = fam = None
    if spec.system:
        sys_obj = system_from_text(Path(spec.system).read_text(), spec.system)
    if spec.family:
        fam = family_from_text(Path(spec.family).read_text(), spec.family)
    fs = [trigpoly_from_text(Path(p).read_text(), p) for p in spec.observables]
    return sys_obj, fam, fs


def _jsonl(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records) or ""


def _c2(z: complex) -> list[float]:
    return [z.real, z.imag]


def _run_convergence(spec, sys_obj, fam, fs, out_path: Path, threads: int) -> int:
    report = convergence_diagnostic(
        sys_obj, fam, fs, tempered_family(spec.intervals), spec.n_max,
        tol=spec.pass_tol, quad_tol=spec.tol, budget=spec.budget, threads=threads,
    )
    lines = ["n,a_n,b_n,l2_distance_to_oracle,cauchy_diff,max_coeff_err"]
    for row in report.rows:
        lines.append(
            f"{row.n},{row.a!r},{row.b!r},{row.distance!r},{row.cauchy_diff!r},{row.max_coeff_err!r}"
        )
    out_path.write_text("\n".join(lines) + "\n")
    final = report.rows[-1].distance
    status = "PASS" if report.passed else "FAIL"
    print(f"run-convergence: {status} (final distance {final:.3e}, threshold {spec.pass_tol:.0e}); wrote {out_path}")
    return 0 if report.passed else 1


def _run_invariance(spec, sys_obj, fam, fs, out_path: Path) -> int:
    base = furstenberg_moment(sys_obj, MomentQuery(tuple(fs), fam))
    records = []
    all_equal = True
    for j in range(1, fam.height + 1):
        for t in spec.shift_times:
            shifted = furstenberg_moment(
                sys_obj, MomentQuery(tuple(fs), fam, shift=(j, t))
            )
            equal = shifted == base
            all_equal &= equal
            records.append(
                {
                    "check": "off_diagonal_invariance",
                    "j": j,
                    "t": str(t),
                    "moment": _c2(base),
                    "shifted": _c2(shifted),
                    "equal": equal,
                }
            )
    out_path.write_text(_jsonl(records))
    status = "PASS" if all_equal else "FAIL"
    print(f"check-invariance: {status} ({len(records)} shifts, moment {base:.6g}); wrote {out_path}")
    return 0 if all_equal else 1


def _run_characteristic(spec, sys_obj, fam, fs, out_path: Path) -> int:
    report = partially_characteristic_check(sys_obj, fam, fs)
    record = {
        "check": "partially_characteristic",
        "verdict": report.verdict,
        "l2_distance": report.distance,
        "witnesses": [[list(chi) for chi in combo] for combo in report.witnesses],
        "factor_rank": report.factor.rank,
    }
    out_path.write_text(_jsonl([record]))
    print(f"check-characteristic: {report.verdict} (distance {report.distance!r}); wrote {out_path}")
    return 0 if report.verdict == "AGREE" else 1


def _run_vdc(spec, sys_obj, fam, fs, out_path: Path) -> int:
    report = vdc_bound_check(
        sys_obj, fam, fs, spec.T, spec.H, quad_tol=max(spec.tol, 1e-6), budget=spec.budget
    )
    record = {
        "check": "van_der_corput",
        "lhs": report.lhs,
        "rhs_core": report.rhs_core,
        "slack": report.slack,
        "margin": report.margin,
        "passed": report.passed,
        "T": report.T,
        "H": report.H,
    }
    out_path.write_text(_jsonl([record]))
    status = "PASS" if report.passed else "FAIL"
    print(
        f"check-vdc: {status} (lhs {report.lhs:.3e} vs rhs {report.rhs_core:.3e} + slack {report.slack:.3e}); wrote {out_path}"
    )
    return 0 if report.passed else 1


def _run_precedents(spec, fam, out_path: Path) -> int:
    try:
        dag = induction_dag(fam, max_nodes=spec.max_nodes)
    except DagBudgetError as exc:
        out_path.write_text(dag_to_text(exc.partial))
        print(f"enumerate-precedents: BUDGET ({exc}); partial DAG in {out_path}")
        return 3
    out_path.write_text(dag_to_text(dag))
    print(f"enumerate-precedents: {dag.node_count} nodes, {len(dag.edges)} edges; wrote {out_path}")
    return 0


def _timechange_interval(alpha: Fraction, seq, pass_tol: float) -> tuple[float, float]:
    """Smallest interval of the sequence whose predicted average magnitude for
    exp(2*pi*i*s^alpha) is safely below the threshold, while the oscillation
    count stays affordable."""
    af = float(alpha)
    for n in range(1, 60):
        a, b = seq.interval(n)
        edge = b if af < 1 else max(a, 1.0)
        bound = edge ** (1.0 - af) / (math.pi * af * (b - a))
        cycles = abs(b**af - a**af)
        if bound < pass_tol / 3 and cycles <= 2e5:
            return a, b
    raise ValueError(f"no affordable interval for alpha = {alpha}")


def _run_timechange(spec, out_path: Path) -> int:
    seq = tempered_family(spec.intervals if spec.intervals != "pinned" else "sliding-k1")
    curve = ExpPhaseCurve({Fraction(1): 1.0})
    records = []
    ok = True
    for alpha in spec.alphas:
        af = float(alpha)
        a, b = _timechange_interval(alpha, seq, spec.pass_tol)
        weights = time_change_weights(af, (a, b))
        mass = weights.w0 + weights.kernel_mass()
        mass_err = abs(mass - 1.0)
        avg = time_changed_average(curve, af, (a, b), tol=spec.tol, budget=spec.budget)
        limit_pass = abs(avg) < spec.pass_tol
        # dual-route consistency at a small interval (nested quadrature, so the
        # transformed endpoint b^alpha is kept modest)
        route_tol = max(spec.tol, 1e-7)
        small = (1.0, 257.0) if af <= 1 else (1.0, 1.0 + math.floor(2000.0 ** (1.0 / af)))
        direct = time_changed_average(curve, af, small, tol=route_tol, budget=spec.budget)
        via = time_changed_average_via_weights(curve, af, small, tol=route_tol, budget=spec.budget)
        route_gap = abs(direct - via)
        route_pass = route_gap <= 2 * route_tol
        passed = mass_err <= 1e-8 and limit_pass and route_pass
        ok &= passed
        records.append(
            {
                "check": "time_change",
                "alpha": str(alpha),
                "interval": [a, b],
                "w0": weights.w0,
                "kernel_mass": weights.kernel_mass(),
                "mass_error": mass_err,
                "tc_avg": _c2(avg),
                "tc_abs": abs(avg),
                "limit_pass": limit_pass,
                "route_gap": route_gap,
                "route_pass": route_pass,
                "passed": passed,
            }
        )
    out_path.write_text(_jsonl(records))
    status = "PASS" if ok else "FAIL"
    print(f"verify-timechange: {status} ({len(records)} exponents); wrote {out_path}")
    return 0 if ok else 1


def run(spec: ExperimentSpec, out_dir: str = ".", threads: int = 1, stem: str = "experiment") -> int:
    """Dispatch one experiment; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        sys_obj, fam, fs = _load_inputs(spec)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        if spec.command == "run-convergence":
            return _run_convergence(spec, sys_obj, fam, fs, out / f"{stem}.csv", threads)
        if spec.command == "check-invariance":
            return _run_invariance(spec, sys_obj, fam, fs, out / f"{stem}.jsonl")
        if spec.command == "check-characteristic":
            return _run_characteristic(spec, sys_obj, fam, fs, out / f"{stem}.jsonl")
        if spec.command == "check-vdc":
            return _run_vdc(spec, sys_obj, fam, fs, out / f"{stem}.jsonl")
        if spec.command == "enumerate-precedents":
            return _run_precedents(spec, fam, out / f"{stem}.dag")
        if spec.command == "verify-timechange":
            return _run_timechange(spec, out / f"{stem}.jsonl")
    except QuadratureBudgetError as exc:
        print(f"numeric budget error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {spec.command}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpet",
        description="Run one multiple-ergodic-average experiment described by a config file.",
    )
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--threads", type=int, default=None, help="worker threads (default: hardware count)")
    parser.add_argument("--serial", action="store_true", help="force single-threaded, bit-reproducible runs")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    args = parser.parse_args(argv)

    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("FPET_LOG", "error"), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    threads = 1 if args.serial else (args.threads or os.cpu_count() or 1)
    if threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_config(text, args.config)
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    log.info("command %s with %d thread(s)", spec.command, threads)
    return run(spec, args.out, threads, stem=Path(args.config).stem)


if __name__ == "__main__":
    sys.exit(main())

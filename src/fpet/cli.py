"""Command-line front end: one experiment per invocation.

A run is described by a strict `key = value` config file (unknown or
duplicated keys are errors; relative paths resolve against the config file's
directory).  Outputs land in the --out directory: a CSV per convergence
experiment, a JSONL verdict stream for the checks, a text DAG for precedent
enumeration.  Exit codes: 0 pass, 1 check failure, 2 input error, 3 numeric
budget error.  The ``tol`` key is the quadrature tolerance of each phase
integral, with two floors: check-vdc runs at max(tol, 1e-6), and the route
check of verify-timechange at max(tol, 1e-7).  Only run-convergence reads
``n_max``, the last index n of its intervals I_n; verify-timechange takes, for
each exponent alpha, the first of I_1..I_59 whose predicted average is below
``pass_tol`` / 3 within 2e5 cycles (:func:`_timechange_interval`: at the
defaults, alpha = 1/5 takes n = 49).

Two tables define the front end.  :class:`ExperimentSpec` declares each
config key once, as a field with its default and, in the field's metadata,
its parser, check and help text; the fields drive parsing, validation,
:func:`serialize_config` and the key list of ``fpet --help``.  ``_COMMANDS``
holds one row per command (required keys, output suffix, runner) and drives
:func:`run`.

The environment variable FPET_LOG in {error, info, debug} sets log verbosity
(default error).  Every command runs on one thread; --serial is accepted for
older scripts and has no effect.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import textwrap
from dataclasses import MISSING, asdict, dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .averages import (
    convergence_diagnostic,
    furstenberg_moment,
    partially_characteristic_check,
    vdc_bound_check,
)
from .fpoly import family_from_text
from .interval import (
    standard_tempered_families,
    tempered_family,
    time_change_weights,
    time_changed_average,
    time_changed_average_via_weights,
)
from .order import DagBudgetError, dag_to_text, induction_dag
from .quadrature import Phase, QuadratureBudgetError
from .textkv import ParseError, parse_int, parse_rational, scan_kv
from .torus import system_from_text, trigpoly_from_text

log = logging.getLogger("fpet")

_DEFAULT_SHIFTS = (Fraction(-1), Fraction(1), Fraction(-1, 3), Fraction(1, 3), Fraction(7))
_DEFAULT_ALPHAS = (
    Fraction(1, 5), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
    Fraction(3, 5), Fraction(2), Fraction(3), Fraction(7, 2),
)


# ---------------------------------------------------------------------------
# commands: each runner returns (output text, exit code, summary)


def _jsonl(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _c2(z: complex) -> list[float]:
    return [z.real, z.imag]


def _convergence(spec, sys_obj, fam, fs):
    report = convergence_diagnostic(
        sys_obj, fam, fs, tempered_family(spec.intervals), spec.n_max,
        tol=spec.pass_tol, quad_tol=spec.tol, budget=spec.budget,
    )
    lines = ["n,a_n,b_n,l2_distance_to_oracle,cauchy_diff,max_coeff_err"]
    for row in report.rows:
        lines.append(
            f"{row.n},{row.a!r},{row.b!r},{row.distance!r},{row.cauchy_diff!r},{row.max_coeff_err!r}"
        )
    final = report.rows[-1].distance
    status = "PASS" if report.passed else "FAIL"
    summary = f"{status} (final distance {final:.3e}, threshold {spec.pass_tol:.0e})"
    return "\n".join(lines) + "\n", 0 if report.passed else 1, summary


def _invariance(spec, sys_obj, fam, fs):
    shifts = [(j, t) for j in range(1, fam.height + 1) for t in spec.shift_times]
    base, moments = furstenberg_moment(sys_obj, fam, fs, shifts)
    records = [
        {
            "check": "off_diagonal_invariance",
            "j": j,
            "t": str(t),
            "moment": _c2(base),
            "shifted": _c2(shifted),
            "equal": shifted == base,
        }
        for (j, t), shifted in zip(shifts, moments)
    ]
    ok = all(r["equal"] for r in records)
    summary = f"{'PASS' if ok else 'FAIL'} ({len(records)} shifts, moment {base:.6g})"
    return _jsonl(records), 0 if ok else 1, summary


def _characteristic(spec, sys_obj, fam, fs):
    report = partially_characteristic_check(sys_obj, fam, fs)
    record = {
        "check": "partially_characteristic",
        "verdict": report.verdict,
        "l2_distance": report.distance,
        "witnesses": [[list(chi) for chi in combo] for combo in report.witnesses],
        "factor_rank": report.factor.rank,
    }
    summary = f"{report.verdict} (distance {report.distance!r})"
    return _jsonl([record]), 0 if report.verdict == "AGREE" else 1, summary


def _vdc(spec, sys_obj, fam, fs):
    report = vdc_bound_check(
        sys_obj, fam, fs, spec.T, spec.H, quad_tol=max(spec.tol, 1e-6), budget=spec.budget
    )
    record = {"check": "van_der_corput", **asdict(report)}
    summary = (
        f"{'PASS' if report.passed else 'FAIL'} (lhs {report.lhs:.3e} vs rhs "
        f"{report.rhs_core:.3e} + slack {report.slack:.3e})"
    )
    return _jsonl([record]), 0 if report.passed else 1, summary


def _precedents(spec, sys_obj, fam, fs):
    try:
        dag = induction_dag(fam, max_nodes=spec.max_nodes)
    except DagBudgetError as exc:
        return dag_to_text(exc.partial), 3, f"BUDGET ({exc}), partial DAG"
    return dag_to_text(dag), 0, f"{dag.node_count} nodes, {len(dag.edges)} edges"


def _timechange_interval(alpha: Fraction, seq, pass_tol: float) -> tuple[float, float]:
    """Smallest interval of the sequence whose predicted average magnitude for
    exp(2*pi*i*s^alpha) is safely below the threshold, while the oscillation
    count stays affordable."""
    try:
        af = float(alpha)
        for n in range(1, 60):
            a, b = seq.interval(n)
            edge = b if af < 1 else max(a, 1.0)
            bound = edge ** (1.0 - af) / (math.pi * af * (b - a))
            cycles = abs(b**af - a**af)
            if bound < pass_tol / 3 and cycles <= 2e5:
                return a, b
    except (OverflowError, ZeroDivisionError):
        pass  # alpha, or b^alpha, is out of float range: far too many cycles
    raise ValueError(f"no affordable interval for alpha = {alpha}")


def _timechange(spec, sys_obj, fam, fs):
    # pinned intervals start at 0, where s^alpha with alpha < 1 has no bounded
    # derivative: run the sliding-k1 sequence instead
    seq = tempered_family(spec.intervals if spec.intervals != "pinned" else "sliding-k1")
    curve = Phase({1: 1.0})
    records = []
    for alpha in spec.alphas:
        a, b = _timechange_interval(alpha, seq, spec.pass_tol)
        af = float(alpha)
        weights = time_change_weights(af, (a, b))
        kernel_mass = weights.kernel_mass()
        mass_err = abs(weights.w0 + kernel_mass - 1.0)
        avg = time_changed_average(curve, alpha, (a, b), tol=spec.tol, budget=spec.budget)
        limit_pass = abs(avg) < spec.pass_tol
        # dual-route consistency at a small interval (nested quadrature, so the
        # transformed endpoint b^alpha is kept modest)
        route_tol = max(spec.tol, 1e-7)
        small = (1.0, 257.0) if af <= 1 else (1.0, 1.0 + math.floor(2000.0 ** (1.0 / af)))
        direct = time_changed_average(curve, alpha, small, tol=route_tol, budget=spec.budget)
        via = time_changed_average_via_weights(curve, alpha, small, tol=route_tol, budget=spec.budget)
        route_gap = abs(direct - via)
        route_pass = route_gap <= 2 * route_tol
        records.append(
            {
                "check": "time_change",
                "alpha": str(alpha),
                "interval": [a, b],
                "w0": weights.w0,
                "kernel_mass": kernel_mass,
                "mass_error": mass_err,
                "tc_avg": _c2(avg),
                "tc_abs": abs(avg),
                "limit_pass": limit_pass,
                "route_gap": route_gap,
                "route_pass": route_pass,
                "passed": mass_err <= 1e-8 and limit_pass and route_pass,
            }
        )
    ok = all(r["passed"] for r in records)
    return _jsonl(records), 0 if ok else 1, f"{'PASS' if ok else 'FAIL'} ({len(records)} exponents)"


@dataclass(frozen=True)
class _Command:
    needs: tuple[str, ...]
    suffix: str
    runner: Callable[..., tuple[str, int, str]]


_INPUTS = ("system", "family", "observables")
_COMMANDS = {
    "run-convergence": _Command(_INPUTS, "csv", _convergence),
    "check-invariance": _Command(_INPUTS, "jsonl", _invariance),
    "check-characteristic": _Command(_INPUTS, "jsonl", _characteristic),
    "check-vdc": _Command(_INPUTS, "jsonl", _vdc),
    "enumerate-precedents": _Command(("family",), "dag", _precedents),
    "verify-timechange": _Command((), "jsonl", _timechange),
}

# ---------------------------------------------------------------------------
# config keys: each parser takes (value, path, lineno, key) and raises
# ParseError; each check takes (key, parsed value) and returns None or what is
# wrong, for config files and specs alike


def _choice(options):
    known = f"(choose from: {', '.join(options)})"
    return lambda key, value: None if value in options else f"unknown {key} {value!r} {known}"


def _text(value, path, lineno, key) -> str:
    return value


def _path(value, path, lineno, key) -> str:
    base = Path(path).parent if path not in ("<config>", "-") else Path(".")
    return str((base / value).resolve())


def _listed(item):
    """Parser of a comma-separated list of ``item`` values."""

    def parse(value, path, lineno, key):
        return tuple(item(tok, path, lineno, key) for tok in map(str.strip, value.split(",")) if tok)

    return parse


def _number(value, path, lineno, key) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParseError(path, lineno, f"{key} must be a number, got {value!r}") from None


def _must(holds, what):
    return lambda key, value: None if holds(value) else f"{key} must {what}"


_positive = _must(lambda v: v > 0, "be positive")
_finite_positive = _must(lambda v: math.isfinite(v) and v > 0, "be finite and positive")
_nonempty = _must(bool, "list at least one value")
_positive_list = _must(lambda v: v and all(x > 0 for x in v), "list at least one value, each positive")


def _files(key, value) -> str | None:
    paths = (value,) if isinstance(value, str) else value
    if not paths:
        return f"{key} must list at least one path"
    for p in paths:
        if not Path(p).is_file():
            return f"{key} file not found: {p}"
    return None


def _key(default, parse: Callable[[str, str, int, str], Any],
         check: Callable[[str, Any], str | None], help: str):
    """One config key: a field of :class:`ExperimentSpec` with its default,
    parser, check and help text."""
    return field(default=default, metadata={"parse": parse, "check": check, "help": help})


_INTERVALS = tuple(seq.name for seq in standard_tempered_families())


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment; each field is one config key."""

    command: str = _key(
        MISSING, _text, _choice(tuple(_COMMANDS)), "what to run (required; see commands)"
    )
    system: str | None = _key(None, _path, _files, "path to a torus-system file")
    family: str | None = _key(None, _path, _files, "path to a family file")
    observables: tuple[str, ...] = _key((), _listed(_path), _files, "comma-separated observable paths")
    intervals: str = _key(
        "pinned", _text, _choice(_INTERVALS),
        f"{' | '.join(_INTERVALS)}; verify-timechange runs sliding-k1 in place of pinned, "
        "because alpha < 1 needs intervals with a > 0",
    )
    n_max: int = _key(
        12, parse_int, _positive,
        "last interval index of run-convergence, the only command that reads it; "
        "verify-timechange searches n = 1..59 for its intervals itself",
    )
    tol: float = _key(
        1e-8, _number, _finite_positive,
        "quadrature tolerance per phase integral; check-vdc runs at max(tol, 1e-6) and the "
        "route check of verify-timechange at max(tol, 1e-7)",
    )
    pass_tol: float = _key(1e-2, _number, _finite_positive, "pass threshold for diagnostics")
    budget: int = _key(10**7, parse_int, _positive, "evaluation budget per oscillatory integral")
    T: float = _key(1e4, _number, _finite_positive, "van der Corput horizon")
    H: float = _key(1e2, _number, _finite_positive, "van der Corput shift horizon")
    shift_times: tuple[Fraction, ...] = _key(
        _DEFAULT_SHIFTS, _listed(parse_rational), _nonempty, "comma-separated rational off-diagonal times"
    )
    alphas: tuple[Fraction, ...] = _key(
        _DEFAULT_ALPHAS, _listed(parse_rational), _positive_list,
        "comma-separated positive rational time-change exponents",
    )
    max_nodes: int = _key(10_000, parse_int, _positive, "node budget for precedent enumeration")


_FIELDS = {f.name: f for f in fields(ExperimentSpec)}


def _format(value) -> str:
    return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _problem(values: dict) -> tuple[str, str] | None:
    """(key, message) for the first value that fails its check, else ('',
    message) for a key that the command needs and lacks."""
    for key, value in values.items():
        message = _FIELDS[key].metadata["check"](key, value)
        if message:
            return key, message
    if "command" not in values:
        return "", "missing key 'command'"
    for key in _COMMANDS[values["command"]].needs:
        if key not in values:
            return "", f"command {values['command']} requires key {key!r}"
    return None


def parse_config(text: str, path: str = "<config>") -> ExperimentSpec:
    """Strict config parsing; ``fpet --help`` lists the keys and defaults."""
    values, lines = {}, {}  # lines: key -> line number, where a failed check points
    for lineno, key, value in scan_kv(text, path):
        if key not in _FIELDS:
            raise ParseError(path, lineno, f"unknown key {key!r}")
        if key in values:
            raise ParseError(path, lineno, f"duplicate key {key!r}")
        values[key] = _FIELDS[key].metadata["parse"](value, path, lineno, key)
        lines[key] = lineno
    problem = _problem(values)
    if problem:
        raise ParseError(path, lines.get(problem[0], 0), problem[1])
    return ExperimentSpec(**values)


def serialize_config(spec: ExperimentSpec) -> str:
    """Inverse of :func:`parse_config` (parse(serialize(s)) == s)."""
    lines = []
    for key in _FIELDS:
        value = getattr(spec, key)
        if value is not None and value != ():
            lines.append(f"{key} = {_format(value)}")
    return "\n".join(lines) + "\n"


def _key_help() -> str:
    lines = ["config keys ('key = value' lines, '#' starts a comment):"]
    for key, f in _FIELDS.items():
        shown = "" if f.default in (MISSING, None, ()) else f" [{_format(f.default)}]"
        lead = f"  {key:<12} "
        lines.append(textwrap.fill(
            f.metadata["help"] + shown, 79, initial_indent=lead, subsequent_indent=" " * len(lead)
        ))
    lines.append("commands (required keys):")
    for name, command in _COMMANDS.items():
        lines.append(f"  {name:<21} {', '.join(command.needs) or '-'}")
    return "\n".join(lines)


def _load_inputs(spec: ExperimentSpec):
    sys_obj = fam = None
    if spec.system:
        sys_obj = system_from_text(Path(spec.system).read_text(), spec.system)
    if spec.family:
        fam = family_from_text(Path(spec.family).read_text(), spec.family)
    fs = [trigpoly_from_text(Path(p).read_text(), p) for p in spec.observables]
    return sys_obj, fam, fs


def run(spec: ExperimentSpec, out_dir: str = ".", stem: str = "experiment") -> int:
    """Run one experiment, write its output file; returns the process exit
    code.  A spec that :func:`parse_config` would reject exits 2 at once, and
    so does an input file, output directory or output file that cannot be
    read or written."""
    problem = _problem({
        f.name: getattr(spec, f.name) for f in fields(spec) if getattr(spec, f.name) != f.default
    })
    if problem:
        print(f"input error: {problem[1]}", file=sys.stderr)
        return 2
    command = _COMMANDS[spec.command]
    out_path = Path(out_dir) / f"{stem}.{command.suffix}"
    try:
        # an --out that is, or lies under, a file fails here before any work
        out_path.parent.mkdir(parents=True, exist_ok=True)
        text, code, summary = command.runner(spec, *_load_inputs(spec))
        out_path.write_text(text)
    except QuadratureBudgetError as exc:
        print(f"numeric budget error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(f"{spec.command}: {summary}; wrote {out_path}")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpet",
        description="Run one multiple-ergodic-average experiment described by a config file.",
        epilog=_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument(
        "--serial", action="store_true", help="accepted for older scripts; has no effect"
    )
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    args = parser.parse_args(argv)

    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("FPET_LOG", "error"), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

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
    log.info("command %s", spec.command)
    return run(spec, args.out, stem=Path(args.config).stem)


if __name__ == "__main__":
    sys.exit(main())

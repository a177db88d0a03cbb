"""Seeded inputs for the benchmark workloads.

Every workload has a fixed template: torus system matrix A, family
coefficient vectors, observable supports and config knobs.  The seed draws
only values, along two symmetries that leave the program's work unchanged:

* a positive diagonal scaling S of R^D.  The family file holds S v and the
  system file holds A S^-1, so every exact phase vector chi^T A v, and with it
  every float integral, every zero test and every factor lattice, equals the
  template's.  Positive scaling also keeps the lexicographic order of
  coefficient vectors, so the descent DAG is the template's DAG with scaled
  entries;
* the complex coefficients of the observables, which weight the phase
  integrals but do not choose them.

So the seed changes every input file and every output value, while counts
(evaluations, phase vectors, DAG nodes, tuples) repeat exactly across seeds.
Nothing here calls the program: a library change cannot change the inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# templates


def _basis_family(k: int, height: int) -> list[list[list[int]]]:
    """k members of the given height whose coefficient vectors are the
    standard basis of Q^(k*height), member i taking e_(i*height+1..)."""
    dim = k * height
    return [
        [[int(c == i * height + j) for c in range(dim)] for j in range(height)]
        for i in range(k)
    ]


# run-convergence: height 2, two top-degree members on T^2.  Phase vectors are
# (chi_1 - chi_2) . columns, so equal frequencies resonate (nontrivial limit).
CONV_A = [[1, 1, -1, -1], ["-1/2", "1/2", "1/2", "-1/2"]]
CONV_SUPPORTS = [
    [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1), (2, -1)],
    [(0, 0), (1, 0), (0, 1), (-1, 0), (1, -1), (0, 2)],
]
CONV_N_MAX = 15

# check-vdc: same shape, no zero phase vector (non-resonant), four tuples.
VDC_A = [[1, "1/2", "1/3", -1], ["1/2", -1, 1, "1/3"]]
VDC_SUPPORTS = [[(1, 0), (0, 1)], [(1, 0), (-1, 1)]]
VDC_T, VDC_H = 100.0, 10.0

# enumerate-precedents: leading degrees (3, 3, 2, 2, 1, 1) at height 3 in Q^12;
# the rows form an invertible integer matrix, so the family is good.
DESCENT_FAMILY = [
    [[-13, -9, 2, 0, -1, 1, 1, 2, -4, 4, 4, 0], [-3, -3, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0],
     [3, 1, 0, 0, 0, 0, 0, 0, -1, -2, 0, 0]],
    [[0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1], [-2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
     [4, 0, 0, 1, 0, 0, 0, 0, 0, 0, -2, 0]],
    [[-4, -1, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0], [-2, 4, 0, 0, 0, 0, 0, 1, 3, 0, 1, 0]],
    [[-3, 2, 0, 0, 0, 0, 0, 0, 3, 2, 0, 0], [3, 3, 0, 0, 1, 0, -1, 0, 0, -2, 0, 0]],
    [[-4, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0]],
    [[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]],
]
DESCENT_HEIGHT = 3

# check-characteristic / check-invariance: k = 3, height 2 on T^3, 16-term
# observables.  The factor lattice has index 2 in Z^3 and the verdict is AGREE.
CHAR_A = [[-2, -2, -2, -2, -1, -1], [-1, -2, 0, 0, 1, 2], [0, -2, 0, 0, 0, 1]]
CHAR_SUPPORTS = [
    # f_0 (invariance only), then f_1, f_2, f_3
    [(-1, -1, 0), (-1, -1, 1), (-1, 0, 1), (-1, 1, -1), (-1, 1, 1), (0, -1, -1),
     (0, -1, 0), (0, -1, 1), (0, 0, -1), (0, 0, 0), (1, -1, -1), (1, 0, -1),
     (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)],
    [(-1, -1, -1), (-1, -1, 1), (-1, 0, -1), (-1, 0, 0), (-1, 1, -1), (-1, 1, 0),
     (-1, 1, 1), (0, 0, -1), (0, 0, 1), (0, 1, -1), (0, 1, 0), (0, 1, 1),
     (1, -1, -1), (1, -1, 1), (1, 0, -1), (1, 1, -1)],
    [(-1, -1, -1), (-1, 0, -1), (-1, 1, 0), (-1, 1, 1), (0, -1, 0), (0, 0, 1),
     (0, 1, -1), (0, 1, 0), (1, -1, -1), (1, -1, 0), (1, -1, 1), (1, 0, -1),
     (1, 0, 0), (1, 0, 1), (1, 1, -1), (1, 1, 0)],
    [(-1, -1, -1), (-1, 0, -1), (-1, 1, -1), (-1, 1, 0), (0, -1, 0), (0, -1, 1),
     (0, 0, -1), (0, 0, 0), (0, 0, 1), (0, 1, -1), (0, 1, 0), (1, -1, -1),
     (1, -1, 0), (1, -1, 1), (1, 0, -1), (1, 1, 1)],
]
CHAR_SHIFTS = ("1/3", "7")

# the default exponents of verify-timechange, which the workload leaves unset
TIMECHANGE_ALPHAS = ("1/5", "1/3", "2/5", "1/2", "3/5", "2", "3", "7/2")
TIMECHANGE_TOL, TIMECHANGE_PASS_TOL = 1e-8, 1e-2

_SCALE_NUMERATORS = (1, 2)
_SCALE_DENOMINATORS = (1, 2)


# ---------------------------------------------------------------------------
# the benchmark's own model of one input


@dataclass
class Problem:
    """Template values plus the seeded scaling and observable coefficients.

    ``A`` and ``members`` are the template (phase vectors are computed from
    them); the files hold the scaled versions.
    """

    height: int
    members: list[list[tuple[Fraction, ...]]]
    scale: tuple[Fraction, ...]
    A: list[tuple[Fraction, ...]] | None = None
    observables: list[dict[tuple[int, ...], complex]] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.scale)

    def scaled_members(self) -> list[list[tuple[Fraction, ...]]]:
        return [[tuple(x * s for x, s in zip(v, self.scale)) for v in m] for m in self.members]

    def columns(self) -> list[list[tuple[Fraction, ...]]]:
        """A v_{i,j} for every member i and index j, from the template."""
        return [
            [tuple(sum(a * x for a, x in zip(row, v)) for row in self.A) for v in m]
            for m in self.members
        ]

    def tuples(self, observables=None):
        """(combo, output frequency, coefficient product, phase vector) in the
        program's order: the product of the sorted supports."""
        obs = self.observables if observables is None else observables
        # each frequency's share of the phase vector, c_j = sum_i chi_i . A v_{i,j}
        shares = [
            {chi: tuple(sum(c * w for c, w in zip(chi, col[j])) for j in range(self.height)) for chi in f}
            for f, col in zip(obs, self.columns())
        ]
        for combo in itertools.product(*(sorted(f) for f in obs)):
            prod = 1.0 + 0j
            for f, chi in zip(obs, combo):
                prod *= f[chi]
            out = tuple(sum(x) for x in zip(*combo))
            cvec = tuple(sum(x) for x in zip(*(s[chi] for s, chi in zip(shares, combo))))
            yield combo, out, prod, cvec


def _fractions(rows) -> list[tuple[Fraction, ...]]:
    return [tuple(Fraction(x) for x in row) for row in rows]


def _pad(member, height, dim):
    rows = _fractions(member)
    return rows + [(Fraction(0),) * dim] * (height - len(rows))


def _draw_scale(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.choice(_SCALE_NUMERATORS), rng.choice(_SCALE_DENOMINATORS))
        for _ in range(dim)
    )


def _draw_observable(rng: random.Random, support) -> dict[tuple[int, ...], complex]:
    out = {}
    for chi in support:
        r, phi = rng.uniform(0.1, 0.5), rng.uniform(0.0, 2 * math.pi)
        out[tuple(chi)] = complex(round(r * math.cos(phi), 6), round(r * math.sin(phi), 6))
    return out


def descent_template() -> Problem:
    """The unscaled descent family, whose DAG text the golden digest pins."""
    dim = len(DESCENT_FAMILY[0][0])
    members = [_pad(m, DESCENT_HEIGHT, dim) for m in DESCENT_FAMILY]
    return Problem(DESCENT_HEIGHT, members, (Fraction(1),) * dim)


def make_problem(rng, A, members, height, supports) -> Problem:
    dim = len(members[0][0])
    fam = [_pad(m, height, dim) for m in members]
    return Problem(
        height=height,
        members=fam,
        scale=_draw_scale(rng, dim),
        A=_fractions(A) if A is not None else None,
        observables=[_draw_observable(rng, s) for s in supports],
    )


# ---------------------------------------------------------------------------
# file formats (the program's documented text formats)


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def system_text(p: Problem) -> str:
    lines = [f"m = {len(p.A)}", f"D = {p.dim}"]
    for r, row in enumerate(p.A, start=1):
        lines.append(f"A[{r}] = " + " ".join(_q(a / s) for a, s in zip(row, p.scale)))
    return "\n".join(lines) + "\n"


def family_text(p: Problem) -> str:
    members = p.scaled_members()
    lines = [f"height = {p.height}", f"ambient_dim = {p.dim}", f"members = {len(members)}"]
    for i, m in enumerate(members, start=1):
        for j, v in enumerate(m, start=1):
            lines.append(f"v[{i}][{j}] = " + " ".join(_q(x) for x in v))
    return "\n".join(lines) + "\n"


def observable_text(f: dict, m: int) -> str:
    lines = [f"m = {m}"]
    for chi in sorted(f):
        c = f[chi]
        lines.append(f"term = {' '.join(map(str, chi))} : {c.real!r} {c.imag!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One CLI command: its config stem, command, output file and the facts
    its output check needs."""

    stem: str
    command: str
    config: Path
    files: list[Path]
    output: str
    problem: Problem | None = None
    params: dict = field(default_factory=dict)


WORKLOADS = ("convergence", "timechange_vdc", "exact_descent")

_SUFFIX = {
    "run-convergence": "csv",
    "enumerate-precedents": "dag",
}


def _write_op(d: Path, stem, command, lines, files, problem=None, **params) -> Op:
    config = d / f"{stem}.cfg"
    config.write_text("\n".join([f"command = {command}"] + lines) + "\n")
    out = f"{stem}.{_SUFFIX.get(command, 'jsonl')}"
    return Op(stem, command, config, [config] + files, out, problem, params)


def _write_inputs(d: Path, prefix: str, p: Problem) -> tuple[list[str], list[Path], list[str]]:
    """Write the system (when the problem has one), family and observable
    files; return config lines for system and family, the files, and the
    observable file names."""
    files, lines, names = [], [], []
    if p.A is not None:
        (d / f"{prefix}.system").write_text(system_text(p))
        files.append(d / f"{prefix}.system")
        lines.append(f"system = {prefix}.system")
    (d / f"{prefix}.family").write_text(family_text(p))
    files.append(d / f"{prefix}.family")
    lines.append(f"family = {prefix}.family")
    for i, f in enumerate(p.observables):
        names.append(f"{prefix}{i}.obs")
        (d / names[-1]).write_text(observable_text(f, len(p.A)))
        files.append(d / names[-1])
    return lines, files, names


def generate(workload: str, seed: int, d: Path, scale_down: bool = False) -> list[Op]:
    """Write the workload's configs and inputs for ``seed`` into ``d`` and
    return its operations in run order.  ``scale_down`` shrinks the float
    horizons for the self-test; the benchmark never sets it."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (choose from: {', '.join(WORKLOADS)})")
    d.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    if workload == "convergence":
        p = make_problem(rng, CONV_A, _basis_family(2, 2), 2, CONV_SUPPORTS)
        lines, files, obs = _write_inputs(d, "conv", p)
        lines.append("observables = " + ", ".join(obs))
        n_max = 6 if scale_down else CONV_N_MAX
        for stem, seq in (("conv_pinned", "pinned"), ("conv_sliding", "sliding-k1")):
            knobs = [f"intervals = {seq}", f"n_max = {n_max}", "tol = 1e-8", "pass_tol = 1e-2"]
            ops.append(_write_op(d, stem, "run-convergence", lines + knobs, files, p,
                                 intervals=seq, n_max=n_max))
    elif workload == "timechange_vdc":
        alphas = TIMECHANGE_ALPHAS[:1] + TIMECHANGE_ALPHAS[-1:] if scale_down else TIMECHANGE_ALPHAS
        knobs = ["alphas = " + ", ".join(alphas)] if scale_down else []
        ops.append(_write_op(d, "timechange", "verify-timechange", knobs, [], None,
                             alphas=alphas, tol=TIMECHANGE_TOL, pass_tol=TIMECHANGE_PASS_TOL))
        p = make_problem(rng, VDC_A, _basis_family(2, 2), 2, VDC_SUPPORTS)
        lines, files, obs = _write_inputs(d, "vdc", p)
        T, H = (20.0, 2.0) if scale_down else (VDC_T, VDC_H)
        knobs = ["observables = " + ", ".join(obs), f"T = {T!r}", f"H = {H!r}"]
        ops.append(_write_op(d, "vdc", "check-vdc", lines + knobs, files, p, T=T, H=H, quad_tol=1e-6))
    else:
        p = make_problem(rng, None, DESCENT_FAMILY, DESCENT_HEIGHT, [])
        lines, files, _ = _write_inputs(d, "descent", p)
        ops.append(_write_op(d, "precedents", "enumerate-precedents", lines, files, p))
        # one set of files: f_1..f_3 for the characteristic check, f_0..f_3 for invariance
        p = make_problem(rng, CHAR_A, _basis_family(3, 2), 2, CHAR_SUPPORTS)
        lines, files, obs = _write_inputs(d, "char", p)
        rest = Problem(p.height, p.members, p.scale, p.A, p.observables[1:])
        ops.append(_write_op(d, "characteristic", "check-characteristic",
                             lines + ["observables = " + ", ".join(obs[1:])], files[:-4] + files[-3:], rest))
        knobs = ["observables = " + ", ".join(obs), "shift_times = " + ", ".join(CHAR_SHIFTS)]
        ops.append(_write_op(d, "invariance", "check-invariance", lines + knobs, files, p,
                             shift_times=tuple(Fraction(t) for t in CHAR_SHIFTS)))
    return ops

"""Output checks computed outside the program.

Each ``check_*`` function takes one command's output text and the
benchmark's own model of its inputs, and returns a list of problems (empty
when the output passes).  The references are independent routes:

* finite-interval averages of exp(2 pi i (c_1 t^(1/2) + c_2 t)) in closed
  form (t = u^2 turns them into erf / Fresnel integrals), at 30 digits;
* time-changed averages of exp(2 pi i s^alpha) as incomplete gamma values;
* phase vectors, limits, moments, ranks and lattices in exact integer and
  rational arithmetic written here, not imported from the program.

The golden digest of the descent DAG is the one stored copy of a program
output; ``python3 perfbench/run.py --regen-digest`` prints it afresh.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import mpmath as mp

from inputs import Problem

mp.mp.dps = 30

# sha256 of dag_to_text for the unscaled DESCENT_FAMILY template
DAG_DIGEST = "f390eface3fbe9d4dcf604a610791a13ece754131c4248767b3d485d614edde4"

_P = (1 << 61) - 1  # prime for the one-sided modular rank certificate


def _mpq(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


# ---------------------------------------------------------------------------
# closed forms


def phase_average(cvec, a, b):
    """Average over (a, b) of exp(2 pi i (c_1 t^(1/2) + c_2 t)) for exact
    rationals c and float endpoints, as an mpc."""
    c1, c2 = cvec
    a, b = mp.mpf(a), mp.mpf(b)
    u0, u1 = mp.sqrt(a), mp.sqrt(b)
    al, be = 2 * mp.pi * _mpq(Fraction(c1)), 2 * mp.pi * _mpq(Fraction(c2))
    if be == 0:
        if al == 0:
            return mp.mpc(1)

        def prim(u):  # antiderivative of 2 u e^{i al u}
            return 2 * mp.expj(al * u) * (u / (1j * al) + 1 / al**2)

        return (prim(u1) - prim(u0)) / (b - a)
    # 2u e^{i phi} = (e^{i phi})' / (i be) - (al / be) e^{i phi}, phi = al u + be u^2
    edge = (mp.expj(al * u1 + be * u1**2) - mp.expj(al * u0 + be * u0**2)) / (1j * be)
    kappa = mp.sqrt(-1j * be)
    shift = al / (2 * be)
    gauss = (mp.sqrt(mp.pi) / (2 * kappa)) * (
        mp.erf(kappa * (u1 + shift)) - mp.erf(kappa * (u0 + shift))
    )
    return (edge - (al / be) * mp.expj(-al**2 / (4 * be)) * gauss) / (b - a)


def timechange_average(alpha: Fraction, a, b):
    """Average over (a, b) of exp(2 pi i s^alpha): after x = s^alpha it is
    (1 / (alpha (b - a))) * integral of x^(nu - 1) e^{2 pi i x}, nu = 1/alpha,
    an incomplete gamma function on the negative imaginary axis."""
    al = _mpq(Fraction(alpha))
    nu = 1 / al
    a, b = mp.mpf(a), mp.mpf(b)
    A, B = a**al, b**al
    k = 2 * mp.pi
    w = (-1j * k) ** (-nu)
    return w * mp.gammainc(nu, -1j * k * A, -1j * k * B) / (al * (b - a))


def time_change_w0(alpha: Fraction, a, b):
    """Weight of the full-window average in the time-change decomposition,
    from integrating by parts against the density x^(1/alpha - 1) / alpha:
    the density is taken at the window start for alpha < 1, at its end
    otherwise."""
    al = _mpq(Fraction(alpha))
    a, b = mp.mpf(a), mp.mpf(b)
    A, B = a**al, b**al
    edge = a if al < 1 else b
    return edge ** (1 - al) * (B - A) / (al * (b - a))


# ---------------------------------------------------------------------------
# exact algebra


def _rank_exact(rows) -> int:
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[rank][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def independent(rows) -> bool:
    """Rows linearly independent over Q.  Full rank mod a large prime proves
    it; only a deficient modular rank falls back to exact elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return True
    work = [[x.numerator * pow(x.denominator, -1, _P) % _P for x in r] for r in rows]
    rank = 0
    for c in range(len(work[0])):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, _P)
        for i in range(rank + 1, len(work)):
            if work[i][c]:
                f = work[i][c] * inv % _P
                work[i] = [(x - f * y) % _P for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank == len(rows) or _rank_exact(rows) == len(rows)


def hnf(rows) -> list[tuple[int, ...]]:
    """Row-style Hermite basis of the integer lattice spanned by ``rows``."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c]]
            if not nz:
                break
            i = min(nz, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i] = rows[i], rows[r]
            clean = True
            for j in range(r + 1, len(rows)):
                if rows[j][c]:
                    q = rows[j][c] // rows[r][c]
                    rows[j] = [x - q * y for x, y in zip(rows[j], rows[r])]
                    clean = clean and rows[j][c] == 0
            if clean:
                break
        if r < len(rows) and rows[r][c]:
            if rows[r][c] < 0:
                rows[r] = [-x for x in rows[r]]
            for j in range(r):
                q = rows[j][c] // rows[r][c]
                rows[j] = [x - q * y for x, y in zip(rows[j], rows[r])]
            r += 1
    return [tuple(x) for x in rows[:r]]


def in_lattice(basis, v) -> bool:
    v = list(v)
    for row in basis:
        c = next(i for i, x in enumerate(row) if x)
        q, rem = divmod(v[c], row[c])
        if rem:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def integer_kernel(rows, m: int) -> list[tuple[int, ...]]:
    """Basis of {x in Z^m : r . x = 0 for each rational row r}: unimodular
    row reduction of [R^T | I] leaves the kernel beside the zero rows."""
    ints = []
    for r in rows:
        den = math.lcm(*(Fraction(x).denominator for x in r))
        ints.append([int(Fraction(x) * den) for x in r])
    ints = [r for r in ints if any(r)]
    n = len(ints)
    aug = [[ints[i][j] for i in range(n)] + [int(j == k) for k in range(m)] for j in range(m)]
    return [row[n:] for row in hnf(aug) if not any(row[:n])]


def xi_lattice(p: Problem) -> list[tuple[int, ...]]:
    """Hermite basis of the candidate factor: characters killed by A v on the
    line through the last member's top vector, joined with those killed on
    the span of each difference (member_i - member_k)."""
    m = len(p.A)

    def image(vs):
        return [tuple(sum(a * x for a, x in zip(row, v)) for row in p.A) for v in vs]

    last = p.members[-1]
    gens = integer_kernel(image([last[-1]]), m)
    for member in p.members[:-1]:
        diffs = [tuple(x - y for x, y in zip(u, w)) for u, w in zip(member, last)]
        gens += integer_kernel(image(diffs), m)
    return hnf(gens)


def unit_phase(x: Fraction) -> complex:
    x = x % 1
    return complex(mp.expj(2 * mp.pi * _mpq(x)))


# ---------------------------------------------------------------------------
# checks


def _close(x, y, tol) -> bool:
    return abs(x - y) <= tol


def check_convergence(text: str, p: Problem, intervals: str, n_max: int) -> list[str]:
    lines = text.strip().splitlines()
    if lines[0] != "n,a_n,b_n,l2_distance_to_oracle,cauchy_diff,max_coeff_err":
        return [f"unexpected CSV header {lines[0]!r}"]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if len(rows) != n_max:
        return [f"{len(rows)} rows, expected {n_max}"]
    groups: dict = {}
    limit: dict = {}
    for _, out, prod, cvec in p.tuples():
        groups.setdefault(cvec, []).append((out, prod))
        if not any(cvec):
            limit[out] = limit.get(out, 0j) + prod
    outs = sorted({out for items in groups.values() for out, _ in items})
    root_n = math.sqrt(len(outs))
    problems, prev = [], None
    for n, a, b, dist, cauchy, err in rows:
        n = int(n)
        want = (0.0, 2.0**n) if intervals == "pinned" else (2.0**n, 2.0 ** (n + 1))
        if (a, b) != want:
            problems.append(f"row {n}: interval {(a, b)}, expected {want}")
            continue
        if not math.isfinite(err) or err < 0:
            problems.append(f"row {n}: error bound {err!r}")
            continue
        value = dict.fromkeys(outs, mp.mpc(0))
        for cvec, items in groups.items():
            avg = phase_average(cvec, a, b)
            for out, prod in items:
                value[out] += prod * avg
        ref = math.sqrt(sum(abs(complex(value[o]) - limit.get(o, 0j)) ** 2 for o in outs))
        if not _close(dist, ref, root_n * err + 1e-12):
            problems.append(f"row {n}: distance {dist!r}, closed form {ref!r}, bound {root_n * err:.3e}")
        if prev is not None:
            pvalue, perr = prev
            ref_c = math.sqrt(sum(abs(complex(value[o] - pvalue[o])) ** 2 for o in outs))
            if not _close(cauchy, ref_c, root_n * (err + perr) + 1e-12):
                problems.append(f"row {n}: cauchy {cauchy!r}, closed form {ref_c!r}")
        elif not math.isnan(cauchy):
            problems.append(f"row {n}: first Cauchy difference {cauchy!r}, expected nan")
        prev = (value, err)
    return problems


def check_timechange(text: str, alphas, tol: float, pass_tol: float) -> list[str]:
    records = [json.loads(line) for line in text.splitlines()]
    if [r["alpha"] for r in records] != list(alphas):
        return [f"exponents {[r['alpha'] for r in records]}, expected {list(alphas)}"]
    route_tol = max(tol, 1e-7)
    problems = []
    for r in records:
        alpha = Fraction(r["alpha"])
        a, b = r["interval"]
        n = round(math.log2(a)) if a > 0 else 0
        if (a, b) != (2.0**n, 2.0 ** (n + 1)):
            problems.append(f"alpha {alpha}: interval {(a, b)} is not a sliding-k1 window")
            continue
        avg = complex(*r["tc_avg"])
        ref = complex(timechange_average(alpha, a, b))
        if not _close(avg, ref, tol):
            problems.append(f"alpha {alpha}: average {avg}, incomplete gamma {ref} (tol {tol:g})")
        w0 = float(time_change_w0(alpha, a, b))
        if not _close(r["w0"], w0, 1e-12 * max(1.0, abs(w0))):
            problems.append(f"alpha {alpha}: w0 {r['w0']!r}, expected {w0!r}")
        if not _close(r["kernel_mass"], 1.0 - w0, 1e-8):
            problems.append(f"alpha {alpha}: kernel mass {r['kernel_mass']!r}, expected {1.0 - w0!r}")
        mass_error = abs(r["w0"] + r["kernel_mass"] - 1.0)
        if not (r["mass_error"] <= 1e-8 and _close(r["mass_error"], mass_error, 1e-15)):
            problems.append(f"alpha {alpha}: mass error {r['mass_error']!r}")
        if not (r["route_gap"] <= 2 * route_tol and r["route_pass"]):
            problems.append(f"alpha {alpha}: route gap {r['route_gap']!r} over {2 * route_tol:g}")
        if not _close(r["tc_abs"], abs(avg), 1e-15) or r["limit_pass"] != (abs(avg) < pass_tol):
            problems.append(f"alpha {alpha}: |avg| {r['tc_abs']!r} / limit_pass {r['limit_pass']}")
        if not r["passed"]:
            problems.append(f"alpha {alpha}: reported failure")
    return problems


def check_vdc(text: str, p: Problem, T: float, H: float, quad_tol: float) -> list[str]:
    (r,) = [json.loads(line) for line in text.splitlines()]
    value: dict = {}
    err_bound: dict = {}
    for _, out, prod, cvec in p.tuples():
        value[out] = value.get(out, mp.mpc(0)) + prod * phase_average(cvec, 0.0, T)
        if any(cvec):
            err_bound[out] = err_bound.get(out, 0.0) + abs(prod) * quad_tol
    norm = math.sqrt(sum(abs(complex(v)) ** 2 for v in value.values()))
    delta = math.sqrt(sum(e * e for e in err_bound.values()))
    problems = []
    if not _close(r["lhs"], norm**2, delta * (2 * norm + delta) + 1e-15):
        problems.append(f"lhs {r['lhs']!r}, closed form {norm**2!r} (allowed {delta * (2 * norm + delta):.2e})")
    l1 = math.prod(sum(abs(c) for c in f.values()) for f in p.observables)
    slack = 8.0 * l1**2 * (H / T + 1.0 / H)
    if not _close(r["slack"], slack, 1e-12 * slack):
        problems.append(f"slack {r['slack']!r}, expected {slack!r}")
    if not 0.0 <= r["rhs_core"] <= l1**2 + 2e-3:
        problems.append(f"rhs_core {r['rhs_core']!r} outside [0, {l1**2:.3g}]")
    if not _close(r["margin"], r["rhs_core"] - r["lhs"], 1e-15):
        problems.append(f"margin {r['margin']!r} is not rhs_core - lhs")
    if r["passed"] != (r["lhs"] <= r["rhs_core"] + r["slack"]) or not r["passed"]:
        problems.append(f"verdict {r['passed']} for lhs {r['lhs']!r}")
    if (r["T"], r["H"]) != (T, H):
        problems.append(f"horizons {(r['T'], r['H'])}, expected {(T, H)}")
    return problems


def _parse_family(line: str):
    fields = line.split(" ", 3)
    h, dim, k = (int(f.split("=")[1]) for f in fields[:3])
    members = []
    if k:
        for m in fields[3].split(" ; "):
            members.append([tuple(Fraction(x) for x in v.split(",")) for v in m.split("|")])
    return h, dim, members


def _lead(member) -> int:
    return max((j + 1 for j, v in enumerate(member) if any(v)), default=0)


def _family_good(members) -> bool:
    if any(any(not any(v) for v in m[: _lead(m)]) or _lead(m) == 0 for m in members):
        return False
    return independent([v for m in members for v in m if any(v)])


def _precedes(a, b) -> bool:
    (ha, ma), (hb, mb) = a, b
    if ha != hb:
        return ha < hb
    da = sorted((Fraction(_lead(m), ha) for m in ma), reverse=True)
    db = sorted((Fraction(_lead(m), hb) for m in mb), reverse=True)
    if len(da) > len(db) or any(x > y for x, y in zip(da, db)):
        return False
    return len(da) < len(db) or any(x < y for x, y in zip(da, db))


def _family_line(h, dim, members) -> str:
    body = " ; ".join("|".join(",".join(f"{x.numerator}/{x.denominator}" for x in v) for v in m) for m in members)
    return f"h={h} D={dim} k={len(members)} {body}".rstrip()


def dag_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_dag(text: str, p: Problem, digest: str = DAG_DIGEST) -> list[str]:
    nodes, edges = [], []
    for line in text.splitlines():
        kind, rest = line.split(" ", 1)
        if kind == "node":
            idx, fam = rest.split(" ", 1)
            if int(idx) != len(nodes):
                return [f"node ids out of order at {idx}"]
            nodes.append(_parse_family(fam))
        elif kind == "edge":
            src, dst, step = rest.split(" ")[:3]
            edges.append((int(src), int(dst), step))
        else:
            return [f"unexpected line {line!r}"]
    problems = []
    h, dim, root = nodes[0]
    if (h, dim) != (p.height, p.dim) or sorted(root) != sorted(map(list, p.scaled_members())):
        problems.append("root node is not the input family")
    for i, (h, dim, members) in enumerate(nodes):
        if not members or not _family_good(members):
            problems.append(f"node {i} is not a good family")
    out_deg = [0] * len(nodes)
    for src, dst, step in edges:
        out_deg[src] += 1
        (hs, _, ms), (hd, _, md) = nodes[src], nodes[dst]
        if not _precedes((hd, md), (hs, ms)):
            problems.append(f"edge {src}->{dst} ({step}) does not descend")
        shape_ok = {
            "type1": hd == hs and len(md) == len(ms) - 1,
            "type2": hd == hs and len(md) in (len(ms), len(ms) - 1),
            "heightdrop": hd < hs and len(md) == len(ms),
        }.get(step, False)
        if not shape_ok:
            problems.append(f"edge {src}->{dst}: {step} with heights {hs}->{hd}, sizes {len(ms)}->{len(md)}")
    for i, (_, _, members) in enumerate(nodes):
        if (out_deg[i] == 0) != (len(members) <= 1):
            problems.append(f"node {i} with k={len(members)} has {out_deg[i]} successors")
    # undo the seeded scaling: the result must be today's DAG of the template
    unscaled = [
        "node %d %s" % (i, _family_line(h, dim, [[tuple(x / s for x, s in zip(v, p.scale)) for v in m] for m in ms]))
        for i, (h, dim, ms) in enumerate(nodes)
    ]
    edge_lines = [line for line in text.splitlines() if line.startswith("edge ")]
    if dag_digest("\n".join(unscaled + edge_lines) + "\n") != digest:
        problems.append("unscaled DAG differs from the golden digest")
    return problems[:20]


def check_characteristic(text: str, p: Problem) -> list[str]:
    (r,) = [json.loads(line) for line in text.splitlines()]
    basis = xi_lattice(p)
    witnesses, diff = [], {}
    for combo, out, prod, cvec in p.tuples():
        if not any(cvec) and not in_lattice(basis, combo[-1]):
            witnesses.append([list(chi) for chi in combo])
            diff[out] = diff.get(out, 0j) + prod
    dist = math.sqrt(sum(abs(c) ** 2 for c in diff.values()))
    problems = []
    if r["factor_rank"] != len(basis):
        problems.append(f"factor rank {r['factor_rank']}, expected {len(basis)}")
    if r["witnesses"] != witnesses:
        problems.append(f"{len(r['witnesses'])} witnesses, expected {len(witnesses)}")
    if not _close(r["l2_distance"], dist, 1e-12):
        problems.append(f"distance {r['l2_distance']!r}, expected {dist!r}")
    if r["verdict"] != ("AGREE" if dist <= 1e-12 else "DISAGREE"):
        problems.append(f"verdict {r['verdict']} at distance {dist!r}")
    return problems


def _moment(p: Problem, observables) -> complex:
    f0, rest = observables[0], observables[1:]
    total = 0j
    for _, out, prod, cvec in p.tuples(rest):
        c0 = f0.get(tuple(-x for x in out))
        if c0 is not None and not any(cvec):
            total += c0 * prod
    return total


def check_invariance(text: str, p: Problem, shift_times) -> list[str]:
    records = [json.loads(line) for line in text.splitlines()]
    want = [(j, t) for j in range(1, p.height + 1) for t in shift_times]
    got = [(r["j"], Fraction(r["t"])) for r in records]
    if got != want:
        return [f"shifts {got}, expected {want}"]
    base = _moment(p, p.observables)
    cols = p.columns()
    problems = []
    for r, (j, t) in zip(records, want):
        # move each f_i along t * v_{i,j}: coefficient chi picks up e(t chi . A v_{i,j})
        shifted_obs = [p.observables[0]] + [
            {chi: c * unit_phase(t * sum(x * w for x, w in zip(chi, col[j - 1]))) for chi, c in f.items()}
            for f, col in zip(p.observables[1:], cols)
        ]
        shifted = _moment(p, shifted_obs)
        scale = 1e-12 * (1 + abs(base))
        if not _close(complex(*r["moment"]), base, scale):
            problems.append(f"shift {(j, t)}: moment {r['moment']}, expected {base}")
        if not _close(complex(*r["shifted"]), shifted, scale):
            problems.append(f"shift {(j, t)}: shifted {r['shifted']}, expected {shifted}")
        if r["equal"] != (r["moment"] == r["shifted"]) or not r["equal"]:
            problems.append(f"shift {(j, t)}: equal flag {r['equal']}")
    return problems


def check(op, text: str) -> list[str]:
    """Dispatch one operation's output to its check."""
    params = op.params
    if op.command == "run-convergence":
        return check_convergence(text, op.problem, params["intervals"], params["n_max"])
    if op.command == "verify-timechange":
        return check_timechange(text, params["alphas"], params["tol"], params["pass_tol"])
    if op.command == "check-vdc":
        return check_vdc(text, op.problem, params["T"], params["H"], params["quad_tol"])
    if op.command == "enumerate-precedents":
        return check_dag(text, op.problem)
    if op.command == "check-characteristic":
        return check_characteristic(text, op.problem)
    if op.command == "check-invariance":
        return check_invariance(text, op.problem, params["shift_times"])
    raise ValueError(f"no check for {op.command}")

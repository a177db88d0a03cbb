"""Adaptive Gauss-panel quadrature for oscillatory interval averages.

The integrands of interest are bounded curves t -> exp(2*pi*i*theta(t)) whose
phase theta is a sum of positive rational powers of t.  Substituting t = u^L,
with L a common denominator of the exponents, turns the phase into an ordinary
polynomial in u, at the price of the smooth amplitude L*u^(L-1).  Panels are
then sized so each carries roughly a fixed number of oscillation cycles
(width bounded by the inverse local frequency), a fixed-order Gauss-Legendre
rule is applied per panel, and the difference between the 24-point and
15-point rules serves as a conservative per-panel error estimate (a 15-point
rule is essentially exact below 3 cycles per panel, a 24-point rule well
beyond 5, so the estimate brackets the truth).  Panels with the largest
estimates are bisected until the absolute tolerance or the evaluation budget
is reached.

Determinism: panel sums are reduced left to right over the sorted panel list,
so a run with fixed inputs is bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Mapping

import numpy as np
from numpy.polynomial import polynomial as npoly

DEFAULT_BUDGET = 10**7

_CYCLES_PER_PANEL = 3.5
_CHUNK = 1 << 16
_PIECE_CHUNK = 256  # PanelTable pieces per vectorized curve call
_MAX_ROUNDS = 64
_EVALS_PER_PANEL = 24 + 15
_EPS = float(np.finfo(float).eps)

_X24, _W24 = np.polynomial.legendre.leggauss(24)
_X15, _W15 = np.polynomial.legendre.leggauss(15)


class QuadratureBudgetError(RuntimeError):
    """Non-convergence within the evaluation budget.

    Carries the partial value and the achieved error estimate.
    """

    def __init__(self, message: str, value: complex, est_error: float, evals: int):
        super().__init__(f"{message} (achieved error estimate {est_error:.3e})")
        self.value = value
        self.est_error = est_error
        self.evals = evals


def _eval_panels(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    I = np.empty(len(a), dtype=complex)
    E = np.empty(len(a), dtype=float)
    for s in range(0, len(a), _CHUNK):
        aa, bb = a[s : s + _CHUNK], b[s : s + _CHUNK]
        mid = 0.5 * (aa + bb)
        half = 0.5 * (bb - aa)
        v24 = np.asarray(f((mid[:, None] + half[:, None] * _X24).ravel()), dtype=complex)
        i24 = (v24.reshape(len(aa), 24) @ _W24) * half
        v15 = np.asarray(f((mid[:, None] + half[:, None] * _X15).ravel()), dtype=complex)
        i15 = (v15.reshape(len(aa), 15) @ _W15) * half
        I[s : s + _CHUNK] = i24
        E[s : s + _CHUNK] = np.abs(i24 - i15)
    return I, E


def _initial_edges(lo: float, hi: float, freq, budget: int) -> np.ndarray:
    base = np.linspace(lo, hi, 17)
    if freq is None:
        return base
    probes = np.linspace(lo, hi, 513)
    with np.errstate(all="ignore"):
        rate = np.asarray(freq(probes), dtype=float)
    rate = np.nan_to_num(rate, nan=0.0, posinf=0.0, neginf=0.0)
    cell_rate = np.maximum(rate[:-1], rate[1:])
    cycles = cell_rate * np.diff(probes)
    total = float(cycles.sum())
    if total <= 0.0:
        return base
    # leave at least half the budget for error-driven refinement
    cap = max(16, budget // (2 * _EVALS_PER_PANEL))
    n_panels = int(min(total / _CYCLES_PER_PANEL + 16, cap))
    cum = np.concatenate(([0.0], np.cumsum(cycles)))
    targets = np.linspace(0.0, total, n_panels + 1)
    edges = np.interp(targets, cum, probes)
    edges[0], edges[-1] = lo, hi
    return np.union1d(edges, base)


def _adaptive_core(
    f, lo: float, hi: float, abs_tol: float, budget: int, freq
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Shared refinement loop; returns panels sorted left to right as
    (left edges, right edges, panel integrals, error estimate, evaluations)."""
    if not hi > lo:
        raise ValueError("empty integration interval")
    edges = _initial_edges(float(lo), float(hi), freq, budget)
    a, b = edges[:-1], edges[1:]
    if _EVALS_PER_PANEL * len(a) > budget:
        raise QuadratureBudgetError("budget too small for the initial panels", 0j, np.inf, 0)
    I, E = _eval_panels(f, a, b)
    evals = _EVALS_PER_PANEL * len(a)

    def _sorted(a, b, I):
        order = np.argsort(a, kind="stable")
        return a[order], b[order], I[order]

    def _partial(I, a):
        order = np.argsort(a, kind="stable")
        return complex(I[order].cumsum()[-1]) if len(I) else 0j

    prev_err = np.inf
    stalled = 0
    for _ in range(_MAX_ROUNDS):
        err = float(E.sum())
        if err <= abs_tol:
            a, b, I = _sorted(a, b, I)
            return a, b, I, err, evals
        # refinement that stops reducing the estimate has hit a noise floor
        stalled = stalled + 1 if err > 0.97 * prev_err else 0
        prev_err = err
        if stalled >= 5:
            raise QuadratureBudgetError(
                "error estimate stagnated above tolerance", _partial(I, a), err, evals
            )
        cut = abs_tol / (2 * len(a))
        mask = E > cut
        if not mask.any():
            mask[int(np.argmax(E))] = True
        cost = 2 * _EVALS_PER_PANEL * int(mask.sum())
        if evals + cost > budget:
            raise QuadratureBudgetError(
                "evaluation budget exhausted", _partial(I, a), err, evals
            )
        sa, sb = a[mask], b[mask]
        sm = 0.5 * (sa + sb)
        na = np.concatenate((a[~mask], sa, sm))
        nb = np.concatenate((b[~mask], sm, sb))
        nI, nE = _eval_panels(f, np.concatenate((sa, sm)), np.concatenate((sm, sb)))
        evals += cost
        I = np.concatenate((I[~mask], nI))
        E = np.concatenate((E[~mask], nE))
        a, b = na, nb
    err = float(E.sum())
    if err <= abs_tol:
        a, b, I = _sorted(a, b, I)
        return a, b, I, err, evals
    raise QuadratureBudgetError("panel refinement did not converge", _partial(I, a), err, evals)


def adaptive_integral(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float,
    budget: int = DEFAULT_BUDGET,
    freq: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[complex, float, int]:
    """Integral of a vectorized complex integrand with absolute tolerance.

    ``freq``, when given, estimates the local oscillation rate in cycles per
    unit and drives the initial panel layout.  Returns (value, error
    estimate, evaluations); raises :class:`QuadratureBudgetError` when the
    tolerance is unreachable within the budget.
    """
    _, _, I, err, evals = _adaptive_core(f, lo, hi, abs_tol, budget, freq)
    value = complex(I.cumsum()[-1]) if len(I) else 0j
    return value, err, evals


class PanelTable:
    """Panelized antiderivative of a curve over a fixed window.

    One adaptive pass stores the panel decomposition and its prefix sums;
    integrals from ``lo`` to any point then cost one prefix-sum lookup plus
    one 24-point Gauss piece from the left edge of the point's panel.  Built
    for the time-change decomposition, whose kernel weights a continuum of
    nested interval averages of the same curve.

    Array protocol: :meth:`integral_to` and :meth:`average` accept scalars
    or arrays.  A scalar query returns a Python ``complex``.  An array query
    returns a complex array of the broadcast shape, with one ``searchsorted``
    for the panels, one gather of the prefix sums, and the partial Gauss
    pieces evaluated ``_PIECE_CHUNK`` at a time in vectorized calls of the
    curve; its values are those of the scalar queries up to the rounding of
    the Gauss-weight reduction.
    """

    def __init__(self, f, lo: float, hi: float, tol: float,
                 budget: int = DEFAULT_BUDGET, freq=None):
        a, b, I, err, _ = _adaptive_core(f, float(lo), float(hi), tol * (hi - lo), budget, freq)
        self._f = f
        self.lo, self.hi = float(lo), float(hi)
        self._edges = np.append(a, b[-1])
        self._prefix = np.concatenate(([0j], I.cumsum()))
        self.est_error = err

    def _gauss_pieces(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """24-point Gauss integrals over (a, b) elementwise; 0 where b <= a
        (a NaN endpoint propagates)."""
        out = np.zeros(len(a), dtype=complex)
        todo = np.flatnonzero(~(b <= a))
        for s in range(0, len(todo), _PIECE_CHUNK):
            i = todo[s : s + _PIECE_CHUNK]
            mid, half = 0.5 * (a[i] + b[i]), 0.5 * (b[i] - a[i])
            v = np.asarray(self._f((mid[:, None] + half[:, None] * _X24).ravel()), dtype=complex)
            out[i] = (v.reshape(len(i), 24) @ _W24) * half
        return out

    def integral_to(self, t):
        """Integral of the curve from ``lo`` to ``t``, clamped to the window."""
        t = np.asarray(t, dtype=float)
        x = np.clip(t.ravel(), self.lo, self.hi)
        k = np.searchsorted(self._edges, x, side="right") - 1
        np.clip(k, 0, len(self._edges) - 2, out=k)
        value = self._prefix[k] + self._gauss_pieces(self._edges[k], x)
        return complex(value[0]) if t.ndim == 0 else value.reshape(t.shape)

    def average(self, lo, hi):
        """Average of the curve over (lo, hi); raises if any window is empty."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if not np.all(hi > lo):
            raise ValueError("empty averaging window")
        diff, width = np.broadcast_arrays(self.integral_to(hi) - self.integral_to(lo), hi - lo)
        # divide the parts by the real width, as Python's complex / float does
        # (numpy's complex division multiplies by a reciprocal)
        out = np.empty(diff.shape, dtype=complex)
        out.real, out.imag = diff.real / width, diff.imag / width
        return complex(out) if out.ndim == 0 else out


def adaptive_average(
    curve,
    lo: float,
    hi: float,
    tol: float,
    budget: int = DEFAULT_BUDGET,
) -> tuple[complex, float, int]:
    """Average of a bounded vectorized curve over (lo, hi).

    ``tol`` is absolute on the average.  A ``local_freq`` attribute on the
    curve, when present, seeds the oscillation-aware panel layout.
    """
    freq = getattr(curve, "local_freq", None)
    width = float(hi) - float(lo)
    value, err, evals = adaptive_integral(curve, lo, hi, tol * width, budget, freq)
    return value / width, err / width, evals


def osc_phase_average(
    coeffs: Mapping[Fraction | int, float],
    lo: float,
    hi: float,
    tol: float,
    budget: int = DEFAULT_BUDGET,
) -> tuple[complex, float, int]:
    """Average of exp(2*pi*i * sum_e c_e t^e) over (lo, hi).

    Exponents are positive rationals; the substitution t = u^L (L the common
    denominator) makes the phase polynomial before panel integration.  An
    identically zero phase short-circuits to 1 exactly.  Float phases carry a
    rounding error of about eps * sum_e |c_e| hi^e cycles, which moves the
    average by up to 2*pi times that; when this bound exceeds ``tol`` the
    window is too far out to resolve, and :class:`QuadratureBudgetError` is
    raised before integrating, with the bound as its error estimate.
    """
    cleaned: dict[Fraction, float] = {}
    for e, c in coeffs.items():
        ef = Fraction(e)
        if ef <= 0:
            raise ValueError("phase exponents must be positive")
        c = float(c)
        if c != 0.0:
            cleaned[ef] = cleaned.get(ef, 0.0) + c
    if not any(cleaned.values()):
        return 1.0 + 0j, 0.0, 0
    if not float(lo) >= 0.0:
        raise ValueError("fractional phases need a nonnegative interval")
    phase_noise = 2 * np.pi * _EPS * sum(abs(c) * float(hi) ** float(e) for e, c in cleaned.items())
    if phase_noise > tol:
        raise QuadratureBudgetError(
            "float phase rounding exceeds the tolerance on this window", 0j, phase_noise, 0
        )
    L = lcm(*(e.denominator for e in cleaned))
    deg = max(int(e * L) for e in cleaned)
    c_asc = np.zeros(deg + 1)
    for e, c in cleaned.items():
        c_asc[int(e * L)] += c
    d_asc = npoly.polyder(c_asc)

    def integrand(u):
        return (L * u ** (L - 1)) * np.exp(2j * np.pi * npoly.polyval(u, c_asc))

    def freq(u):
        return np.abs(npoly.polyval(u, d_asc))

    ulo, uhi = float(lo) ** (1.0 / L), float(hi) ** (1.0 / L)
    width = float(hi) - float(lo)
    value, err, evals = adaptive_integral(integrand, ulo, uhi, tol * width, budget, freq)
    return value / width, err / width, evals


class ExpPhaseCurve:
    """The unimodular curve t -> exp(2*pi*i * sum_e c_e t^e), e > 0 rational.

    Exposes the exact local frequency |theta'(t)| so adaptive averaging can
    size panels, and the exponent table so interval averages can run through
    :func:`osc_phase_average`.
    """

    def __init__(self, coeffs: Mapping[Fraction | int, float]):
        table: dict[Fraction, float] = {}
        for e, c in dict(coeffs).items():
            ef = Fraction(e)
            if ef <= 0:
                raise ValueError("phase exponents must be positive")
            c = float(c)
            if c != 0.0:
                table[ef] = table.get(ef, 0.0) + c
        self.coeffs = table

    def phase(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for e, c in self.coeffs.items():
            out = out + c * t ** float(e)
        return out

    def __call__(self, t):
        return np.exp(2j * np.pi * self.phase(t))

    def local_freq(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            out = np.zeros_like(t)
            for e, c in self.coeffs.items():
                out = out + c * float(e) * t ** (float(e) - 1.0)
        return np.abs(out)

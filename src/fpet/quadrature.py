"""Adaptive Gauss-panel quadrature for oscillatory interval averages.

Every oscillatory integrand is a :class:`Phase`: t -> exp(2*pi*i*theta(t)),
theta a sum of exact positive rational powers of t (and of t + h in van der
Corput correlations).  Substituting t = u^L, with L a common denominator of
the exponents, turns the unshifted terms into a polynomial in u, at the price
of the smooth amplitude L*u^(L-1).  :meth:`Phase.substitute` is the only
evaluator of a phase, and it refuses windows so far out that float rounding
of the phase alone exceeds the tolerance; :meth:`Phase.average` is the route
from an unshifted phase to its average over a window.  The initial panels are
laid out from the phase itself: the cycles in each of 512 probe cells are the
variation |theta(p_(i+1)) - theta(p_i)| of the phase across it, and the edges
split the cumulative count so each panel carries roughly a fixed number of
cycles (17 uniform edges when no phase is given or its variation is not finite
and positive).  A fixed-order Gauss-Legendre rule is applied per panel, and
the difference between the 24-point and 15-point rules serves as a
conservative per-panel error estimate (a 15-point rule is essentially exact
below 3 cycles per panel, a 24-point rule well beyond 5, so the estimate
brackets the truth).  Panels with the largest estimates are bisected
until the absolute tolerance or the evaluation budget is reached.
"""

from __future__ import annotations

import copy
import numbers
from fractions import Fraction
from math import isfinite, lcm
from typing import Callable, Mapping

import numpy as np
from numpy.polynomial import polynomial as npoly

DEFAULT_BUDGET = 10**7

_CYCLES_PER_PANEL = 3.5
_CHUNK_POINTS = 1 << 13  # integrand points per vectorized call
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


def _gauss(f, a: np.ndarray, b: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Gauss rule (nodes ``x``, weights ``w`` on [-1, 1]) on each panel
    (a_k, b_k), calling ``f`` on at most ``_CHUNK_POINTS`` points at a time.
    The weight reduction is an einsum loop, which hands no work to a BLAS
    thread."""
    out = np.empty(len(a), dtype=complex)
    step = max(1, _CHUNK_POINTS // len(x))
    for s in range(0, len(a), step):
        aa, bb = a[s : s + step], b[s : s + step]
        mid, half = 0.5 * (aa + bb), 0.5 * (bb - aa)
        v = np.asarray(f((mid[:, None] + half[:, None] * x).ravel()), dtype=complex)
        out[s : s + step] = np.einsum("ij,j->i", v.reshape(len(aa), len(x)), w) * half
    return out


def _eval_panels(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """24-point Gauss integrals over the panels and their distance to the
    15-point ones, the per-panel error estimate."""
    i24 = _gauss(f, a, b, _X24, _W24)
    return i24, np.abs(i24 - _gauss(f, a, b, _X15, _W15))


def _probe_cycles(lo: float, hi: float, phase) -> tuple[np.ndarray, np.ndarray]:
    """513 probes across (lo, hi) and the cycles of ``phase`` in each probe
    cell: its variation |theta(p_(i+1)) - theta(p_i)| across the cell."""
    probes = np.linspace(lo, hi, 513)
    return probes, np.abs(np.diff(phase(probes)))


def _initial_edges(lo: float, hi: float, phase, budget: int) -> np.ndarray:
    base = np.linspace(lo, hi, 17)
    if phase is None:
        return base
    probes, cycles = _probe_cycles(lo, hi, phase)
    total = float(cycles.sum())
    if not (isfinite(total) and total > 0.0):
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
    f, lo: float, hi: float, abs_tol: float, budget: int, phase
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Shared refinement loop; returns panels sorted left to right as
    (left edges, right edges, panel integrals, error estimate, evaluations)."""
    if not (isfinite(lo) and lo < hi and isfinite(hi)):
        raise ValueError("need a finite, nonempty integration interval")
    if not (isfinite(abs_tol) and abs_tol > 0):
        raise ValueError("tolerance must be finite and positive")
    edges = _initial_edges(float(lo), float(hi), phase, budget)
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
    phase: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[complex, float, int]:
    """Integral of a vectorized complex integrand with absolute tolerance.

    ``phase``, when given, is the integrand's phase in cycles; its variation
    lays out the initial panels.  Returns (value, error estimate,
    evaluations); raises :class:`QuadratureBudgetError` when the tolerance
    is unreachable within the budget.
    """
    _, _, I, err, evals = _adaptive_core(f, lo, hi, abs_tol, budget, phase)
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
    pieces in vectorized calls of the curve of at most ``_CHUNK_POINTS``
    points each (:func:`_gauss`, as for the panels themselves); its values
    are those of the scalar queries.
    """

    def __init__(self, f, lo: float, hi: float, tol: float,
                 budget: int = DEFAULT_BUDGET, phase=None):
        a, b, I, err, _ = _adaptive_core(f, float(lo), float(hi), tol * (hi - lo), budget, phase)
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
        out[todo] = _gauss(self._f, a[todo], b[todo], _X24, _W24)
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


def _exponent(e, what: str = "phase exponents") -> Fraction:
    # a float such as 0.2 would bring a denominator near 2^54
    if not isinstance(e, numbers.Rational):
        raise ValueError(f"{what} must be exact (int or Fraction), got {e!r}")
    if e <= 0:
        raise ValueError(f"{what} must be positive")
    return Fraction(e)


def _terms(coeffs: Mapping) -> dict[Fraction, float]:
    table = {_exponent(e): float(c) for e, c in coeffs.items()}
    if not all(map(isfinite, table.values())):
        raise ValueError("phase coefficients must be finite")
    return {e: c for e, c in table.items() if c != 0.0}


class Phase:
    """The phase theta(t) = sum_e c_e t^e + sum_e s_e (t + h)^e of the curve
    t -> exp(2*pi*i*theta(t)), exponents exact positive rationals (int or
    Fraction, else ValueError), finite float coefficients (zeros dropped, a
    non-finite one is a ValueError).  A van der Corput correlation
    theta_1(t + h) - theta_2(t) puts theta_1 in the shifted block and is moved
    to each shift h by :meth:`at`.  The curve is evaluated only through
    :meth:`substitute`."""

    def __init__(self, coeffs: Mapping = {}, shifted: Mapping = {}):
        self.coeffs, self.shifted, self.h = _terms(coeffs), _terms(shifted), 0.0
        self.L = lcm(*(e.denominator for e in (*self.coeffs, *self.shifted)))
        # the unshifted terms as a polynomial in u = t^(1/L), ascending
        self._asc = np.zeros(max((int(e * self.L) for e in self.coeffs), default=0) + 1)
        for e, c in self.coeffs.items():
            self._asc[int(e * self.L)] = c
        # the shifted terms with float exponents
        self._moved = [(float(e), s) for e, s in self.shifted.items()]

    def at(self, h: float) -> "Phase":
        """The same phase at shift h; the term tables are shared."""
        moved = copy.copy(self)
        moved.h = float(h)
        return moved

    def power(self, alpha) -> "Phase":
        """The exact time change theta(t^alpha): every exponent times alpha."""
        alpha = _exponent(alpha, "time-change exponents")
        if self.shifted:
            raise ValueError("a shifted phase has no exact time change")
        return Phase({e * alpha: c for e, c in self.coeffs.items()})

    def substitute(self, hi: float, tol: float):
        """t = u^L, L the exponents' common denominator: L, the integrand
        L*u^(L-1)*exp(2*pi*i*theta(u^L)) and the phase u -> theta(u^L) in
        cycles; the unshifted terms are one polynomial in u (Horner's rule).

        Float phases carry a rounding error of about
        eps * (sum_e |c_e| hi^e + sum_e |s_e| (hi + h)^e) cycles on t <= hi,
        which moves any average over such t by up to 2*pi times that; when
        this bound exceeds ``tol`` the window is too far out to resolve, and
        :class:`QuadratureBudgetError` is raised with the bound as its error
        estimate and no evaluations.  A ``tol`` that is not finite and
        positive, or an infinite ``hi``, is a ValueError.
        """
        if not (isfinite(tol) and tol > 0):
            raise ValueError("tolerance must be finite and positive")
        hi = float(hi)
        if not isfinite(hi):
            raise ValueError("the window must be finite")
        noise = 2 * np.pi * _EPS * (
            sum(abs(c) * hi ** float(e) for e, c in self.coeffs.items())
            + sum(abs(s) * (hi + self.h) ** e for e, s in self._moved)
        )
        if noise > tol:
            raise QuadratureBudgetError(
                "float phase rounding exceeds the tolerance on this window", 0j, noise, 0
            )
        return self.L, self._u_integrand, self._u_theta

    def average(
        self, lo: float, hi: float, tol: float, budget: int = DEFAULT_BUDGET
    ) -> tuple[complex, float, int]:
        """Average of the curve over (lo, hi) with absolute tolerance ``tol``,
        integrated in u after :meth:`substitute`: (value, error estimate,
        evaluations).  An identically zero phase short-circuits to 1 exactly,
        once ``tol`` and the window have passed the same checks as any other."""
        lo, hi = float(lo), float(hi)
        if not 0.0 <= lo < hi:
            raise ValueError("fractional phases need a nonempty, nonnegative interval")
        L, integrand, theta = self.substitute(hi, tol)
        if not (self.coeffs or self.shifted):
            return 1.0 + 0j, 0.0, 0
        width = hi - lo
        value, err, evals = adaptive_integral(
            integrand, lo ** (1.0 / L), hi ** (1.0 / L), tol * width, budget, theta
        )
        return value / width, err / width, evals

    def _u_integrand(self, u):
        # theta(u^L) stays a temporary, freed as soon as it is used
        curve = np.exp(2j * np.pi * self._u_theta(u))
        L = self.L
        return curve if L == 1 else (L * u ** (L - 1)) * curve

    def _u_theta(self, u):
        theta = npoly.polyval(u, self._asc)
        if self._moved:
            x = u**self.L + self.h
            for e, s in self._moved:
                theta = theta + s * x**e
        return theta


def osc_phase_average(
    coeffs: Mapping[Fraction | int, float],
    lo: float,
    hi: float,
    tol: float,
    budget: int = DEFAULT_BUDGET,
) -> tuple[complex, float, int]:
    """Average of exp(2*pi*i * sum_e c_e t^e) over (lo, hi): the
    :meth:`Phase.average` of the term table ``coeffs``."""
    return Phase(coeffs).average(lo, hi, tol, budget)

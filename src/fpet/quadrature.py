"""Phase averages: Fresnel closed forms and adaptive Gauss panels.

Every oscillatory integrand is a :class:`Phase`: t -> exp(2*pi*i*theta(t)),
theta a sum of exact positive rational powers of t (and of t + h in van der
Corput correlations).  Substituting t = u^L, with L a common denominator of
the exponents, turns the unshifted terms into a polynomial in u, at the price
of the smooth amplitude L*u^(L-1).  :meth:`Phase.substitute` guards every
window: it refuses windows so far out that float rounding of the phase alone
exceeds the tolerance.  :meth:`Phase.average` is the route from an unshifted
phase to its average over a window, and it picks one of two methods.

* Closed form.  With no shifted block, L <= 2 and degree at most 2 in u
  (exponents within {1/2, 1} or within {1, 2}), the integral of
  A(u)*exp(2*pi*i*(a*u + b*u^2)), A = 1 or 2u, is elementary when b = 0 and
  otherwise a boundary term plus a Fresnel (erf) integral.  The erf is taken
  as erfc(z) = exp(-z^2)*w(iz), with the Faddeeva function w from Weideman's
  32-term rational approximation (SIAM J. Numer. Anal. 31, 1994); the window
  is split at the stationary point u = -a/(2b), so every w lies on the ray
  arg z = pi/4 and no two erf values of similar size are subtracted.  The
  result carries a derived error bound and no evaluations.
* Adaptive panels, for every other phase and whenever the closed form's
  bound exceeds the tolerance (b tiny against a, or a tiny with b = 0, where
  its terms cancel).  The initial panels are laid out from the phase itself:
  the cycles in each of 512 probe cells are the variation
  |theta(p_(i+1)) - theta(p_i)| of the phase across it, and the edges split
  the cumulative count so each panel carries roughly a fixed number of
  cycles (17 uniform edges when no phase is given or its variation is not
  finite and positive).  A fixed-order Gauss-Legendre rule is applied per
  panel, and the difference between the 24-point and 15-point rules serves
  as the per-panel error estimate.  It is an estimate, not a proven bound:
  it mostly measures the 15-point rule's own error (a 15-point rule is
  essentially exact below 3 cycles per panel, a 24-point rule well beyond
  5), and nothing shows that it brackets the true error of the 24-point
  value.  Panels with the largest estimates are bisected until the absolute
  tolerance or the evaluation budget is reached.

The adaptive panels have a batch axis.  A phase moved to a vector of N
shifts by :meth:`Phase.at` returns N rows, and one adaptive pass integrates
them all on one window: the rows share one layout, from the largest
variation over the rows in each probe cell, and one refinement mask, which
bisects a panel where some row that has not converged still has an estimate
above its cut.  Each row meets the tolerance on its own summed estimate,
within its own evaluation budget, and the batch reports the largest row
error.  A single integrand is a batch with no row axis and runs the same
code.
"""
from __future__ import annotations

import cmath
import copy
import numbers
from fractions import Fraction
from math import isfinite, lcm, pi, prod, sqrt
from typing import Callable, Mapping

import numpy as np
from numpy.polynomial import polynomial as npoly

DEFAULT_BUDGET = 10**7

_CYCLES_PER_PANEL = 3.5
_CHUNK_POINTS = 1 << 13  # integrand points per vectorized call
_MAX_ROUNDS = 64
_PROBES = 513  # layout probes per row
_BATCH_ROWS = _CHUNK_POINTS // _PROBES  # rows whose layout probes fill one chunk
_EVALS_PER_PANEL = 24 + 15
_EPS = float(np.finfo(float).eps)

_X24, _W24 = np.polynomial.legendre.leggauss(24)
_X15, _W15 = np.polynomial.legendre.leggauss(15)


# Weideman's rational approximation of the Faddeeva function w with N = 32
# terms (SIAM J. Numer. Anal. 31, 1994): w(z) = 2 p(Z)/(L - iz)^2 +
# 1/(sqrt(pi) (L - iz)), Z = (L + iz)/(L - iz), L = sqrt(N/sqrt(2)).  The
# coefficients of p, highest degree first, are the cosine transform
# (1/4N) sum_|k|<2N f_k cos(j k pi/2N), j = N..1, of f = exp(-t^2)(L^2 + t^2)
# at t_k = L tan(k pi/4N); the tests recompute them.
_W_SCALE = 4.756828460010884
_W_COEF = (
    -1.3034885548441693e-12, 3.7408268384242064e-12, 8.030465932676146e-12,
    -2.154348875603919e-11, -5.5442427144316124e-11, 1.1658250033151165e-10,
    4.153745280117561e-10, -5.231019761194638e-10, -3.2080153550387087e-09,
    8.124891243090202e-10, 2.3797556915947108e-08, 2.2930439048292067e-08,
    -1.4813078906099092e-07, -4.184076369645526e-07, 4.2558331374156795e-07,
    4.401531731373141e-06, 6.821031944028696e-06, -2.1409619201695104e-05,
    -0.00013075449254618186, -0.0002453298027001782, 0.000392591360700679,
    0.004519541105349353, 0.019006155784845494, 0.05730440352983712,
    0.1406071622689377, 0.2954445107150872, 0.5460139720639342,
    0.9019254893647999, 1.3455441692345451, 1.8256696296324813,
    2.2635372999002676, 2.5722534081245696,
)
# relative accuracy of _faddeeva on the ray arg z = pi/4, the only one the
# closed form uses: 5.7e-14 against 30-digit mpmath, with margin
_W_REL = 1e-13
_E8 = cmath.exp(0.25j * pi)  # exp(i*pi/4)


def _faddeeva(z: complex) -> complex:
    """w(z) = exp(-z^2)*erfc(-iz) for Im z >= 0, by Weideman's approximation."""
    d = _W_SCALE - 1j * z
    big_z = (_W_SCALE + 1j * z) / d
    p = 0j
    for c in _W_COEF:
        p = p * big_z + c
    return (2 * p / d + 1 / sqrt(pi)) / d


class QuadratureBudgetError(RuntimeError):
    """Non-convergence within the evaluation budget.

    Carries the partial value (an array over a batch) and the achieved error
    estimate (the largest row error of a batch).
    """

    def __init__(self, message: str, value: complex, est_error: float, evals: int):
        super().__init__(f"{message} (achieved error estimate {est_error:.3e})")
        self.value = value
        self.est_error = est_error
        self.evals = evals


def _gauss(
    f, a: np.ndarray, b: np.ndarray, x: np.ndarray, w: np.ndarray, batch: tuple = ()
) -> np.ndarray:
    """The Gauss rule (nodes ``x``, weights ``w`` on [-1, 1]) on each panel
    (a_k, b_k), of shape ``batch + (len(a),)``.  ``f`` gets the nodes of a
    run of panels as one vector, or for a batch of N rows as a broadcast
    (N, m) view of it, and returns values of the same shape; each call
    holds at most ``_CHUNK_POINTS`` points in all.  The weight reduction is
    an einsum loop, which hands no work to a BLAS thread."""
    out = np.empty(batch + (len(a),), dtype=complex)
    step = max(1, _CHUNK_POINTS // (len(x) * prod(batch)))
    for s in range(0, len(a), step):
        aa, bb = a[s : s + step], b[s : s + step]
        mid, half = 0.5 * (aa + bb), 0.5 * (bb - aa)
        nodes = (mid[:, None] + half[:, None] * x).ravel()
        v = f(np.broadcast_to(nodes, batch + nodes.shape) if batch else nodes)
        v = np.asarray(v, dtype=complex).reshape(batch + (len(aa), len(x)))
        out[..., s : s + step] = np.einsum("...ij,j->...i", v, w) * half
    return out


def _eval_panels(f, a: np.ndarray, b: np.ndarray, batch: tuple) -> tuple[np.ndarray, np.ndarray]:
    """24-point Gauss integrals over the panels and their distance to the
    15-point ones, the per-panel error estimate, per row of the batch."""
    i24 = _gauss(f, a, b, _X24, _W24, batch)
    return i24, np.abs(i24 - _gauss(f, a, b, _X15, _W15, batch))


def _probe_cycles(lo: float, hi: float, phase) -> tuple[np.ndarray, np.ndarray]:
    """513 probes across (lo, hi) and the cycles of ``phase`` in each probe
    cell: its variation |theta(p_(i+1)) - theta(p_i)| across the cell, one
    row per row of a batched phase."""
    probes = np.linspace(lo, hi, _PROBES)
    return probes, np.abs(np.diff(phase(probes)))


def _initial_edges(lo: float, hi: float, phase, budget: int) -> tuple[np.ndarray, tuple]:
    """The initial panel edges and the batch shape: () for one integrand,
    (N,) for a phase that returns N rows.  A batch shares one layout, laid
    out from the largest variation over its rows in each probe cell."""
    base = np.linspace(lo, hi, 17)
    if phase is None:
        return base, ()
    probes, cycles = _probe_cycles(lo, hi, phase)
    batch = cycles.shape[:-1]
    if batch:
        cycles = cycles.max(axis=0)
    total = float(cycles.sum())
    if not (isfinite(total) and total > 0.0):
        return base, batch
    # leave at least half the budget for error-driven refinement
    cap = max(16, budget // (2 * _EVALS_PER_PANEL))
    n_panels = int(min(total / _CYCLES_PER_PANEL + 16, cap))
    cum = np.concatenate(([0.0], np.cumsum(cycles)))
    targets = np.linspace(0.0, total, n_panels + 1)
    edges = np.interp(targets, cum, probes)
    edges[0], edges[-1] = lo, hi
    return np.union1d(edges, base), batch


def _row_sums(I: np.ndarray):
    """Panel integrals summed left to right along the last axis: a complex
    for one row, else an array over the batch."""
    total = I.cumsum(axis=-1)[..., -1]
    return complex(total) if total.ndim == 0 else total


def _adaptive_core(
    f, lo: float, hi: float, abs_tol: float, budget: int, phase
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Shared refinement loop over one batch of integrands on one window.

    Returns panels sorted left to right as (left edges, right edges, panel
    integrals of shape batch + (panels,), largest row error estimate,
    evaluations per row).  The rows share their panels: a round bisects
    each panel where some row that has not converged has an estimate above
    the cut, and a row has converged when its own summed estimate is at
    most ``abs_tol``.  ``budget`` and the stall rule apply to each row, as
    for a single integrand."""
    if not (isfinite(lo) and lo < hi and isfinite(hi)):
        raise ValueError("need a finite, nonempty integration interval")
    if not (isfinite(abs_tol) and abs_tol > 0):
        raise ValueError("tolerance must be finite and positive")
    edges, batch = _initial_edges(float(lo), float(hi), phase, budget)
    a, b = edges[:-1], edges[1:]
    if _EVALS_PER_PANEL * len(a) > budget:
        zero = np.zeros(batch, dtype=complex) if batch else 0j
        raise QuadratureBudgetError("budget too small for the initial panels", zero, np.inf, 0)
    # rows on the first axis, one row when unbatched
    I, E = (x.reshape(-1, len(a)) for x in _eval_panels(f, a, b, batch))
    evals = _EVALS_PER_PANEL * len(a)

    prev_err = np.full(len(I), np.inf)
    stalled = np.zeros(len(I), dtype=int)
    failure = "panel refinement did not converge"
    for _ in range(_MAX_ROUNDS):
        errs = E.sum(axis=1)
        open_rows = errs > abs_tol
        if not open_rows.any():
            break
        # refinement that stops reducing a row's estimate has hit a noise floor
        stalled = np.where(open_rows & (errs > 0.97 * prev_err), stalled + 1, 0)
        prev_err = errs
        if stalled.max() >= 5:
            failure = "error estimate stagnated above tolerance"
            break
        cut = abs_tol / (2 * len(a))
        worst = E[open_rows].max(axis=0)
        mask = worst > cut
        if not mask.any():
            mask[int(np.argmax(worst))] = True
        cost = 2 * _EVALS_PER_PANEL * int(mask.sum())
        if evals + cost > budget:
            failure = "evaluation budget exhausted"
            break
        sa, sb = a[mask], b[mask]
        sm = 0.5 * (sa + sb)
        na = np.concatenate((a[~mask], sa, sm))
        nb = np.concatenate((b[~mask], sm, sb))
        nI, nE = _eval_panels(f, np.concatenate((sa, sm)), np.concatenate((sm, sb)), batch)
        evals += cost
        I = np.concatenate((I[:, ~mask], nI.reshape(len(I), -1)), axis=1)
        E = np.concatenate((E[:, ~mask], nE.reshape(len(E), -1)), axis=1)
        a, b = na, nb
    else:
        errs = E.sum(axis=1)
    err = float(errs.max())
    order = np.argsort(a, kind="stable")
    a, b, I = a[order], b[order], I[:, order].reshape(batch + (len(a),))
    if err <= abs_tol:
        return a, b, I, err, evals
    # a failure carries the partial value, summed left to right
    raise QuadratureBudgetError(failure, _row_sums(I), err, evals)


def adaptive_integral(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float,
    budget: int = DEFAULT_BUDGET,
    phase: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[complex | np.ndarray, float, int]:
    """Integral of a vectorized complex integrand with absolute tolerance.

    ``phase``, when given, is the integrand's phase in cycles; its variation
    lays out the initial panels.  Returns (value, error estimate,
    evaluations); raises :class:`QuadratureBudgetError` when the tolerance
    is unreachable within the budget.

    A phase that maps the m probes to an (N, m) array makes a batch: N
    integrands on one window, which ``f`` evaluates at once, mapping an
    (N, m) array of nodes (a broadcast view of one node vector) to their N
    rows of values.  The rows share their panels and are refined in one
    pass per round; each row meets ``abs_tol`` on its own, within its own
    ``budget`` of evaluations.  The value is then an array of the N
    integrals, the error the largest row error, and the evaluations are
    counted per row.
    """
    _, _, I, err, evals = _adaptive_core(f, lo, hi, abs_tol, budget, phase)
    return _row_sums(I), err, evals


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
    to each shift h by :meth:`at`.  Adaptive panels evaluate the curve only
    through the u-integrand of :meth:`substitute`, after its window guard;
    the closed form of :meth:`average` evaluates theta only at the window's
    endpoints and its stationary point."""

    def __init__(self, coeffs: Mapping = {}, shifted: Mapping = {}):
        self.coeffs, self.shifted, self.h = _terms(coeffs), _terms(shifted), 0.0
        self.L = lcm(*(e.denominator for e in (*self.coeffs, *self.shifted)))
        # the unshifted terms as a polynomial in u = t^(1/L), ascending
        self._asc = np.zeros(max((int(e * self.L) for e in self.coeffs), default=0) + 1)
        for e, c in self.coeffs.items():
            self._asc[int(e * self.L)] = c
        # the shifted terms with float exponents
        self._moved = [(float(e), s) for e, s in self.shifted.items()]

    def at(self, h) -> "Phase":
        """The same phase at shift h; the term tables are shared.  A vector
        of N shifts gives one phase for all of them: its phase and
        u-integrand then return one row per shift, shape (N, m)."""
        moved = copy.copy(self)
        h = np.asarray(h, dtype=float)
        # a batch of shifts runs down the rows
        moved.h = float(h) if h.ndim == 0 else h[:, None]
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
        h the shift (the largest of a batch), which moves any average over
        such t by up to 2*pi times that; when this bound exceeds ``tol`` the
        window is too far out to resolve, and
        :class:`QuadratureBudgetError` is raised with the bound as its error
        estimate and no evaluations.  A ``tol`` that is not finite and
        positive, or an infinite ``hi``, is a ValueError.
        """
        self._noise(hi, tol)
        return self.L, self._u_integrand, self._u_theta

    def _noise(self, hi: float, tol: float) -> float:
        """The rounding bound of :meth:`substitute`, after its checks."""
        if not (isfinite(tol) and tol > 0):
            raise ValueError("tolerance must be finite and positive")
        hi = float(hi)
        if not isfinite(hi):
            raise ValueError("the window must be finite")
        h = self.h if isinstance(self.h, float) else float(self.h.max())  # largest of a batch
        noise = 2 * np.pi * _EPS * (
            sum(abs(c) * hi ** float(e) for e, c in self.coeffs.items())
            + sum(abs(s) * (hi + h) ** e for e, s in self._moved)
        )
        if noise > tol:
            raise QuadratureBudgetError(
                "float phase rounding exceeds the tolerance on this window", 0j, noise, 0
            )
        return noise

    def average(
        self, lo: float, hi: float, tol: float, budget: int = DEFAULT_BUDGET
    ) -> tuple[complex, float, int]:
        """Average of the curve over (lo, hi) with absolute tolerance ``tol``:
        (value, error, evaluations).  Both methods run after one pass of the
        window guard of :meth:`substitute`.

        With no shifted block, L <= 2 and degree at most 2 in u, the value is
        the Fresnel closed form, the error a derived bound and the
        evaluations 0.  The bound adds three terms: the guard's rounding
        bound; the rounding of the terms the closed form combines, which is
        (2 * that bound + 32 eps) times their summed magnitude over the
        window's width, plus the rounding of the distances to the stationary
        point; and w's relative accuracy times the magnitude of its terms.
        Every other phase, and a closed form whose bound exceeds ``tol``, is
        integrated in u by adaptive panels, and the error is their
        estimate.  An identically zero phase short-circuits to 1
        exactly, once ``tol`` and the window have passed the same checks as
        any other."""
        lo, hi = float(lo), float(hi)
        if not 0.0 <= lo < hi:
            raise ValueError("fractional phases need a nonempty, nonnegative interval")
        noise = self._noise(hi, tol)
        if not (self.coeffs or self.shifted):
            return 1.0 + 0j, 0.0, 0
        if not self.shifted and self.L <= 2 and len(self._asc) <= 3:
            value, err = self._fresnel(lo, hi, noise)
            if err <= tol:
                return value, err, 0
        width, L = hi - lo, self.L
        value, err, evals = adaptive_integral(
            self._u_integrand, lo ** (1.0 / L), hi ** (1.0 / L), tol * width, budget, self._u_theta
        )
        return value / width, err / width, evals

    def _fresnel(self, lo: float, hi: float, noise: float) -> tuple[complex, float]:
        """The closed-form average of exp(2*pi*i*(a*u + b*u^2)) * A(u) over
        u^L in (lo, hi), A = 1 (L = 1) or 2u (L = 2), and its error bound.

        With b < 0 the conjugate phase is averaged and the value conjugated.
        With b = 0 the antiderivative is elementary.  Otherwise 2u*e(theta) =
        e(theta)'/(2*pi*i*b) - (a/b)*e(theta) gives a boundary term, and the
        Fresnel integral of e(theta) is
        e(theta*) * integral of exp(i*beta*s^2) over s = u - u*, with
        beta = 2*pi*b and theta* the phase at the stationary point
        u* = -a/(2b).  Each endpoint contributes its tail
        integral from |s| to infinity, which is
        sqrt(pi/beta)/2 * exp(i*pi/4) * e(theta(u)) * w(exp(i*pi/4)*sqrt(beta)*|s|);
        a window that holds u* adds twice the tail from 0.  Every phase
        e(theta) is taken at a point of the window, with a*u and b*u^2
        reduced mod 1 before they are summed."""
        a = float(self._asc[1])
        b = float(self._asc[2]) if len(self._asc) == 3 else 0.0
        flip = b < 0.0
        if flip:
            a, b = -a, -b
        L = self.L
        ts = (lo, hi)
        us = tuple(map(sqrt, ts)) if L == 2 else ts
        squares = ts if L == 2 else tuple(t * t for t in ts)

        def e(u: float, square: float) -> complex:
            return cmath.exp(2j * pi * ((a * u) % 1.0 + (b * square) % 1.0))

        e0, e1 = (e(u, q) for u, q in zip(us, squares))
        u0, u1 = us
        slack = 0.0  # error of the terms beyond their rounding
        if b == 0.0:
            k = 2j * pi * a
            if L == 1:
                terms = [e1 / k, -e0 / k]
            else:
                # divided by k twice: k * k underflows to 0 for |a| below 1e-154
                terms = [2 * e1 * u1 / k, -2 * e1 / k / k, -2 * e0 * u0 / k, 2 * e0 / k / k]
        else:
            beta = 2 * pi * b
            terms = [e1 / (1j * beta), -e0 / (1j * beta)] if L == 2 else []
            weight = 1.0 if L == 1 else -a / b
            if weight:
                ustar = -a / (2 * b)
                root = sqrt(beta)
                tail0 = 0.5 * sqrt(pi) / root * _E8 * weight
                s0, s1 = u0 - ustar, u1 - ustar
                w0, w1 = _faddeeva(_E8 * root * abs(s0)), _faddeeva(_E8 * root * abs(s1))
                terms += [
                    (1.0 if s0 >= 0 else -1.0) * tail0 * e0 * w0,
                    (-1.0 if s1 > 0 else 1.0) * tail0 * e1 * w1,
                ]
                if s0 < 0 < s1:
                    terms.append(2 * tail0 * e(ustar, ustar * ustar))
                # s rounds by up to 4 eps (|u| + |u*|) at each endpoint, and a
                # tail's derivative in s has modulus at most 1 on the ray
                # (sqrt(pi)/2 |w'(z)| <= 1 there): 12 eps charges it 3 times
                slack = abs(weight) * 12 * _EPS * (u0 + u1 + 2 * abs(ustar))
                slack += _W_REL * abs(tail0) * (abs(w0) + abs(w1))
        width = hi - lo
        value = sum(terms) / width
        size = sum(map(abs, terms)) / width
        err = noise + (2 * noise + 32 * _EPS) * size + slack / width
        return (value.conjugate() if flip else value), err

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
        if isinstance(self.h, float):
            return theta
        return np.broadcast_to(theta, np.broadcast(theta, self.h).shape)


def osc_phase_average(
    coeffs: Mapping[Fraction | int, float],
    lo: float,
    hi: float,
    tol: float,
    budget: int = DEFAULT_BUDGET,
) -> tuple[complex, float, int]:
    """Average of exp(2*pi*i * sum_e c_e t^e) over (lo, hi): the
    :meth:`Phase.average` of the term table ``coeffs``, so (value, error,
    evaluations) from the Fresnel closed form (a derived error bound, no
    evaluations) when the exponents lie within {1/2, 1} or within {1, 2} and
    its bound meets ``tol``, and from adaptive panels (their error estimate)
    otherwise."""
    return Phase(coeffs).average(lo, hi, tol, budget)

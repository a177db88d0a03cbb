"""Phase averages: Fresnel closed forms and adaptive Gauss panels.

Every oscillatory integrand is a :class:`Phase`: t -> exp(2*pi*i*theta(t)),
theta a sum of exact positive rational powers of t (and of t + h in van der
Corput correlations).  Substituting t = u^L, with L a common denominator of
the exponents, turns the unshifted terms into a polynomial in u, at the price
of the smooth amplitude L*u^(L-1).  :meth:`Phase.substitute` guards every
window: it refuses windows so far out that float rounding of the phase alone
exceeds the tolerance.  :meth:`Phase.average` is the route from an unshifted
phase to its average over a window, or over each of an array of windows.
Every call runs one prologue (the window check, one pass of the guard at the
largest end, and the exact 1 of the zero phase) and then one chain of
methods, the same for a float window and an array of them.

* Closed form.  With no shifted block, L <= 2 and degree at most 2 in u
  (exponents within {1/2, 1} or within {1, 2}), the integral of
  A(u)*exp(2*pi*i*(a*u + b*u^2)), A = 1 or 2u, is elementary when b = 0 and
  otherwise a boundary term plus a Fresnel (erf) integral.  The erf is taken
  as erfc(z) = exp(-z^2)*w(iz), with the Faddeeva function w from Weideman's
  32-term rational approximation (SIAM J. Numer. Anal. 31, 1994); the window
  is split at the stationary point u = -a/(2b), so every w lies on the ray
  arg z = pi/4 and no two erf values of similar size are subtracted.  The
  result carries a derived error bound and no evaluations.  The formula is
  written once for floats and numpy arrays: each end of the window
  contributes its own terms of a primitive, so it also takes arrays of
  windows (a float end, such as the shared end of the time-change kernel's
  tail or head windows, is evaluated once), with a value and a bound per
  window.  Work on identical inputs is reused, never a result: a phase
  computes the closed form's constants once, a float window takes the
  terms of an end it shares with the phase's previous float window, and
  a :class:`PhaseTable` keeps the phase built from it, so the windows of
  a phase group share one.
* Narrow-window rules, on each window whose closed-form bound exceeds the
  tolerance (a narrow window, whose end terms cancel, or one whose terms
  overflow); a float window enters them as an array of one window.  A
  linear phase takes e(a*mid)*sinc, and any other closed-form phase one
  24-point Gauss piece in u with a bound from Cauchy's estimate.  Arrays of
  windows stop here and keep the float call's contract: every bound meets
  the tolerance, or :class:`QuadratureBudgetError` is raised with the
  largest one.
* Adaptive panels, for a float window of every other phase and of a closed
  form whose narrow-window rules miss the tolerance too (b tiny against a
  on a wide window, where the closed form's terms cancel and the Gauss
  piece's bound is far above it).  The initial panels are laid out from
  the phase itself: the cycles in each of 128 probe cells are the variation
  |theta(p_(i+1)) - theta(p_i)| of the phase across it, and the edges split
  the cumulative count into ceil(cycles / 3.5) panels, at least one and
  at most those that half the budget pays for (17 uniform edges when no
  phase is given, its variation is not finite, or cells of subnormal
  variation leave an edge that is not finite).  A shifted block
  (u^L + h)^e with a fractional exponent has a branch point at
  |u| = h^(1/L), next to the window's end u = 0 for a small shift, and the
  Gauss rate on a panel is set by its nearest singularity (Trefethen, SIAM
  Review 50, 2008): on a window from u = 0 the first panel is halved
  until it ends within twice the branch point of the smallest shift.  A
  fixed-order Gauss-Legendre rule is applied per panel, and the difference
  between the 24-point and 15-point rules serves as the per-panel error
  estimate.  It is an estimate, not a proven bound: it mostly measures the
  15-point rule's own error (a 15-point rule is essentially exact below 3
  cycles per panel, a 24-point rule well beyond 5), and nothing shows that
  it brackets the true error of the 24-point value.  Panels with the
  largest estimates are bisected until the absolute tolerance or the
  evaluation budget is reached.

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
from functools import cached_property
from math import ceil, comb, copysign, isfinite, lcm, log2, pi, prod, sqrt
from operator import neg
from typing import Callable, Mapping

import numpy as np
from numpy.polynomial import polynomial as npoly

DEFAULT_BUDGET = 10**7

_CYCLES_PER_PANEL = 3.5
_CHUNK_POINTS = 1 << 13  # integrand points per vectorized call
_MAX_ROUNDS = 64
_PROBES = 129  # layout probes per row
_BATCH_ROWS = _CHUNK_POINTS // _PROBES  # rows whose layout probes fill one chunk
_EVALS_PER_PANEL = 24 + 15
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float

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
_TWO_PI_I = 2j * pi
_INV_SQRT_PI = 1 / sqrt(pi)


def _faddeeva(z):
    """w(z) = exp(-z^2)*erfc(-iz) for Im z >= 0, by Weideman's approximation;
    ``z`` a complex or an array of them."""
    iz = 1j * z
    d = _W_SCALE - iz
    big_z = (_W_SCALE + iz) / d
    p = 0j
    for c in _W_COEF:
        p = p * big_z + c
    return (2 * p / d + _INV_SQRT_PI) / d


# truncation constant of the 24-point Gauss rule under Cauchy's estimate,
# 1 / (49 C(48, 24)^2): see Phase._gauss_bound
_G24_TRUNC = 1.0 / (49 * comb(48, 24) ** 2)


def _one_row(u):
    """The node vector of a broadcast (N, m) view of one, as the rows of a
    batch get their nodes from :func:`_gauss`; any other ``u`` itself."""
    return u[0] if u.ndim == 2 and u.strides[0] == 0 else u


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
    """129 probes across (lo, hi) and the cycles of ``phase`` in each probe
    cell: its variation |theta(p_(i+1)) - theta(p_i)| across the cell, one
    row per row of a batched phase."""
    probes = np.linspace(lo, hi, _PROBES)
    return probes, np.abs(np.diff(phase(probes)))


def _initial_edges(
    lo: float, hi: float, phase, budget: int, branch: float = 0.0
) -> tuple[np.ndarray, tuple]:
    """The initial panel edges and the batch shape: () for one integrand,
    (N,) for a phase that returns N rows.  A batch shares one layout, laid
    out from the largest variation over its rows in each probe cell."""
    uniform = np.linspace(lo, hi, 17)
    if phase is None:
        return uniform, ()
    probes, cycles = _probe_cycles(lo, hi, phase)
    batch = cycles.shape[:-1]
    if batch:
        cycles = cycles.max(axis=0)
    total = float(cycles.sum())
    if not isfinite(total):
        return uniform, batch
    # leave at least half the budget for error-driven refinement
    n_panels = max(1, min(ceil(total / _CYCLES_PER_PANEL), budget // (2 * _EVALS_PER_PANEL)))
    edges = np.array([lo, hi])
    if n_panels > 1:
        cum = np.concatenate(([0.0], np.cumsum(cycles)))
        edges = np.interp(np.linspace(0.0, total, n_panels + 1), cum, probes)
        # a cell of subnormal cycles overflows its slope to an infinite edge
        if not np.isfinite(edges).all():
            return uniform, batch
        edges[0], edges[-1] = lo, hi
    if lo == 0.0 and 0.0 < branch < edges[1]:
        # halve the first panel until it ends within twice the branch point
        halvings = np.arange(int(log2(edges[1] / branch)), 0, -1)
        edges = np.concatenate(([lo], edges[1] * 2.0**-halvings, edges[1:]))
    return edges, batch


def adaptive_integral(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float,
    budget: int = DEFAULT_BUDGET,
    phase: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    branch: float = 0.0,
) -> tuple[complex | np.ndarray, float, int]:
    """Integral of a vectorized complex integrand with absolute tolerance.

    ``phase``, when given, is the integrand's phase in cycles; its variation
    lays out the initial panels.  ``branch``, when positive and ``lo`` is
    0, is the distance from 0 of the integrand's nearest singularity (the
    branch point of a shifted block, :meth:`Phase.at`): the first panel is
    halved toward it until it ends within twice that distance.  Returns
    (value, error estimate, evaluations); raises
    :class:`QuadratureBudgetError`, with the partial value, when the
    tolerance is unreachable within the budget.

    A phase that maps the m probes to an (N, m) array makes a batch: N
    integrands on one window, which ``f`` evaluates at once, mapping an
    (N, m) array of nodes (a broadcast view of one node vector) to their N
    rows of values.  The rows share their panels: a round bisects each panel
    where some row that has not converged has an estimate above the cut, and
    a row has converged when its own summed estimate is at most ``abs_tol``.
    ``budget`` and the stall rule apply to each row, as for a single
    integrand.  The value is then an array of the N integrals, the error the
    largest row error, and the evaluations are counted per row.
    """
    if not (isfinite(lo) and lo < hi and isfinite(hi)):
        raise ValueError("need a finite, nonempty integration interval")
    if not (isfinite(abs_tol) and abs_tol > 0):
        raise ValueError("tolerance must be finite and positive")
    edges, batch = _initial_edges(float(lo), float(hi), phase, budget, branch)
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
        # an open row sums to more than abs_tol over len(a) panels, so one
        # of its panels exceeds twice the cut: the mask is never empty
        mask = worst > cut
        cost = 2 * _EVALS_PER_PANEL * int(mask.sum())
        if evals + cost > budget:
            failure = "evaluation budget exhausted"
            break
        sa, sb = a[mask], b[mask]
        sm = 0.5 * (sa + sb)
        nI, nE = _eval_panels(f, np.concatenate((sa, sm)), np.concatenate((sm, sb)), batch)
        evals += cost
        I = np.concatenate((I[:, ~mask], nI.reshape(len(I), -1)), axis=1)
        E = np.concatenate((E[:, ~mask], nE.reshape(len(E), -1)), axis=1)
        a = np.concatenate((a[~mask], sa, sm))
        b = np.concatenate((b[~mask], sm, sb))
    else:
        errs = E.sum(axis=1)
    err = float(errs.max())
    # the panel integrals summed left to right: the float sums depend on the order
    total = I[:, np.argsort(a, kind="stable")].cumsum(axis=1)[:, -1].reshape(batch)
    value = total if batch else complex(total)
    if err <= abs_tol:
        return value, err, evals
    raise QuadratureBudgetError(failure, value, err, evals)


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
        self.branch = 0.0
        L = self.L = lcm(*(e.denominator for e in (*self.coeffs, *self.shifted)))
        # the unshifted terms as a polynomial in u = t^(1/L), ascending: t^e
        # is u^(e L), an integer power taken in integers
        powers = [e.numerator * L // e.denominator for e in self.coeffs]
        self._asc = np.zeros(max(powers, default=0) + 1)
        self._asc[powers] = list(self.coeffs.values())
        # the closed form's class: exponents within {1/2, 1} or within {1, 2}
        self._closed = not self.shifted and L <= 2 and len(self._asc) <= 3
        # the shifted terms with float exponents, and |c_e| at the float
        # exponents of the unshifted ones, for the guard's bound
        self._moved = [(float(e), s) for e, s in self.shifted.items()]
        self._sizes = [(float(e), abs(c)) for e, c in self.coeffs.items()]
        self._ends = {}  # the last scalar closed form's end terms, see _fresnel
        if self._closed:
            self._closed_constants()

    def at(self, h) -> "Phase":
        """The same phase at shift h; the term tables are shared.  A vector
        of N shifts gives one phase for all of them: its phase and
        u-integrand then return one row per shift, shape (N, m).

        A shifted term (u^L + h)^e with a fractional exponent e has a branch
        point where u^L = -h, at |u| = h^(1/L): the phase keeps that
        distance, at the smallest positive shift, as its ``branch``, which
        grades the adaptive panels of a window from u = 0 toward it (0.0
        when no shifted exponent is fractional or no shift is positive)."""
        moved = copy.copy(self)
        moved._ends = {}
        h = np.asarray(h, dtype=float)
        # a batch of shifts runs down the rows
        moved.h = float(h) if h.ndim == 0 else h[:, None]
        positive = h[h > 0.0]
        fractional = any(e.denominator > 1 for e in self.shifted)
        moved.branch = 0.0
        if fractional and positive.size:
            moved.branch = float(positive.min()) ** (1.0 / self.L)
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
        """The rounding bound of :meth:`substitute` at ``hi``
        (:meth:`_rounding`), after its checks."""
        if not (isfinite(tol) and tol > 0):
            raise ValueError("tolerance must be finite and positive")
        if not isfinite(hi):
            raise ValueError("the window must be finite")
        noise = self._rounding(hi)
        if noise > tol:
            raise QuadratureBudgetError(
                "float phase rounding exceeds the tolerance on this window", 0j, noise, 0
            )
        return noise

    def _rounding(self, hi):
        """2 pi eps (sum_e |c_e| hi^e + sum_e |s_e| (hi + h)^e), h the shift
        (the largest of a batch): the bound by which the phase's rounding on
        t <= hi moves an average, for a float ``hi`` or an array of them."""
        h = self.h if isinstance(self.h, float) else float(self.h.max())
        return 2 * np.pi * _EPS * (
            sum(c * hi**e for e, c in self._sizes)
            + sum(abs(s) * (hi + h) ** e for e, s in self._moved)
        )

    def average(self, lo, hi, tol: float, budget: int = DEFAULT_BUDGET):
        """Average of the curve over (lo, hi) with absolute tolerance ``tol``:
        (value, error, evaluations).  When ``lo`` or ``hi`` is a numpy array
        the windows are their broadcast, a float end shared by every window,
        and the return is (array of values, array of bounds, evaluations).

        Every call, on a float window or an array of them, runs one prologue:
        the window check (a negative or NaN window, or one narrower than the
        smallest normal float, whose terms no longer carry 53 bits, is a
        ValueError), one pass of the window guard of :meth:`substitute` at the
        largest ``hi``, and the zero phase, whose average is 1 exactly.

        With no shifted block, L <= 2 and degree at most 2 in u, every window
        then takes one chain, the closed form first and then the narrow-window
        rules of :meth:`_closed_windows` on each window whose closed-form
        bound exceeds ``tol``; a float window enters those rules as an array
        of one window, so it gets the value and bound that a one-element
        array gets from them.  The closed form's error is a derived bound
        with no evaluations: it adds the guard's rounding bound; the rounding
        of the terms the closed form combines, which is (2 * that bound +
        32 eps) times their summed magnitude over the window's width, plus
        the rounding of the distances to the stationary point; and w's
        relative accuracy times the magnitude of its terms.  Arrays of
        windows must be in this class (ValueError otherwise), and every bound
        meets ``tol`` or :class:`QuadratureBudgetError` carries the values,
        the largest bound and the evaluations of the Gauss pieces.

        A float window of every other phase, and one whose closed form and
        narrow-window rules both miss ``tol``, is integrated in u by adaptive
        panels, and the error is their estimate plus, for L > 1, the rounding
        of the window's ends in u (2 L eps (lo + hi) / (hi - lo)), with
        :class:`QuadratureBudgetError` where that sum exceeds ``tol``; the
        evaluations then count a Gauss piece tried before the panels too."""
        array = isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray)
        if array:
            if not self._closed:
                raise ValueError("arrays of windows need the closed form: no shifted block "
                                 "and exponents within {1/2, 1} or within {1, 2}")
            # a float end stays a float: it is shared by every window
            lo, hi = (np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)
                      for x in (lo, hi))
        else:
            lo, hi = float(lo), float(hi)
        normal = (0.0 <= lo) & (hi - lo >= _TINY)
        if not (normal.all() if array else normal):
            raise ValueError("fractional phases need nonnegative intervals of normal width")
        noise = self._noise(np.max(hi, initial=0.0) if array else hi, tol)
        if not (self.coeffs or self.shifted):
            zero = 0.0 * (hi - lo)  # 0.0, or zeros in the windows' shape
            return zero + (1.0 + 0j), zero, 0
        spent = 0
        if self._closed:
            # a float window's closed form, handed on when its bound misses tol
            closed = None if array else self._fresnel(lo, hi, noise)
            if closed and closed[1] <= tol:
                return *closed, 0
            values, errs, spent = self._closed_windows(lo, hi, noise, tol, closed)
            worst = float(np.max(errs, initial=0.0))
            if worst <= tol:
                return (values, errs, spent) if array else (complex(values), worst, spent)
            if array:
                raise QuadratureBudgetError("a window's bound exceeds the tolerance",
                                            values, worst, spent)
        width, L = hi - lo, self.L
        # the panels span the ends as rounded in u, each within L eps of its
        # t, and |curve| = 1: a narrow window far out can miss tol
        ends = 2 * L * _EPS * (lo + hi) / width if L > 1 else 0.0
        if ends > tol:
            raise QuadratureBudgetError("the window is too narrow for its ends in u", 0j, ends, spent)
        value, err, evals = adaptive_integral(
            self._u_integrand, lo ** (1.0 / L), hi ** (1.0 / L), tol * width, budget,
            self._u_theta, branch=self.branch,
        )
        err, evals = err / width + ends, evals + spent
        if ends and err > tol:
            raise QuadratureBudgetError("the window is too narrow for its ends in u",
                                        value / width, err, evals)
        return value / width, err, evals

    def _closed_constants(self) -> None:
        """The constants of a closed-form phase, computed once: ``_ab``, the
        coefficients (a, b) of u and u^2; and those of :meth:`_fresnel`,
        which averages the conjugate phase when b < 0 (``_flip``): its
        (a, b) as ``_fab``, and for b = 0 k = 2 pi i a, else beta = 2 pi b,
        the weight -a/b of the Fresnel term (1 at L = 1), u* = -a/(2b),
        sqrt(beta), the ray of w, the tail from 0 and the exponent 2 pi i
        theta* of e(theta*) at u*, with e(theta*) itself."""
        asc = self._asc
        a, b = self._ab = tuple(float(asc[j]) if j < len(asc) else 0.0 for j in (1, 2))
        self._flip = b < 0.0
        if self._flip:
            a, b = -a, -b
        self._fab = a, b
        if b == 0.0:
            self._k = 2j * pi * a
            return
        beta = 2 * pi * b
        self._ibeta = 1j * beta
        weight = self._weight = 1.0 if self.L == 1 else -a / b
        ustar = self._ustar = -a / (2 * b)
        root = sqrt(beta)
        self._ray = _E8 * root  # w is taken at ray * |s|
        self._tail0 = 0.5 * sqrt(pi) / root * _E8 * weight
        self._star = _TWO_PI_I * ((a * ustar) % 1.0 + (b * (ustar * ustar)) % 1.0)
        self._e_star = cmath.exp(self._star)

    def _closed_windows(self, lo, hi, noise: float, tol: float,
                        closed=None) -> tuple[np.ndarray, np.ndarray, int]:
        """The averages over the broadcast windows (lo, hi), which have
        passed the prologue of :meth:`average` (``noise`` its guard's rounding
        bound), of a phase in the closed-form class, each with its bound.
        The bounds are returned as they are, for :meth:`average` to hold
        against ``tol``; the evaluations are those of the Gauss pieces.

        Every window takes the closed form, :meth:`_fresnel`, unless the
        caller hands its (value, bound) in as ``closed``.  Where its bound
        exceeds ``tol`` (a narrow window, whose ends cancel in G(hi) - G(lo),
        or one whose terms overflow, with an infinite bound), the
        narrow-window rules take it, with the guard's rounding bound,
        :meth:`_rounding`, at the window's own far end: a linear phase
        (L = 1, b = 0) takes e(a*mid)*sinc(a*(hi - lo)), which does not
        cancel, with bound noise + 16 eps; any other phase takes one 24-point
        Gauss piece in u, with the bound of :meth:`_gauss_bound`, or e(theta)
        at lo where the window's ends round to one u."""
        if closed is None:
            with np.errstate(over="ignore", invalid="ignore"):
                closed = self._fresnel(lo, hi, noise)
        shape = np.broadcast_shapes(np.shape(lo), np.shape(hi))
        value, err = (np.array(np.broadcast_to(x, shape)) for x in closed)
        narrow = ~(err <= tol)
        if not narrow.any():
            return value, err, 0
        a, b = self._ab
        nlo, nhi = (np.broadcast_to(x, shape)[narrow] for x in (lo, hi))
        ulo, uhi = (np.sqrt(x) if self.L == 2 else x for x in (nlo, nhi))
        # the guard's rounding bound at each window's own far end
        noise = self._rounding(nhi)
        if self.L == 1 and b == 0.0:
            mid = 0.5 * (nlo + nhi)
            value[narrow] = np.exp(2j * np.pi * ((a * mid) % 1.0)) * np.sinc(a * (nhi - nlo))
            err[narrow] = noise + 16 * _EPS
            return value, err, 0
        # the width of (ulo^L, uhi^L), the window as rounded in u
        width = (uhi - ulo) * (uhi + ulo) if self.L == 2 else nhi - nlo
        pieces = width > 0.0
        v, e = np.empty(len(width), dtype=complex), np.empty(len(width))
        v[pieces] = _gauss(self._u_integrand, ulo[pieces], uhi[pieces], _X24, _W24) / width[pieces]
        e[pieces] = self._gauss_bound(ulo[pieces], uhi[pieces], width[pieces], noise[pieces])
        # ends that round to one u = sqrt(t) leave a window below the
        # resolution of u: its average is e(theta) at lo within
        # 2 pi max |theta'(t)| (hi - lo), theta'(t) = a / (2 sqrt(t)) + b
        point = ~pieces
        v[point] = np.exp(2j * np.pi * self._u_theta(ulo[point]))
        e[point] = 2 * pi * (abs(a) / (2 * ulo[point]) + abs(b)) * (nhi - nlo)[point] + noise[point]
        value[narrow], err[narrow] = v, e
        return value, err, 24 * int(pieces.sum())

    def _gauss_bound(self, ulo: np.ndarray, uhi: np.ndarray, width: np.ndarray,
                     noise: np.ndarray) -> np.ndarray:
        """A bound on the error of one 24-point Gauss piece over each (ulo,
        uhi) of the integrand f = A(u)*e(a*u + b*u^2), divided by ``width``,
        the t-width of (ulo^L, uhi^L), as the average over (lo, hi).

        On a panel of width d the n-point rule errs by at most
        d^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) * max |f^(2n)|, and Cauchy's
        estimate on discs of radius d about the panel bounds f^(2n) by
        (2n)! M / d^(2n): the truncation is at most d M / (49 C(48, 24)^2),
        M the modulus of f within distance d of the panel, at most
        max|A| * exp(2 pi d (|a| + 2|b| (uhi + d))).  Phase rounding at the
        nodes (Horner's rule: within 3 times ``noise``, the guard's rounding
        bound at uhi) and the 24-term sum (32 eps) add their share of the
        integral of |f| over the panel, at most d * max|A|.  The square roots
        of the ends and the panel's rounded midpoint move each end of the
        window by at most eps * t, and a move of the ends by at most eps * t
        moves an average by at most 2 pi eps max_t |theta'(t) t|, which is
        within ``noise``: 3 noise more."""
        a, b = map(abs, self._ab)
        d = uhi - ulo
        amplitude = 1.0 if self.L == 1 else 2 * (uhi + 2 * d)
        # a growth beyond exp(700) leaves the bound far above any tolerance
        growth = np.exp(np.minimum(2 * pi * d * (a + 2 * b * (uhi + d)), 700.0))
        return d * amplitude * (_G24_TRUNC * growth + 3 * noise + 32 * _EPS) / width + 3 * noise

    def _fresnel(self, lo, hi, noise: float):
        """The closed-form average of exp(2*pi*i*(a*u + b*u^2)) * A(u) over
        u^L in (lo, hi), A = 1 (L = 1) or 2u (L = 2), and its error bound.
        ``lo`` and ``hi`` are floats or arrays of window ends: one formula
        serves both, and a float end is evaluated once for all windows.

        The integral is G(hi) - G(lo), each end's terms of the primitive G
        taken on its own, and the terms of the bound add over the ends the
        same way.  With b < 0 the conjugate phase is averaged and the value
        conjugated.  With b = 0, G is elementary.  Otherwise 2u*e(theta) =
        e(theta)'/(2*pi*i*b) - (a/b)*e(theta) gives a boundary term, and the
        Fresnel integral of e(theta) is
        e(theta*) * integral of exp(i*beta*s^2) over s = u - u*, with
        beta = 2*pi*b and theta* the phase at the stationary point
        u* = -a/(2b).  Its term of G at an end is minus the tail integral
        from |s| to infinity, which is
        sqrt(pi/beta)/2 * exp(i*pi/4) * e(theta(u)) * w(exp(i*pi/4)*sqrt(beta)*|s|),
        signed by the end's side of u* (s >= 0 counts as the right); a
        window with one end on each side adds twice the tail from 0.  So
        every w lies on the ray arg z = pi/4 and no two erf values of similar
        size are subtracted.  Every phase e(theta) is taken at a point of the
        window, with a*u and b*u^2 reduced mod 1 before they are summed
        (:meth:`_end`).

        An end's terms depend on the end alone.  A float call keeps those of
        its two ends, and the next float call takes the terms of an end
        equal to one of them and of its sign (-0.0 computes its own); an
        array of windows neither reads nor keeps them, and a copy made by
        :meth:`at` starts without them.  The terms are replaced, never
        changed in place."""
        array = isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray)
        if array:
            ends = self._end(hi, True), self._end(lo, True)
        else:
            # a float end equal to, and of the sign of, an end of the last
            # float call takes that call's terms
            last, ends = self._ends, []
            keys = (hi, copysign(1.0, hi)), (lo, copysign(1.0, lo))
            for key in keys:
                ends.append(last[key] if key in last else self._end(key[0], False))
            self._ends = dict(zip(keys, ends))
        slack = 0.0  # error of the terms beyond their rounding
        if self._fab[1] == 0.0:
            terms = [*ends[0], *map(neg, ends[1])]
        else:
            (b1, f1, u1, w1, side1), (b0, f0, u0, w0, side0) = ends
            weight, ustar, tail0 = self._weight, self._ustar, self._tail0
            terms = [b1, -b0, -f0, f1] if self.L == 2 else [-f0, f1]
            if array or side0 != side1:
                # the tail from 0, twice where the window holds u*
                e_star = np.exp(self._star) if array else self._e_star
                terms.append((side1 - side0) * tail0 * e_star)
            # s rounds by up to 4 eps (|u| + |u*|) at each end, and a
            # tail's derivative in s has modulus at most 1 on the ray
            # (sqrt(pi)/2 |w'(z)| <= 1 there): 12 eps charges it 3 times
            slack = abs(weight) * 12 * _EPS * (u0 + u1 + 2 * abs(ustar))
            slack += _W_REL * abs(tail0) * (abs(w0) + abs(w1))
        width = hi - lo
        value = sum(terms) / width
        size = sum(map(abs, terms)) / width
        err = noise + (2 * noise + 32 * _EPS) * size + slack / width
        return (value.conjugate() if self._flip else value), err

    def _end(self, t, array: bool) -> tuple:
        """One end's terms of the primitive G of :meth:`_fresnel`, at a float
        or an array ``t``: for b = 0 its one (L = 1) or two terms, else its
        boundary and Fresnel terms, its u, its w and its side of u* (+1 or
        -1).  Every phase e(theta) has a*u and b*u^2 reduced mod 1 before
        they are summed."""
        exp, root_of = (np.exp, np.sqrt) if array else (cmath.exp, sqrt)
        (a, b), L = self._fab, self.L
        u = root_of(t) if L == 2 else t
        eu = exp(_TWO_PI_I * ((a * u) % 1.0 + (b * (t if L == 2 else t * t)) % 1.0))
        if b == 0.0:
            k = self._k
            if L == 1:
                return (eu / k,)
            # divided by k twice: k * k underflows to 0 for |a| below 1e-154
            return 2 * eu * u / k, -2 * eu / k / k
        s = u - self._ustar
        side = (s >= 0) * 2.0 - 1.0
        w = _faddeeva(self._ray * abs(s))
        return eu / self._ibeta, -side * self._tail0 * eu * w, u, w, side

    def _u_integrand(self, u):
        # theta(u^L) stays a temporary, freed as soon as it is used
        curve = np.exp(2j * np.pi * self._u_theta(u))
        L = self.L
        # the amplitude does not depend on the shift: one row serves a batch
        return curve if L == 1 else (L * _one_row(u) ** (L - 1)) * curve

    def _u_theta(self, u):
        batched = not isinstance(self.h, float)
        if batched:
            # only the shifted block depends on the shift: the rest is
            # evaluated on one row, and broadcasting against the column of
            # shifts makes the rows
            u = _one_row(u)
        theta = npoly.polyval(u, self._asc)
        if self._moved:
            x = u**self.L + self.h
            for e, s in self._moved:
                theta = theta + s * x**e
        if not batched:
            return theta
        return np.broadcast_to(theta, np.broadcast(theta, self.h).shape)


class PhaseTable(dict):
    """A coefficient table {exponent: coefficient} that keeps the
    :class:`Phase` built from it on first use: a phase group hands
    :func:`osc_phase_average` one table for all its windows.  The table is
    not to be changed once averaged."""

    @cached_property
    def phase(self) -> Phase:
        return Phase(self)


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
    its bound meets ``tol``, else from the narrow-window rules (a bound, and
    the evaluations of a Gauss piece) when theirs does, and from adaptive
    panels (their error estimate) otherwise.

    A :class:`PhaseTable` averages with the phase it keeps, so its exponents
    are checked and the closed form's constants computed once, and a window
    end shared with the phase's previous float window reuses its terms
    (:meth:`Phase._fresnel`); any other mapping gets a fresh ``Phase``.
    Every call runs the whole prologue of :meth:`Phase.average`, and returns
    what a fresh ``Phase(coeffs)`` returns, bit for bit."""
    phase = coeffs.phase if isinstance(coeffs, PhaseTable) else Phase(coeffs)
    return phase.average(lo, hi, tol, budget)

"""Tempered interval sequences and fractional-power time changes.

A sequence of intervals I_n = (a_n, b_n) in [0, inf) is tempered for a
constant K >= 0 when the lengths grow without bound and dist(0, I_n) = a_n
stays below K * |I_n|.  Averages of a bounded continuous curve converge along
every tempered sequence as soon as they converge along one, and a change of
time variable s -> s^alpha preserves both the convergence and the limit.
This module materializes the sequences, the exact weight decomposition behind
the time change, and the averaged quantities themselves.  Both time-change
routes take a :class:`~fpet.quadrature.Phase` and pass the window guard of
:meth:`~fpet.quadrature.Phase.substitute`, so both refuse windows too far out
for the float phase.  The direct one averages ``v.power(alpha)`` with
:meth:`~fpet.quadrature.Phase.average`, which is a Fresnel closed form, or
its narrow-window rules, when the powered phase has exponents within
{1/2, 1} or within {1, 2} (v = t at alpha = 1/2 or 2) and adaptive panels
otherwise; the weight route takes the nested averages of v itself by the
same closed form and rules, on arrays of windows, so never by panels, each
within its share of the tolerance, and weights them by the kernel, so its v
must have exponents within {1/2, 1} or within {1, 2}.  Where the direct
route also takes the closed form, the two use different branches of it: for
v = t the nested averages are linear in t, while v.power(2) is quadratic
(the Fresnel branch) and v.power(1/2) is linear in u = t^(1/2) with the
amplitude 2u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import DEFAULT_BUDGET, Phase, adaptive_integral


@dataclass(frozen=True)
class TemperedSequence:
    """Interval generator n -> (a_n, b_n) with a declared temperedness constant."""

    name: str
    K: float
    rule: Callable[[int], tuple[float, float]]

    def interval(self, n: int) -> tuple[float, float]:
        """(a_n, b_n); an end past the float range is a ValueError."""
        if n < 1:
            raise ValueError("interval sequences are indexed from n = 1")
        try:
            a, b = map(float, self.rule(n))
        except OverflowError:
            a = b = math.inf
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval {n} of {self.name} is past the float range")
        return a, b


def is_tempered_prefix(seq: TemperedSequence, n_max: int) -> bool:
    """Finite-prefix temperedness check.

    Verifies a_n <= seq.K (b_n - a_n) for every n <= n_max and that the running
    maximum of the lengths is still being beaten in the second half of the
    prefix (the finite stand-in for |I_n| -> infinity).
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    lengths = []
    for n in range(1, n_max + 1):
        a, b = seq.interval(n)
        if not 0 <= a < b:
            raise ValueError(f"malformed interval ({a}, {b}) at n = {n}")
        if a > seq.K * (b - a):
            return False
        lengths.append(b - a)
    if n_max == 1:
        return True
    half = n_max // 2
    return max(lengths[half:]) > max(lengths[:half])


def standard_tempered_families() -> list[TemperedSequence]:
    """The stock interval fixtures: pinned dyadic, two sliding windows, and an
    irregular-but-tempered variant."""

    def sliding(k):
        return lambda n: (k * 2.0**n, (k + 1) * 2.0**n)

    def irregular(n):
        length = n * math.log(n + 2)
        a = float(math.floor(2 * length))
        return a, a + length

    return [
        TemperedSequence("pinned", 0, lambda n: (0.0, 2.0**n)),
        TemperedSequence("sliding-k1", 1, sliding(1)),
        TemperedSequence("sliding-k5", 5, sliding(5)),
        TemperedSequence("irregular", 2, irregular),
    ]


def tempered_family(name: str) -> TemperedSequence:
    for seq in standard_tempered_families():
        if seq.name == name:
            return seq
    known = ", ".join(s.name for s in standard_tempered_families())
    raise ValueError(f"unknown interval family {name!r} (choose from: {known})")


@dataclass(frozen=True)
class TimeChangeWeights:
    """Exact decomposition of an interval average after the change t = s^alpha.

    The average of v(s^alpha) over (a, b) equals

        w0 * A_(A,B)(v)  +  integral over (A, B) of kernel(t) * A_J(t)(v) dt

    with (A, B) = (a^alpha, b^alpha) and J(t) the window from t to the fixed
    end F: J(t) = (t, B) when alpha < 1 (the kernel weights tail averages)
    or J(t) = (A, t) when alpha > 1 (head averages), and kernel(t) =
    (1 - alpha) / (alpha^2 (b - a)) * (F - t) * t^(1/alpha - 2) on both
    sides (see :func:`time_change_weights`).  For alpha = 1 the kernel is
    empty and w0 = 1.  The kernel mass plus w0 is exactly 1: the
    decomposition applied to a constant curve returns that constant.

    Fields: ``alpha`` and ``interval`` (a, b) as given, as floats; ``w0``;
    ``kernel``, t -> kernel(t) on floats or arrays, or None for alpha = 1;
    ``support``, (A, B); and ``mass``, the kernel's total mass in closed
    form (0.0 without a kernel), which :meth:`kernel_mass` returns.
    """

    alpha: float
    interval: tuple[float, float]
    w0: float
    kernel: Callable[[np.ndarray], np.ndarray] | None
    support: tuple[float, float]
    mass: float

    def kernel_mass(self) -> float:
        """Closed-form total mass of the kernel, as :func:`time_change_weights`
        computed it."""
        return self.mass

    def weighted_average(
        self,
        inner_average: Callable[[float, float], complex],
        tol: float = 1e-8,
        budget: int = DEFAULT_BUDGET,
    ) -> complex:
        """Apply the decomposition to a rule (lo, hi) -> average of v over (lo, hi).

        ``inner_average`` must accept arrays: it is called as
        ``inner_average(ts, B)`` (tail, alpha < 1) or ``inner_average(A, ts)``
        (head, alpha > 1) once per batch of outer quadrature nodes ``ts``, and
        must return the array of averages over the windows, as
        :meth:`~fpet.quadrature.Phase.average` does on arrays of windows.  The
        outer integral meets ``tol`` on its error estimate, or
        :class:`~fpet.quadrature.QuadratureBudgetError` is raised.  The kernel
        is nonnegative and w0 plus its mass is 1, so values of the rule within
        e of the true averages move the result by at most e: a rule that meets
        its own tolerance, as Phase.average does, leaves nothing to track.
        """
        A, B = self.support
        total = self.w0 * inner_average(A, B)
        if self.kernel is None:
            return total
        kernel, tail = self.kernel, self.alpha < 1

        def integrand(ts):
            return kernel(ts) * (inner_average(ts, B) if tail else inner_average(A, ts))

        value, _, _ = adaptive_integral(integrand, A, B, tol, budget)
        return total + value


def time_change_weights(alpha: float, interval: tuple[float, float]) -> TimeChangeWeights:
    """Weights and kernel for rewriting the average of v(s^alpha) over (a, b)
    as a combination of plain interval averages of v.

    With F the fixed end of the inner windows (B below alpha = 1, A above)
    and ``end`` the end of (a, b) it comes from (a below, b above), one
    formula serves both sides: w0 = end^(1 - alpha) (B - A) / (alpha (b - a))
    and kernel(t) = coef * (F - t) * t^p with coef = (1 - alpha) /
    (alpha^2 (b - a)) and p = 1/alpha - 2.  Both factors of the kernel change
    sign with the side, so it is nonnegative throughout.  Its mass is coef
    times the integral of (F - t) t^p over (A, B), from the power rule: the
    exponents p + 1 = (1 - alpha)/alpha and p + 2 = 1/alpha never vanish for
    valid alpha, so one antiderivative covers the whole range, including
    alpha = 1/2 where the kernel is affine in t."""
    a, b = float(interval[0]), float(interval[1])
    alpha = float(alpha)
    if not 0 < alpha < math.inf:
        raise ValueError("the time-change exponent must be finite and positive")
    if not 0 <= a < b < math.inf:
        raise ValueError("need finite 0 <= a < b")
    if alpha < 1 and a == 0:
        raise ValueError("alpha < 1 requires a > 0")
    if alpha == 1:
        return TimeChangeWeights(alpha, (a, b), 1.0, None, (a, b), 0.0)
    A, B = a**alpha, b**alpha
    p = 1.0 / alpha - 2.0
    coef = (1 - alpha) / (alpha**2 * (b - a))
    if alpha < 1:
        end, F = a, B
        integral = B * (B ** (p + 1) - A ** (p + 1)) / (p + 1) - (
            B ** (p + 2) - A ** (p + 2)
        ) / (p + 2)
    else:
        end, F = b, A
        # expanded so a = 0 never evaluates 0 to a negative power:
        # A^(p+2) = a exactly, and A multiplies B^(p+1) directly
        integral = (A * B ** (p + 1) - a) / (p + 1) - (B ** (p + 2) - a) / (p + 2)
    w0 = end ** (1 - alpha) * (B - A) / (alpha * (b - a))
    return TimeChangeWeights(alpha, (a, b), w0, lambda t: coef * (F - t) * t**p, (A, B),
                             coef * integral)


def time_changed_average(
    v: Phase,
    alpha,
    interval: tuple[float, float],
    tol: float = 1e-8,
    budget: int = DEFAULT_BUDGET,
) -> complex:
    """Average of v(s^alpha) over (a, b): the average of v.power(alpha)."""
    value, _, _ = v.power(alpha).average(interval[0], interval[1], tol, budget)
    return value


def time_changed_average_via_weights(
    v: Phase,
    alpha,
    interval: tuple[float, float],
    tol: float = 1e-8,
    budget: int = DEFAULT_BUDGET,
) -> complex:
    """The same average through the weight decomposition; the independent
    cross-check route for :func:`time_changed_average` (agreement within
    2 * tol is the consistency contract).

    The nested averages of ``v`` are the closed form and narrow-window rules
    of :meth:`~fpet.quadrature.Phase.average` on arrays of windows, never
    panels, so ``v`` must have exponents within {1/2, 1} or within {1, 2} (ValueError
    otherwise).  They meet tol / 2 each, and the outer integral tol / 2 on
    its estimate, or :class:`~fpet.quadrature.QuadratureBudgetError` is
    raised.  The kernel is nonnegative and w0 plus its mass is 1, so the
    route errs by at most the sum of the two shares, ``tol``."""
    weights = time_change_weights(alpha, interval)

    def inner_average(lo, hi):
        # an array end takes the closed form's array route, for w0's window too
        return v.average(np.asarray(lo, dtype=float), hi, tol / 2, budget)[0]

    return complex(weights.weighted_average(inner_average, tol / 2, budget))

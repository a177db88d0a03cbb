from fractions import Fraction

import numpy as np
import pytest

from fpet.interval import (
    TemperedSequence,
    standard_tempered_families,
    tempered_family,
    time_change_weights,
    time_changed_average,
    time_changed_average_via_weights,
)
import fpet.quadrature as quadrature
from fpet.quadrature import Phase, QuadratureBudgetError, adaptive_integral
import fpoly_reference as ref

F = Fraction

ALPHAS = [1 / 5, 1 / 3, 2 / 5, 1 / 2, 3 / 5, 2.0, 3.0, 7 / 2]


def kernel_mass_oracle(weights):
    """Independent route: numerical quadrature of the closed-form kernel.

    The substitution t = u^alpha makes the integrand smooth even when the
    support starts at 0, keeping the oracle independent of the package's own
    antiderivative."""
    from scipy.integrate import quad

    if weights.kernel is None:
        return 0.0
    A, B = weights.support
    alpha = weights.alpha
    lo, hi = A ** (1 / alpha), B ** (1 / alpha)

    def g(u):
        t = u**alpha
        return weights.kernel(t) * alpha * u ** (alpha - 1.0)

    value, _ = quad(g, lo, hi, limit=400)
    return value


def test_pinned_is_tempered():
    seq = tempered_family("pinned")
    assert seq.K == 0
    assert ref.is_tempered_prefix(seq, 20)


def test_sliding_is_tempered_with_equality():
    seq = TemperedSequence("unit", 1, lambda n: (float(n), 2.0 * n))
    assert ref.is_tempered_prefix(seq, 50)


def test_quadratic_drift_is_not_tempered():
    seq = TemperedSequence("drift", 10, lambda n: (float(n * n), float(n * n + n)))
    assert not ref.is_tempered_prefix(seq, 100)


def test_stalled_lengths_fail_growth_check():
    seq = TemperedSequence("stall", 0, lambda n: (0.0, float(min(n, 10))))
    assert ref.is_tempered_prefix(seq, 10)
    assert not ref.is_tempered_prefix(seq, 40)


def test_malformed_interval_raises():
    seq = TemperedSequence("bad", 0, lambda n: (5.0, 5.0))
    with pytest.raises(ValueError):
        ref.is_tempered_prefix(seq, 3)


def test_standard_families():
    families = {s.name: s for s in standard_tempered_families()}
    assert set(families) == {"pinned", "sliding-k1", "sliding-k5", "irregular"}
    assert ref.is_tempered_prefix(families["pinned"], 16)
    assert ref.is_tempered_prefix(families["sliding-k5"], 16)
    # the sliding-k5 rule has a_n = 5 |I_n|: a constant of 4 is too small
    too_small = TemperedSequence("sliding-k5", 4, families["sliding-k5"].rule)
    assert not ref.is_tempered_prefix(too_small, 16)
    assert ref.is_tempered_prefix(families["irregular"], 200)
    with pytest.raises(ValueError):
        tempered_family("nope")


def test_weights_alpha_one_trivial():
    w = time_change_weights(1.0, (3.0, 17.0))
    assert w.w0 == 1.0 and w.kernel is None
    assert w.mass == 0.0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_mass_one_closed_form_vs_quadrature(alpha):
    w = time_change_weights(alpha, (1.0, 3.0) if alpha < 1 else (0.0, 4.0))
    closed = w.mass
    oracle = kernel_mass_oracle(w)
    assert abs(closed - oracle) < 1e-9
    assert abs(w.w0 + closed - 1.0) < 1e-9


def test_mass_one_sweep(rng):
    for alpha in ALPHAS:
        for _ in range(12):
            a = rng.uniform(0.1, 50.0)
            b = a * rng.uniform(1.1, 1e4)
            w = time_change_weights(alpha, (a, b))
            assert abs(w.w0 + w.mass - 1.0) < 1e-8


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("interval", [(1.0, 2.0), (3.0, 17.5), (0.25, 1000.0)])
def test_kernel_is_the_two_branch_formula_bit_for_bit(alpha, interval):
    """The one kernel formula, coef (F - t) t^p with F the inner windows'
    fixed end, is the tail kernel below alpha = 1 and the head kernel above
    it to the last bit, and so is w0."""
    a, b = interval
    A, B = a**alpha, b**alpha
    p = 1.0 / alpha - 2.0
    ts = np.linspace(A, B, 33)
    if alpha < 1:
        w0 = a ** (1 - alpha) * (B - A) / (alpha * (b - a))
        kernel = (1 - alpha) / (alpha**2 * (b - a)) * (B - ts) * ts**p
    else:
        w0 = b ** (1 - alpha) * (B - A) / (alpha * (b - a))
        kernel = (alpha - 1) / (alpha**2 * (b - a)) * (ts - A) * ts**p
    weights = time_change_weights(alpha, interval)
    assert weights.w0 == w0
    assert np.array_equal(weights.kernel(ts), kernel)


def test_weights_domain_errors():
    with pytest.raises(ValueError):
        time_change_weights(0.0, (1.0, 2.0))
    with pytest.raises(ValueError):
        time_change_weights(-2.0, (1.0, 2.0))
    with pytest.raises(ValueError):
        time_change_weights(0.5, (0.0, 2.0))
    with pytest.raises(ValueError):
        time_change_weights(2.0, (3.0, 2.0))


@pytest.mark.parametrize("alpha,interval", [
    (float("nan"), (1.0, 2.0)), (float("inf"), (1.0, 2.0)), (2.0, (1.0, float("inf"))),
])
def test_weights_reject_non_finite_inputs(alpha, interval):
    with pytest.raises(ValueError, match="finite"):
        time_change_weights(alpha, interval)


def test_time_changed_average_constant():
    value = time_changed_average(Phase({}), F(1, 2), (1.0, 100.0), tol=1e-10)
    assert abs(value - 1.0) < 1e-10


def test_time_changed_average_sqrt_closed_form():
    # v(t) = e^(2 pi i t): avg of v(s^(1/2)) over (n, 2n) has the closed form
    # obtained from the antiderivative of 2 u e^(2 pi i u)
    def oracle(a, b):
        def anti(u):
            tp = 2j * np.pi
            return 2 * (u * np.exp(tp * u) / tp - np.exp(tp * u) / tp**2)

        return (anti(np.sqrt(b)) - anti(np.sqrt(a))) / (b - a)

    curve = Phase({F(1): 1.0})
    prev = None
    for n in (10.0, 100.0, 1000.0, 10000.0):
        value = time_changed_average(curve, F(1, 2), (n, 2 * n), tol=1e-10)
        assert abs(value - oracle(n, 2 * n)) < 1e-8
        prev = abs(value)
    assert prev < 1e-2  # tends to zero


def test_dual_route_consistency_oscillatory():
    curve = Phase({F(1): 0.4, F(1, 2): -0.7})
    for alpha, interval in [(F(1, 3), (2.0, 400.0)), (F(1, 2), (2.0, 400.0)), (F(2), (2.0, 24.0))]:
        tol = 1e-7
        direct = time_changed_average(curve, alpha, interval, tol=tol)
        via = time_changed_average_via_weights(curve, alpha, interval, tol=tol)
        assert abs(direct - via) <= 2 * tol


def test_dual_route_consistency_smooth(rng):
    for _ in range(3):
        w1, w2 = rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)
        curve = Phase({F(1): w1 or 0.1, F(1, 2): w2 or 0.1})
        tol = 1e-7
        direct = time_changed_average(curve, F(3), (0.5, 12.0), tol=tol)
        via = time_changed_average_via_weights(curve, F(3), (0.5, 12.0), tol=tol)
        assert abs(direct - via) <= 2 * tol


def test_reversibility():
    # changing time by alpha then 1/alpha is the identity, on the exponent
    # table and on averages
    curve = Phase({F(1): 0.25})
    alpha = F(2)
    inner = curve.power(1 / alpha)
    assert curve.power(alpha).power(1 / alpha).coeffs == curve.coeffs
    assert inner.power(alpha).coeffs == curve.coeffs
    tol = 1e-8
    twice = time_changed_average(inner, alpha, (1.0, 500.0), tol=tol)
    plain, _, _ = adaptive_integral(lambda t: np.exp(0.5j * np.pi * t), 1.0, 500.0, tol * 499.0)
    assert abs(twice - plain / 499.0) < 5e-7


def test_limit_equality_fractional_phase():
    # averages of e^(2 pi i theta(t)) tend to 0; the time-changed averages
    # over tempered intervals approach the same limit
    curve = Phase({F(1): 1.0})
    for alpha, interval in [(F(1, 3), (2.0**30, 2.0**31)), (F(2), (2.0**8, 2.0**9))]:
        value = time_changed_average(curve, alpha, interval, tol=1e-6)
        assert abs(value) < 1e-2


def linear_phase_average(c, lo, hi):
    """Closed-form average of exp(2 pi i c t) over (lo, hi), broadcasting."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    e = lambda t: np.exp(2j * np.pi * c * t)
    return (e(hi) - e(lo)) / (2j * np.pi * c * (hi - lo))


@pytest.mark.parametrize("alpha,interval", [(1 / 3, (2.0, 400.0)), (3.0, (0.5, 12.0))])
def test_weighted_average_queries_inner_once_per_batch(monkeypatch, alpha, interval):
    rounds = []
    real_eval = quadrature._eval_panels

    def counting_eval(f, a, b, *batch):
        rounds.append(len(a))
        return real_eval(f, a, b, *batch)

    monkeypatch.setattr(quadrature, "_eval_panels", counting_eval)
    calls, points = [], []

    def inner(lo, hi):
        calls.append((lo, hi))
        points.append(max(np.size(lo), np.size(hi)))
        return linear_phase_average(0.3, lo, hi)

    weights = time_change_weights(alpha, interval)
    batched = weights.weighted_average(inner, tol=1e-9)
    assert len(calls) <= 2 * len(rounds) + 1
    assert sum(points) > 10 * len(calls)
    # the loop form of the same rule: one scalar query per point
    per_point = np.vectorize(
        lambda lo, hi: complex(linear_phase_average(0.3, lo, hi)), otypes=[complex]
    )
    assert abs(batched - weights.weighted_average(per_point, tol=1e-9)) < 1e-12


def timechange_oracle(alpha, c, a, b):
    """Average of exp(2 pi i c s^alpha) over (a, b) through the incomplete
    gamma function: after x = s^alpha it is the integral of
    x^(nu - 1) e^(2 pi i c x) over (a^alpha, b^alpha), divided by
    alpha (b - a), with nu = 1 / alpha."""
    import mpmath as mp

    with mp.workdps(30):
        al = mp.mpf(alpha.numerator) / alpha.denominator
        nu = 1 / al
        A, B = mp.mpf(a) ** al, mp.mpf(b) ** al
        z = -2j * mp.pi * mp.mpf(c)
        return complex(z ** (-nu) * mp.gammainc(nu, z * A, z * B) / (al * (b - a)))


@pytest.mark.parametrize(
    "alpha,interval", [(F(1, 3), (2.0, 400.0)), (F(2), (1.0, 30.0)), (F(7, 2), (1.0, 9.0))]
)
def test_via_weights_against_incomplete_gamma(alpha, interval):
    curve = Phase({F(1): 0.7})
    tol = 1e-7
    via = time_changed_average_via_weights(curve, alpha, interval, tol=tol)
    assert abs(via - timechange_oracle(alpha, 0.7, *interval)) <= tol


ROUTES = [time_changed_average, time_changed_average_via_weights]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("a", [1e14, 1e15])
def test_far_window_raises_on_both_routes(route, a):
    # float phases near 1e14 lose about 2e-6 of a cycle: unguarded, both routes
    # returned values off by 2.3e-6 (2.7e-4 at 1e15) against the closed form
    with pytest.raises(QuadratureBudgetError) as exc:
        route(Phase({F(1): 0.1234567}), F(1), (a, a + 1000.5), tol=1e-8)
    assert exc.value.evals == 0
    assert exc.value.est_error > 1e-8


@pytest.mark.parametrize("route", ROUTES)
def test_near_window_matches_closed_form_on_both_routes(route):
    a = 1e6
    value = route(Phase({F(1): 0.1234567}), F(1), (a, a + 1000.5), tol=1e-8)
    assert abs(value - timechange_oracle(F(1), 0.1234567, a, a + 1000.5)) <= 1e-11


@pytest.mark.parametrize("v", [
    Phase({F(1, 3): 1.0}),
    Phase({F(1, 2): 1.0, F(3, 2): 0.1}),
    Phase({F(1): 0.5}, shifted={F(1): 0.5}).at(1.0),
], ids=["third", "three_halves", "shifted"])
@pytest.mark.parametrize("alpha", [F(1), F(2)])
def test_weight_route_rejects_phases_outside_the_closed_form(v, alpha):
    """The weight route's nested averages are the closed form's arrays of
    windows, for alpha = 1 (w0's window alone) as for any other."""
    with pytest.raises(ValueError, match="closed form"):
        time_changed_average_via_weights(v, alpha, (1.0, 4.0), tol=1e-7)


def test_weight_route_raises_where_nested_bounds_miss_their_share():
    """With b = 1e-13 against a = 3 the closed form's terms cancel on every
    nested window, and a single Gauss piece takes over: on (2, 400) it bounds
    the few cycles of each window, and the route meets tol; on (2, 8000) a
    window holds some 10 cycles in u, no piece can bound them, and the route
    raises rather than return a value with no bound."""
    v = Phase({F(1, 2): 3.0, F(1): 1e-13})
    tol = 1e-7
    via = time_changed_average_via_weights(v, F(1, 3), (2.0, 400.0), tol=tol)
    assert abs(via - time_changed_average(v, F(1, 3), (2.0, 400.0), tol=tol)) <= 2 * tol
    with pytest.raises(QuadratureBudgetError) as exc:
        time_changed_average_via_weights(v, F(1, 3), (2.0, 8000.0), tol=tol)
    assert exc.value.est_error > tol

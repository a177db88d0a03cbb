import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fpet
from fpet.quadrature import (
    _BATCH_ROWS,
    _CHUNK_POINTS,
    _E8,
    _W_COEF,
    _W_REL,
    _W_SCALE,
    DEFAULT_BUDGET,
    Phase,
    QuadratureBudgetError,
    _faddeeva,
    _initial_edges,
    _probe_cycles,
    adaptive_integral,
    osc_phase_average,
)

F = Fraction


def t_theta(phase, t):
    """theta(t) term by term from the phase's tables, in t: the reference
    that the u-integrand and u-phase of ``Phase.substitute`` are checked
    against."""
    t = np.asarray(t, dtype=float)
    theta = np.zeros_like(t)
    for e, c in phase.coeffs.items():
        theta = theta + c * t ** float(e)
    for e, s in phase.shifted.items():
        theta = theta + s * (t + phase.h) ** float(e)
    return theta


def closed_linear_average(c, a, b):
    return (np.exp(2j * np.pi * c * b) - np.exp(2j * np.pi * c * a)) / (
        2j * np.pi * c * (b - a)
    )


def test_constant_phase_is_exact_one():
    value, err, evals = osc_phase_average({}, 0.0, 10.0, 1e-10)
    assert value == 1.0 + 0j and err == 0.0 and evals == 0
    value, err, evals = osc_phase_average({F(1): 0.0}, 0.0, 10.0, 1e-10)
    assert value == 1.0 + 0j


@pytest.mark.parametrize(
    "c,a,b",
    [(1 / 3, 0.0, 1024.0), (2 / 3, 0.0, 2.0**17), (10 / 3, 5 * 2.0**14, 6 * 2.0**14), (-7.0, 3.0, 997.0),
     (0.1234567, 1e6, 1e6 + 1000.5)],
)
def test_linear_phase_against_antiderivative(c, a, b):
    value, err, _ = osc_phase_average({F(1): c}, a, b, 1e-9)
    assert abs(value - closed_linear_average(c, a, b)) < 1e-9
    assert err < 1e-9


def test_fractional_phase_against_scipy():
    from scipy.integrate import quad

    coeffs = {F(1, 2): -20 / 3, F(1): 1 / 3}
    T = 2.0**14
    # oracle in the substituted variable: integrand 2 u e^(2 pi i (c1 u + c2 u^2))
    re, _ = quad(lambda u: 2 * u * np.cos(2 * np.pi * (-20 / 3 * u + u * u / 3)), 0, np.sqrt(T), limit=4000)
    im, _ = quad(lambda u: 2 * u * np.sin(2 * np.pi * (-20 / 3 * u + u * u / 3)), 0, np.sqrt(T), limit=4000)
    oracle = (re + 1j * im) / T
    value, err, _ = osc_phase_average(coeffs, 0.0, T, 1e-10)
    assert abs(value - oracle) < 1e-8


def test_mixed_denominators():
    from scipy.integrate import quad

    coeffs = {F(1, 2): 1.5, F(1, 3): -2.0}
    b = 300.0
    re, _ = quad(lambda t: np.cos(2 * np.pi * (1.5 * np.sqrt(t) - 2 * t ** (1 / 3))), 0, b, limit=4000)
    im, _ = quad(lambda t: np.sin(2 * np.pi * (1.5 * np.sqrt(t) - 2 * t ** (1 / 3))), 0, b, limit=4000)
    oracle = (re + 1j * im) / b
    value, _, _ = osc_phase_average(coeffs, 0.0, b, 1e-10)
    assert abs(value - oracle) < 1e-7


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        osc_phase_average({F(-1): 1.0}, 0.0, 1.0, 1e-8)
    with pytest.raises(ValueError):
        osc_phase_average({F(1): 1.0}, -1.0, 1.0, 1e-8)
    with pytest.raises(ValueError):
        adaptive_integral(lambda x: x, 1.0, 1.0, 1e-8)


@pytest.mark.parametrize("route", [
    lambda hi: adaptive_integral(lambda x: np.ones_like(x), 0.0, hi, 1e-8),
    lambda hi: osc_phase_average({1: 1.0}, 0.0, hi, 1e-8),
], ids=["adaptive_integral", "osc_phase_average"])
def test_infinite_window_is_an_input_error(route):
    with pytest.raises(ValueError, match="finite"):
        route(float("inf"))


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf")])
def test_phase_rejects_non_finite_coefficients(coeff):
    with pytest.raises(ValueError, match="finite"):
        osc_phase_average({1: coeff}, 0.0, 10.0, 1e-6)
    with pytest.raises(ValueError, match="finite"):
        Phase({F(1, 2): 1.0}, shifted={1: coeff})


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_phase_rejects_bad_tolerances(tol):
    with pytest.raises(ValueError, match="tolerance"):
        osc_phase_average({1: 0.5}, 0.0, 10.0, tol)
    with pytest.raises(ValueError, match="tolerance"):
        Phase({F(1, 2): 1.0}, shifted={1: 0.5}).at(2.0).substitute(10.0, tol)
    # the refinement loop itself, before any work: a zero tolerance used to
    # spend ~10^7 evaluations and end in a budget error
    with pytest.raises(ValueError, match="tolerance"):
        adaptive_integral(np.cos, 0.0, 1.0, tol)
    with pytest.raises(ValueError, match="tolerance"):
        Phase({1: 0.5}).average(np.array([1.0, 2.0]), 10.0, tol)


@pytest.mark.parametrize("route", [
    lambda: osc_phase_average({}, 0.0, 10.0, float("nan")),
    lambda: Phase({}).average(3.0, 1.0, 1e-8),
    lambda: Phase({}).average(-5.0, -1.0, 1e-8),
], ids=["nan_tol", "reversed_window", "negative_window"])
def test_zero_phase_is_validated_before_its_exact_average(route):
    with pytest.raises(ValueError):
        route()


THREAD_PROBE = """
import time
from fractions import Fraction
from fpet.quadrature import Phase

t0, c0 = time.perf_counter(), time.process_time()
for k in range(40):
    Phase({Fraction(1, 3): 3.0, 1: 0.5 * k}).average(0.0, 4000.0, 1e-8)
print(time.process_time() - c0, time.perf_counter() - t0)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a helper thread needs a second core")
def test_quadrature_starts_no_helper_thread():
    """Process CPU time stays near wall time with the BLAS and OpenMP pools
    left at their defaults, as a user runs the library: no hidden thread
    spins next to the quadrature."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(fpet.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    cpu, wall = map(float, out.split())
    assert cpu <= 1.3 * wall, f"CPU {cpu:.2f} s over wall {wall:.2f} s"


def test_budget_error_carries_partial():
    with pytest.raises(QuadratureBudgetError) as exc:
        osc_phase_average({F(1): 1000.0}, 0.0, 1e6, 1e-12, budget=2000)
    assert exc.value.est_error > 0
    assert exc.value.evals <= 2000


def test_adaptive_average_smooth_curve():
    curve = lambda t: np.asarray(t, dtype=float) ** 2 + 0j
    value, err, _ = adaptive_integral(curve, 0.0, 3.0, 1e-12 * 3.0)
    assert abs(value / 3.0 - 3.0) < 1e-12


def test_exp_phase_curve_theta_and_values():
    # theta(t) = 2 sqrt(t) + t is 2u + u^2 after t = u^2
    L, integrand, theta = Phase({F(1, 2): 2.0, F(1): 1.0}).substitute(4.0, 1e-8)
    u = np.array([1.0, 2.0])
    assert L == 2
    assert np.allclose(integrand(u), 2 * u * np.exp(2j * np.pi * (2 * u + u**2)))
    assert np.allclose(theta(u), 2 * u + u**2)


def test_adaptive_average_uses_curve_hint():
    curve = lambda t: np.exp(2j * np.pi * t / 3)
    hint = lambda t: t / 3
    # 1365 cycles: the layout gives them about 400 panels, the uniform 16
    edges, batch = _initial_edges(0.0, 4096.0, hint, DEFAULT_BUDGET)
    assert len(edges) > 400 and batch == ()
    value, _, _ = adaptive_integral(curve, 0.0, 4096.0, 1e-10 * 4096.0, phase=hint)
    assert abs(value / 4096.0 - closed_linear_average(1 / 3, 0.0, 4096.0)) < 1e-9


@pytest.mark.parametrize(
    "coeffs, window",
    [
        ({F(1, 2): -3.0, F(1): 0.5}, (0.0, 100.0)),  # stationary at t = 9
        ({F(1, 2): 1.7, F(1): -0.013}, (0.0, 2.0**14)),  # stationary near t = 4275
        ({F(1, 2): -40.0, F(1): 0.21}, (4e3, 2.0**14)),  # stationary near t = 9070
        ({F(1, 2): 2.5, F(1): 0.37}, (1e3, 5e3)),  # monotone
    ],
)
def test_layout_counts_the_cycles_of_the_phase(monkeypatch, coeffs, window):
    """The layout's cycle count is the total variation of theta over the
    window, as the benchmark's tracer counts it at 30 digits; a stationary
    point inside the window tells variation from net change."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from spans import phase_cycles

    lo, hi = window
    L, _, theta = Phase(coeffs).substitute(hi, 1e-8)
    _, cycles = _probe_cycles(lo ** (1 / L), hi ** (1 / L), theta)
    assert cycles.sum() == pytest.approx(phase_cycles(coeffs, lo, hi), rel=0.01)


@pytest.mark.parametrize("phase", [
    lambda p: np.zeros_like(p),
    lambda p: np.where(p > 3.0, np.nan, p),
    lambda p: np.where(p < p[-1], p, np.inf),
], ids=["constant", "nan", "inf"])
def test_layout_falls_back_to_uniform_edges(phase):
    """A phase whose variation is not finite and positive lays out the 17
    uniform edges, and the integral still converges from them."""
    edges, batch = _initial_edges(2.0, 5.0, phase, DEFAULT_BUDGET)
    assert np.array_equal(edges, np.linspace(2.0, 5.0, 17)) and batch == ()
    value, err, _ = adaptive_integral(np.cos, 2.0, 5.0, 1e-12, phase=phase)
    assert abs(value - (np.sin(5.0) - np.sin(2.0))) < 1e-12 and err <= 1e-12


def test_deterministic_reruns():
    coeffs = {F(1, 2): -3.0, F(1): 5 / 7}
    first = osc_phase_average(coeffs, 0.0, 1e4, 1e-9)
    second = osc_phase_average(coeffs, 0.0, 1e4, 1e-9)
    assert first == second


def test_far_window_raises_instead_of_drifting():
    # float phases near 1e14 lose about 2e-6 of a cycle; the closed form of the
    # linear phase shows the old result was off by 2.3e-6 at tol 1e-8
    a = 1e14
    with pytest.raises(QuadratureBudgetError) as exc:
        osc_phase_average({F(1): 0.1234567}, a, a + 1000.5, tol=1e-8)
    assert exc.value.evals == 0
    assert exc.value.est_error == pytest.approx(2 * np.pi * 0.1234567 * (a + 1000.5) * 2.0**-52)
    assert exc.value.est_error > 1e-8


def test_far_window_guard_counts_shifted_terms_at_hi_plus_h():
    # a correlation phase theta_1(t + h) - theta_2(t) on (0, 1000.5): at
    # h = 1e14 its shifted block alone loses about 2e-6 of a cycle
    phase = Phase({F(1): -1e-3}, shifted={F(1): 0.1234567})
    assert phase.at(1e6).substitute(1000.5, 1e-8)[0] == 1
    with pytest.raises(QuadratureBudgetError) as exc:
        phase.at(1e14).substitute(1000.5, 1e-8)
    assert exc.value.evals == 0
    expected = 1e-3 * 1000.5 + 0.1234567 * (1e14 + 1000.5)
    assert exc.value.est_error == pytest.approx(2 * np.pi * expected * 2.0**-52)


def test_phase_rejects_inexact_exponents():
    # 0.2 as a float is a fraction with denominator 2^54: taken as exact it
    # would ask for a polynomial of that degree in u
    with pytest.raises(ValueError, match="exact"):
        osc_phase_average({0.2: 1.0}, 0.0, 10.0, 1e-8)
    with pytest.raises(ValueError, match="exact"):
        Phase({F(1): 1.0}, shifted={0.5: 1.0})
    with pytest.raises(ValueError, match="exact"):
        Phase({F(1): 1.0}).power(0.5)
    with pytest.raises(ValueError, match="positive"):
        Phase({F(1): 1.0}).power(F(0))
    with pytest.raises(ValueError):
        Phase({F(1): 1.0}, shifted={F(1): 1.0}).power(F(2))
    assert Phase({1: 2.0, F(2, 4): 0.0, F(3, 2): -1}).coeffs == {F(1): 2.0, F(3, 2): -1.0}


@pytest.mark.parametrize(
    "coeffs", [{F(1): 0.25}, {F(1, 2): -1.1, F(1): 0.37}, {F(2, 3): 1.5, F(5, 2): -2.0, F(3): 0.5}]
)
@pytest.mark.parametrize("alpha", [F(2), F(1, 3), F(7, 2)])
def test_phase_power_round_trip(coeffs, alpha):
    phase = Phase(coeffs)
    back = phase.power(alpha).power(1 / alpha)
    assert list(back.coeffs.items()) == list(phase.coeffs.items())
    assert list(phase.power(alpha).coeffs) == [e * alpha for e in phase.coeffs]
    t = np.linspace(0.5, 2.0, 97)
    L, integrand, _ = phase.power(alpha).substitute(2.0, 1e-8)
    u = t ** (1.0 / L)
    expected = np.exp(2j * np.pi * t_theta(phase, t ** float(alpha)))
    assert np.allclose(integrand(u) / (L * u ** (L - 1)), expected, rtol=0, atol=1e-10)


SUBSTITUTED = {
    "plain": Phase({F(1): 0.37, F(2): -0.01}),
    "mixed": Phase({F(1, 2): 1.5, F(1, 3): -2.0, F(5, 6): 0.25}),
    "shifted": Phase({F(1, 2): -0.5, F(1): -0.2}, shifted={F(1, 2): 0.8, F(1): -0.3}).at(3.7),
}


@pytest.mark.parametrize("name", SUBSTITUTED)
def test_phase_substitution_matches_definition(name):
    phase = SUBSTITUTED[name]
    u = np.linspace(0.0, 3.0, 301)
    L, integrand, theta = phase.substitute(u[-1] ** phase.L, 1e-8)
    assert L == {"plain": 1, "mixed": 6, "shifted": 2}[name]
    amplitude = L * u ** (L - 1)
    curve = np.exp(2j * np.pi * t_theta(phase, u**L))
    assert np.max(np.abs(integrand(u) - amplitude * curve)) <= 1e-12 * np.max(amplitude)
    assert np.allclose(theta(u), t_theta(phase, u**L), rtol=1e-12, atol=1e-12)


def test_phase_shift_moves_only_the_shifted_block():
    base = Phase({F(1): -0.2}, shifted={F(1, 2): 0.8})
    moved = base.at(2.5)
    assert (base.h, moved.h) == (0.0, 2.5)
    u = np.linspace(0.0, np.sqrt(10.0), 41)
    for phase, h in ((base, 0.0), (moved, 2.5)):
        _, integrand, _ = phase.substitute(10.0, 1e-8)
        expected = 2 * u * np.exp(2j * np.pi * (0.8 * np.sqrt(u**2 + h) - 0.2 * u**2))
        assert np.allclose(integrand(u), expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the Fresnel closed form of Phase.average


def _digits(x: float) -> int:
    return int(np.log10(1.0 + x)) + 1


def fresnel_reference(coeffs, lo, hi, extra=0):
    """The average of exp(2 pi i theta(t)) over (lo, hi) for exponents within
    {1/2, 1} or within {1, 2}, from mpmath's erf at 30 digits beyond those
    that the size of the phase and the cancellation of its terms take, and
    ``extra`` more (a narrow window cancels in its ends).  After
    t = u^L, theta = a u + b u^2; with L = 2 the amplitude 2u is
    e(theta)' / (2 pi i b) - (a / b) e(theta), and the integral of e(theta)
    is the erf difference of the completed square."""
    import mpmath as mp

    terms = {F(e): c for e, c in coeffs.items() if c}
    L = 2 if F(1, 2) in terms else 1
    a, b = terms.get(F(1, L), 0.0), terms.get(F(2, L), 0.0)
    if not (a or b):
        return 1 + 0j
    u1 = hi ** (1 / L)
    digits = _digits(abs(a) * u1 + abs(b) * u1 * u1)
    if b:
        digits += _digits(abs(a) / abs(b)) + _digits(1 / min(abs(b), 1.0))
    else:
        digits += 2 * _digits(1 / min(abs(a), 1.0))
    with mp.workdps(30 + extra + digits):
        a, b = mp.mpf(a), mp.mpf(b)
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        u0, u1 = (mp.sqrt(lo), mp.sqrt(hi)) if L == 2 else (lo, hi)
        al, be = 2 * mp.pi * a, 2 * mp.pi * b
        if b == 0:
            if L == 1:
                integral = (mp.expj(al * u1) - mp.expj(al * u0)) / (1j * al)
            else:
                def prim(u):
                    return 2 * mp.expj(al * u) * (u / (1j * al) + 1 / al**2)

                integral = prim(u1) - prim(u0)
        else:
            kappa = mp.sqrt(-1j * be)
            shift = al / (2 * be)
            fresnel = mp.expj(-al**2 / (4 * be)) * mp.sqrt(mp.pi) / (2 * kappa) * (
                mp.erf(kappa * (u1 + shift)) - mp.erf(kappa * (u0 + shift))
            )
            integral = fresnel
            if L == 2:
                edge = mp.expj(al * u1 + be * u1**2) - mp.expj(al * u0 + be * u0**2)
                integral = edge / (1j * be) - (a / b) * fresnel
        return complex(integral / (hi - lo))


# 0 or 1e-9 <= |c| < 50: nearer 0 the reference's erf needs hundreds of
# digits, and the closed form falls back to panels anyway
_COEF = st.one_of(
    st.just(0.0),
    st.builds(float.__mul__, st.floats(1e-9, 50, exclude_max=True), st.sampled_from([1.0, -1.0])),
)


@st.composite
def fresnel_cases(draw):
    """A phase with exponents {1/2, 1} or {1, 2}, coefficients in (-50, 50),
    on a pinned (0, 2^(n+1)) or sliding (2^n, 2^(n+1)) window up to 2^17 in
    t; in one case of three the coefficients put the stationary point
    u* = -a/(2b) inside the window.  Windows of {1, 2} stop at 2^10, beyond
    which the rounding guard rejects most coefficients."""
    low, high = draw(st.sampled_from([(F(1, 2), F(1)), (F(1), F(2))]))
    L = low.denominator
    n = draw(st.integers(0, 16 if L == 2 else 9))
    lo, hi = (0.0, 2.0 ** (n + 1)) if draw(st.booleans()) else (2.0**n, 2.0 ** (n + 1))
    if draw(st.integers(0, 2)) == 0:
        a = draw(_COEF.filter(bool))
        ustar = draw(st.floats(lo ** (1 / L), hi ** (1 / L)).filter(bool))
        b = -a / (2 * ustar)
        assume(abs(b) < 50)
    else:
        a, b = draw(_COEF), draw(_COEF)
    return {low: a, high: b}, lo, hi


@settings(max_examples=200, deadline=None)
@given(fresnel_cases())
def test_fresnel_closed_form_within_its_bound(case):
    """The closed form lies within its reported bound of the 30-digit erf
    reference; a fallback lies within tol of it.  Where the phase has at most
    2e4 cycles the adaptive panels, substitute + adaptive_integral, are a
    second reference, within tol."""
    coeffs, lo, hi = case
    tol = 1e-8
    try:
        value, err, evals = osc_phase_average(coeffs, lo, hi, tol)
    except QuadratureBudgetError as exc:
        assert exc.evals == 0 and exc.est_error > tol  # the window guard
        return
    ref = fresnel_reference(coeffs, lo, hi)
    if evals == 0:
        assert abs(value - ref) <= err <= tol
    else:
        assert abs(value - ref) <= tol
    phase = Phase(coeffs)
    L, integrand, theta = phase.substitute(hi, tol)
    u0, u1 = lo ** (1 / L), hi ** (1 / L)
    if sum(abs(c) * u1 ** int(e * L) for e, c in phase.coeffs.items()) <= 2e4:
        panels, _, _ = adaptive_integral(integrand, u0, u1, tol * (hi - lo), phase=theta)
        assert abs(value - panels / (hi - lo)) <= tol


def test_weideman_coefficients_match_the_fft_recipe():
    """The literal coefficients of w are those of Weideman's own recipe: the
    FFT of exp(-t^2) (L^2 + t^2) at t = L tan(k pi / 2M), M = 2N, N = 32."""
    n = 32
    m = 2 * n
    scale = np.sqrt(n / np.sqrt(2))
    t = scale * np.tan(np.arange(1 - m, m) * np.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    assert _W_SCALE == scale
    assert np.allclose(_W_COEF, a[1 : n + 1][::-1], rtol=0, atol=1e-15)


def test_faddeeva_meets_its_accuracy_constant_on_the_ray():
    """w on the ray arg z = pi/4, from 0 to 1e12, within the relative
    accuracy the closed form's bound charges for it (mpmath at 30 digits
    beyond those of the phase z^2)."""
    import mpmath as mp

    radii = np.concatenate(([0.0], np.logspace(-8, 12, 241), np.linspace(0.05, 30.0, 600)))
    worst = 0.0
    for r in radii:
        z = complex(_E8 * r)
        with mp.workdps(30 + 2 * _digits(r)):
            zm = mp.mpc(z)
            ref = complex(mp.exp(-zm * zm) * mp.erfc(-1j * zm))
        worst = max(worst, abs(_faddeeva(z) - ref) / abs(ref))
    assert worst <= _W_REL


@pytest.mark.parametrize(
    "coeffs, window",
    [
        ({F(1): 0.37}, (3.0, 997.0)),
        ({F(1): -7.0}, (0.0, 2.0**17)),
        ({F(2): 1.0}, (64.0, 128.0)),  # t at alpha = 2: L = 1
        ({F(1, 2): 1.0}, (1024.0, 2048.0)),  # t at alpha = 1/2
        ({F(1, 2): -20 / 3, F(1): 1 / 3}, (0.0, 2.0**14)),  # stationary at t = 100
        ({F(1): 2.5, F(2): -0.01}, (10.0, 300.0)),  # stationary at t = 125
    ],
)
def test_closed_form_route_spends_no_evaluations(coeffs, window):
    value, err, evals = osc_phase_average(coeffs, *window, 1e-8)
    assert evals == 0
    assert abs(value - fresnel_reference(coeffs, *window)) <= err <= 1e-8


@st.composite
def window_arrays(draw):
    """A phase and span of :func:`fresnel_cases`, and up to six windows in
    the span: tails (t, hi) or heads (lo, t), which share one float end, or
    windows of width 10^-j, j = 1..12 (at least four ulps), at points of the
    span."""
    coeffs, lo, hi = draw(fresnel_cases())
    points = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                           min_size=1, max_size=6))
    ts = lo + np.array(points) * (hi - lo)
    mode = draw(st.sampled_from(["narrow", "tail", "head"]))
    if mode == "tail":
        assume(np.all(ts < hi))
        return coeffs, ts, hi
    if mode == "head":
        assume(np.all(ts > lo))
        return coeffs, lo, ts
    powers = draw(st.lists(st.integers(1, 12), min_size=len(ts), max_size=len(ts)))
    return coeffs, ts, ts + np.maximum(10.0 ** -np.array(powers), 4 * np.spacing(ts))


@settings(max_examples=300, deadline=None)
@given(window_arrays())
# a window 1e-8 wide at t = 1.5: scalar panels there lose the ends in u
@example(({F(1, 2): 1.0, F(1): -0.5}, np.array([1.5]), np.array([1.50000001])))
# one ulp wide: both ends round to one u = sqrt(t)
@example(({F(1, 2): 1.0, F(1): -0.5}, 1.0, np.array([np.nextafter(1.0, 2.0)])))
# a window near 0 beside one far out, whose rounding it must not be charged
@example(({F(1, 2): 1.0, F(1): -21.0}, 0.0, np.array([16384.0, 6.5e-185])))
def test_window_arrays_within_their_bounds(case):
    """Each window of an array lies within its reported bound of the
    30-digit reference; a window of width at most 1e-6 of its end (where
    G(hi) - G(lo) cancels) still meets tol, by the sinc or a Gauss piece,
    unless the phase's own rounding takes a tenth of it.  The bounds are
    those of ``_closed_windows`` after the window guard; ``average`` returns
    the same arrays when the largest bound meets tol, and otherwise raises
    with that bound and the evaluations.  Wherever a window meets tol in
    the array, the float call on it succeeds too, within the two bounds."""
    coeffs, lo, hi = case
    tol = 1e-8
    phase = Phase(coeffs)
    if np.min(np.subtract(hi, lo)) < np.finfo(float).tiny:
        with pytest.raises(ValueError, match="normal width"):
            phase.average(lo, hi, tol)
        return
    los, his = np.broadcast_arrays(lo, hi)
    try:
        # the rounding bound of the window guard, which every bound carries
        noise = phase._noise(np.max(his), tol)
    except QuadratureBudgetError as exc:
        assert exc.evals == 0 and exc.est_error > tol
        with pytest.raises(QuadratureBudgetError):
            phase.average(lo, hi, tol)
        return
    if not phase.coeffs:  # the prologue's exact 1, before any closed form
        values, errs, evals = phase.average(lo, hi, tol)
        assert np.all(values == 1.0) and np.all(errs == 0.0) and evals == 0
        return
    values, errs, evals = phase._closed_windows(lo, hi, noise, tol)
    if np.max(errs) > tol:
        with pytest.raises(QuadratureBudgetError) as exc:
            phase.average(lo, hi, tol)
        assert exc.value.est_error == np.max(errs) and exc.value.evals == evals
    else:
        same = phase.average(lo, hi, tol)
        assert np.array_equal(same[0], values) and np.array_equal(same[1], errs)
        assert same[2] == evals
    assert values.shape == errs.shape == los.shape
    for a, b, value, err in zip(los, his, values, errs):
        # the ends' terms cancel to the window's width, relative and absolute
        ref = fresnel_reference(coeffs, a, b, extra=_digits(b / (b - a)) + _digits(1 / (b - a)))
        assert abs(value - ref) <= err
        if b - a <= 1e-6 * max(b, 1.0) and 10 * noise <= tol:
            assert err <= tol
        if err <= tol:
            # the closed form or the narrow-window rules: a bound either way
            scalar, scalar_err, _ = phase.average(float(a), float(b), tol)
            assert scalar_err <= tol and abs(value - scalar) <= err + scalar_err


def _counting_guards(monkeypatch) -> list:
    """The ``hi`` of each pass of the window guard, as they happen."""
    guards, noise = [], Phase._noise
    monkeypatch.setattr(Phase, "_noise", lambda self, hi, tol: guards.append(hi) or noise(self, hi, tol))
    return guards


@pytest.mark.parametrize("window, tol", [
    ((1.5, 1.50000001), 1e-8),
    ((1e6, 1e6 + 1e-4), 1e-6),
], ids=["near_one", "far_out"])
def test_float_window_takes_the_array_route(window, tol, monkeypatch):
    """A float window whose closed-form bound misses tol enters the
    narrow-window rules as a one-element array, and returns that array's
    value and bound bit for bit, after one pass of the window guard.  Both
    windows once fell through to panels, which refused them as too narrow
    for their ends in u (2.7e-7 and 1.8e-5)."""
    phase = Phase({F(1, 2): 1.0, F(1): -0.5})
    guards = _counting_guards(monkeypatch)
    value, err, evals = phase.average(*window, tol)
    values, errs, array_evals = phase.average(np.array([window[0]]), np.array([window[1]]), tol)
    assert len(guards) == 2
    assert type(value) is complex and type(err) is float
    assert value == values[0] and err == errs[0] and evals == array_evals == 24
    a, b = window
    assert abs(value - fresnel_reference(phase.coeffs, a, b, extra=_digits(b / (b - a)))) <= err <= tol


@pytest.mark.parametrize("coeffs", [
    {F(1): 0.37},
    {F(1): 2.5, F(2): -0.01},
    {F(1, 2): 1.0},
    {F(1, 2): 0.3, F(1): 0.7},
], ids=["linear", "quadratic", "root", "root_and_linear"])
def test_float_closed_form_calls_no_numpy(coeffs, monkeypatch):
    """A float window whose closed form meets tol returns before any numpy
    call, after exactly one pass of the window guard."""
    phase = Phase(coeffs)
    guards = _counting_guards(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy called on the float closed form")

    for name in ("max", "errstate", "broadcast_to", "asarray"):
        monkeypatch.setattr(np, name, refuse)
    value, err, evals = phase.average(100.0, 900.0, 1e-8)
    assert evals == 0 and err <= 1e-8 and guards == [900.0]
    assert type(value) is complex


def test_window_arrays_take_the_closed_form_only():
    """Arrays of windows are the closed form's: any other phase is a
    ValueError, as are empty and NaN windows and one of subnormal width; a
    float end is shared by every window, and an empty array of windows
    averages to empty arrays."""
    ts = np.array([1.0, 2.0, 3.0])
    for phase in (Phase({F(1, 3): 1.0}), Phase({F(1, 2): 1.0, F(3, 2): 0.1}),
                  Phase({F(1): 0.5}, shifted={F(1): 0.5}).at(1.0)):
        with pytest.raises(ValueError, match="closed form"):
            phase.average(ts, 4.0, 1e-8)
    phase = Phase({F(1): 0.37})
    for lo, hi in ((ts, 2.0), (ts, np.array([2.0, 3.0, np.nan])), (3.0, ts),
                   (0.0, np.array([1.0, 1e-310]))):
        with pytest.raises(ValueError, match="interval"):
            phase.average(lo, hi, 1e-8)
    values, errs, evals = phase.average(ts, 4.0, 1e-8)
    assert values.shape == errs.shape == (3,) and evals == 0
    assert np.all(np.abs(values - closed_linear_average(0.37, ts, 4.0)) <= errs)
    ones, zeros, _ = Phase({}).average(1.0, ts + 1.0, 1e-8)
    assert np.all(ones == 1.0) and np.all(zeros == 0.0)
    # no windows at all, whichever end is the empty array
    for lo, hi in ((ts[:0], 4.0), (1.0, ts[:0])):
        values, errs, evals = phase.average(lo, hi, 1e-8)
        assert values.shape == errs.shape == (0,) and evals == 0


@pytest.mark.parametrize("coeffs, window", [
    ({F(1, 2): 3.0, F(1): 1e-13}, (0.0, 1e4)),
    ({F(1, 2): 1e-170}, (0.0, 10.0)),
], ids=["small_b", "tiny_a"])
def test_cancelling_closed_form_falls_back_to_panels(coeffs, window):
    """With b = 1e-13 against a = 3 the closed form's boundary and Fresnel
    terms, near 1e12 each, cancel; with b = 0 and a = 1e-170 its terms
    overflow.  Either way its bound exceeds tol, and the narrow-window rules
    try the window first: for a = 1e-170 the phase hardly moves and their
    24-point Gauss piece meets tol, while for b = 1e-13 the piece's Cauchy
    bound over the whole window is far above it and the panels answer."""
    value, err, evals = osc_phase_average(coeffs, *window, 1e-8)
    assert evals == 24 if coeffs[F(1, 2)] < 1 else evals > 24
    assert abs(value - fresnel_reference(coeffs, *window)) <= 1e-8


@pytest.mark.parametrize("phase", [
    Phase({F(3, 2): 0.1}),
    Phase({F(1, 2): 1.0, F(3, 2): 0.1}),
    Phase({F(1, 2): 1.0}, shifted={F(1): 0.5}).at(2.0),
], ids=["three_halves", "half_and_three_halves", "shifted"])
def test_phases_beyond_the_closed_form_stay_on_panels(phase):
    _, _, evals = phase.average(0.0, 100.0, 1e-8)
    assert evals > 0


# ---------------------------------------------------------------------------
# the batch axis of the adaptive core


def _u_integral(phase, T, tol, wrap=lambda f: f):
    """The integral of ``phase`` over t in (0, T) in u = t^(1/L), as the van
    der Corput correlations take it: (value, error, evaluations)."""
    L, integrand, theta = phase.substitute(T, tol)
    return adaptive_integral(wrap(integrand), 0.0, T ** (1.0 / L), tol * T, phase=theta)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    T=st.floats(4.0, 600.0),
    hs=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=_BATCH_ROWS),
    tol=st.sampled_from([1e-6, 1e-10]),
)
# a subnormal coefficient: the probe cells' cycles are subnormal, and laying
# panels out from them overflowed an edge to infinity
@example(coeffs=[0.0, 0.0, 0.0, 2.225073858507e-311], T=4.0, hs=[0.0], tol=1e-6)
def test_batched_rows_match_scalar_calls(coeffs, T, hs, tol):
    """Each batched row and the scalar call at its shift both estimate
    their error at most tol * T, on different panels, so they agree to
    within twice that."""
    a, b, s1, s2 = coeffs
    phase = Phase({F(1, 2): a, F(1): b / 10}, shifted={F(1, 2): s1, F(1): s2 / 10})
    values, err, _ = _u_integral(phase.at(hs), T, tol)
    assert values.shape == (len(hs),) and err <= tol * T
    for h, value in zip(hs, values):
        single, _, _ = _u_integral(phase.at(h), T, tol)
        assert abs(value - single) <= 2 * tol * T


def test_batch_refines_a_row_that_alone_needs_it():
    """Row 0 is constant and exact on the 16 uniform panels that a flat
    phase lays out; row 1 winds 400.5 times over them.  Only row 1 asks for
    refinement, and it still converges."""
    freqs = np.array([0.0, 400.5])

    def f(u):
        return np.exp(2j * np.pi * freqs[:, None] * u)

    flat = lambda u: np.zeros((2, np.size(u)))
    values, err, _ = adaptive_integral(f, 0.0, 1.0, 1e-10, phase=flat)
    assert err <= 1e-10
    assert values[0] == 1.0
    assert abs(values[1] - closed_linear_average(400.5, 0.0, 1.0)) <= 1e-10


def test_batch_hands_its_integrand_broadcast_rows_within_one_chunk():
    """A batch of N equal shifts lays out and refines exactly as the one
    shift does, so a counting wrapper sees N times the points of the single
    call, in (N, m) arrays of at most one chunk each."""
    phase = Phase({F(1, 2): 1.3, F(1): -0.02}, shifted={F(1, 2): -0.7, F(1): 0.025})
    T, tol, N = 3000.0, 1e-9, _BATCH_ROWS
    shapes = {"one": [], "batch": []}

    def recorder(name):
        def wrap(f):
            def counted(u):
                shapes[name].append(np.shape(u))
                return f(u)
            return counted
        return wrap

    one, _, one_evals = _u_integral(phase.at(2.5), T, tol, recorder("one"))
    batch, _, evals = _u_integral(phase.at(np.full(N, 2.5)), T, tol, recorder("batch"))
    assert all(len(s) == 1 for s in shapes["one"])
    assert len(shapes["batch"]) > len(shapes["one"])  # the chunk bound splits the batch
    assert all(len(s) == 2 and s[0] == N for s in shapes["batch"])
    assert max(map(np.prod, shapes["batch"])) <= _CHUNK_POINTS
    assert sum(map(np.prod, shapes["batch"])) == N * sum(map(np.prod, shapes["one"]))
    assert evals == one_evals
    assert np.max(np.abs(batch - one)) <= 1e-14 * T


def test_far_window_guard_takes_the_largest_shift_of_a_batch():
    """The guard of a batch is that of its largest shift: a last shift of
    1e14 refuses the window with the bound the scalar call at 1e14 reports,
    while the same batch without it passes."""
    phase = Phase({F(1): -1e-3}, shifted={F(1): 0.1234567})
    hs = np.array([1e3, 1e6, 1e14])
    assert phase.at(hs[:-1]).substitute(1000.5, 1e-8)[0] == 1
    with pytest.raises(QuadratureBudgetError) as batch:
        phase.at(hs).substitute(1000.5, 1e-8)
    with pytest.raises(QuadratureBudgetError) as single:
        phase.at(hs[-1]).substitute(1000.5, 1e-8)
    assert batch.value.evals == 0
    assert batch.value.est_error == single.value.est_error > 1e-8

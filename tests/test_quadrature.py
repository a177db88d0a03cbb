import numpy as np
import pytest
from fractions import Fraction

from fpet.quadrature import (
    ExpPhaseCurve,
    PanelTable,
    QuadratureBudgetError,
    adaptive_average,
    adaptive_integral,
    osc_phase_average,
)

F = Fraction


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


def test_budget_error_carries_partial():
    with pytest.raises(QuadratureBudgetError) as exc:
        osc_phase_average({F(1): 1000.0}, 0.0, 1e6, 1e-12, budget=2000)
    assert exc.value.est_error > 0
    assert exc.value.evals <= 2000


def test_adaptive_average_smooth_curve():
    curve = lambda t: np.asarray(t, dtype=float) ** 2 + 0j
    value, err, _ = adaptive_average(curve, 0.0, 3.0, 1e-12)
    assert abs(value - 3.0) < 1e-12


def test_exp_phase_curve_freq_and_values():
    curve = ExpPhaseCurve({F(1, 2): 2.0, F(1): 1.0})
    t = np.array([1.0, 4.0])
    expected = np.exp(2j * np.pi * (2 * np.sqrt(t) + t))
    assert np.allclose(curve(t), expected)
    assert np.allclose(curve.local_freq(t), np.abs(1.0 / np.sqrt(t) + 1.0))


def test_adaptive_average_uses_curve_hint():
    curve = ExpPhaseCurve({F(1): 1 / 3})
    value, _, _ = adaptive_average(curve, 0.0, 4096.0, 1e-10)
    assert abs(value - closed_linear_average(1 / 3, 0.0, 4096.0)) < 1e-9


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


def _table():
    curve = ExpPhaseCurve({F(1): 0.37, F(1, 2): -1.1})
    return PanelTable(curve, 2.0, 300.0, 1e-10, freq=curve.local_freq)


def test_panel_table_array_queries_match_scalar_queries():
    table = _table()
    lo, hi = table.lo, table.hi
    edges = table._edges
    inside = 0.5 * (edges[:-1] + edges[1:])
    points = np.concatenate((
        [lo, hi, lo - 5.0, hi + 7.0, -np.inf, np.inf],  # endpoints and clamped
        edges, inside, np.linspace(lo, hi, 1001),
    ))
    assert len(points) > 2 * 256  # spans several piece batches
    batched = table.integral_to(points)
    assert batched.dtype == complex and batched.shape == points.shape
    scalar = np.array([table.integral_to(float(t)) for t in points])
    assert np.max(np.abs(batched - scalar)) <= 1e-13 * (hi - lo)
    assert batched[2] == 0 and batched[0] == 0
    assert abs(batched[3] - batched[1]) == 0
    grid = table.integral_to(points[6:].reshape(-1, 1))
    assert grid.shape == (len(points) - 6, 1)
    assert isinstance(table.integral_to(10.0), complex)


def test_panel_table_average_broadcasts():
    table = _table()
    ts = np.linspace(2.5, 299.0, 300)
    tails = table.average(ts, table.hi)
    heads = table.average(table.lo, ts)
    for t, tail, head in zip(ts, tails, heads):
        assert abs(tail - table.average(float(t), table.hi)) <= 1e-13 * (table.hi - table.lo)
        assert abs(head - table.average(table.lo, float(t))) <= 1e-13 * (table.hi - table.lo)
    assert isinstance(table.average(3.0, 4.0), complex)


def test_panel_table_average_rejects_empty_windows():
    table = _table()
    with pytest.raises(ValueError):
        table.average(5.0, 5.0)
    with pytest.raises(ValueError):
        table.average(np.array([3.0, 8.0, 4.0]), np.array([4.0, 8.0, 9.0]))
    with pytest.raises(ValueError):
        table.average(np.array([3.0, 10.0]), 9.0)
    with pytest.raises(ValueError):
        table.average(np.array([3.0, np.nan]), 9.0)

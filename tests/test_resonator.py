"""Closed-form pair statistics and the sweep grid."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stimpairs.resonator import (
    SWEEP_COLUMNS,
    ResonatorConfig,
    amplitude_sum,
    double_pass_ratio,
    multiphoton_contamination,
    optimal_u,
    pair_probability_approx,
    pair_probability_exact,
    pair_probability_vs_u,
    sweep_rows,
)

# Exact P_1 at |A| tau = 0.02, frozen from a 50-digit evaluation of
# 2 tanh^2(x) / cosh^4(x).
P1_AT_002 = 7.991471841202873e-4

# (3/2) tanh^2(0.02), same precision.
CONTAMINATION_AT_002 = 5.99840036259110e-4


def test_config_validation():
    cfg = ResonatorConfig(2, 7.0, 1e-3)
    assert cfg.phi == pytest.approx(7.0 - 2.0 * math.pi)
    assert ResonatorConfig(2, 0.0, 0.0).tau == 0.0  # switched-off pump is legal
    with pytest.raises(ValueError):
        ResonatorConfig(0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        ResonatorConfig(2, math.nan, 1e-3)
    with pytest.raises(ValueError):
        ResonatorConfig(2, 0.0, -1.0)
    with pytest.raises(ValueError):
        ResonatorConfig(2, 0.0, math.inf)


def test_config_phi_tiny_negative_folds_to_zero():
    # -1e-17 % 2 pi rounds up to exactly 2 pi; the stored phi must stay in [0, 2 pi).
    cfg = ResonatorConfig(1, -1e-17, 0.1)
    assert cfg.phi == 0.0
    assert cfg.phi < 2.0 * math.pi


def test_zero_tau_probabilities_vanish():
    cfg = ResonatorConfig(3, 0.4, 0.0)
    for m in (1, 2, 3):
        assert pair_probability_exact(m, cfg) == 0.0
        assert pair_probability_approx(m, cfg) == 0.0
    assert multiphoton_contamination(cfg) == 0.0


def test_phi_symmetries():
    for n in (2, 3, 5):
        for phi in (0.4, 1.7, 3.0):
            p = pair_probability_exact(1, ResonatorConfig(n, phi, 0.01))
            assert pair_probability_exact(1, ResonatorConfig(n, -phi, 0.01)) == pytest.approx(
                p, rel=1e-12
            )
            assert pair_probability_exact(
                1, ResonatorConfig(n, phi + 2.0 * math.pi, 0.01)
            ) == pytest.approx(p, rel=1e-12)


def test_contamination_monotone_in_tau():
    values = [
        multiphoton_contamination(ResonatorConfig(2, 0.3, tau))
        for tau in np.linspace(0.0, 0.05, 11)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_amplitude_sum_values():
    assert amplitude_sum(1, 0.7) == pytest.approx(1.0)
    assert amplitude_sum(4, 0.0) == pytest.approx(4.0)
    # Two passes half a period apart cancel.
    assert abs(amplitude_sum(2, math.pi)) < 1e-15
    # Against the sine-ratio closed form away from phi = 0.
    for n in (2, 3, 7):
        for phi in (0.3, 1.0, 2.5):
            expected = math.sin(n * phi / 2.0) / math.sin(phi / 2.0)
            assert abs(amplitude_sum(n, phi)) == pytest.approx(abs(expected))
    with pytest.raises(ValueError):
        amplitude_sum(0, 0.0)
    with pytest.raises(ValueError):
        amplitude_sum(2, math.inf)


def test_amplitude_bound():
    for n in (1, 3, 10):
        for phi in np.linspace(0, 2 * math.pi, 50):
            assert abs(amplitude_sum(n, phi)) <= n + 1e-12


def test_exact_probability_frozen_value():
    # N tau = 0.02 via two different (N, tau) splits; same |A| tau, same P.
    assert pair_probability_exact(1, ResonatorConfig(2, 0.0, 0.01)) == pytest.approx(
        P1_AT_002, rel=1e-12
    )
    assert pair_probability_exact(1, ResonatorConfig(1, 0.0, 0.02)) == pytest.approx(
        P1_AT_002, rel=1e-12
    )


def test_approx_probability():
    cfg = ResonatorConfig(2, 0.0, 0.01)
    assert pair_probability_approx(1, cfg) == pytest.approx(2.0 * 0.02**2, rel=1e-12)
    assert pair_probability_approx(2, cfg) == pytest.approx(3.0 * 0.02**4, rel=1e-12)
    with pytest.raises(ValueError):
        pair_probability_exact(0, cfg)


def test_exact_approaches_approx_at_small_tau():
    for tau in (1e-3, 1e-4):
        cfg = ResonatorConfig(3, 0.0, tau)
        exact = pair_probability_exact(1, cfg)
        approx = pair_probability_approx(1, cfg)
        x = 3.0 * tau
        assert abs(exact - approx) / approx < 10.0 * x * x


def test_u_parametrization_consistent():
    cfg = ResonatorConfig(5, 0.4, 0.03)
    x = abs(amplitude_sum(5, 0.4)) * 0.03
    u = math.tanh(x) ** 2
    for m in (1, 2, 3):
        assert pair_probability_vs_u(m, u) == pytest.approx(
            pair_probability_exact(m, cfg), rel=1e-12
        )
    with pytest.raises(ValueError):
        pair_probability_vs_u(1, 1.5)


def test_optimal_u():
    assert optimal_u(1) == pytest.approx(1.0 / 3.0)
    assert optimal_u(2) == pytest.approx(0.5)
    # The analytic argmax beats its neighbors on a fine grid.
    for m in (1, 2, 5):
        star = optimal_u(m)
        eps = 1e-6
        f = pair_probability_vs_u
        assert f(m, star) >= f(m, star - eps)
        assert f(m, star) >= f(m, star + eps)


def test_double_pass_ratio():
    assert double_pass_ratio(0.0) == 4.0
    assert double_pass_ratio(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert double_pass_ratio(math.pi / 2.0) == pytest.approx(2.0)
    # Matches the general-N amplitude sum at N = 2.
    for theta in (0.3, 1.1, 2.9):
        assert double_pass_ratio(theta) == pytest.approx(
            abs(amplitude_sum(2, theta)) ** 2
        )
    with pytest.raises(ValueError):
        double_pass_ratio(math.nan)


def test_contamination_frozen_value():
    cfg = ResonatorConfig(2, 0.0, 0.01)
    assert multiphoton_contamination(cfg) == pytest.approx(
        CONTAMINATION_AT_002, rel=1e-12
    )
    # Identically the exact-probability ratio.
    assert multiphoton_contamination(cfg) == pytest.approx(
        pair_probability_exact(2, cfg) / pair_probability_exact(1, cfg), rel=1e-12
    )


def test_sweep_rows_order_and_columns():
    rows = sweep_rows([2, 1], [0.0, 0.5], 1e-3)
    assert len(rows) == 4
    assert [r[0] for r in rows] == [2, 2, 1, 1]
    assert all(len(r) == len(SWEEP_COLUMNS) for r in rows)
    cfg = ResonatorConfig(2, 0.5, 1e-3)
    assert rows[1][4] == pytest.approx(pair_probability_exact(1, cfg))


def test_sweep_rows_match_scalar_api_bit_for_bit():
    # The grid includes phases that wrap onto 0 (2 pi and -1e-17) and the
    # destructive point N = 2, phi = pi, where |A| is rounding noise (~1e-16).
    ns = [1, 2, 3, 5]
    phis = [0.0, 0.3, math.pi / 2.0, math.pi, 4.0, 2.0 * math.pi, -1e-17, 7.5]
    for m in (1, 2, 3):
        for tau in (0.0, 1e-3, 0.05, 0.7):
            rows = sweep_rows(ns, phis, tau, m)
            assert [(r[0], r[1]) for r in rows] == [(n, p) for n in ns for p in phis]
            for n, phi, row_tau, row_m, exact, approx, contamination in rows:
                assert type(n) is int and type(row_m) is int
                assert type(phi) is float and type(row_tau) is float
                cfg = ResonatorConfig(n, phi, row_tau)
                assert exact == pair_probability_exact(m, cfg)
                assert approx == pair_probability_approx(m, cfg)
                assert contamination == multiphoton_contamination(cfg)
    destructive = sweep_rows([2], [math.pi], 0.05, 2)[0]
    assert 0.0 <= destructive[4] < 1e-60 and 0.0 <= destructive[5] < 1e-60


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    ns=st.lists(st.integers(1, 64), min_size=1, max_size=4),
    phis=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    tau=st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
    m=st.integers(1, 40),
)
def test_sweep_rows_values_stay_in_range(ns, phis, tau, m):
    # P_exact is at most its maximum over x, at u = tanh^2 x = M / (M + 2), up
    # to rounding (measured below 1e-14 relative).  P_approx = (M + 1) x^{2M}
    # is unbounded: finite and >= 0, or a FloatingPointError once some row's
    # value is past the float range.  The contamination column is the ratio
    # P_2 / P_1 = (3/2) tanh^2(|A| tau), in [0, 3/2].
    try:
        rows = sweep_rows(ns, phis, tau, m)
    except FloatingPointError:
        x = max(float(np.abs(amplitude_sum(n, phis)).max()) for n in ns) * tau
        assert math.log(m + 1) + 2 * m * math.log(x) > math.log(sys.float_info.max) * (1 - 1e-9)
        return
    assert len(rows) == len(ns) * len(phis)
    p_max = (m + 1) * 4 / (m + 2) ** 2 * (m / (m + 2)) ** m
    for _, _, _, _, exact, approx, contamination in rows:
        assert 0.0 <= exact <= p_max * (1 + 1e-12)
        assert math.isfinite(approx) and approx >= 0.0
        assert 0.0 <= contamination <= 1.5


def test_sweep_rows_validates_every_input():
    with pytest.raises(ValueError):
        sweep_rows([2, 0], [0.0], 1e-3)
    with pytest.raises(ValueError):
        sweep_rows([2], [0.0, math.nan], 1e-3)
    with pytest.raises(ValueError):
        sweep_rows([2], [0.0], -1e-3)
    with pytest.raises(ValueError):
        sweep_rows([2], [0.0], math.inf)
    with pytest.raises(ValueError):
        sweep_rows([2], [0.0], 1e-3, m=0)
    with pytest.raises(TypeError):
        sweep_rows([2], [0.0], 1e-3, workers=2)


def test_array_inputs_match_scalar_calls():
    phis = np.array([0.0, 0.4, math.pi, 2.0 * math.pi, -3.0, 11.0])
    for n in (1, 2, 5):
        grid = amplitude_sum(n, phis)
        assert grid.shape == phis.shape
        for phi, a in zip(phis, grid):
            scalar = amplitude_sum(n, float(phi))
            assert type(scalar) is complex
            assert scalar == a
    assert amplitude_sum(3, phis.reshape(2, 3)).shape == (2, 3)
    us = np.linspace(0.0, 1.0, 11)
    for m in (1, 3):
        grid = pair_probability_vs_u(m, us)
        assert grid.shape == us.shape
        for u, f in zip(us, grid):
            scalar = pair_probability_vs_u(m, float(u))
            assert type(scalar) is float
            assert scalar == f
    with pytest.raises(ValueError):
        amplitude_sum(2, np.array([0.1, math.nan]))
    with pytest.raises(ValueError):
        amplitude_sum(0, phis)
    with pytest.raises(ValueError):
        pair_probability_vs_u(1, np.array([0.2, 1.5]))
    with pytest.raises(ValueError):
        pair_probability_vs_u(1, np.array([0.2, math.nan]))


def test_large_tau_exact_probability_vanishes():
    # cosh(x)**4 overflows past x = |A| tau ~ 178 (cosh itself past ~710);
    # P_M tends to 0 there, not an error.
    assert pair_probability_exact(1, ResonatorConfig(1, 0.0, 300.0)) == 0.0
    assert pair_probability_exact(1, ResonatorConfig(2, 0.0, 1e3)) == 0.0

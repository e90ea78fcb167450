"""Analyzers, coincidence probabilities, dephasing, fringe fits, rates."""

import math

import numpy as np
import pytest

import stimpairs.polarization as polarization_mod
from stimpairs.errors import FitError
from stimpairs.phase_plate import PlateGeometry
from stimpairs.polarization import (
    ArmSetting,
    FringeScan,
    MeasurementSetting,
    analyzer_projector,
    analyzer_state,
    bell_state,
    check_density_matrix,
    coincidence_probability,
    dephasing_noise,
    fit_fringe,
    nth_order_rate,
    pair_rate,
    quarter_wave,
    rotation,
    simulate_polarization_fringe,
    simulate_stimulation_fringe,
    state_density,
    visibility,
)
from stimpairs.resonator import ResonatorConfig
from stimpairs.tomography import simulate_tomography

GEOM = PlateGeometry(3e-3, 1.53, 1.51, 405e-9)


def test_bell_state_normalized_antisymmetric():
    psi = bell_state()
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert psi[1] == pytest.approx(-psi[2])
    assert psi[0] == psi[3] == 0.0


def test_jones_matrices_unitary():
    for theta in (0.0, 0.3, math.pi / 4.0, 1.2):
        for mat in (rotation(theta).astype(complex), quarter_wave(theta)):
            assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-14)


def test_quarter_wave_axes():
    # Fast axis light passes unchanged; slow axis picks up i.
    q = quarter_wave(0.0)
    assert np.allclose(q @ [1.0, 0.0], [1.0, 0.0])
    assert np.allclose(q @ [0.0, 1.0], [0.0, 1.0j])


def test_analyzer_state():
    assert np.allclose(analyzer_state(ArmSetting(pol=0.0)), [1.0, 0.0])
    assert np.allclose(analyzer_state(ArmSetting(pol=math.pi / 2.0)), [0.0, 1.0])
    plain = analyzer_state(ArmSetting(pol=math.pi / 3.0))
    assert np.allclose(plain, [math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)])
    # Plate at 0, polarizer at 45 transmits the right-circular state.
    circ = analyzer_state(ArmSetting(pol=math.pi / 4.0, qwp=0.0))
    right = np.array([1.0, -1.0j]) / math.sqrt(2.0)
    overlap = abs(np.vdot(circ, right))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_singlet_coincidence_law():
    # Crossed polarizers see the singlet at half rate; parallel see nothing.
    rho = state_density(bell_state())
    for a in (0.0, 0.4, 1.1):
        for b in (0.0, 0.7, 2.0):
            got = coincidence_probability(
                rho, MeasurementSetting(ArmSetting(a), ArmSetting(b))
            )
            assert got == pytest.approx(0.5 * math.sin(a - b) ** 2, abs=1e-12)


def test_projector_rank_one():
    setting = MeasurementSetting(ArmSetting(0.2, qwp=0.5), ArmSetting(1.0))
    proj = analyzer_projector(setting)
    assert np.allclose(proj, proj.conj().T)
    assert np.allclose(proj @ proj, proj, atol=1e-12)
    assert np.trace(proj).real == pytest.approx(1.0)


def test_state_density_validation():
    with pytest.raises(ValueError):
        state_density(np.array([1.0, 1.0, 0.0, 0.0]))  # not normalized
    with pytest.raises(ValueError):
        state_density(np.eye(3))
    rho = state_density(bell_state())
    check_density_matrix(rho)
    assert state_density(rho) is rho


def test_dephasing_channel():
    rho = dephasing_noise(bell_state(), 0.4)
    check_density_matrix(rho)
    # Populations untouched, HV/VH coherence scaled by 1 - d.
    pure = state_density(bell_state())
    assert rho[1, 1] == pytest.approx(pure[1, 1])
    assert rho[1, 2] == pytest.approx(0.6 * pure[1, 2])
    assert dephasing_noise(bell_state(), 0.0) == pytest.approx(pure)
    full = dephasing_noise(bell_state(), 1.0)
    assert abs(full[1, 2]) < 1e-15
    with pytest.raises(ValueError):
        dephasing_noise(bell_state(), 1.5)
    with pytest.raises(ValueError):
        dephasing_noise(bell_state(), -0.1)


def test_fringe_scan_validation():
    x = np.linspace(0, 3, 10)
    with pytest.raises(ValueError):
        FringeScan(x, np.ones(9))
    with pytest.raises(ValueError):
        FringeScan(np.zeros(10), np.ones(10))  # not monotone
    with pytest.raises(ValueError):
        FringeScan(x, -np.ones(10))
    with pytest.raises(ValueError):
        FringeScan(x, np.full(10, math.nan))
    with pytest.raises(ValueError):
        FringeScan(np.array([0.0]), np.array([1.0]))


def test_fit_fringe_exact_recovery():
    x = np.linspace(0, 4 * math.pi, 40)
    for a, b, c in ((50.0, 0.9, 0.3), (10.0, 0.2, 4.0), (200.0, 1.0, 0.0)):
        counts = 2 * a * (1 + b * np.cos(x + c))
        fit = fit_fringe(FringeScan(x, counts))
        assert fit.amplitude == pytest.approx(a, abs=1e-8)
        assert fit.visibility == pytest.approx(b, abs=1e-9)
        assert fit.phase == pytest.approx(c, abs=1e-8)
        assert fit.residual_norm < 1e-8
        assert fit.p2_over_p1 == pytest.approx(2 * (1 + b))


def test_fit_fringe_seeded_noise():
    x = np.linspace(0, 4 * math.pi, 60)
    rng = np.random.default_rng(11)
    counts = rng.poisson(2 * 500.0 * (1 + 0.8 * np.cos(x + 1.0))).astype(float)
    fit = fit_fringe(FringeScan(x, counts))
    assert fit.visibility == pytest.approx(0.8, abs=0.05)
    assert fit.phase == pytest.approx(1.0, abs=0.05)
    sigma_b = math.sqrt(fit.covariance[1, 1])
    assert abs(fit.visibility - 0.8) < 4 * sigma_b


def test_fit_fringe_failures():
    x = np.linspace(0, 4 * math.pi, 40)
    with pytest.raises(FitError):
        fit_fringe(FringeScan(x[:5], np.ones(5)))  # too short
    with pytest.raises(FitError):
        fit_fringe(FringeScan(np.linspace(0, 1, 10), np.ones(10)))  # narrow span
    with pytest.raises(FitError):
        fit_fringe(FringeScan(x, np.zeros(40)))  # nothing to fit
    with pytest.raises(FitError):
        fit_fringe(FringeScan(x, np.full(40, 7.0)))  # constant, C undetermined


def test_fit_uses_phase_coordinate():
    angles = np.linspace(0, math.pi, 30)
    counts = 2 * 20.0 * (1 + 0.5 * np.cos(2 * angles + 0.7))
    fit = fit_fringe(FringeScan(angles, counts, phase=2 * angles))
    assert fit.phase == pytest.approx(0.7, abs=1e-8)


def test_visibility_dispatch():
    # 41 points over 4 pi land exactly on the cosine extrema.
    x = np.linspace(0, 4 * math.pi, 41)
    counts = 2 * 10.0 * (1 + 0.6 * np.cos(x))
    scan = FringeScan(x, counts)
    assert visibility(scan) == pytest.approx(0.6, abs=1e-6)
    assert visibility(fit_fringe(scan)) == pytest.approx(0.6, abs=1e-9)
    # Edge cases of the raw estimator.
    assert visibility(FringeScan(x[:4], np.array([100.0, 50.0, 0.0, 50.0]))) == 1.0
    assert visibility(FringeScan(x[:4], np.full(4, 7.0))) == 0.0
    with pytest.raises(TypeError):
        visibility(42)
    with pytest.raises(ValueError):
        visibility(FringeScan(x[:3], np.zeros(3)))


def test_polarization_fringe_noiseless():
    rho = state_density(bell_state())
    angles = np.radians(np.linspace(0, 180, 19))
    scan = simulate_polarization_fringe(rho, ArmSetting(math.pi / 4.0), angles, 1e4)
    # Singlet law: counts = shots * sin^2(a - pi/4) / 2.
    expected = 1e4 * 0.5 * np.sin(angles - math.pi / 4.0) ** 2
    assert np.allclose(scan.counts, expected, atol=1e-8)
    assert np.allclose(scan.phase, 2 * angles)


def test_polarization_fringe_visibility_under_dephasing():
    angles = np.radians(np.linspace(0, 180, 37))
    for d in (0.0, 0.3, 0.7):
        rho = dephasing_noise(bell_state(), d)
        scan = simulate_polarization_fringe(rho, ArmSetting(math.pi / 4.0), angles, 1e6)
        fit = fit_fringe(scan)
        assert fit.visibility == pytest.approx(1.0 - d, abs=1e-9)


def test_seeded_fringe_reproducible():
    rho = state_density(bell_state())
    angles = np.radians(np.linspace(0, 180, 19))
    one = simulate_polarization_fringe(rho, ArmSetting(0.3), angles, 1e4, seed=5)
    two = simulate_polarization_fringe(rho, ArmSetting(0.3), angles, 1e4, seed=5)
    other = simulate_polarization_fringe(rho, ArmSetting(0.3), angles, 1e4, seed=6)
    assert np.array_equal(one.counts, two.counts)
    assert not np.array_equal(one.counts, other.counts)
    assert np.all(one.counts == np.floor(one.counts))  # integer draws


def test_stimulation_fringe_phase_alignment():
    cfg = ResonatorConfig(2, 0.0, 1e-3)
    alphas = np.radians(np.linspace(2, 15, 41))
    scan = simulate_stimulation_fringe(GEOM, cfg, alphas, 1e9)
    fit = fit_fringe(scan)
    # Default offset puts the maximum at alpha = 0, so C = 0 mod 2 pi.
    assert min(fit.phase, 2 * math.pi - fit.phase) < 1e-6
    # Exact emission model bends the cosine by O(tau^2); approx is pure.
    assert fit.visibility == pytest.approx(1.0, abs=1e-4)
    pure = fit_fringe(simulate_stimulation_fringe(GEOM, cfg, alphas, 1e9, model="approx"))
    assert pure.visibility == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        simulate_stimulation_fringe(GEOM, cfg, alphas, 1e9, model="other")


def test_stimulation_fringe_explicit_offset():
    cfg = ResonatorConfig(2, 0.0, 1e-3)
    alphas = np.radians(np.linspace(2, 15, 41))
    scan = simulate_stimulation_fringe(GEOM, cfg, alphas, 1e9, phi_offset=0.0)
    # Raw plate phases, thousands of radians.
    assert scan.phase.min() > 100.0


def test_rate_arithmetic():
    assert pair_rate(1e5, 1e3) == pytest.approx(1e7)
    assert nth_order_rate(1e5, 1e3, 3) == pytest.approx(1e12)
    assert nth_order_rate(0.0, 10.0, 2) == 0.0
    with pytest.raises(ValueError):
        pair_rate(1e5, 0.0)
    with pytest.raises(ValueError):
        nth_order_rate(-1.0, 10.0, 2)
    with pytest.raises(ValueError):
        nth_order_rate(1.0, 10.0, 0)


def test_born_rule_validates_rho_once(monkeypatch):
    calls = []
    true_check = polarization_mod.check_density_matrix

    def counting_check(rho, *args, **kwargs):
        calls.append(1)
        return true_check(rho, *args, **kwargs)

    monkeypatch.setattr(polarization_mod, "check_density_matrix", counting_check)
    rho = dephasing_noise(bell_state(), 0.2)
    angles = np.radians(np.linspace(0.0, 180.0, 37))
    scan = simulate_polarization_fringe(rho, ArmSetting(math.pi / 4.0), angles, 1e6)
    assert len(calls) == 1
    calls.clear()
    record = simulate_tomography(rho, 1e5)
    assert len(record.settings) == 16
    assert len(calls) == 1
    # The batched probabilities are the per-setting Born rule.
    single = [
        coincidence_probability(rho, MeasurementSetting(ArmSetting(a), ArmSetting(math.pi / 4.0)))
        for a in angles
    ]
    np.testing.assert_allclose(scan.counts, 1e6 * np.array(single), rtol=1e-14, atol=1e-9)

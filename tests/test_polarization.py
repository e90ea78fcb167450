"""Analyzers, coincidence probabilities, dephasing, fringe fits, rates."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stimpairs.errors as errors_mod
import stimpairs.phase_plate as phase_plate_mod
import stimpairs.polarization as polarization_mod
import stimpairs.resonator as resonator_mod
import stimpairs.tomography as tomography_mod
from stimpairs.errors import FitError
from stimpairs.phase_plate import PlateGeometry
from stimpairs.polarization import (
    ArmSetting,
    FringeScan,
    MeasurementSetting,
    _arm_states,
    analyzer_projector,
    bell_state,
    check_density_matrix,
    coincidence_probability,
    dephasing_noise,
    fit_fringe,
    simulate_polarization_fringe,
    simulate_stimulation_fringe,
    state_density,
    visibility,
)
from stimpairs.rates import pair_rate
from stimpairs.resonator import (
    ResonatorConfig,
    pair_probability_approx,
    pair_probability_exact,
    sweep_rows,
)
from stimpairs.tomography import log_likelihood, reconstruct_mle, simulate_tomography
from stimpairs.verify import _run, check_singlet_invariance

GEOM = PlateGeometry(3e-3, 1.53, 1.51, 405e-9)


def test_bell_state_normalized_antisymmetric():
    psi = bell_state()
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    assert psi[1] == pytest.approx(-psi[2])
    assert psi[0] == psi[3] == 0.0


# ----- Reference: the earlier per-setting analyzer projector -----
#
# One Jones matrix product per arm, then np.kron: kept as the reference that
# the batched projector stack must reproduce.


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def quarter_wave(theta):
    """Jones matrix of a quarter-wave plate with fast axis at theta."""
    r = rotation(theta)
    return r @ np.diag([1.0, 1.0j]) @ r.T


def _reference_state(arm):
    pol = np.array([math.cos(arm.pol), math.sin(arm.pol)], dtype=complex)
    return pol if arm.qwp is None else quarter_wave(arm.qwp).conj().T @ pol


def _reference_projector(setting):
    ua, ub = _reference_state(setting.arm_a), _reference_state(setting.arm_b)
    return np.kron(np.outer(ua, ua.conj()), np.outer(ub, ub.conj()))


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
    assert np.allclose(_arm_states([ArmSetting(pol=0.0)])[0], [1.0, 0.0])
    assert np.allclose(_arm_states([ArmSetting(pol=math.pi / 2.0)])[0], [0.0, 1.0])
    plain = _arm_states([ArmSetting(pol=math.pi / 3.0)])[0]
    assert np.allclose(plain, [math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)])
    # Plate at 0, polarizer at 45 transmits the right-circular state.
    circ = _arm_states([ArmSetting(pol=math.pi / 4.0, qwp=0.0)])[0]
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


@pytest.mark.parametrize(
    "rho,message",
    [
        (np.eye(3) / 3.0, r"density matrix must be 4x4, got shape \(3, 3\)"),
        (np.diag([np.nan, 0.0, 0.0, 1.0]), "density matrix contains non-finite entries"),
        (np.eye(4) / 4.0 + np.triu(np.full((4, 4), 1e-6), 1),
         r"density matrix is not Hermitian \(defect 1\.000e-06\)"),
        (np.eye(4) / 2.0, r"density matrix trace is (np\.float64\()?2\.0\)?, expected 1"),
        (np.diag([0.5, 0.5, 1e-6, -1e-6]), "density matrix has negative eigenvalue -1.000e-06"),
    ],
    ids=["shape", "non-finite", "hermitian", "trace", "negative"],
)
def test_check_density_matrix_rejections(rho, message):
    # Each defect sits past the 1e-8 tolerance; numpy 2 reprs the trace as np.float64(2.0).
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_density_matrix(rho)


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


def test_fit_fringe_accepts_high_count_fringes():
    # In (A, B, C) the A column of J is O(1) and the others O(A), so cond(J^T J)
    # grows as A^2 and would call a noiseless 1e8-shot singlet fringe
    # (A = 1.25e7) degenerate.  Judged in (ln A, B, C) it fits, and a constant
    # scan at the same level is still rejected.
    angles = np.radians(np.linspace(0, 180, 37))
    rho = state_density(bell_state())
    scan = simulate_polarization_fringe(rho, ArmSetting(math.pi / 4.0), angles, 1e8)
    fit = fit_fringe(scan)
    assert fit.visibility == pytest.approx(1.0, abs=1e-12)
    assert fit.amplitude == pytest.approx(1.25e7, rel=1e-12)
    with pytest.raises(FitError):
        fit_fringe(FringeScan(scan.phase, np.full(37, 2.5e7)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    n=st.integers(8, 60),
    start=st.floats(-10.0, 10.0),
    span=st.floats(3.2, 6.0 * math.pi),
    a=st.floats(1e-3, 1e6),
    b=st.floats(0.0, 2.0),
    # Phases at and next to the wrap points, where rounding once gave 2 pi.
    c=st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -1e-16, 2.0 * math.pi, -math.pi])),
    noise=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_fringe_ranges_on_random_scans(n, start, span, a, b, c, noise, seed):
    # Whatever the scan, a fit that succeeds reports C in [0, 2 pi) and B in
    # [0, 1]; visibilities above 1 in the data (clipped at zero counts) or
    # from noise are reported as 1.  Only a near-constant scan is rejected:
    # for a flat scan cond(J^T J) in (ln A, B, C) grows as 1 / B^2, so the
    # 1e12 rule rejects from a fitted B of about 1e-6 down (1.1e-6 to 3.0e-6
    # over scans of this strategy's sizes and spans); the test's own linear
    # fit must find B at most 1e-5 for every rejected scan.
    inner = np.sort(np.random.default_rng(seed).uniform(0.0, span, n - 2))
    x = start + np.concatenate([[0.0], inner, [span]])
    if np.any(np.diff(x) <= 0.0):
        return
    model = 2.0 * a * (1.0 + b * np.cos(x + c))
    jitter = noise * a * np.random.default_rng(seed).standard_normal(n)
    counts = np.maximum(model + jitter, 0.0)
    try:
        fit = fit_fringe(FringeScan(x, counts))
    except FitError:
        design = np.column_stack([np.ones(n), np.cos(x), np.sin(x)])
        alpha, beta, gamma = np.linalg.lstsq(design, counts, rcond=None)[0]
        assert math.hypot(beta, gamma) <= 1e-5 * alpha
        return
    assert 0.0 <= fit.phase < 2.0 * math.pi
    assert 0.0 <= fit.visibility <= 1.0
    assert fit.amplitude > 0.0


def test_fit_covariance_sign_at_reported_parameters():
    # An iterative fit can land on B < 0 here; flipping B and C must also flip
    # the covariance, whose cov[A,B] is -2.744e-3 at the reported parameters.
    x = np.linspace(0, 2 * math.pi, 37)
    counts = np.random.default_rng(0).poisson(100 * (1 + 0.3 * np.cos(x + 3.0))).astype(float)
    fit = fit_fringe(FringeScan(x, counts))
    a, b, c = fit.amplitude, fit.visibility, fit.phase
    assert 0.0 < b < 1.0
    # Jacobian of 2 A (1 + B cos(x + C)) in (A, B, C).
    cos_xc, sin_xc = np.cos(x + c), np.sin(x + c)
    jac = np.column_stack([2 * (1 + b * cos_xc), 2 * a * cos_xc, -2 * a * b * sin_xc])
    expected = np.linalg.inv(jac.T @ jac) * fit.residual_norm**2 / (x.size - 3)
    np.testing.assert_allclose(fit.covariance, expected, rtol=1e-6, atol=0)
    assert fit.covariance[0, 1] == pytest.approx(-2.744e-3, rel=1e-3)


def _lm_fit(x, counts):
    """Four-start Levenberg-Marquardt fit: the earlier fit_fringe, kept as a reference.

    Returns (A, B, C, residual norm) with B >= 0 and C in [0, 2 pi), or None
    if no start converged.
    """
    from scipy.optimize import least_squares

    a0 = counts.mean() / 2.0
    cmax, cmin = counts.max(), counts.min()
    b0 = min(max((cmax - cmin) / (cmax + cmin) if cmax > 0 else 0.0, 1e-3), 1.0)
    best = None
    for c0 in (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi):
        res = least_squares(
            lambda p: 2.0 * p[0] * (1.0 + p[1] * np.cos(x + p[2])) - counts,
            x0=np.array([a0, b0, c0]),
            method="lm",
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-14,
            max_nfev=20000,
        )
        if res.success and (best is None or res.cost < best.cost):
            best = res
    if best is None:
        return None
    a, b, c = best.x
    if b < 0.0:
        b, c = -b, c + math.pi
    return a, min(b, 1.0), c % (2 * math.pi), math.sqrt(2.0 * best.cost)


def test_fit_fringe_matches_levenberg_marquardt():
    # 200 seeded Poisson scans, 8-200 points over 3.5-12 rad; the linear solve
    # must land on LM's minimum and never leave a larger residual.
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        n = int(rng.integers(8, 201))
        x = rng.uniform(-math.pi, math.pi) + np.linspace(0.0, rng.uniform(3.5, 12.0), n)
        a, b, c = 10 ** rng.uniform(0.7, 3.7), rng.uniform(0.0, 1.0), rng.uniform(0, 2 * math.pi)
        counts = rng.poisson(2 * a * (1 + b * np.cos(x + c))).astype(float)
        ref = _lm_fit(x, counts)
        assert ref is not None
        fit = fit_fringe(FringeScan(x, counts))
        assert abs(fit.amplitude - ref[0]) <= 1e-8 * ref[0]
        assert abs(fit.visibility - ref[1]) <= 1e-7
        dc = abs(fit.phase - ref[2])
        assert min(dc, 2 * math.pi - dc) <= 1e-6
        assert fit.residual_norm <= ref[3] * (1 + 1e-12)


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


def test_stimulation_fringe_across_zero_tilt():
    # delta(alpha) is even in alpha, so a scan from -15 to 15 degrees runs its
    # phase down to 0 and back up: the scan is not monotone in its fit
    # coordinate, and it builds and fits all the same.
    cfg = ResonatorConfig(2, 0.0, 1e-3)
    alphas = np.radians(np.linspace(-15, 15, 81))
    scan = simulate_stimulation_fringe(GEOM, cfg, alphas, 1e9, model="approx")
    step = np.diff(scan.phase)
    assert step.min() < 0.0 < step.max()
    assert scan.phase[40] == 0.0
    np.testing.assert_array_equal(scan.phase, scan.phase[::-1])
    fit = fit_fringe(scan)
    assert min(fit.phase, 2 * math.pi - fit.phase) < 1e-6
    assert fit.visibility == pytest.approx(1.0, abs=1e-9)


def test_rate_arithmetic():
    assert pair_rate(1e5, 1e3) == pytest.approx(1e7)
    assert pair_rate(10.0, 10.0) == 10.0
    # Detection efficiency eta in each arm turns a pair rate R into singles
    # eta R and coincidences eta^2 R; the estimate recovers R for any eta.
    for eta in (1.0, 0.6, 0.05, 1e-3):
        for r in (1.0, 3.7e4, 2.5e8):
            assert pair_rate(eta * r, eta * eta * r) == pytest.approx(r, rel=1e-12)
    with pytest.raises(ValueError):
        pair_rate(1e5, 0.0)
    with pytest.raises(ValueError):
        pair_rate(-1.0, 10.0)
    with pytest.raises(ValueError, match="coincidence rate must be positive"):
        pair_rate(1.0, math.nan)
    # C / S is the efficiency eta, so coincidences above singles are refused.
    for singles, coincidences in ((10.0, 100.0), (0.0, 10.0)):
        with pytest.raises(ValueError, match="efficiency C / S is above 1"):
            pair_rate(singles, coincidences)


def test_rate_past_the_range_of_singles_squared():
    # S^2 underflows or overflows while S^2 / C is an ordinary float.
    assert pair_rate(1e-200, 1e-200) == 1e-200
    assert pair_rate(1e300, 1e300) == 1e300
    assert pair_rate(1e-170, 1e-300) == pytest.approx(1e-40, rel=1e-15)
    assert pair_rate(1e160, 1e100) == pytest.approx(1e220, rel=1e-15)
    # Within range the result is S * S / C to the bit.
    rng = np.random.default_rng(3)
    for c, ratio in zip(10 ** rng.uniform(-5, 8, 2000), 10 ** rng.uniform(0, 5, 2000)):
        s = float(c * ratio)
        assert pair_rate(s, float(c)) == s * s / float(c)


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


def test_each_value_is_checked_once(monkeypatch):
    # ResonatorConfig and sweep_rows apply the finite rule to phi once and
    # wrap the checked value unchecked; reconstruct_mle reports the
    # log-likelihood of its own (physical) iterate without validating it.
    rules, checks = [], []
    true_check = tomography_mod.check_density_matrix

    def counting_finite(value, what):
        rules.append(what)
        return errors_mod.finite(value, what)

    def counting_check(rho, *args, **kwargs):
        checks.append(1)
        return true_check(rho, *args, **kwargs)

    for module in (resonator_mod, phase_plate_mod):
        monkeypatch.setattr(module, "finite", counting_finite)
    monkeypatch.setattr(tomography_mod, "check_density_matrix", counting_check)
    assert ResonatorConfig(3, 7.0, 1e-3).phi == pytest.approx(7.0 - 2.0 * math.pi)
    assert rules == ["phi"]
    rules.clear()
    sweep_rows([1, 2], [0.0, 7.0, -1e-17], 1e-3)
    assert rules == ["phi"]
    record = simulate_tomography(dephasing_noise(bell_state(), 0.2), 1e4, seed=3)
    result = reconstruct_mle(record)
    assert checks == []
    assert result.log_likelihood == log_likelihood(record, result.rho)
    assert checks == [1]


def test_singlet_invariance_check_is_one_batch(monkeypatch):
    # The verify check validates rho once and builds one 50-row stack, and
    # its worst deviation equals that of the per-setting scalar loop over the
    # same 25 angle triples.
    calls = {"check": 0, "stack": []}
    true_check, true_stack = polarization_mod.check_density_matrix, polarization_mod._projector_stack

    def counting_check(rho, *args, **kwargs):
        calls["check"] += 1
        return true_check(rho, *args, **kwargs)

    def counting_stack(ua, ub):
        calls["stack"].append((len(ua), len(ub)))
        return true_stack(ua, ub)

    monkeypatch.setattr(polarization_mod, "check_density_matrix", counting_check)
    monkeypatch.setattr(polarization_mod, "_projector_stack", counting_stack)
    result = _run(check_singlet_invariance)
    assert calls == {"check": 1, "stack": [(50, 50)]}
    monkeypatch.undo()
    rho = state_density(bell_state())
    # The same 25 triples, the golden-ratio sequence 2 pi frac(k / g^j), one at a time.
    g = 1.2207440846057596
    assert abs(g**4 - g - 1.0) <= 1e-15
    worst = 0.0
    for k in range(1, 26):
        a, b, delta = (2.0 * math.pi * math.fmod(k / g**j, 1.0) for j in (1, 2, 3))
        p1 = coincidence_probability(rho, MeasurementSetting(ArmSetting(a), ArmSetting(b)))
        p2 = coincidence_probability(
            rho, MeasurementSetting(ArmSetting(a + delta), ArmSetting(b + delta))
        )
        worst = max(worst, abs(p1 - p2))
    assert result.passed and result.tolerance == 1e-12
    assert result.worst == pytest.approx(worst, abs=1e-15)


def _random_settings(rng, n, plate_a, plate_b):
    def arm(plate):
        pol = rng.uniform(-2 * math.pi, 2 * math.pi)
        return ArmSetting(pol, rng.uniform(-2 * math.pi, 2 * math.pi) if plate else None)

    return [MeasurementSetting(arm(plate_a), arm(plate_b)) for _ in range(n)]


@pytest.mark.parametrize("plate_a", [False, True])
@pytest.mark.parametrize("plate_b", [False, True])
def test_projector_stack_matches_per_setting_reference(plate_a, plate_b):
    rng = np.random.default_rng(20261018 + 2 * plate_a + plate_b)
    settings_ = _random_settings(rng, 500, plate_a, plate_b)
    want = np.stack([_reference_projector(s) for s in settings_])
    assert np.abs(tomography_mod._projectors(settings_) - want).max() <= 1e-15
    for s, w in zip(settings_[:50], want):
        assert np.abs(analyzer_projector(s) - w).max() <= 1e-15
        assert np.abs(_arm_states([s.arm_a])[0] - _reference_state(s.arm_a)).max() <= 1e-15


def test_projector_stack_mixes_plated_and_bare_arms():
    # Rows with and without plates in one stack, as a record file may hold.
    rng = np.random.default_rng(5)
    settings_ = [s for pa in (False, True) for pb in (True, False) for s in _random_settings(rng, 3, pa, pb)]
    rng.shuffle(settings_)
    want = np.stack([_reference_projector(s) for s in settings_])
    assert np.abs(tomography_mod._projectors(settings_) - want).max() <= 1e-15


_ANGLE = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_ARM = st.builds(ArmSetting, _ANGLE, st.one_of(st.none(), _ANGLE))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.builds(MeasurementSetting, _ARM, _ARM), min_size=1, max_size=8))
def test_built_projectors_are_rank_one_density_projectors(settings_):
    for proj in tomography_mod._projectors(settings_):
        assert np.abs(proj - proj.conj().T).max() <= 1e-14
        assert abs(np.trace(proj) - 1.0) <= 1e-14
        assert np.abs(proj @ proj - proj).max() <= 1e-14
        evals = np.linalg.eigvalsh(proj)
        assert np.abs(evals - [0.0, 0.0, 0.0, 1.0]).max() <= 1e-14


def test_fringe_builds_one_stack_without_setting_objects(monkeypatch):
    calls = []
    true_stack = polarization_mod._projector_stack

    def counting_stack(ua, ub):
        calls.append((len(ua), len(ub)))
        return true_stack(ua, ub)

    def no_setting(*args, **kwargs):
        raise AssertionError("per-angle setting object built")

    arm_b = ArmSetting(math.pi / 4.0, qwp=0.0)
    monkeypatch.setattr(polarization_mod, "_projector_stack", counting_stack)
    monkeypatch.setattr(polarization_mod, "MeasurementSetting", no_setting)
    monkeypatch.setattr(polarization_mod, "ArmSetting", no_setting)
    angles = np.radians(np.linspace(0.0, 180.0, 37))
    scan = simulate_polarization_fringe(
        dephasing_noise(bell_state(), 0.2), arm_b, angles, 1e5, arm_a_qwp=0.0
    )
    # A second scan of the same angles and analyzers builds its own stack.
    simulate_polarization_fringe(state_density(bell_state()), arm_b, angles, 1e3, arm_a_qwp=0.0)
    assert calls == [(37, 1), (37, 1)]
    monkeypatch.undo()
    rho = dephasing_noise(bell_state(), 0.2)
    single = [
        1e5 * coincidence_probability(rho, MeasurementSetting(ArmSetting(a, qwp=0.0), arm_b))
        for a in angles
    ]
    np.testing.assert_allclose(scan.counts, single, rtol=1e-14, atol=1e-9)


def test_noiseless_scans_equal_the_rates_they_are_built_from_bit_for_bit():
    # A tilt scan's noiseless counts are shots times the scalar pair
    # probability at each tilt's phase, bit for bit, for both models and for
    # pass counts on either side of the 8- and 128-term summation blocks.  A
    # polarizer scan builds its stack per call: its noiseless counts are
    # shots times the Born rule on the stack built directly, bit for bit,
    # for 0.0 and -0.0 angles, whose stacks differ in the sign of zeros, and
    # for a plate at 0.0, at -0.0 and no plate.
    alphas = np.radians(np.linspace(-15.0, 15.0, 41))
    angles = np.radians(np.linspace(0.0, 180.0, 37))
    scans = [(angles, ArmSetting(pol, qwp), None) for pol in (0.0, -0.0) for qwp in (None, 0.0, -0.0)]
    scans += [(angles, ArmSetting(math.pi / 4.0, qwp), qwp_a)
              for qwp in (None, 0.0) for qwp_a in (None, 0.0, -0.0)]
    scans.append((-angles, ArmSetting(0.0), None))
    rho = dephasing_noise(bell_state(), 0.2)
    for n, tau in ((2, 0.01), (129, 1e-3)):
        for model, rate in (("exact", pair_probability_exact), ("approx", pair_probability_approx)):
            scan = simulate_stimulation_fringe(GEOM, ResonatorConfig(n, 0.0, tau), alphas, 1e9, model=model)
            expected = [1e9 * rate(1, ResonatorConfig(n, phase, tau)) for phase in scan.phase]
            assert scan.counts.tobytes() == np.array(expected).tobytes()
    for scan_angles, arm_b, qwp_a in scans:
        stack = polarization_mod._projector_stack(
            polarization_mod._analyzer_states(scan_angles, qwp_a),
            polarization_mod._analyzer_states(np.array([arm_b.pol]), arm_b.qwp),
        )
        scan = simulate_polarization_fringe(rho, arm_b, scan_angles, 1e5, arm_a_qwp=qwp_a)
        assert scan.counts.tobytes() == (1e5 * polarization_mod._born_probabilities(rho, stack)).tobytes()


def test_float32_angles_give_the_float_fringe_bit_for_bit():
    # A setting stores its angles as Python floats and the scan's plate
    # angle is taken as float64, so a float32 angle gives the same fringe
    # as the same value given as a float.
    rho = dephasing_noise(bell_state(), 0.2)
    angles = np.radians(np.linspace(0.0, 180.0, 37))
    pol, qwp = np.float32(0.3), np.float32(0.7)
    arm = ArmSetting(pol, qwp)
    assert type(arm.pol) is float and type(arm.qwp) is float
    assert arm == ArmSetting(float(pol), float(qwp))
    for seed in (None, 5):
        got = simulate_polarization_fringe(rho, arm, angles, 1e5, seed=seed, arm_a_qwp=qwp)
        want = simulate_polarization_fringe(
            rho, ArmSetting(float(pol), float(qwp)), angles, 1e5, seed=seed, arm_a_qwp=float(qwp)
        )
        assert got.counts.tobytes() == want.counts.tobytes()
    with pytest.raises(ValueError, match=r"^polarizer angle must be a scalar, got shape \(2,\)$"):
        ArmSetting(np.array([0.1, 0.2]))
    with pytest.raises(ValueError, match=r"^qwp angle must be a scalar, got shape \(1,\)$"):
        ArmSetting(0.1, [0.2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fringe_rejects_non_finite_angles(bad):
    rho = state_density(bell_state())
    angles = np.radians(np.linspace(0.0, 180.0, 7))
    with pytest.raises(ValueError, match="polarizer angle must be finite"):
        simulate_polarization_fringe(rho, ArmSetting(0.3), np.append(angles, bad), 1e4)
    with pytest.raises(ValueError, match="qwp angle must be finite"):
        simulate_polarization_fringe(rho, ArmSetting(0.3), angles, 1e4, arm_a_qwp=bad)


@pytest.mark.parametrize("angles", [[[0.1, 0.2], [0.3, 0.4]], [0.1]], ids=["2-d", "one-angle"])
def test_fringes_need_a_1d_list_of_at_least_two_angles(angles):
    rho = state_density(bell_state())
    with pytest.raises(ValueError, match=r"^need a 1-d list of at least 2 polarizer angles$"):
        simulate_polarization_fringe(rho, ArmSetting(0.3), angles, 1e4)
    with pytest.raises(ValueError, match=r"^need a 1-d list of at least 2 tilt angles$"):
        simulate_stimulation_fringe(GEOM, ResonatorConfig(2, 0.0, 1e-3), angles, 1e9)


@pytest.mark.parametrize("plate", [False, True])
@pytest.mark.parametrize("letter", sorted(tomography_mod.ANALYZER_ANGLES))
def test_fringe_arm_b_state_is_the_setting_state_bit_for_bit(letter, plate):
    # simulate_polarization_fringe builds arm b's one state directly; it must
    # equal the settings path's state for every analyzer letter, bare or plated.
    arm = tomography_mod.ANALYZER_ANGLES[letter]
    if not plate:
        arm = ArmSetting(arm.pol)
    direct = polarization_mod._analyzer_states(np.array([arm.pol]), arm.qwp)
    assert direct.tobytes() == polarization_mod._arm_states([arm]).tobytes()


_NON_FINITE = [
    complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, math.nan), complex(0.0, -math.inf)
]


@pytest.mark.parametrize("bad", _NON_FINITE, ids=["nan-re", "inf-re", "nan-im", "inf-im"])
def test_non_finite_parts_are_rejected(bad):
    # A NaN or an infinity in either part of any entry is refused with the
    # same exception type as before: ValueError from the density matrix and
    # the scan, FitError from the fit's degeneracy test.
    for i, j in ((0, 0), (1, 2), (3, 3)):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[i, j] = bad
        with pytest.raises(ValueError, match="^density matrix contains non-finite entries$"):
            check_density_matrix(rho)
    x = np.linspace(0.0, 4.0 * math.pi, 12)
    for part in (bad.real, bad.imag):
        if math.isfinite(part):
            continue
        for k in (0, 5, 11):
            spoiled = x.copy()
            spoiled[k] = part
            with pytest.raises(ValueError, match="^scan contains non-finite values$"):
                FringeScan(spoiled, np.ones(12))
            with pytest.raises(ValueError, match="^scan contains non-finite values$"):
                FringeScan(x, np.where(np.arange(12) == k, part, 1.0))
        jtj = np.eye(3)
        jtj[1, 2] = part
        assert polarization_mod._degenerate(jtj, 1.0)


def _cond_verdict(jtj, a):
    # The degeneracy test as np.linalg.cond states it.
    scale = np.outer([a, 1.0, 1.0], [a, 1.0, 1.0])
    return not np.all(np.isfinite(jtj)) or bool(np.linalg.cond(jtj * scale) > 1e12)


def test_degeneracy_verdict_matches_cond():
    # fit_fringe's test reads the singular values itself; its verdict must be
    # np.linalg.cond's on well-posed, near-threshold, singular, zero and
    # non-finite J^T J, and on one that the (ln A, B, C) scale lifts past the
    # float range.
    rng = np.random.default_rng(31)
    cases = [
        (np.zeros((3, 3)), 1.0), (np.diag([1.0, 1.0, 0.0]), 1.0), (np.full((3, 3), math.nan), 1.0)
    ]
    for _ in range(300):
        # Scaled condition numbers around 1e12, most within a decade of it.
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        low = 10.0 ** rng.normal(-12.0, 0.5)
        scaled = (q * [1.0, rng.uniform(low, 1.0), low]) @ q.T
        a = float(10.0 ** rng.uniform(-3.0, 3.0))
        cases.append((((scaled + scaled.T) / 2.0) / np.outer([a, 1.0, 1.0], [a, 1.0, 1.0]), a))
    cases.append((np.diag([1e300, 1.0, 1.0]), 1e200))
    verdicts = []
    for jtj, a in cases:
        with np.errstate(over="ignore"):
            verdict = polarization_mod._degenerate(jtj, a)
            assert verdict == _cond_verdict(jtj, a)
        verdicts.append(verdict)
    assert 50 <= sum(verdicts) <= len(verdicts) - 50


@pytest.mark.parametrize("scale", [1e154, 1e160, 1e300, 1e308])
def test_fit_fringe_refuses_counts_whose_squares_overflow(scale):
    # Past about 1e154 counts the sums of squares in J^T J overflow.  The fit
    # is refused with the count scale named, and no overflow warning escapes
    # (tier-1 turns one into an error).  At 1e150 the same fringe still fits.
    x = np.linspace(0.0, 4.0 * math.pi, 40)
    shape = 1.0 + 0.5 * np.cos(x + 0.3)
    with pytest.raises(FitError, match=r"counts up to \S+e\+\d+ overflow the fit's sums of squares"):
        fit_fringe(FringeScan(x, scale * shape))
    fit = fit_fringe(FringeScan(x, 1e150 * shape))
    assert fit.visibility == pytest.approx(0.5, rel=1e-12)
    assert fit.phase == pytest.approx(0.3, rel=1e-12)


def test_fit_fringe_refuses_a_fitted_scale_past_the_range_without_a_warning():
    # Phases bunched at two points 1e-5 rad wide: the linear solve amplifies
    # the counts about 2000-fold, so near the top of the range J^T J would
    # overflow ("overflow encountered in matmul", an error under tier-1's
    # filter).  The fitted scale is judged before J is formed and the scan is
    # refused as overflow, not called degenerate.  At 1e3 the same scan fits.
    x = np.concatenate([np.linspace(0.0, 1e-5, 10), np.linspace(math.pi + 0.3, math.pi + 0.3 + 1e-5, 10)])
    shape = np.random.default_rng(0).uniform(0.0, 1.0, 20)
    assert fit_fringe(FringeScan(x, 1e3 * shape)).amplitude > 1e6
    for scale in (1e150, 1e151):
        with pytest.raises(FitError, match=r"^fitted counts up to \S+e\+15\d overflow the fit's sums of squares$"):
            fit_fringe(FringeScan(x, scale * shape))


def test_seeded_scan_past_the_poisson_limit_names_the_mean_count():
    # numpy draws no Poisson count with a mean past about 9.2e18; the error
    # names the largest mean and the way out instead of numpy's bare message.
    angles = np.radians(np.linspace(0.0, 180.0, 37))
    for shots in (1e20, 1e300):
        with pytest.raises(ValueError, match=r"mean count \S+ is too large for a Poisson draw; "
                           r"lower the shots or drop the seed"):
            simulate_polarization_fringe(bell_state(), ArmSetting(math.pi / 4.0), angles, shots, seed=3)


def test_fit_fringe_rejects_constant_and_accepts_nearly_flat_scans():
    # A constant scan leaves C undetermined: J^T J's C column vanishes and the
    # fit is refused.  A scan with a visibility well above the 1e-6 where the
    # test starts to refuse fits.
    x = np.linspace(0.0, 4.0 * math.pi, 40)
    for level in (1e-3, 7.0, 1e8):
        with pytest.raises(FitError, match="degenerate"):
            fit_fringe(FringeScan(x, np.full(40, level)))
        fit = fit_fringe(FringeScan(x, 2.0 * level * (1.0 + 1e-4 * np.cos(x + 0.5))))
        assert fit.visibility == pytest.approx(1e-4, rel=1e-6)


def test_fit_fringe_fits_or_refuses_counts_whose_squares_underflow():
    # The mirror of the overflow test: one fringe scaled by 10^k, k from -140
    # down to -320 (subnormal counts), either fits with a finite covariance
    # or is refused for underflow, naming its count scale; never a NaN
    # covariance, a "degenerate" verdict or a warning (tier-1 makes one an
    # error).  The refusal starts at one scale and holds below it.
    x = np.linspace(0.0, 4.0 * math.pi, 40)
    shape = 1.0 + 0.5 * np.cos(x + 0.3)
    verdicts = []
    for k in range(-140, -321, -1):
        try:
            fit = fit_fringe(FringeScan(x, 10.0**k * shape))
        except FitError as exc:
            assert re.fullmatch(r"counts up to \S+e-\d+ underflow the fit's sums of squares", str(exc))
            verdicts.append(False)
            continue
        assert np.isfinite(fit.covariance).all()
        assert fit.visibility == pytest.approx(0.5, rel=1e-12)
        verdicts.append(True)
    first_refused = verdicts.index(False)
    assert first_refused > 0 and not any(verdicts[first_refused:])

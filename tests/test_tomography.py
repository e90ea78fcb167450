"""Tomography settings, records, and both reconstruction routes."""

import json
import math
import warnings

import numpy as np
import pytest

import stimpairs.tomography as tomography_mod
from stimpairs.errors import ReconstructionError, SchemaError
from stimpairs.polarization import (
    ArmSetting,
    MeasurementSetting,
    analyzer_projector,
    analyzer_state,
    bell_state,
    dephasing_noise,
    state_density,
)
from stimpairs.tomography import (
    ANALYZER_ANGLES,
    DEFAULT_BASIS,
    SINGLE_STATES,
    ReconstructionResult,
    TomographyRecord,
    fidelity,
    log_likelihood,
    project_physical,
    reconstruct_linear,
    reconstruct_mle,
    rho_from_json,
    rho_to_json,
    simulate_tomography,
    standard_settings,
)


def test_analyzer_angle_table_matches_states():
    # Each letter's (qwp, pol) pair must transmit exactly the letter's state.
    for letter, target in SINGLE_STATES.items():
        got = analyzer_state(ANALYZER_ANGLES[letter])
        overlap = abs(np.vdot(got, target))
        assert overlap == pytest.approx(1.0, abs=1e-12), letter


def test_standard_settings_structure():
    settings = standard_settings()
    assert len(settings) == 16
    # Arm a major: first four share arm a = H.
    h = ANALYZER_ANGLES["H"]
    assert all(s.arm_a == h for s in settings[:4])
    assert [s.arm_b for s in settings[:4]] == [ANALYZER_ANGLES[b] for b in DEFAULT_BASIS]
    alt = standard_settings(("H", "V", "D", "A"))
    assert len(alt) == 16
    with pytest.raises(ValueError):
        standard_settings(("H", "V"))
    with pytest.raises(ValueError):
        standard_settings(("H", "V", "D", "X"))


def test_record_validation():
    settings = standard_settings()
    with pytest.raises(ValueError):
        TomographyRecord(settings, np.ones(5), 100.0)
    with pytest.raises(ValueError):
        TomographyRecord(settings, -np.ones(16), 100.0)
    with pytest.raises(ValueError):
        TomographyRecord(settings, np.ones(16), 0.0)
    with pytest.raises(ValueError):
        TomographyRecord((), np.zeros(0), 100.0)


def test_record_json_roundtrip():
    record = simulate_tomography(bell_state(), 1000.0, seed=3)
    loaded = TomographyRecord.from_json(record.to_json())
    assert loaded.shots == record.shots
    assert np.array_equal(loaded.counts, record.counts)
    for a, b in zip(loaded.settings, record.settings):
        assert a.arm_a.pol == pytest.approx(b.arm_a.pol)
        assert (a.arm_a.qwp is None) == (b.arm_a.qwp is None)


def test_record_schema_errors():
    with pytest.raises(SchemaError):
        TomographyRecord.from_json("{broken")
    with pytest.raises(SchemaError):
        TomographyRecord.from_json('{"shots": 10}')
    with pytest.raises(SchemaError):
        TomographyRecord.from_json('{"shots": 10, "settings": []}')
    good = {
        "shots": 10,
        "settings": [
            {"arm_a": {"pol_deg": 0}, "arm_b": {"pol_deg": 90}, "counts": 5}
        ],
    }
    bad = json.loads(json.dumps(good))
    del bad["settings"][0]["counts"]
    with pytest.raises(SchemaError, match=r"settings\[0\]"):
        TomographyRecord.from_json(json.dumps(bad))
    bad = json.loads(json.dumps(good))
    bad["settings"][0]["arm_a"] = {"qwp_deg": 0}
    with pytest.raises(SchemaError, match="pol_deg"):
        TomographyRecord.from_json(json.dumps(bad))
    bad = json.loads(json.dumps(good))
    bad["settings"][0]["counts"] = -3
    with pytest.raises(SchemaError):
        TomographyRecord.from_json(json.dumps(bad))


def test_simulate_tomography_determinism():
    rho = dephasing_noise(bell_state(), 0.2)
    one = simulate_tomography(rho, 1e4, seed=9)
    two = simulate_tomography(rho, 1e4, seed=9)
    assert np.array_equal(one.counts, two.counts)
    # Odd shot count: expected counts stay fractional, proving no draw happened.
    noiseless = simulate_tomography(rho, 9999.0, seed=None)
    assert not np.all(noiseless.counts == np.floor(noiseless.counts))
    # Every analyzer projector is rank one, so I/4 yields shots/4 everywhere.
    flat = simulate_tomography(np.eye(4, dtype=complex) / 4.0, 1e4, seed=None)
    assert np.allclose(flat.counts, 2500.0, atol=1e-8)


def test_linear_inversion_exact_on_noiseless_counts():
    for rho in (
        state_density(bell_state()),
        dephasing_noise(bell_state(), 0.4),
        np.eye(4, dtype=complex) / 4.0,
    ):
        record = simulate_tomography(rho, 1e6, seed=None)
        result = reconstruct_linear(record)
        assert np.abs(result.rho - rho).max() < 1e-10
        assert result.method == "linear"
        assert result.physical


def test_linear_inversion_rejects_incomplete_settings():
    # 16 copies of one setting: right count, rank-deficient design.
    setting = MeasurementSetting(ArmSetting(0.0), ArmSetting(0.0))
    record = TomographyRecord(
        tuple(setting for _ in range(16)), np.ones(16), 100.0
    )
    with pytest.raises(ReconstructionError):
        reconstruct_linear(record)
    short = simulate_tomography(bell_state(), 100.0, settings=standard_settings()[:8])
    with pytest.raises(ReconstructionError):
        reconstruct_linear(short)


def test_linear_inversion_reports_negativity():
    record = simulate_tomography(bell_state(), 200.0, seed=21)
    result = reconstruct_linear(record)
    # Shot noise at 200 shots pushes eigenvalues negative; must be reported.
    assert result.min_eigenvalue < 0.0
    assert not result.physical
    projected = project_physical(result.rho)
    assert np.linalg.eigvalsh(projected).min() > -1e-12
    assert np.trace(projected).real == pytest.approx(1.0)


def test_mle_noiseless_machine_recovery():
    record = simulate_tomography(bell_state(), 1e6, seed=None)
    result = reconstruct_mle(record)
    assert result.method == "mle"
    assert result.physical
    assert fidelity(project_physical(result.rho), bell_state()) >= 1.0 - 1e-8


def test_mle_seeded_accuracy():
    rho = dephasing_noise(bell_state(), 0.3)
    record = simulate_tomography(rho, 1e5, seed=17)
    result = reconstruct_mle(record)
    assert fidelity(project_physical(result.rho), rho) > 0.99
    assert result.iterations is not None and result.iterations > 0
    assert result.log_likelihood is not None


def test_mle_beats_projected_linear_on_likelihood():
    record = simulate_tomography(bell_state(), 500.0, seed=33)
    mle = reconstruct_mle(record)
    lin = project_physical(reconstruct_linear(record).rho)
    assert mle.log_likelihood >= log_likelihood(record, lin) - 1e-6


def test_mle_jeffreys_stays_close():
    record = simulate_tomography(bell_state(), 1e4, seed=5)
    plain = reconstruct_mle(record)
    smoothed = reconstruct_mle(record, jeffreys=True)
    assert np.abs(plain.rho - smoothed.rho).max() < 0.05
    # Reported likelihood is the un-smoothed one for both.
    assert smoothed.log_likelihood == pytest.approx(
        log_likelihood(record, smoothed.rho), abs=1e-6
    )


def test_log_likelihood_zero_rate():
    record = simulate_tomography(bell_state(), 1000.0, seed=2)
    # HH never fires for the singlet; a state predicting zero there with
    # nonzero observed counts must be -inf.
    rho_bad = np.zeros((4, 4), dtype=complex)
    rho_bad[0, 0] = 1.0
    if record.counts[1] > 0:  # H/V setting fires for the singlet
        assert log_likelihood(record, rho_bad) == -math.inf


def test_log_likelihood_matches_per_setting_sum():
    # Reference: the per-setting loop sum_i (c_i ln mu_i - mu_i), with
    # probabilities below 1e-15 read as 0 and zero-count settings adding -mu_i.
    rho = dephasing_noise(bell_state(), 0.3)
    record = simulate_tomography(bell_state(), 50.0, seed=9)
    assert np.any(record.counts == 0.0)
    total = 0.0
    for setting, c in zip(record.settings, record.counts):
        proj = analyzer_projector(setting)
        p = max(float(np.real(np.trace(rho @ proj))), 0.0)
        mu = record.shots * (p if p >= 1e-15 else 0.0)
        total += c * math.log(mu) - mu if c > 0.0 else -mu
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_likelihood(record, rho) == pytest.approx(total, rel=1e-13)
        # The singlet predicts exactly zero on HH and VV, where it recorded
        # nothing: finite, and no log(0) warning.
        assert math.isfinite(log_likelihood(record, state_density(bell_state())))


def test_mle_restarts_after_abnormal_line_search():
    # An ordinary record on which a single L-BFGS-B run ends ABNORMAL at
    # gradient 5.7e-8 after 625 iterations; one restart from its last
    # iterate converges.
    d = 0.3807740864578335
    rho = dephasing_noise(bell_state(), d)
    settings = standard_settings(tuple("HVDR"))
    record = simulate_tomography(rho, 1e5, seed=3759451664, settings=settings)
    result = reconstruct_mle(record)
    assert result.physical
    assert np.trace(result.rho).real == pytest.approx(1.0, abs=1e-12)
    # Shot-noise standard deviation of the linear singlet-fidelity estimator,
    # sum_i w_i^2 p_i / shots with F = w . (counts / shots); the MLE spreads less.
    psi = bell_state()
    stack = np.stack([analyzer_projector(s) for s in settings])
    design = stack.transpose(0, 2, 1).reshape(16, 16)
    w = np.linalg.solve(design.T, np.outer(psi.conj(), psi).reshape(-1)).real
    p = np.real(np.einsum("ab,kba->k", rho, stack))
    sigma = math.sqrt(np.sum(w**2 * p) / record.shots)
    assert abs(fidelity(result.rho, psi) - (1.0 - d / 2.0)) < 3.0 * sigma


def test_mle_builds_projector_stack_once(monkeypatch):
    # The linear start, the objective and the reported log-likelihood share
    # one (16, 4, 4) stack.
    calls = []
    true_projectors = tomography_mod._projectors

    def counting_projectors(settings):
        calls.append(1)
        return true_projectors(settings)

    record = simulate_tomography(dephasing_noise(bell_state(), 0.1), 1e5, seed=10)
    monkeypatch.setattr(tomography_mod, "_projectors", counting_projectors)
    result = reconstruct_mle(record)
    assert len(calls) == 1
    monkeypatch.undo()
    assert result.log_likelihood == log_likelihood(record, result.rho)


def test_project_physical_rejects_hopeless_input():
    with pytest.raises(ReconstructionError):
        project_physical(-np.eye(4, dtype=complex))


def test_fidelity_pure_and_mixed():
    rho = state_density(bell_state())
    assert fidelity(rho, bell_state()) == pytest.approx(1.0)
    mixed = dephasing_noise(bell_state(), 0.5)
    assert fidelity(mixed, bell_state()) == pytest.approx(0.75, abs=1e-12)
    assert fidelity(np.eye(4, dtype=complex) / 4.0, bell_state()) == pytest.approx(
        0.25, abs=1e-12
    )
    # Uhlmann fidelity of a state with itself.
    assert fidelity(mixed, mixed) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        fidelity(rho, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        fidelity(rho, 2.0 * bell_state())


def test_rho_json_roundtrip():
    rho = dephasing_noise(bell_state(), 0.25)
    text = rho_to_json(rho)
    doc = json.loads(text)
    assert len(doc["eigenvalues"]) == 4
    assert sum(doc["eigenvalues"]) == pytest.approx(1.0, abs=1e-10)
    back = rho_from_json(text)
    assert np.abs(back - rho).max() < 1e-12


def test_reconstruction_result_physical_flag():
    rho = np.eye(4, dtype=complex) / 4.0
    ok = ReconstructionResult(rho=rho, method="linear", min_eigenvalue=0.25)
    bad = ReconstructionResult(rho=rho, method="linear", min_eigenvalue=-0.01)
    assert ok.physical and not bad.physical


def test_mle_gradient_matches_finite_difference():
    from stimpairs.tomography import _objective_terms, _projectors

    record = simulate_tomography(dephasing_noise(bell_state(), 0.2), 1e4, seed=8)
    fun = _objective_terms(record, _projectors(record.settings), jeffreys=False)
    rng = np.random.default_rng(4)
    params = rng.normal(size=16) * 0.5
    f0, grad = fun(params)
    eps = 1e-6
    for k in range(16):
        step = np.zeros(16)
        step[k] = eps
        f_plus, _ = fun(params + step)
        f_minus, _ = fun(params - step)
        numeric = (f_plus - f_minus) / (2 * eps)
        assert grad[k] == pytest.approx(numeric, abs=1e-5)

"""Tomography settings, records, and both reconstruction routes."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _mle_objective,
    _project_density,
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


_COUNTS = st.one_of(
    st.just(0.0),
    st.integers(0, 10**6).map(float),
    st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
)


_EXACT_ANGLES = sorted({a for s in ANALYZER_ANGLES.values() for a in (s.pol, s.qwp)})


@st.composite
def _records(draw):
    def arm():
        pol = draw(st.one_of(st.sampled_from(_EXACT_ANGLES), st.floats(-10.0, 10.0)))
        qwp = draw(st.one_of(st.none(), st.sampled_from(_EXACT_ANGLES), st.floats(-10.0, 10.0)))
        return ArmSetting(pol=pol, qwp=qwp)

    k = draw(st.integers(1, 16))
    settings_ = [MeasurementSetting(arm(), arm()) for _ in range(k)]
    counts = draw(st.lists(_COUNTS, min_size=k, max_size=k))
    shots = draw(st.floats(1e-300, 1e300))
    return TomographyRecord(tuple(settings_), np.array(counts), shots)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_records())
def test_record_json_roundtrip_keeps_every_number(record):
    # Counts, shots, the setting order and which arms carry a plate come back
    # bit for bit, as do the analyzer-letter angles.  Other angles are written
    # in degrees, and about 9% of doubles in [-7, 7] are math.radians of no
    # double at all, so they come back within the two roundings of the trip.
    loaded = TomographyRecord.from_json(record.to_json())
    assert loaded.shots == record.shots
    assert loaded.counts.tobytes() == record.counts.tobytes()
    assert len(loaded.settings) == len(record.settings)
    for got, want in zip(loaded.settings, record.settings):
        for a, b in ((got.arm_a, want.arm_a), (got.arm_b, want.arm_b)):
            assert (a.qwp is None) == (b.qwp is None)
            for x, y in ((a.pol, b.pol), (a.qwp, b.qwp)):
                if y is None:
                    continue
                if y in _EXACT_ANGLES:
                    assert x == y
                assert abs(x - y) <= 4.0 * np.finfo(float).eps * abs(y)


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


@pytest.mark.parametrize("field", ["shots", "counts", "pol_deg", "qwp_deg"])
@pytest.mark.parametrize("flag", [True, False])
def test_record_rejects_json_booleans(field, flag):
    # float(True) is 1.0; a boolean in a number field is a schema error.
    doc = {
        "shots": 10,
        "settings": [
            {"arm_a": {"pol_deg": 0, "qwp_deg": 45}, "arm_b": {"pol_deg": 90}, "counts": 5}
        ],
    }
    TomographyRecord.from_json(json.dumps(doc))
    if field == "shots":
        doc["shots"] = flag
    elif field == "counts":
        doc["settings"][0]["counts"] = flag
    else:
        doc["settings"][0]["arm_a"][field] = flag
    with pytest.raises(SchemaError, match="got (true|false)"):
        TomographyRecord.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "field, where",
    [
        ("shots", "shots"),
        ("counts", r"settings\[0\]: counts"),
        ("pol_deg", r"settings\[0\]\.arm_a"),
        ("qwp_deg", r"settings\[0\]\.arm_a"),
    ],
)
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", '"10"'])
def test_record_rejects_non_finite_numbers(field, where, literal):
    # Python's json reads NaN and Infinity as floats, and float() reads a
    # numeric string; the schema error names the entry instead of a later
    # "invalid configuration" without it, or a silently loaded string.
    doc = {
        "shots": 10,
        "settings": [
            {"arm_a": {"pol_deg": 0, "qwp_deg": 45}, "arm_b": {"pol_deg": 90}, "counts": 5}
        ],
    }
    if field == "shots":
        doc["shots"] = "@"
    elif field == "counts":
        doc["settings"][0]["counts"] = "@"
    else:
        doc["settings"][0]["arm_a"][field] = "@"
    text = json.dumps(doc).replace('"@"', literal)
    with pytest.raises(SchemaError, match=f"{where}.*got {literal}"):
        TomographyRecord.from_json(text)


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


def test_mle_converges_on_abnormal_line_search_record():
    # An ordinary record on which a single L-BFGS-B run (the reference below)
    # ends ABNORMAL at gradient 5.7e-8 after 625 iterations and needs a
    # restart; projected gradient must converge on it directly.
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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=32, max_size=32))
def test_rho_json_roundtrip_is_lossless(parts):
    # Any finite 4x4 complex matrix, signed zeros and subnormals included,
    # comes back byte for byte.
    rho = np.array([complex(re, im) for re, im in zip(parts[:16], parts[16:])]).reshape(4, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        text = rho_to_json(rho)
    assert rho_from_json(text).tobytes() == rho.tobytes()


@pytest.mark.parametrize("literal", ['"x"', '"0.25"', "NaN", "true", "null"])
@pytest.mark.parametrize("part", [0, 1])
def test_rho_from_json_rejects_non_numbers(part, literal):
    doc = json.loads(rho_to_json(dephasing_noise(bell_state(), 0.25)))
    doc["matrix"][0][1][part] = "@"
    text = json.dumps(doc).replace('"@"', literal)
    where = r"matrix\[0\]\[1\] " + ("re", "im")[part]
    with pytest.raises(SchemaError, match=f"{where}.*got {literal}"):
        rho_from_json(text)


def test_reconstruction_result_physical_flag():
    rho = np.eye(4, dtype=complex) / 4.0
    ok = ReconstructionResult(rho=rho, method="linear", min_eigenvalue=0.25)
    bad = ReconstructionResult(rho=rho, method="linear", min_eigenvalue=-0.01)
    assert ok.physical and not bad.physical


def test_mle_gradient_matches_finite_difference():
    # Central differences of f along random Hermitian directions h must match
    # Tr(grad h), with and without the Jeffreys offset; the record has
    # zero-count settings, whose terms reduce to mu_i.
    record = simulate_tomography(dephasing_noise(bell_state(), 0.2), 1e4, seed=8)
    assert np.any(record.counts == 0.0)
    stack = tomography_mod._projectors(record.settings)
    design = tomography_mod._design_matrix(stack)
    rho = 0.7 * dephasing_noise(bell_state(), 0.2) + 0.3 * np.eye(4) / 4.0
    rng = np.random.default_rng(4)
    eps = 1e-6
    for counts in (record.counts, record.counts + 0.5):
        objective, gradient = _mle_objective(counts, record.shots, design, stack)

        def f(r):
            return objective(r)[0]

        grad = gradient(objective(rho)[1])
        assert np.abs(grad - grad.conj().T).max() < 1e-14
        # One product with the flattened stack is sum_i w_i Pi_i bit for bit.
        mu = record.shots * np.real(design @ rho.ravel())
        weights = 1.0 - np.divide(counts, mu, out=np.zeros_like(mu), where=counts > 0.0)
        assert np.array_equal(grad, np.tensordot(weights, stack, 1))
        for _ in range(8):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (a + a.conj().T) / 2.0
            numeric = (f(rho + eps * h) - f(rho - eps * h)) / (2.0 * eps)
            assert np.vdot(h, grad).real == pytest.approx(numeric, abs=1e-6)


def _project_density_reference(h):
    # The simplex shift as array code: cumsum over the descending eigenvalues.
    evals, vecs = np.linalg.eigh(h)
    desc = evals[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, len(desc) + 1)
    shift = shifts[desc > shifts][-1]
    return (vecs * np.maximum(evals - shift, 0.0)) @ vecs.conj().T


_EIGENVALUE = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5]))


@st.composite
def _hermitian(draw):
    """V diag(evals) V^dagger for a seeded random unitary V.  Half the draws
    are density matrices already; repeated and zero eigenvalues come from the
    sampled values."""
    evals = np.array(draw(st.lists(_EIGENVALUE, min_size=4, max_size=4)))
    if draw(st.booleans()):
        evals = np.abs(evals)
        evals = evals / evals.sum() if evals.sum() > 0.0 else np.full(4, 0.25)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    h = (q * evals) @ q.conj().T
    return (h + h.conj().T) / 2.0


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_hermitian())
def test_project_density_matches_array_reference(h):
    rho = _project_density(h)
    assert np.array_equal(rho, _project_density_reference(h))
    assert np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min() >= -1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12


def test_mle_has_no_tuning_keywords():
    record = simulate_tomography(bell_state(), 1e3, seed=1)
    with pytest.raises(TypeError):
        reconstruct_mle(record, gtol=1e-10)
    with pytest.raises(TypeError):
        reconstruct_mle(record, max_iter=100)


# ----- Reference: the earlier maximum-likelihood reconstructor -----
#
# rho = T T^dagger / Tr(T T^dagger) with T lower triangular (16 real
# parameters), minimized by L-BFGS-B with the analytic gradient from the
# full-rank projected linear inversion, and restarted once after an ABNORMAL
# line search.  Kept as the reference that projected gradient must match or
# beat on the objective.

_OFF_ROWS, _OFF_COLS = np.array(((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))).T


def _t_from_params(params):
    t = np.diag(params[:4].astype(complex))
    t[_OFF_ROWS, _OFF_COLS] = params[4::2] + 1j * params[5::2]
    return t


def _params_from_t(t):
    off = t[_OFF_ROWS, _OFF_COLS]
    return np.concatenate([np.real(np.diag(t)), np.column_stack([off.real, off.imag]).ravel()])


def _reference_mle(record, *, jeffreys=False):
    from scipy.optimize import minimize

    stack = np.stack([analyzer_projector(s) for s in record.settings])
    counts = record.counts + 0.5 if jeffreys else record.counts
    shots = record.shots

    def objective(params):
        # d f / d T-bar = -(M T)/q0 + (S / q0^2) T with M = sum_i w_i Pi_i,
        # S = sum_i w_i Tr(T T^dagger Pi_i), w_i = c_i / mu_i - 1.
        t = _t_from_params(params)
        gram = t @ t.conj().T
        q0 = float(np.real(gram.trace()))
        if q0 <= 0.0 or not math.isfinite(q0):
            return np.inf, np.zeros(16)
        qs = np.maximum(np.real(np.einsum("kab,ba->k", stack, gram)) / q0, 1e-300)
        mus = shots * qs
        f = -float(np.sum(counts * np.log(mus) - mus)) / shots
        ws = counts / mus - 1.0
        m = np.einsum("k,kab->ab", ws, stack)
        gbar = -(m @ t) / q0 + (float(ws @ (qs * q0)) / q0**2) * t
        return f, 2.0 * _params_from_t(gbar)

    start = project_physical(reconstruct_linear(record).rho)
    start = (1.0 - 1e-6) * start + 1e-6 * np.eye(4) / 4.0
    options = {"maxiter": 10000, "maxfun": 40000, "ftol": 1e-15, "gtol": 1e-10}
    res = minimize(objective, _params_from_t(np.linalg.cholesky(start)), jac=True,
                   method="L-BFGS-B", options=options)
    if res.message.startswith("ABNORMAL"):
        res = minimize(objective, res.x, jac=True, method="L-BFGS-B", options=options)
    assert res.success or np.max(np.abs(res.jac)) <= 1e-8, res.message
    t = _t_from_params(res.x)
    gram = t @ t.conj().T
    rho = gram / np.real(gram.trace())
    return (rho + rho.conj().T) / 2.0


def _objective_and_rounding(record, rho, counts):
    """Per-setting loop for f = -sum_i (c_i ln mu_i - mu_i) / shots and for
    sum_i |c_i ln mu_i - mu_i| / shots, the scale of its rounding error."""
    terms = []
    for setting, c in zip(record.settings, counts):
        mu = record.shots * float(np.real(np.trace(rho @ analyzer_projector(setting))))
        terms.append(c * math.log(mu) - mu if c > 0.0 else -mu)
    return -math.fsum(terms) / record.shots, math.fsum(abs(x) for x in terms) / record.shots


def _reference_records():
    cases = []
    for k, d in enumerate(np.linspace(0.0, 0.5, 6)):
        rho = dephasing_noise(bell_state(), float(d))
        hvdr = standard_settings(tuple("HVDR"))
        cases.append((f"hvdr-1e5-d{d:.1f}", simulate_tomography(rho, 1e5, seed=700 + k, settings=hvdr), False))
        hvdl = standard_settings(tuple("HVDL"))
        cases.append((f"hvdl-1e3-jeffreys-d{d:.1f}", simulate_tomography(rho, 1e3, seed=800 + k, settings=hvdl), True))
    for k, d in enumerate((0.0, 0.25, 0.5)):
        rho = dephasing_noise(bell_state(), d)
        cases.append((f"zeros-50-d{d:.2f}", simulate_tomography(rho, 50.0, seed=900 + k), False))
    cases.append(("noiseless-singlet-1e6", simulate_tomography(bell_state(), 1e6, seed=None), False))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name,record,jeffreys", _reference_records())
def test_mle_matches_or_beats_reference(name, record, jeffreys):
    # Tolerance fixed from the error bound of two 16-term sums: each differs
    # from its exact value by at most ~16 eps sum_i |term_i|, so the objective
    # may trail the reference by 32 eps times that scale, and no more.
    if name.startswith("zeros"):
        assert np.any(record.counts == 0.0)
    counts = record.counts + 0.5 if jeffreys else record.counts
    result = reconstruct_mle(record, jeffreys=jeffreys)
    rho = result.rho
    assert result.physical
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    f_apg, _ = _objective_and_rounding(record, rho, counts)
    f_ref, scale = _objective_and_rounding(record, _reference_mle(record, jeffreys=jeffreys), counts)
    assert f_apg <= f_ref + 32.0 * np.finfo(float).eps * scale


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    counts=st.one_of(
        st.lists(_COUNTS, min_size=16, max_size=16),
        # Mostly-zero records: a few nonzero settings at most.
        st.lists(st.sampled_from([0.0, 0.0, 0.0, 1.0, 7.0]), min_size=16, max_size=16),
    ),
    shots=st.floats(1e-3, 1e7),
    basis=st.sampled_from(["HVDR", "HVDA", "HVDL"]),
    jeffreys=st.booleans(),
)
def test_mle_is_physical_or_raises_reconstruction_error(counts, shots, basis, jeffreys):
    record = TomographyRecord(standard_settings(tuple(basis)), np.array(counts), shots)
    try:
        result = reconstruct_mle(record, jeffreys=jeffreys)
    except ReconstructionError:
        return
    rho = result.rho
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert result.physical

"""Tomography settings, records, and both reconstruction routes."""

import collections
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stimpairs.polarization as polarization_mod
import stimpairs.tomography as tomography_mod
from stimpairs.errors import ReconstructionError, SchemaError
from stimpairs.polarization import (
    ArmSetting,
    MeasurementSetting,
    _arm_states,
    analyzer_projector,
    bell_state,
    dephasing_noise,
    state_density,
)
from stimpairs.tomography import (
    ANALYZER_ANGLES,
    DEFAULT_BASIS,
    ReconstructionResult,
    TomographyRecord,
    fidelity,
    log_likelihood,
    project_physical,
    reconstruct_linear,
    reconstruct_mle,
    _mle_objective,
    rho_from_json,
    rho_to_json,
    simulate_tomography,
    standard_settings,
)


# The state each analyzer letter transmits, the reference for ANALYZER_ANGLES.
SINGLE_STATES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}


def test_analyzer_angle_table_matches_states():
    # Each letter's (qwp, pol) pair must transmit exactly the letter's state.
    for letter, target in SINGLE_STATES.items():
        got = _arm_states([ANALYZER_ANGLES[letter]])[0]
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


def test_standard_settings_shows_a_refused_basis_by_its_letters():
    # A string and a sequence of letters give the same settings, and a
    # refused one is shown as its letters, bounded as errors.shown bounds text.
    assert standard_settings("HVDL") == standard_settings(["H", "V", "D", "L"])
    for basis, got in (("HVD", '"HVD"'), (("H", "V", "D", "X"), '"HVDX"'), ("HVDRL", '"HVDRL"'),
                       ("R" * 10**6, f'a JSON string of 1000000 characters, "{"R" * 64}"...')):
        with pytest.raises(ValueError, match=f"^basis needs 4 of the letters HVDARL, got {re.escape(got)}$"):
            standard_settings(basis)


def test_record_validation():
    settings = standard_settings()
    with pytest.raises(ValueError):
        TomographyRecord(settings, np.ones(5), 100.0)
    with pytest.raises(ValueError, match=r"^counts must be non-negative, got min -1\.0$"):
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


# Angles near the analyzer letters' and over the whole finite float range.
_ANGLES = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _records(draw):
    def arm():
        pol = draw(st.one_of(st.sampled_from(_EXACT_ANGLES), _ANGLES))
        qwp = draw(st.one_of(st.none(), st.sampled_from(_EXACT_ANGLES), _ANGLES))
        return ArmSetting(pol=pol, qwp=qwp)

    k = draw(st.integers(1, 16))
    settings_ = [MeasurementSetting(arm(), arm()) for _ in range(k)]
    counts = draw(st.lists(_COUNTS, min_size=k, max_size=k))
    shots = draw(st.floats(1e-300, 1e300))
    return TomographyRecord(tuple(settings_), np.array(counts), shots)


def _refuse_literal(literal):
    raise ValueError(f"non-JSON literal {literal}")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_records())
def test_record_json_roundtrip_keeps_every_number(record):
    # Every text to_json writes is strict JSON.  Counts, shots, the setting
    # order and which arms carry a plate come back bit for bit, as do the
    # analyzer-letter angles.  Other angles are written in degrees, and about
    # 9% of doubles in [-7, 7] are math.radians of no double at all, so they
    # come back within the two roundings of the trip.  Past about 3.1e306 rad
    # the degrees overflow: that record is refused naming the first such
    # number, and no text is returned.
    degrees = [
        (f"settings[{i}].{name}.{key}_deg", math.degrees(angle))
        for i, s in enumerate(record.settings)
        for name, arm in (("arm_a", s.arm_a), ("arm_b", s.arm_b))
        for key, angle in (("pol", arm.pol), ("qwp", arm.qwp))
        if angle is not None
    ]
    overflow = [(path, d) for path, d in degrees if math.isinf(d)]
    if overflow:
        message = re.escape("{} = {!r} is not a JSON number".format(*overflow[0]))
        with pytest.raises(FloatingPointError, match=f"^{message}$"):
            record.to_json()
        return
    text = record.to_json()
    json.loads(text, parse_constant=_refuse_literal)
    loaded = TomographyRecord.from_json(text)
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


@pytest.mark.parametrize(
    "arm, path, shown",
    [
        (ArmSetting(pol=1e307), "settings[0].arm_a.pol_deg", "inf"),
        (ArmSetting(pol=0.0, qwp=-1e307), "settings[0].arm_a.qwp_deg", "-inf"),
    ],
)
def test_record_with_degrees_past_the_float_range_is_refused(arm, path, shown):
    # A finite angle whose degrees overflow has no JSON number: the writer
    # names it and returns no text, never an Infinity that from_json refuses.
    record = TomographyRecord((MeasurementSetting(arm, ArmSetting(pol=0.0)),), [1.0], 10.0)
    with pytest.raises(FloatingPointError, match=rf"^{re.escape(path)} = {shown} is not a JSON number$"):
        record.to_json()


def test_record_schema_errors():
    # Each error names the path dump_json writes the value at.
    with pytest.raises(SchemaError, match=r"^invalid JSON at line 1: "):
        TomographyRecord.from_json("{broken")
    with pytest.raises(SchemaError, match=r"^settings: missing$"):
        TomographyRecord.from_json('{"shots": 10}')
    with pytest.raises(SchemaError, match=r"^settings: expected a non-empty JSON array$"):
        TomographyRecord.from_json('{"shots": 10, "settings": []}')
    good = {
        "shots": 10,
        "settings": [
            {"arm_a": {"pol_deg": 0}, "arm_b": {"pol_deg": 90}, "counts": 5}
        ],
    }
    bad = json.loads(json.dumps(good))
    del bad["settings"][0]["counts"]
    with pytest.raises(SchemaError, match=r"^settings\[0\]\.counts: missing$"):
        TomographyRecord.from_json(json.dumps(bad))
    bad = json.loads(json.dumps(good))
    bad["settings"][0]["arm_a"] = {"qwp_deg": 0}
    with pytest.raises(SchemaError, match=r"^settings\[0\]\.arm_a\.pol_deg: missing$"):
        TomographyRecord.from_json(json.dumps(bad))
    bad = json.loads(json.dumps(good))
    bad["settings"][0]["counts"] = -3
    with pytest.raises(SchemaError, match=r"^settings\[0\]\.counts: must be >= 0, got -3\.0$"):
        TomographyRecord.from_json(json.dumps(bad))
    for arm_b in (None, 90, [90]):
        bad = json.loads(json.dumps(good))
        if arm_b is None:
            del bad["settings"][0]["arm_b"]
            message = r"^settings\[0\]\.arm_b: missing$"
        else:
            bad["settings"][0]["arm_b"] = arm_b
            message = r"^settings\[0\]\.arm_b: expected a JSON object$"
        with pytest.raises(SchemaError, match=message):
            TomographyRecord.from_json(json.dumps(bad))


def test_record_schema_errors_begin_with_where():
    # A where names the document before the path inside it; without one
    # the message is the path's alone.
    doc = {"shots": 10, "settings": [{"arm_a": {"pol_deg": 0}, "arm_b": {"pol_deg": "x"}, "counts": 5}]}
    message = 'settings[0].arm_b.pol_deg: expected a finite number, got "x"'
    for where, lead in (("", ""), ("counts r.json", "counts r.json: ")):
        with pytest.raises(SchemaError, match=f"^{re.escape(lead + message)}$"):
            TomographyRecord.from_json(json.dumps(doc), where)
        with pytest.raises(SchemaError, match=f"^{re.escape(lead)}invalid JSON at line 1: "):
            TomographyRecord.from_json("{broken", where)
        with pytest.raises(SchemaError, match=f"^{re.escape(lead)}settings: missing$"):
            TomographyRecord.from_json('{"shots": 10}', where)


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
        ("counts", r"settings\[0\]\.counts"),
        ("pol_deg", r"settings\[0\]\.arm_a\.pol_deg"),
        ("qwp_deg", r"settings\[0\]\.arm_a\.qwp_deg"),
    ],
    # The ids the suite has listed these cases under since they were written.
    ids=[
        "shots-shots",
        r"counts-settings\[0\]: counts",
        r"pol_deg-settings\[0\]\.arm_a",
        r"qwp_deg-settings\[0\]\.arm_a",
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
    with pytest.raises(SchemaError, match=f"^{where}: expected a finite number, got {literal}$"):
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


@pytest.mark.parametrize(
    "settings_",
    [[], [ArmSetting(pol=0.0)], standard_settings()[:3] + ["HH"]],
    ids=["empty", "arm", "string"],
)
def test_simulate_tomography_checks_settings_before_building_a_model(settings_):
    # The record's own rule and message, raised before _model caches anything.
    message = r"^settings must be a non-empty list of MeasurementSetting$"
    with pytest.raises(ValueError, match=message):
        TomographyRecord(settings_, np.ones(len(settings_)), 10.0)
    tomography_mod._model.cache_clear()
    with pytest.raises(ValueError, match=message):
        simulate_tomography(bell_state(), 1e3, seed=1, settings=settings_)
    assert tomography_mod._model.cache_info().currsize == 0


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
        # Exactly Hermitian, and linear inversion has no residual.
        assert np.array_equal(result.rho, result.rho.conj().T)
        assert result.residual is None


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


def test_linear_inversion_trace_of_rounding_noise_vanishes():
    # Stress record 8 solves to coordinates up to 1.9e5 whose trace is
    # -2.3e-11, 0.05 cond eps max|x|: rounding noise, so the trace vanishes
    # rather than scaling rho to entries near 8e15.
    record, _ = _stress_records()[8]
    with pytest.raises(ReconstructionError, match="vanishing trace"):
        reconstruct_linear(record)


def test_linear_inversion_is_free_of_the_shots_scale():
    # Stating the same counts at 1e18 shots scales the solution and its trace
    # by 1e-13, which leaves the normalized rho as it was.
    noisy = simulate_tomography(bell_state(), 1e5, seed=1)
    rho = reconstruct_linear(noisy).rho
    scaled = reconstruct_linear(TomographyRecord(noisy.settings, noisy.counts, 1e18)).rho
    assert np.abs(scaled - rho).max() <= 1e-15


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
    # One rule, the MLE objective's: a counted setting whose rate is at most 0
    # gives -inf, and any positive rate counts as it is.  The HH analyzers are
    # exact, so |VV><VV| predicts exactly zero on HH, which a record of I/4
    # counts.
    record = simulate_tomography(np.eye(4) / 4.0, 1000.0, seed=2)
    assert record.counts[0] > 0.0
    vv = np.zeros((4, 4), dtype=complex)
    vv[3, 3] = 1.0
    assert log_likelihood(record, vv) == -math.inf
    # On HV, |HH><HH| predicts cos^2(pi/2) ~ 4e-33 from the V polarizer's
    # rounding: a tiny rate, not a zero one, so the value is finite, and far
    # below the true state's.  The singlet record counts HV.
    record = simulate_tomography(bell_state(), 1000.0, seed=2)
    hh = np.zeros((4, 4), dtype=complex)
    hh[0, 0] = 1.0
    assert record.counts[1] > 0.0
    assert 0.0 < np.real(np.trace(hh @ analyzer_projector(record.settings[1]))) < 1e-30
    value = log_likelihood(record, hh)
    assert math.isfinite(value)
    assert value < log_likelihood(record, state_density(bell_state()))


def test_log_likelihood_matches_per_setting_sum():
    # Reference: the per-setting loop sum_i (c_i ln mu_i - mu_i), zero-count
    # settings adding -mu_i, mu_i from Re Tr(rho Pi_i).  The second rho has an
    # anti-Hermitian defect of 5e-9, which check_density_matrix lets through
    # and which leaves Re Tr(rho Pi_i) as it is.
    rho = dephasing_noise(bell_state(), 0.3)
    a = np.random.default_rng(3).normal(size=(4, 4, 2)) @ np.array([1.0, 1j])
    defect = (a - a.conj().T) / 2.0
    defective = rho + 5e-9 * defect / np.abs(2.0 * defect).max()
    record = simulate_tomography(bell_state(), 50.0, seed=9)
    assert np.any(record.counts == 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in (rho, defective):
            total = 0.0
            for setting, c in zip(record.settings, record.counts):
                mu = record.shots * float(np.real(np.trace(state @ analyzer_projector(setting))))
                total += c * math.log(mu) - mu if c > 0.0 else -mu
            assert log_likelihood(record, state) == pytest.approx(total, rel=1e-13)
        # The singlet predicts exactly zero on HH and VV, where it recorded
        # nothing: finite, and no log(0) warning.
        assert math.isfinite(log_likelihood(record, state_density(bell_state())))


@pytest.mark.parametrize("basis", ["HVDR", "HVDL"])
def test_mle_reports_its_own_optimum_on_noiseless_records(basis):
    # A noiseless record counts about shots * 1e-33 where the state's
    # probability is zero up to rounding (HH and VV of the singlet), and the
    # MLE fits rates of that order there.  The reported value is the
    # objective at the result, so it is finite; reading probabilities below
    # 1e-15 as zero would make most of them -inf.
    settings = standard_settings(tuple(basis))
    for d in np.linspace(0.0, 1.0, 11):
        record = simulate_tomography(dephasing_noise(bell_state(), d), 1e5, settings=settings)
        result = reconstruct_mle(record)
        assert math.isfinite(result.log_likelihood), d
        assert result.log_likelihood == log_likelihood(record, result.rho), d


def test_mle_converges_on_abnormal_line_search_record():
    # An ordinary record on which a single L-BFGS-B run (the reference below)
    # ends ABNORMAL at gradient 5.7e-8 after 625 iterations and needs a
    # restart; the MLE must converge on it directly.
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


def _stack(settings_):
    # The (k, 4, 4) projector stack of a settings list, built as the model builds it.
    return polarization_mod._projector_stack(*polarization_mod._setting_states(settings_))


def test_mle_builds_projector_stack_once(monkeypatch):
    # simulate_tomography, reconstruct_linear, reconstruct_mle and
    # log_likelihood all read one cached model per settings list: from a
    # cleared cache, the list's (16, 4, 4) stack is built once across the four.
    calls = []
    true_stack = tomography_mod._projector_stack

    def counting_stack(ua, ub):
        calls.append(1)
        return true_stack(ua, ub)

    monkeypatch.setattr(tomography_mod, "_projector_stack", counting_stack)
    tomography_mod._model.cache_clear()
    record = simulate_tomography(dephasing_noise(bell_state(), 0.1), 1e5, seed=10)
    reconstruct_linear(record)
    result = reconstruct_mle(record)
    assert result.log_likelihood == log_likelihood(record, result.rho)
    assert len(calls) == 1


def _random_angle_settings():
    # 16 settings at random polarizer and plate angles on both arms.
    rng = np.random.default_rng(12)

    def arm():
        pol, qwp = rng.uniform(-math.pi, math.pi, size=2)
        return ArmSetting(float(pol), float(qwp))

    return [MeasurementSetting(arm(), arm()) for _ in range(16)]


def test_settings_model_is_a_read_only_copy_of_a_fresh_build():
    lists = [standard_settings(tuple(b)) for b in ("HVDR", "HVDL", "HVDA")] + [_random_angle_settings()]
    for settings_ in lists:
        model = tomography_mod._model(tuple(settings_))
        states = polarization_mod._setting_states(settings_)
        stack = _stack(settings_)
        chart = tomography_mod._coordinates(stack)
        assert all(np.array_equal(got, want) for got, want in zip(model.states, states))
        assert np.array_equal(model.chart, chart)
        assert model.cond == np.linalg.cond(chart)
        assert np.array_equal(model.table, tomography_mod._factor_table(chart))
        # The chart has the singular values of the complex map rho -> Tr(rho Pi_i).
        design = stack.transpose(0, 2, 1).reshape(16, 16)
        singular = np.linalg.svd(chart, compute_uv=False)
        assert np.abs(singular - np.linalg.svd(design, compute_uv=False)).max() <= 1e-14 * singular[0]
        for array in (*model.states, model.chart, model.table):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    # The model keeps what reconstruction and simulation read, not the stack.
    assert tomography_mod._Model._fields == ("states", "chart", "cond", "table")
    # A list and a tuple of the same settings share one entry: simulating
    # from the list and inverting the record (a tuple) build the model once.
    tomography_mod._model.cache_clear()
    settings_ = _random_angle_settings()
    record = simulate_tomography(bell_state(), 1e3, seed=1, settings=settings_)
    reconstruct_linear(TomographyRecord(tuple(settings_), record.counts, record.shots))
    info = tomography_mod._model.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    # The cached verdict raises the two messages completeness always raised.
    short = TomographyRecord(standard_settings()[:15], np.ones(15), 10.0)
    incomplete = TomographyRecord(standard_settings(tuple("HVDA")), np.ones(16), 10.0)
    for reconstruct in (reconstruct_linear, reconstruct_mle):
        with pytest.raises(ReconstructionError, match=r"^linear inversion needs 16 settings, got 15$"):
            reconstruct(short)
        with pytest.raises(ReconstructionError, match=r"^settings are informationally incomplete$"):
            reconstruct(incomplete)


def test_model_build_reads_the_analyzer_states_once(monkeypatch):
    # One _setting_states call, one _arm_states per arm: the chart's stack is
    # built from the states the model keeps (four calls when the stack was
    # built from a second _setting_states).
    calls = []
    true_arm_states = polarization_mod._arm_states

    def counting(arms):
        calls.append(len(arms))
        return true_arm_states(arms)

    monkeypatch.setattr(polarization_mod, "_arm_states", counting)
    tomography_mod._model.cache_clear()
    tomography_mod._model(tuple(_random_angle_settings()))
    assert calls == [16, 16]


_SCALE_MESSAGE = r"^counts up to \S+ at shots \S+ overflow reconstruction$"


def test_record_past_the_count_scale_is_refused_by_both_methods():
    # The rule is judged before any arithmetic, with no floating-point
    # warning: 16 equal counts at a counts-to-shots ratio R once warned at
    # R = 1e154 in the Newton step, and a ratio past the float range warned
    # in the linear solve; counts near the float's top overflowed the
    # likelihood's sum.  At the bounds themselves both methods still run.
    ratio, scale = tomography_mod._RATIO_MAX, tomography_mod._SCALE_MAX
    settings_ = standard_settings()
    refused = [
        (np.full(16, 1e154), 1.0),
        (np.full(16, 1.6e308), 1e-300),
        (np.full(16, 1e305), 1e305),
        (np.full(16, 1.0), 1e308),
        (np.full(16, ratio * 4.0), 2.0),
    ]
    for counts, shots in refused:
        record = TomographyRecord(settings_, counts, shots)
        message = f"counts up to {counts.max():.3g} at shots {shots:.3g}"
        for reconstruct in (reconstruct_linear, reconstruct_mle):
            with pytest.raises(ReconstructionError, match=_SCALE_MESSAGE) as info:
                reconstruct(record)
            assert str(info.value).startswith(message)
    # Jeffreys adds 0.5 to every count the MLE reads: no counts at tiny shots
    # are refused with it and run without it.
    empty = TomographyRecord(settings_, np.zeros(16), 1e-300)
    with pytest.raises(ReconstructionError, match=_SCALE_MESSAGE):
        reconstruct_mle(empty, jeffreys=True)
    assert reconstruct_mle(empty).physical
    counts = simulate_tomography(dephasing_noise(bell_state(), 0.1), 1.0).counts
    for top, shots in ((ratio, 1.0), (scale, scale), (ratio * 1e-300, 1e-300)):
        record = TomographyRecord(settings_, counts / counts.max() * top, shots)
        reconstruct_linear(record)
        result = reconstruct_mle(record)
        assert result.physical and result.residual <= tomography_mod._RESIDUAL_TOL


def test_random_records_near_the_count_scale_run_or_are_refused_without_warning():
    # Records of random counts (from states, uniform, mostly zero and single
    # settings) at ratios and scales around both bounds: each method returns
    # a result or raises ReconstructionError, and no floating-point warning
    # is raised on the way (tier-1 turns one into an error).
    rng = np.random.default_rng(60)
    ratio, scale = tomography_mod._RATIO_MAX, tomography_mod._SCALE_MAX
    seen = collections.Counter()
    for trial in range(160):
        kind = trial % 4
        if kind == 0:
            base = simulate_tomography(dephasing_noise(bell_state(), rng.uniform()), 1.0).counts
        elif kind == 1:
            base = rng.uniform(size=16)
        elif kind == 2:
            base = np.where(rng.uniform(size=16) < 0.7, 0.0, rng.uniform(size=16))
        else:
            base = np.eye(16)[rng.integers(16)]
        if base.max() == 0.0:
            continue
        if trial % 2:
            shots = 10.0 ** rng.uniform(-300.0, 160.0)
            top = min(ratio * 2.0 ** rng.uniform(-8.0, 8.0) * shots, 1.7e308)
        else:
            shots = scale * 2.0 ** rng.uniform(-8.0, 8.0)
            top = min(shots * 10.0 ** rng.uniform(-3.0, 0.5), 1.7e308)
        record = TomographyRecord(standard_settings(), base / base.max() * top, shots)
        for reconstruct in (reconstruct_linear, reconstruct_mle):
            try:
                reconstruct(record)
                seen["ran"] += 1
            except ReconstructionError as exc:
                seen["scale" if re.match(_SCALE_MESSAGE, str(exc)) else "other"] += 1
    assert seen["ran"] > 50 and seen["scale"] > 50


def _seeded_dephased_records():
    # 24 dephased singlets, d from 0 to 0.5; every fourth sparse (HVDL, 1e3
    # shots, Jeffreys), the rest HVDR at 1e5 shots.
    records = []
    for k, d in enumerate(np.linspace(0.0, 0.5, 24)):
        sparse = k % 4 == 0
        settings_ = standard_settings(tuple("HVDL" if sparse else "HVDR"))
        record = simulate_tomography(
            dephasing_noise(bell_state(), float(d)), 1e3 if sparse else 1e5,
            seed=1000 + k, settings=settings_,
        )
        records.append((record, sparse))
    return records


def test_mle_newton_finish_cuts_iterations():
    # 119 Newton steps on these records, every record in its first round,
    # stopping at the optimum: residual 5.9e-13 at most.
    results = [reconstruct_mle(record, jeffreys=sparse) for record, sparse in _seeded_dephased_records()]
    assert sum(r.iterations for r in results) <= 250
    assert max(r.residual for r in results) <= 1e-9


def _spy_finish(monkeypatch, replace=None):
    # Records each round's start rho and step count; replace(rho) stands in
    # for the first round's point.
    calls = []
    true_finish = tomography_mod._newton_finish

    def spy(rho, objective, table):
        point, steps = true_finish(rho, objective, table)
        if replace is not None and not calls:
            point = replace(rho)
        calls.append((rho, steps))
        return point, steps

    monkeypatch.setattr(tomography_mod, "_newton_finish", spy)
    return calls


def _rescaled_to_the_counts(record, counts):
    # rho -> s rho with s = sum_i c_i / sum_i mu_i, where f is least along the
    # scale, so f is no higher there; its trace is s, so its residual is at
    # least |s - 1| / 2, and every record below has |s - 1| > 2 _RESIDUAL_TOL.
    total = _stack(record.settings).sum(axis=0)

    def rescale(rho):
        s = counts.sum() / (record.shots * np.vdot(total, rho).real)
        assert abs(s - 1.0) > 2.0 * tomography_mod._RESIDUAL_TOL
        return s * rho

    return rescale


def test_mle_round_that_raises_f_is_an_error(monkeypatch):
    # I/4 has f above the start's on every reference record: a round whose
    # point raises f beyond its rounding error ends the MLE with an error
    # that says by how much.
    for name, record, jeffreys in (p.values for p in _reference_records()):
        calls = _spy_finish(monkeypatch, lambda rho: np.eye(4, dtype=complex) / 4.0)
        raised = r"^MLE round 1 raised f by \d\S*, beyond its rounding error \d"
        with pytest.raises(ReconstructionError, match=raised):
            reconstruct_mle(record, jeffreys=jeffreys)
        monkeypatch.undo()
        assert len(calls) == 1, name


def test_mle_round_short_of_the_tolerance_is_followed_by_another(monkeypatch):
    # The first round's point rescaled to the count total has f no higher,
    # but a residual far above _RESIDUAL_TOL: it is kept, the next round
    # starts from it, and the result meets the reference objective bound.
    for name, record, jeffreys in (p.values for p in _reference_records()):
        if name.startswith("noiseless"):
            continue  # its count total is what a trace-one rho predicts: no rescaling
        counts = record.counts + 0.5 if jeffreys else record.counts
        calls = _spy_finish(monkeypatch, _rescaled_to_the_counts(record, counts))
        result = reconstruct_mle(record, jeffreys=jeffreys)
        monkeypatch.undo()
        assert result.rounds == len(calls) >= 2, name
        assert abs(np.trace(calls[1][0]).real - 1.0) > 2.0 * tomography_mod._RESIDUAL_TOL, name
        assert result.iterations == sum(steps for _, steps in calls), name
        assert result.residual <= tomography_mod._RESIDUAL_TOL
        f_mle, scale = _objective_and_rounding(record, result.rho, counts)
        f_ref, _ = _objective_and_rounding(record, _cached_reference_mle(name, record, jeffreys), counts)
        assert f_mle <= f_ref + 32.0 * np.finfo(float).eps * scale, name


def test_mle_finish_from_an_iterate_of_too_low_rank_is_kept(monkeypatch):
    # dephased:1.0, HVDR, 1e4 shots, Jeffreys, seed 2 has a rank-3 optimum
    # (third eigenvalue 1.1e-5).  Here the first round starts from the start
    # cut to its top two eigenvalues, where the start itself has four.  The
    # round's 4 x 4 factor regrows the third eigenvalue: 7 Newton steps,
    # residual 4.4e-10, and its point is kept.  From the start itself, as
    # reconstruct_mle runs, the round takes 8 Newton steps.
    record = simulate_tomography(
        dephasing_noise(bell_state(), 1.0), 1e4, seed=2, settings=standard_settings(tuple("HVDR"))
    )
    plain = reconstruct_mle(record, jeffreys=True)
    assert plain.rounds == 1 and plain.iterations <= 10 and plain.residual <= 1e-8
    calls = _spy_finish(monkeypatch)
    spy, starts = tomography_mod._newton_finish, []

    def from_rank_two(rho, objective, table):
        # The first round starts from rho's top two eigenvalues, renormalized.
        if not starts:
            starts.append(rho)
            evals, vecs = np.linalg.eigh(rho)
            evals[:2] = 0.0
            rho = (vecs * (evals / evals.sum())) @ vecs.conj().T
        return spy(rho, objective, table)

    monkeypatch.setattr(tomography_mod, "_newton_finish", from_rank_two)
    result = reconstruct_mle(record, jeffreys=True)
    assert len(calls) == result.rounds == 1
    assert np.count_nonzero(np.linalg.eigvalsh(starts[0]) > tomography_mod._EIGEN_FLOOR) == 4
    assert np.count_nonzero(np.linalg.eigvalsh(calls[0][0]) > tomography_mod._EIGEN_FLOOR) == 2
    assert result.iterations <= 30
    assert result.residual <= 1e-8
    assert np.linalg.eigvalsh(result.rho)[1] > 1e-5
    counts = record.counts + 0.5
    f_mle, scale = _objective_and_rounding(record, result.rho, counts)
    f_ref, _ = _objective_and_rounding(record, _reference_mle(record, jeffreys=True), counts)
    assert f_mle <= f_ref + 32.0 * np.finfo(float).eps * scale


def test_jeffreys_mle_converges_on_the_clean_record_grid():
    # 48 noiseless Jeffreys records: HVDR and HVDL, d in {0, 0.2, 1}, shots
    # 1e3 to 1e10 by decades.  The Jeffreys optimum itself moves the singlet
    # fidelity by up to 3.7 / shots from the true state's (1.1 / shots at
    # d = 0 up to 1e7 shots, 0.25 / shots at d > 0), so the bound is
    # 4 / shots.  Every d at 1e4 and 1e5 shots needs 2-5 rounds, 42-91 Newton
    # steps; from 1e6 shots up one record takes 13 steps at most, so the
    # bound there is 30.  d = 1 at 1e10 ends its first round after 3 steps at
    # residual 3.9e-5, and the second round, lifted again, converges in 1
    # step.  1,118 Newton steps in all.  With Jeffreys every count is
    # positive, so every optimum is full rank: at d = 0.2 two eigenvalues sit
    # near 5e-10 where the projected linear inversion has 0, and the rounds
    # regrow them.
    steps = 0
    for basis in ("HVDR", "HVDL"):
        settings_ = standard_settings(tuple(basis))
        for d in (0.0, 0.2, 1.0):
            rho = dephasing_noise(bell_state(), d)
            target = fidelity(rho, bell_state())
            for shots in 10.0 ** np.arange(3, 11):
                record = simulate_tomography(rho, shots, settings=settings_)
                result = reconstruct_mle(record, jeffreys=True)
                where = (basis, d, shots)
                assert result.residual <= tomography_mod._RESIDUAL_TOL, where
                assert abs(fidelity(result.rho, bell_state()) - target) <= 4.0 / shots, where
                assert result.iterations <= (30 if shots >= 1e6 else 100), where
                steps += result.iterations
    assert steps <= 1200


@pytest.mark.parametrize(
    "d,seed",
    # dephased:0.42, seed 19: third eigenvalue 3.0e-4.  d = 0.346...,
    # seed 1021269449 (an `analysis` benchmark record): third eigenvalue
    # 3.1e-4.  On the second, Newton with |lambda| over every direction of T
    # halves T at each step and stops after 30 steps far from the optimum,
    # because away from it the Hessian along the scale x is -g, not 0; on the
    # complement of the gauge and scale moves it converges.  dephased:0.002,
    # seed 7, the near-pure record of the command line: its optimum has rank 2,
    # an edge of such a face.
    [(0.42, 19), (0.3460639419544736, 1021269449), (0.002, 7)],
)
def test_mle_finish_on_a_rank_three_face(monkeypatch, d, seed):
    # HVDL, 1e3 shots, Jeffreys: optimums of rank 3 (and 2), finished in one
    # round of a few Newton steps from the full-rank start (10, 7 and 9).
    # The L-BFGS-B reference ends within 3e-7 of the result in rho and no
    # lower in f.
    record = simulate_tomography(
        dephasing_noise(bell_state(), d), 1e3, seed=seed, settings=standard_settings(tuple("HVDL"))
    )
    calls = _spy_finish(monkeypatch)
    result = reconstruct_mle(record, jeffreys=True)
    assert len(calls) == 1
    assert result.iterations == calls[0][1] <= 10
    assert result.residual <= 1e-9
    reference = _reference_mle(record, jeffreys=True)
    counts = record.counts + 0.5
    f_mle, scale = _objective_and_rounding(record, result.rho, counts)
    f_ref, _ = _objective_and_rounding(record, reference, counts)
    assert f_mle <= f_ref + 32.0 * np.finfo(float).eps * scale
    assert np.abs(result.rho - reference).max() < 1e-6


def test_project_physical_maps_every_hermitian_to_a_state():
    # No Hermitian input is hopeless: -I has four equal eigenvalues, so its
    # nearest state is I/4.  A state comes back as it is.
    assert np.abs(project_physical(-np.eye(4, dtype=complex)) - np.eye(4) / 4.0).max() <= 1e-15
    for rho in (state_density(bell_state()), dephasing_noise(bell_state(), 0.3), np.eye(4) / 4.0):
        assert np.abs(project_physical(rho) - rho).max() <= 1e-15


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


def test_rho_to_json_needs_a_4x4_matrix():
    for shape in ((2, 2), (16,), (4, 4, 1)):
        with pytest.raises(ValueError, match=rf"^expected a 4x4 matrix, got shape {re.escape(str(shape))}$"):
            rho_to_json(np.zeros(shape))


@pytest.mark.parametrize(
    "entry, value, shown",
    [((0, 1), complex(0, math.inf), "infj"), ((2, 3), complex(math.nan, 0), "(nan+0j)"),
     ((3, 0), complex(-math.inf, 1), "(-inf+1j)")],
    ids=["inf-imag", "nan-real", "inf-real"],
)
def test_rho_to_json_names_a_non_finite_entry(entry, value, shown):
    # Refused before the eigenvalue report, which would warn on the entry
    # (an error here) and fail to converge; no text is returned.
    rho = state_density(bell_state())
    rho[entry] = value
    where = re.escape(f"matrix[{entry[0]}][{entry[1]}]")
    with pytest.raises(ValueError, match=rf"^{where} must be finite, got {re.escape(shown)}$"):
        rho_to_json(rho)


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
    where = rf"matrix\[0\]\[1\]\[{part}\]"
    with pytest.raises(SchemaError, match=f"^{where}: expected a finite number, got {re.escape(literal)}$"):
        rho_from_json(text)


@pytest.mark.parametrize(
    "doc,message",
    [
        ([], "expected a JSON object"),
        ({"rho": []}, "matrix: missing"),
        ({"matrix": [[]] * 3}, "matrix: expected a JSON array of 4 entries"),
        ({"matrix": [[[0, 0]] * 4] * 3 + [[[0, 0]] * 3]}, r"matrix\[3\]: expected a JSON array of 4 entries"),
        ({"matrix": [[[0, 0]] * 4] * 2 + [[[0, 0]] * 3 + [[0]]] * 2},
         r"matrix\[2\]\[3\]: expected a JSON array of 2 entries"),
    ],
    ids=["not-an-object", "no-matrix", "three-rows", "short-row", "short-pair"],
)
def test_rho_from_json_schema_errors(doc, message):
    with pytest.raises(SchemaError, match=f"^{message}$"):
        rho_from_json(json.dumps(doc))


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
    stack = _stack(record.settings)
    chart = tomography_mod._coordinates(stack)
    rho = 0.7 * dephasing_noise(bell_state(), 0.2) + 0.3 * np.eye(4) / 4.0
    rng = np.random.default_rng(4)
    eps = 1e-6
    for counts in (record.counts, record.counts + 0.5):
        objective = _mle_objective(counts, record.shots)

        def f(r):
            return objective(tomography_mod._probabilities(chart, r))[0]

        _, w, _ = objective(tomography_mod._probabilities(chart, rho))
        grad = tomography_mod._hermitian(w @ chart)
        assert np.abs(grad - grad.conj().T).max() < 1e-14
        # One product with the chart is sum_i w_i Pi_i up to the rounding of
        # two 16-term sums: 8 eps sum_i |w_i| bounds it, as |Pi_i entries| <= 1.
        mu = record.shots * np.real(np.einsum("ab,kba->k", rho, stack))
        weights = 1.0 - np.divide(counts, mu, out=np.zeros_like(mu), where=counts > 0.0)
        direct = np.tensordot(weights, stack, 1)
        assert np.abs(grad - direct).max() <= 8.0 * np.finfo(float).eps * np.abs(weights).sum()
        for _ in range(8):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (a + a.conj().T) / 2.0
            numeric = (f(rho + eps * h) - f(rho - eps * h)) / (2.0 * eps)
            assert np.vdot(h, grad).real == pytest.approx(numeric, abs=1e-6)


def test_factor_chart_is_orthonormal_and_its_table_is_direct():
    # The E_k = _hermitian(e_k) are Hermitian and orthonormal under
    # Re tr(A^dagger B), _coordinates inverts _hermitian, and _factor_table
    # equals Re tr(E_k Pi_i E_l) computed directly.
    basis = tomography_mod._hermitian(np.eye(16))
    assert np.array_equal(basis, basis.conj().transpose(0, 2, 1))
    assert np.array_equal(np.einsum("kab,lab->kl", basis.conj(), basis).real, np.eye(16))
    x = np.random.default_rng(4).normal(size=(3, 16))
    back = tomography_mod._coordinates(tomography_mod._hermitian(x))
    assert np.abs(back - x).max() <= 1e-15 * np.abs(x).max()
    for letters in ("HVDR", "HVDL", "HVDA"):
        stack = _stack(standard_settings(tuple(letters)))
        direct = np.einsum("kab,ibc,lca->ikl", basis, stack, basis).real
        table = tomography_mod._factor_table(tomography_mod._coordinates(stack))
        assert np.abs(table - direct).max() <= 1e-15


def test_factor_probabilities_match_rho_through_the_design():
    # The finish reads each point's setting probabilities off the factor
    # table, p_i = t . Q_i t / t . t; they must equal Tr(rho Pi_i) of
    # rho = T^2 / tr T^2 formed and pushed through the chart, to a few ulps,
    # at random full-rank factors.
    rng = np.random.default_rng(31)
    eps = np.finfo(float).eps
    for letters in ("HVDR", "HVDL", "HVDA"):
        model = tomography_mod._model(tuple(standard_settings(tuple(letters))))
        for _ in range(200):
            t = rng.normal(size=16)
            turned, p = tomography_mod._factor_probabilities(t, model.table)
            rho = tomography_mod._gram(tomography_mod._hermitian(t))
            direct = tomography_mod._probabilities(model.chart, rho)
            assert np.abs(p - direct).max() <= 4.0 * eps
            assert np.array_equal(turned, model.table @ t)


def test_measurement_settings_hash_and_compare_by_value():
    # Settings are dataclass values: equal settings compare and hash equal,
    # with the hash the dataclass computes from the two arms, distinct ones
    # differ, and a tomography model keyed by a settings tuple is found again
    # from an equal, freshly built tuple.
    settings_ = standard_settings()
    again = standard_settings()
    assert hash(tuple(settings_)) == hash(tuple(again))
    for s, t in zip(settings_, again):
        assert s is not t and s == t and hash(s) == hash(t) == hash((s.arm_a, s.arm_b))
    assert settings_[0] != settings_[1]
    assert MeasurementSetting(ArmSetting(0.1, 0.2), ArmSetting(0.3)) == MeasurementSetting(
        ArmSetting(0.1, 0.2), ArmSetting(0.3)
    )
    assert MeasurementSetting(ArmSetting(0.1), ArmSetting(0.3)) != MeasurementSetting(
        ArmSetting(0.1, 0.0), ArmSetting(0.3)
    )
    table = {tuple(settings_): 1}
    assert table[tuple(again)] == 1


def test_factor_derivatives_match_finite_difference():
    # Central differences of f(T^2 / tr T^2) in the coordinates t of a
    # Hermitian T must match the analytic gradient, and central differences of
    # that gradient the Hessian, at random T of rank 1 to 4, with and without
    # the Jeffreys offset.  f is unchanged by the scale: g is orthogonal to t
    # and H t = -g.
    record = simulate_tomography(dephasing_noise(bell_state(), 0.2), 1e4, seed=8)
    assert np.any(record.counts == 0.0)
    chart = tomography_mod._coordinates(_stack(record.settings))
    table = tomography_mod._factor_table(chart)
    rng = np.random.default_rng(6)
    eps = 1e-5
    for counts in (record.counts, record.counts + 0.5):
        objective = _mle_objective(counts, record.shots)

        def evaluate(t):
            # f through rho and the chart, the derivatives through the table.
            rho = tomography_mod._gram(tomography_mod._hermitian(t))
            f, weights, _ = objective(tomography_mod._probabilities(chart, rho))
            turned, p = tomography_mod._factor_probabilities(t, table)
            return (f, *tomography_mod._factor_derivatives(t, turned, p, table, weights))

        for rank in range(1, 5):
            q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            roots = np.concatenate([rng.normal(size=rank), np.zeros(4 - rank)])
            t = tomography_mod._coordinates((q * roots) @ q.conj().T)
            _, g, hess = evaluate(t)
            assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max()
            for _ in range(4):
                d = rng.normal(size=16)
                f_plus, g_plus, _ = evaluate(t + eps * d)
                f_minus, g_minus, _ = evaluate(t - eps * d)
                assert g @ d == pytest.approx((f_plus - f_minus) / (2.0 * eps), rel=1e-6)
                numeric = (g_plus - g_minus) / (2.0 * eps)
                assert np.abs(hess @ d - numeric).max() <= 1e-6 * np.abs(hess @ d).max()
            assert abs(g @ t) <= 1e-12 * np.linalg.norm(g) * np.linalg.norm(t)
            assert np.abs(hess @ t + g).max() <= 1e-12 * np.abs(hess).max() * np.linalg.norm(t)


def _nearest_state_reference(h):
    # The simplex projection as array code: s_k = sum_{i<=k} (lam_i - lam_k)
    # as a cumsum of k (lam_k - lam_{k+1}) over the descending eigenvalues.
    evals, vecs = np.linalg.eigh(h)
    desc = evals[::-1]
    spreads = np.concatenate(([0.0], np.cumsum(np.arange(1, 4) * (desc[:-1] - desc[1:]))))
    k = np.flatnonzero(spreads < 1.0)[-1] + 1
    weights = np.maximum((evals - desc[k - 1]) + (1.0 - spreads[k - 1]) / k, 0.0)
    return (vecs * weights) @ vecs.conj().T


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
    rho = project_physical(h)
    assert np.array_equal(rho, _nearest_state_reference(h))
    assert np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min() >= -1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12


@pytest.mark.parametrize("scale", [2.0**53, 1e17, 1e300])
def test_project_physical_keeps_a_state_past_the_float_spacing_of_one(scale):
    # Where lam - 1 rounds to lam, a shift lam - 1 gives the top eigenvalue a
    # weight of 0, or keeps it whole.  The nearest state to
    # V diag(0, -1, 1, 3) V^dagger * scale is the top eigenvector's projector;
    # to diag(3, -1, 1, 3) * scale, whose tie eigh keeps exact, it is the even
    # mix of the two tied states.
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    h = (q * (scale * np.array([0.0, -1.0, 1.0, 3.0]))) @ q.conj().T
    rho = project_physical((h + h.conj().T) / 2.0)
    assert np.abs(rho - np.outer(q[:, 3], q[:, 3].conj())).max() <= 1e-12
    rho = project_physical(np.diag(scale * np.array([3.0, -1.0, 1.0, 3.0])).astype(complex))
    assert np.array_equal(rho, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def test_mle_converges_on_single_setting_records():
    # 10,147 counts on one setting, none elsewhere, at shots 1: projected
    # gradient steps once met matrices with eigenvalues past 2^53 here, where
    # lam - 1 rounds to lam.  The rounds must end at a trace-one state.
    for basis in ("HVDR", "HVDL"):
        for position in range(16):
            counts = np.zeros(16)
            counts[position] = 10147.0
            record = TomographyRecord(standard_settings(tuple(basis)), counts, 1.0)
            result = reconstruct_mle(record)
            assert result.residual <= tomography_mod._RESIDUAL_TOL, (basis, position)
            assert abs(np.trace(result.rho) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "setting,counts,shots",
    # Jeffreys HVDR records with counts on one setting only, far above
    # shots: their linear starts lie far from the optimum (residual above 1),
    # and APG from there did not converge in 5000 iterations.  The first
    # round takes 22-28 Newton steps on each.
    [(3, 53382.0, 0.65), (7, 10147.0, 0.24), (7, 10147.0, 0.068), (13, 53382.0, 1e-3)],
)
def test_jeffreys_mle_converges_on_single_setting_records_far_above_shots(setting, counts, shots):
    record = TomographyRecord(standard_settings(tuple("HVDR")), np.eye(16)[setting] * counts, shots)
    result = reconstruct_mle(record, jeffreys=True)
    assert result.residual <= tomography_mod._RESIDUAL_TOL
    assert result.physical
    assert result.iterations <= 40


@pytest.mark.parametrize(
    "setting,counts,shots", [(4, 58957.0, 0.436643632881096), (9, 53382.0, 1.61)]
)
def test_jeffreys_mle_converges_where_the_first_round_stops_short(setting, counts, shots):
    # Two more such records, the first of them stress record 900: their
    # first round spends all 30 Newton steps short of the optimum.  The next
    # rounds, lifted again, converge (32 steps in 2 rounds and 73 in 3).
    record = TomographyRecord(standard_settings(tuple("HVDR")), np.eye(16)[setting] * counts, shots)
    result = reconstruct_mle(record, jeffreys=True)
    assert result.residual <= tomography_mod._RESIDUAL_TOL
    assert result.physical
    assert result.rounds >= 2
    assert result.iterations <= 100


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
# line search.  Kept as the reference that the MLE must match or
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

    try:
        start = project_physical(reconstruct_linear(record).rho)
    except ReconstructionError:  # vanishing trace: start from I/4, as reconstruct_mle does
        start = np.eye(4) / 4.0
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


_REFERENCE_RHO = {}


def _cached_reference_mle(name, record, jeffreys):
    """_reference_mle of the _reference_records case with id name, run once per case."""
    if name not in _REFERENCE_RHO:
        _REFERENCE_RHO[name] = _reference_mle(record, jeffreys=jeffreys)
    return _REFERENCE_RHO[name]


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
    assert 0.0 <= result.residual <= tomography_mod._RESIDUAL_TOL
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    f_mle, _ = _objective_and_rounding(record, rho, counts)
    f_ref, scale = _objective_and_rounding(record, _cached_reference_mle(name, record, jeffreys), counts)
    assert f_mle <= f_ref + 32.0 * np.finfo(float).eps * scale


def _random_hvdr_records():
    """400 seeded HVDR records far from what a trace-one rho predicts: counts
    from {0, 0, 0, 1, 7} or uniform on [0, 1e6), shots log-uniform on
    [1e-3, 1e7], Jeffreys on every third.  The APG loop once failed on 88 of
    them: 58 line-search failures at the optimum, 30 linear starts with
    vanishing trace."""
    rng = np.random.default_rng(0)
    settings_ = standard_settings(tuple("HVDR"))
    records = []
    for i in range(400):
        if rng.random() < 0.5:
            counts = rng.choice([0.0, 0.0, 0.0, 1.0, 7.0], size=16)
        else:
            counts = rng.uniform(0.0, 1e6, size=16)
        shots = float(10.0 ** rng.uniform(-3.0, 7.0))
        records.append((TomographyRecord(settings_, counts, shots), i % 3 == 0))
    return records


@pytest.mark.parametrize(
    "index",
    # 17, 24 (Jeffreys) and 47: no step lowers f within its rounding bound
    # once rho sits at the optimum.  1, 35 and 57 (Jeffreys): the linear
    # inversion has vanishing trace.
    [17, 24, 47, 1, 35, 57],
)
def test_mle_converges_on_records_that_once_failed(index):
    record, jeffreys = _random_hvdr_records()[index]
    result = reconstruct_mle(record, jeffreys=jeffreys)
    assert result.physical
    assert abs(np.trace(result.rho) - 1.0) <= 1e-12
    counts = record.counts + 0.5 if jeffreys else record.counts
    f_mle, scale = _objective_and_rounding(record, result.rho, counts)
    f_ref, _ = _objective_and_rounding(record, _reference_mle(record, jeffreys=jeffreys), counts)
    assert f_mle <= f_ref + 32.0 * np.finfo(float).eps * scale


def test_mle_converges_on_every_random_record():
    # 3,812 Newton steps in all, every record in one round.
    iterations = 0
    for record, jeffreys in _random_hvdr_records():
        result = reconstruct_mle(record, jeffreys=jeffreys)
        assert result.physical and result.iterations < 5000
        assert result.rounds == 1
        assert 0.0 <= result.residual <= tomography_mod._RESIDUAL_TOL
        iterations += result.iterations
    assert iterations <= 4300


def _stress_records():
    """2,000 seeded records of four kinds in turn: counts on one setting
    only (1 to 10^5 of them), mostly-zero counts from {0, 0, 0, 1, 7},
    sparse Poisson counts (mean below 2 on each setting) and counts far
    above shots (shots times 10^U(1, 6) times U(0, 1) on each setting).
    Shots are log-uniform on [1e-3, 1e7], the basis HVDR or HVDL at random,
    and Jeffreys on every third."""
    rng = np.random.default_rng(2026)
    bases = [standard_settings(tuple(b)) for b in ("HVDR", "HVDL")]
    records = []
    for i in range(2000):
        shots = float(10.0 ** rng.uniform(-3.0, 7.0))
        kind = i % 4
        if kind == 0:
            counts = np.zeros(16)
            counts[rng.integers(16)] = float(rng.integers(1, 10**5))
        elif kind == 1:
            counts = rng.choice([0.0, 0.0, 0.0, 1.0, 7.0], size=16)
        elif kind == 2:
            counts = rng.poisson(rng.uniform(0.0, 2.0, size=16)).astype(float)
        else:
            counts = shots * 10.0 ** rng.uniform(1.0, 6.0) * rng.random(16)
        records.append((TomographyRecord(bases[rng.integers(2)], counts, shots), i % 3 == 0))
    return records


def test_mle_converges_on_every_stress_record():
    # 18,496 Newton steps in all, at most 42 on one record; 8 records take a
    # second round.
    steps = 0
    for index, (record, jeffreys) in enumerate(_stress_records()):
        result = reconstruct_mle(record, jeffreys=jeffreys)
        assert result.residual <= tomography_mod._RESIDUAL_TOL, index
        assert result.physical and abs(np.trace(result.rho) - 1.0) <= 1e-12, index
        steps += result.iterations
    assert steps <= 20000


def test_newton_line_search_stops_at_the_halving_limit():
    # Every point after the start is out of f's domain, so no trial point
    # passes: the first Newton step gives up after _HALVINGS trial points and
    # keeps the start.
    record = simulate_tomography(dephasing_noise(bell_state(), 0.1), 1e5, seed=10)
    model = tomography_mod._model(record.settings)
    calls = []
    objective = _mle_objective(record.counts, record.shots)

    def outside_after_the_start(p):
        calls.append(1)
        return objective(p) if len(calls) == 1 else (math.inf, None, 0.0)

    start = project_physical(reconstruct_linear(record).rho)
    point, steps = tomography_mod._newton_finish(start, outside_after_the_start, model.table)
    assert (steps, len(calls)) == (0, 1 + tomography_mod._HALVINGS)
    assert np.allclose(point, start, atol=1e-9)


def test_mle_line_search_failure_reports_residual(monkeypatch):
    # Every Newton trial point after a round's start is out of f's domain, so
    # each round's line search fails at its first step and keeps its start;
    # with no round reaching _RESIDUAL_TOL, record 17 ends at the round limit
    # with an error that names how far from stationary rho was.
    record, jeffreys = _random_hvdr_records()[17]
    calls = []
    true_finish = tomography_mod._newton_finish

    def failing_finish(rho, objective, table):
        trials = []

        def outside_after_the_start(p):
            trials.append(1)
            return objective(p) if len(trials) == 1 else (math.inf, None, 0.0)

        point, steps = true_finish(rho, outside_after_the_start, table)
        calls.append((steps, len(trials)))
        return point, steps

    monkeypatch.setattr(tomography_mod, "_newton_finish", failing_finish)
    limit = r"^MLE did not converge in \d+ rounds \(residual \S+\)$"
    with pytest.raises(ReconstructionError, match=limit) as failure:
        reconstruct_mle(record, jeffreys=jeffreys)
    assert calls == [(0, 1 + tomography_mod._HALVINGS)] * tomography_mod._MAX_ROUNDS
    residual = float(re.search(r"\(residual (\S+)\)", str(failure.value)).group(1))
    assert tomography_mod._RESIDUAL_TOL < residual < math.inf


def test_mle_iteration_limit_reports_the_final_residual(monkeypatch):
    # Noiseless HVDL dephased:0.2 at 1e5 shots with Jeffreys takes 6 rounds.
    # Held to 2, the limit's error names the residual of the rho it gave up
    # on, taken after the second round.
    monkeypatch.setattr(tomography_mod, "_MAX_ROUNDS", 2)
    record = simulate_tomography(
        dephasing_noise(bell_state(), 0.2), 1e5, settings=standard_settings(tuple("HVDL"))
    )
    limit = r"^MLE did not converge in 2 rounds \(residual \S+\)$"
    with pytest.raises(ReconstructionError, match=limit) as failure:
        reconstruct_mle(record, jeffreys=True)
    residual = float(re.search(r"\(residual (\S+)\)", str(failure.value)).group(1))
    assert tomography_mod._RESIDUAL_TOL < residual < math.inf


def test_mle_refuses_incomplete_settings():
    rho = dephasing_noise(bell_state(), 0.2)
    record = simulate_tomography(rho, 1e4, seed=4, settings=standard_settings(tuple("HVDA")))
    with pytest.raises(ReconstructionError, match="informationally incomplete"):
        reconstruct_mle(record)
    record = TomographyRecord(standard_settings()[:15], np.ones(15), 10.0)
    with pytest.raises(ReconstructionError, match="needs 16 settings"):
        reconstruct_mle(record)


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
# Two records the draws have found, pinned because which examples are drawn
# shifts with the literals of the loaded modules: one setting with 67 counts
# at shots 1e-3 (once a lambda - 1 projection's non-state, now 6 Newton
# steps) and its 53,382-count Jeffreys twin (once 5000 iterations without
# converging, now 19 Newton steps).
@example(counts=[0.0] * 13 + [67.0, 0.0, 0.0], shots=1e-3, basis="HVDR", jeffreys=False)
@example(counts=[0.0] * 13 + [53382.0, 0.0, 0.0], shots=1e-3, basis="HVDR", jeffreys=True)
def test_mle_is_physical_or_raises_reconstruction_error(counts, shots, basis, jeffreys):
    # HVDR and HVDL are informationally complete, so every record has a
    # maximum-likelihood rho; only HVDA (no circular analyzer) may raise.
    record = TomographyRecord(standard_settings(tuple(basis)), np.array(counts), shots)
    if basis == "HVDA":
        with pytest.raises(ReconstructionError, match="informationally incomplete"):
            reconstruct_mle(record, jeffreys=jeffreys)
        return
    result = reconstruct_mle(record, jeffreys=jeffreys)
    rho = result.rho
    assert np.array_equal(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert result.physical

"""The input rules every module shares: finite values, JSON numbers, JSON documents."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stimpairs.errors import SchemaError, dump_json, finite, is_json_number, json_array, json_number
from stimpairs.errors import json_object, load_json, positive_float, real, shown
import stimpairs.phase_plate as phase_plate_mod
import stimpairs.resonator as resonator_mod
from stimpairs.fock import FockVector
from stimpairs.phase_plate import PlateGeometry, phase_through_plate
from stimpairs.polarization import ArmSetting, bell_state, dephasing_noise, simulate_polarization_fringe
from stimpairs.polarization import simulate_stimulation_fringe, state_density
from stimpairs.rates import pair_rate
from stimpairs.resonator import ResonatorConfig, double_pass_ratio, sweep_rows
from stimpairs.tomography import TomographyRecord, rho_from_json, rho_to_json, simulate_tomography
from stimpairs.tomography import standard_settings


def test_finite_rule_on_scalars_and_arrays():
    assert finite(0.5, "phi").ndim == 0 and float(finite(3, "phi")) == 3.0
    np.testing.assert_array_equal(finite([0.0, -1e300, 5], "alpha"), [0.0, -1e300, 5.0])
    for bad, shown in ((math.nan, "nan"), (-math.inf, "-inf"), (np.float64(math.inf), "inf")):
        with pytest.raises(ValueError, match=f"^phi must be finite, got {shown}$"):
            finite(bad, "phi")
    # The first non-finite entry is named.
    with pytest.raises(ValueError, match="^alpha must be finite, got -inf$"):
        finite([[0.1, -math.inf], [math.nan, 0.2]], "alpha")
    # 0-d bool, int and float32 inputs take the scalar path to the same result.
    for value, want in ((np.array(True), 1.0), (np.int64(-3), -3.0), (np.float32(0.5), 0.5)):
        got = finite(value, "phi")
        assert got.ndim == 0 and got.dtype == np.float64 and float(got) == want
    for bad, shown in ((np.float32(math.inf), "inf"), (np.array(-math.inf), "-inf"), (np.array(math.nan), "nan")):
        with pytest.raises(ValueError, match=f"^phi must be finite, got {shown}$"):
            finite(bad, "phi")
    for bad in (None, "0.5", 1j, [0.1, None]):
        with pytest.raises(TypeError, match="qwp angle must be a real number"):
            finite(bad, "qwp angle")


def test_real_rule_takes_python_and_numpy_real_scalars():
    # Each comes back as the Python float of its value: a float32 as the
    # float64 of the same value, an integer exactly where the float range holds it.
    big = sys.float_info.max
    for value, want in ((3, 3.0), (-2.5, -2.5), (int(big), big), (np.float64(0.1), 0.1),
                        (np.float32(0.3), float(np.float32(0.3))), (np.int64(-7), -7.0),
                        (np.uint8(200), 200.0), (np.array(1.5), 1.5), (np.array(2, dtype=np.int32), 2.0)):
        got = real(value, "x")
        assert type(got) is float and got == want
    got = positive_float(np.float32(0.3), "shots")
    assert type(got) is float and got == float(np.float32(0.3))
    # positive_float keeps its own message wherever the value is not above 0.
    for bad in (0, -0.0, -1.5, math.nan, math.inf, np.float32(-math.inf)):
        with pytest.raises(ValueError, match="^shots must be positive, got "):
            positive_float(bad, "shots")
    with pytest.raises(ValueError, match=r"^x must be a scalar, got shape \(1, 1\)$"):
        real([[0.5]], "x")
    for bad, kind in ((None, "NoneType"), (1j, "complex"), (np.complex64(1), "complex64"),
                      (np.bool_(False), type(np.bool_(False)).__name__), (np.array("1.5"), "ndarray")):
        with pytest.raises(TypeError, match=f"^x must be a real number, got {kind}$"):
            real(bad, "x")
    for bad, text in ((-math.inf, "-inf"), (np.float64(math.nan), "nan"), (-(10**400), "an integer past the float range")):
        with pytest.raises(ValueError, match=f"^x must be finite, got {text}$"):
            real(bad, "x")


def test_real_rule_on_python_numbers_loads_no_numpy():
    # A Python int or float, refused or not, is judged without numpy.
    code = (
        "import sys\nfrom stimpairs.errors import positive_float, real\n"
        "assert real(2, 'x') == 2.0 and positive_float(0.5, 'x') == 0.5\n"
        "for bad in (float('nan'), float('-inf'), 10**400):\n"
        "    try:\n        real(bad, 'x')\n    except (TypeError, ValueError):\n        pass\n"
        "print('numpy' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


_PLATE = {"thickness": 3e-3, "n_pump": 1.53, "n_pair": 1.51, "wavelength_pump": 405e-9}
_RHO = dephasing_noise(bell_state(), 0.2)
_ANGLES = np.linspace(0.0, math.pi, 9)

# Every scalar parameter of the library: the call that takes the value, and
# the name its messages give it.
_SCALARS = {
    "ResonatorConfig.phi": (lambda v: ResonatorConfig(2, v, 0.1), "phi"),
    "ResonatorConfig.tau": (lambda v: ResonatorConfig(2, 0.0, v), "tau"),
    "sweep_rows.tau": (lambda v: sweep_rows([1, 2], [0.0, 1.0], v), "tau"),
    "double_pass_ratio.theta": (double_pass_ratio, "theta"),
    "ArmSetting.pol": (ArmSetting, "polarizer angle"),
    "ArmSetting.qwp": (lambda v: ArmSetting(0.0, v), "qwp angle"),
    "simulate_polarization_fringe.arm_a_qwp": (
        lambda v: simulate_polarization_fringe(_RHO, ArmSetting(0.0), _ANGLES, 1e3, arm_a_qwp=v),
        "qwp angle",
    ),
    "PlateGeometry.n_pump": (lambda v: PlateGeometry(**{**_PLATE, "n_pump": v}), "n_pump"),
    "PlateGeometry.n_pair": (lambda v: PlateGeometry(**{**_PLATE, "n_pair": v}), "n_pair"),
    "pair_rate.singles": (lambda v: pair_rate(v, 1.0), "singles rate"),
    "dephasing_noise.d": (lambda v: dephasing_noise(bell_state(), v), "dephasing strength d"),
    # positive_float, built on the same rule.
    "PlateGeometry.thickness": (lambda v: PlateGeometry(**{**_PLATE, "thickness": v}), "thickness"),
    "PlateGeometry.wavelength_pump": (
        lambda v: PlateGeometry(**{**_PLATE, "wavelength_pump": v}), "wavelength_pump"
    ),
    "pair_rate.coincidences": (lambda v: pair_rate(1e6, v), "coincidence rate"),
    "phase_through_plate.wavelength": (lambda v: phase_through_plate(v, 1.5, 1e-3, 0.1), "wavelength"),
    "phase_through_plate.thickness": (lambda v: phase_through_plate(4e-7, 1.5, v, 0.1), "thickness"),
    "phase_through_plate.n": (lambda v: phase_through_plate(4e-7, v, 1e-3, 0.1), "refractive index"),
    "simulate_polarization_fringe.shots": (
        lambda v: simulate_polarization_fringe(_RHO, ArmSetting(0.0), _ANGLES, v), "shots"
    ),
    "simulate_stimulation_fringe.shots": (
        lambda v: simulate_stimulation_fringe(
            PlateGeometry(**_PLATE), ResonatorConfig(2, 0.0, 1e-3), _ANGLES / 10.0, v
        ),
        "shots",
    ),
    "simulate_tomography.shots": (lambda v: simulate_tomography(_RHO, v), "shots"),
    "TomographyRecord.shots": (lambda v: TomographyRecord(standard_settings(), np.ones(16), v), "shots"),
}
# Each refused value: its exception type and what the message says after the name.
_NOT_SCALARS = {
    "array": (np.array([0.5, 0.6]), ValueError, r"must be a scalar, got shape \(2,\)$"),
    "string": ("0.5", TypeError, "must be a real number, got str$"),
    "bool": (True, TypeError, "must be a real number, got bool$"),
    "nan": (math.nan, ValueError, "must .*, got nan$"),
    "huge-int": (10**400, ValueError, "must be finite, got an integer past the float range$"),
}


@pytest.mark.parametrize("bad", list(_NOT_SCALARS))
@pytest.mark.parametrize("param", list(_SCALARS))
def test_every_scalar_parameter_refuses_a_non_scalar_by_name(param, bad):
    # One rule (errors.real) for every scalar: the error names the parameter,
    # never numpy's unnamed "only 0-dimensional arrays can be converted".
    call, what = _SCALARS[param]
    value, kind, text = _NOT_SCALARS[bad]
    with pytest.raises(kind, match=f"^{re.escape(what)} {text}"):
        call(value)


def test_json_number_predicate():
    big = sys.float_info.max
    for good in (0, -7, 2.5, big, -big, int(big)):
        assert is_json_number(good) and json_number(good, "x") == float(good)
    # bool is an int subclass; the comparison with the float range is exact
    # for ints of any size, so int(max) + 1 is already past it.
    for bad in (True, False, math.nan, math.inf, -math.inf, int(big) + 1, 10**400, "1", None, [1]):
        assert not is_json_number(bad)
        with pytest.raises(SchemaError, match="^shots: expected a finite number"):
            json_number(bad, "shots")


@pytest.mark.parametrize(
    "text, cause",
    [
        ('{"tau": ' + "1" * 5000 + "}", "integer string conversion"),
        ("[" * 200_000 + "]" * 200_000, "recursion depth"),
    ],
    ids=["5000-digit-integer", "200000-deep"],
)
def test_load_json_turns_every_refusal_of_json_loads_into_a_schema_error(text, cause):
    # Past CPython's integer-string limit json.loads raises a plain
    # ValueError, and past the recursion limit a RecursionError; each
    # reader's SchemaError names where, as the parse errors do.
    if cause.startswith("integer") and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python parses integers of any length")
    with pytest.raises(SchemaError, match=rf"^config c\.json: invalid JSON: .*{cause}"):
        load_json(text, "config c.json: ")
    for read in (FockVector.from_json, TomographyRecord.from_json, rho_from_json):
        with pytest.raises(SchemaError, match=f"^invalid JSON: .*{cause}"):
            read(text)


def test_load_json_names_the_line():
    assert load_json('{"a": [1, 2.5]}') == {"a": [1, 2.5]}
    with pytest.raises(SchemaError, match=r"^invalid JSON at line 2: Expecting value$"):
        load_json('{"a":\n ]}')
    with pytest.raises(SchemaError, match=r"^config c\.json: invalid JSON at line 1: "):
        load_json("{", "config c.json: ")


def test_dump_json_is_strict_and_names_the_path():
    # One json.dumps with allow_nan=False: the options pass through, keys keep
    # their order unless sort_keys asks otherwise, and tuples write as arrays.
    doc = {"b": (1, 2.5), "a": {"z": -0.0, "y": [None, True, "s"]}}
    assert dump_json(doc) == '{"b": [1, 2.5], "a": {"z": -0.0, "y": [null, true, "s"]}}'
    assert dump_json(doc, sort_keys=True).startswith('{"a": {"y": ')
    assert dump_json(doc, indent=2) == json.dumps(doc, indent=2)
    for bad, message in (
        ({"fit": {"cov": [[0.0, math.nan]]}}, "fit.cov[0][1] = nan"),
        ({"settings": [{}, {}, {}, {"arm_a": {"pol_deg": -math.inf}}]}, "settings[3].arm_a.pol_deg = -inf"),
        ({"rate": math.inf}, "rate = inf"),
        ([1.0, (2.0, math.nan)], "[1][1] = nan"),
    ):
        with pytest.raises(FloatingPointError, match=rf"^{re.escape(message)} is not a JSON number$"):
            dump_json(bad, sort_keys=True)


def test_dump_json_of_a_document_that_contains_itself_is_json_s_own_error():
    # The path walk runs only after json.dumps fails; it must not enter a
    # container it is already inside, or it recurses without end.
    looped = []
    looped.append(looped)
    nested = {"a": [1.0, {}]}
    nested["a"][1]["b"] = nested
    for doc in (looped, nested, [2.0, looped]):
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            dump_json(doc)
    # A NaN beside the loop is still named by its path.
    nested["a"][0] = math.nan
    with pytest.raises(FloatingPointError, match=r"^a\[0\] = nan is not a JSON number$"):
        dump_json(nested)


def test_outside_values_are_shown_in_a_bounded_size():
    # Scalars are shown as json writes them; arrays, objects and long
    # strings by their type and length, whatever their size.
    for value, text in ((True, "true"), (None, "null"), (math.nan, "NaN"), (-math.inf, "-Infinity"),
                        ("x", '"x"'), (2.5, "2.5"), (10**400, "an integer of 1329 bits"), ("y" * 64, json.dumps("y" * 64))):
        assert shown(value) == text
    assert shown(list(range(200_000))) == "a JSON array of 200000 entries"
    assert shown((1, 2)) == "a JSON array of 2 entries"
    assert shown({"a": 1}) == "a JSON object of 1 keys"
    assert shown("z" * 65) == f'a JSON string of 65 characters, "{"z" * 64}"...'
    assert len(shown("\u2603" * 10**6)) < 512


def test_an_integer_of_any_size_is_shown_by_its_bit_length():
    # An integer of at most 192 bits (58 digits) is written out; a longer
    # one is shown by its bit_length, never converted to a string, so one
    # past the int-to-str limit is shown too, not raised.
    assert shown(2**192 - 1) == str(2**192 - 1) and shown(-(2**192) + 1) == str(-(2**192) + 1)
    assert shown(2**192) == "an integer of 193 bits" == shown(-(2**192))
    for value in (10**5000, -(10**5000), 10**100_000):
        text = shown(value)
        assert text == f"an integer of {value.bit_length()} bits" and len(text) < 1024
    with pytest.raises(SchemaError) as err:
        json_number(int("9" * 4001), "shots")
    assert str(err.value) == "shots: expected a finite number, got an integer of 13292 bits"


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda v: resonator_mod.amplitude_sum(1, v), "phi"),
        (lambda v: sweep_rows([2], v, 1e-3), "phi"),
        (lambda v: phase_plate_mod.wrap_phase(v), "phase"),
        (lambda v: phase_plate_mod.relative_phase(PlateGeometry(3e-3, 1.53, 1.51, 405e-9), v), "alpha"),
        (lambda v: finite(v, "counts"), "counts"),
    ],
    ids=["amplitude_sum", "sweep_rows", "wrap_phase", "relative_phase", "finite"],
)
@pytest.mark.parametrize(
    "value, got",
    [
        ("x" * 100_000, 'a JSON string of 100000 characters, "' + "x" * 64 + '"...'),
        (["x"] * 100_000, "a JSON array of 100000 entries"),
        (np.array(["y" * 100_000]), "a JSON array of 1 entries"),
        (None, "null"),
    ],
    ids=["long-string", "list-of-strings", "array-of-a-long-string", "none"],
)
def test_finite_shows_a_refused_value_in_a_bounded_size(call, what, value, got):
    # A value that is not real numbers is shown through shown: the message
    # names the parameter and stays under 1 KB whatever the value holds.
    with pytest.raises(TypeError) as err:
        call(value)
    message = str(err.value)
    assert message == f"{what} must be a real number, got {got}"
    assert len(message.encode()) < 1024


def test_json_number_message_of_a_large_array_is_short_and_names_the_path():
    where = "settings[0].arm_b.pol_deg"
    with pytest.raises(SchemaError) as err:
        json_number(list(range(200_000)), where)
    message = str(err.value)
    assert message == f"{where}: expected a finite number, got a JSON array of 200000 entries"
    assert len(message.encode()) < 1024


def test_document_shape_rule_names_the_path():
    doc, row = {"a": 1, "b": None}, [1, 2]
    assert json_object(doc, "x", ("a", "b")) is doc
    assert json_array(row, "x") is row and json_array(row, "x", 2, nonempty=True) is row
    assert json_array([], "x") == []
    for call, message in (
        (lambda: json_object([], "settings[0].arm_b"), "settings[0].arm_b: expected a JSON object"),
        (lambda: json_object(5, ""), "expected a JSON object"),
        (lambda: json_object(doc, "", ("a", "c")), "c: missing"),
        (lambda: json_object(doc, "geometry", ("n_p",)), "geometry.n_p: missing"),
        (lambda: json_array({}, "amplitudes"), "amplitudes: expected a JSON array"),
        (lambda: json_array(row, "matrix[0]", 4), "matrix[0]: expected a JSON array of 4 entries"),
        (lambda: json_array("ab", "matrix[0][1]", 2), "matrix[0][1]: expected a JSON array of 2 entries"),
        (lambda: json_array([], "settings", nonempty=True), "settings: expected a non-empty JSON array"),
    ):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            call()


def _record_text():
    return TomographyRecord(standard_settings(), np.arange(16.0), 1e4).to_json()


def _geometry_text():
    # As fig4's '# config:' line writes the plate, and a --config file holds it.
    return dump_json({"geometry": PlateGeometry(3e-3, 1.53, 1.51, 405e-9).to_dict()}, sort_keys=True)


def _state_text():
    amplitudes = np.zeros(16, dtype=complex)
    amplitudes[[0, 5, 9]] = 0.6, 0.64j, -0.48
    return FockVector(amplitudes, 1).to_json()


@pytest.mark.parametrize(
    "write, read, place",
    [
        (_record_text, TomographyRecord.from_json, ("settings", 0, "arm_b", "pol_deg")),
        (_record_text, TomographyRecord.from_json, ("settings", 10, "arm_a", "qwp_deg")),
        (_record_text, TomographyRecord.from_json, ("settings", 3, "counts")),
        (_record_text, TomographyRecord.from_json, ("shots",)),
        (lambda: rho_to_json(state_density(bell_state())), rho_from_json, ("matrix", 0, 1, 0)),
        (lambda: rho_to_json(state_density(bell_state())), rho_from_json, ("matrix", 3, 2, 1)),
        (_geometry_text, lambda text: PlateGeometry.from_dict(json.loads(text)["geometry"]),
         ("geometry", "L_m")),
        (_geometry_text, lambda text: PlateGeometry.from_dict(json.loads(text)["geometry"]),
         ("geometry", "lambda_p_m")),
        (_state_text, FockVector.from_json, ("amplitudes", 1, 1)),
        (_state_text, FockVector.from_json, ("amplitudes", 2, 2)),
    ],
    ids=["pol_deg", "qwp_deg", "counts", "shots", "rho-re", "rho-im", "L_m", "lambda_p_m",
         "state-re", "state-im"],
)
def test_readers_name_the_paths_the_writer_names(write, read, place):
    # Spoil one value of a written document: dump_json names a NaN there by
    # the same path the format's reader names a string there by.
    doc = json.loads(write())
    *parents, last = place
    target = doc
    for key in parents:
        target = target[key]
    target[last] = math.nan
    with pytest.raises(FloatingPointError) as written:
        dump_json(doc)
    path = str(written.value).partition(" = ")[0]
    target[last] = "x"
    with pytest.raises(SchemaError, match=rf'^{re.escape(path)}: expected a finite number, got "x"$'):
        read(json.dumps(doc))

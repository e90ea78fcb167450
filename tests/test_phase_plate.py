"""Tilted-plate phase model."""

import json
import math
import re

import numpy as np
import pytest

import stimpairs.phase_plate as phase_plate_mod
from stimpairs import verify
from stimpairs.errors import SchemaError
from stimpairs.phase_plate import (
    PlateGeometry,
    phase_through_plate,
    relative_phase,
    wrap_phase,
)

# 3 mm plate, 405 nm pump; indices 1.53 (pump) and 1.51 (pair sum).
GEOM = PlateGeometry(thickness=3e-3, n_pump=1.53, n_pair=1.51, wavelength_pump=405e-9)

# Frozen 50-digit evaluations for the geometry above at normal incidence.
PUMP_PHASE_AT_0 = 71209.43348136865
DELTA_AT_0 = 930.8422677303091


def test_normal_incidence_frozen_values():
    phase = phase_through_plate(405e-9, 1.53, 3e-3, 0.0)
    assert phase == pytest.approx(PUMP_PHASE_AT_0, rel=1e-12)
    assert relative_phase(GEOM, 0.0) == pytest.approx(DELTA_AT_0, rel=1e-12)


def test_normal_incidence_reduces_to_linear_form():
    # At alpha = 0 the square root collapses: delta = (2 pi L / lambda)(n_p - n_s).
    expected = 2.0 * math.pi * 3e-3 / 405e-9 * (1.53 - 1.51)
    assert relative_phase(GEOM, 0.0) == pytest.approx(expected, rel=1e-14)


def test_phase_even_in_alpha():
    for alpha in (0.05, 0.17, 0.3):
        assert relative_phase(GEOM, alpha) == pytest.approx(
            relative_phase(GEOM, -alpha), rel=1e-14
        )


def test_relative_phase_decreases_with_tilt():
    values = [relative_phase(GEOM, a) for a in (0.0, 0.1, 0.2, 0.3)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_single_plate_phase_increases_with_tilt():
    # The individual plate phase grows with tilt even though the pump/pair
    # difference shrinks (the higher index varies more slowly).
    values = [phase_through_plate(405e-9, 1.53, 3e-3, a) for a in (0.0, 0.15, 0.3)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_no_propagating_solution():
    with pytest.raises(ValueError):
        phase_through_plate(405e-9, 0.9, 3e-3, 1.2)


def test_argument_validation():
    with pytest.raises(ValueError):
        phase_through_plate(-1.0, 1.5, 3e-3, 0.0)
    with pytest.raises(ValueError):
        phase_through_plate(405e-9, 1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        phase_through_plate(405e-9, 1.5, 3e-3, math.nan)
    with pytest.raises(ValueError):
        PlateGeometry(3e-3, 1.0, 1.51, 405e-9)
    with pytest.raises(ValueError):
        PlateGeometry(-3e-3, 1.53, 1.51, 405e-9)


def test_geometry_dict_roundtrip():
    doc = GEOM.to_dict()
    assert doc == {"L_m": 3e-3, "n_p": 1.53, "n_s": 1.51, "lambda_p_m": 405e-9}
    assert PlateGeometry.from_dict(doc) == GEOM
    # Errors name the path the command output writes the geometry at.
    with pytest.raises(SchemaError, match=r"^geometry\.n_p: missing$"):
        PlateGeometry.from_dict({"L_m": 3e-3})
    with pytest.raises(SchemaError, match=r"^geometry: expected a JSON object$"):
        PlateGeometry.from_dict(["L_m", "n_p", "n_s", "lambda_p_m"])


@pytest.mark.parametrize(
    "key,value", [("L_m", True), ("n_p", "1.53"), ("n_s", math.nan), ("lambda_p_m", None)]
)
def test_geometry_dict_rejects_non_numbers(key, value):
    # float() would read true as a 1 m plate and "1.53" as an index.
    doc = dict(GEOM.to_dict(), **{key: value})
    shown = re.escape(json.dumps(value))
    with pytest.raises(SchemaError, match=rf"^geometry\.{key}: expected a finite number, got {shown}$"):
        PlateGeometry.from_dict(doc)


def test_wrap_phase():
    assert wrap_phase(5.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-0.5) == pytest.approx(2.0 * math.pi - 0.5)
    assert 0.0 <= wrap_phase(DELTA_AT_0) < 2.0 * math.pi
    with pytest.raises(ValueError):
        wrap_phase(math.inf)


def test_wrap_phase_tiny_negative_folds_to_zero():
    # In floats, x % 2 pi rounds up to exactly 2 pi for x in (-ulp(2 pi)/2, 0);
    # such a phase stands for 0 and must come back as 0.0, not 2 pi.
    assert wrap_phase(-1e-17) == 0.0
    assert wrap_phase(-0.0) == 0.0
    for x in (-5e-324, -1e-300, -1e-17, -1.34e-16, -4e-16, -1e-15):
        assert 0.0 <= wrap_phase(x) < 2.0 * math.pi


def test_array_alpha_and_phase_match_scalar_calls():
    alphas = np.linspace(-0.3, 0.3, 13)
    grid = relative_phase(GEOM, alphas)
    assert grid.shape == alphas.shape
    for alpha, delta in zip(alphas, grid):
        scalar = relative_phase(GEOM, float(alpha))
        assert type(scalar) is float
        assert scalar == delta
    raw = np.array([-1e-17, -0.5, 0.0, 2.0 * math.pi, 5.0 * math.pi, DELTA_AT_0])
    wrapped = wrap_phase(raw)
    assert wrapped.shape == raw.shape
    for x, w in zip(raw, wrapped):
        scalar = wrap_phase(float(x))
        assert type(scalar) is float
        assert scalar == w
    assert wrapped[0] == 0.0 and np.all(wrapped < 2.0 * math.pi)
    with pytest.raises(ValueError):
        relative_phase(GEOM, np.array([0.1, math.nan]))
    with pytest.raises(ValueError):
        phase_through_plate(405e-9, 0.9, 3e-3, np.array([0.0, 1.2]))
    with pytest.raises(ValueError):
        wrap_phase(np.array([0.0, math.inf]))


def test_verify_plate_phase_makes_one_array_call(monkeypatch):
    # alpha = 0 and the three mirrored tilt pairs go through relative_phase
    # once, as an array, not as seven scalar calls.
    calls = []
    true_phase = phase_plate_mod.relative_phase

    def counting_phase(geom, alpha):
        calls.append(np.shape(alpha))
        return true_phase(geom, alpha)

    monkeypatch.setattr(phase_plate_mod, "relative_phase", counting_phase)
    result = verify._run(verify.check_plate_phase)
    assert calls == [(7,)]
    assert result.passed and result.worst > 0.0

"""The input rules every module shares: finite values, JSON numbers, JSON documents."""

import math
import sys

import numpy as np
import pytest

from stimpairs.errors import SchemaError, finite, is_json_number, json_number, load_json


def test_finite_rule_on_scalars_and_arrays():
    assert finite(0.5, "phi").ndim == 0 and float(finite(3, "phi")) == 3.0
    np.testing.assert_array_equal(finite([0.0, -1e300, 5], "alpha"), [0.0, -1e300, 5.0])
    for bad, shown in ((math.nan, "nan"), (-math.inf, "-inf"), (np.float64(math.inf), "inf")):
        with pytest.raises(ValueError, match=f"^phi must be finite, got {shown}$"):
            finite(bad, "phi")
    # The first non-finite entry is named.
    with pytest.raises(ValueError, match="^alpha must be finite, got -inf$"):
        finite([[0.1, -math.inf], [math.nan, 0.2]], "alpha")
    for bad in (None, "0.5", 1j, [0.1, None]):
        with pytest.raises(TypeError, match="qwp angle must be a real number"):
            finite(bad, "qwp angle")


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


def test_load_json_names_the_line():
    assert load_json('{"a": [1, 2.5]}') == {"a": [1, 2.5]}
    with pytest.raises(SchemaError, match=r"^invalid JSON at line 2: Expecting value$"):
        load_json('{"a":\n ]}')
    with pytest.raises(SchemaError, match=r"^config c\.json: invalid JSON at line 1: "):
        load_json("{", "config c.json: ")

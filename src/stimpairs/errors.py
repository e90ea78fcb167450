"""Exception types shared across the package, and the input rules its modules share.

Grouping them here keeps the command line driver's exit-code mapping in one
import: schema/validation problems exit 1, numerical failures exit 2.
"""

import json
import math
import sys

import numpy as np


class StimpairsError(Exception):
    """Base class for package-specific failures."""


class TruncationError(StimpairsError):
    """Evolution left more weight on the cutoff shell than the tolerance allows."""

    def __init__(self, message: str, leakage: float | None = None, cutoff: int | None = None):
        super().__init__(message)
        self.leakage = leakage
        self.cutoff = cutoff


class FitError(StimpairsError):
    """Fringe scan cannot be fit, or its parameters are not identifiable."""


class ReconstructionError(StimpairsError):
    """Density-matrix reconstruction failed (incomplete settings, no convergence)."""


class SchemaError(StimpairsError):
    """Input file does not match the documented schema."""


def load_json(text: str, where: str = ""):
    """The document json.loads reads from text; text that does not parse is a SchemaError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def is_json_number(value) -> bool:
    """True for an int or a float within the float range.

    A bool is an int subclass, and Python's json reads NaN and Infinity as
    floats: none of them is a number here, nor is an integer literal past the
    float range.  The comparison is exact for ints of any size.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def json_number(value, what: str) -> float:
    """A JSON number (is_json_number) as a float; anything else is a SchemaError naming what."""
    if is_json_number(value):
        return float(value)
    raise SchemaError(f"{what}: expected a finite number, got {json.dumps(value, default=repr)}")


def positive_int(value, what: str) -> int:
    """A Python or numpy integer >= 1 as an int; a bool or a float (even 2.0) is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def positive_float(value, what: str) -> float:
    """A finite amount above 0 as a float; NaN, the infinities and 0 raise ValueError."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be positive, got {value!r}")
    return float(value)


def check_each(ok, values, message: str) -> None:
    """Raise ValueError(message) naming the first entry of values where ok fails."""
    if not ok.all():
        raise ValueError(message.format(float(np.asarray(values)[~ok].flat[0])))


def finite(value, what: str) -> np.ndarray:
    """value as a float array (0-d for a scalar) whose every entry is finite.

    Entries that are not real numbers (None, strings, complex) raise
    TypeError; a NaN or an infinity raises ValueError naming the first one.
    """
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":
        raise TypeError(f"{what} must be a real number, got {value!r}")
    array = array.astype(float, copy=False)
    check_each(np.isfinite(array), array, what + " must be finite, got {!r}")
    return array

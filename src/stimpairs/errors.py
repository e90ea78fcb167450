"""Exception types shared across the package, and the input rules its modules share.

Grouping them here keeps the command line driver's exit-code mapping in one
import: schema/validation problems exit 1, numerical failures exit 2.
"""

import json
import math

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


def json_number(value, what: str) -> float:
    """A number read from JSON, as a float; anything else is a SchemaError naming what.

    float() would take a bool (an int subclass) as 0 or 1 and a numeric string
    as its value, and Python's json reads NaN and Infinity as floats: none of
    them is a number here.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
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

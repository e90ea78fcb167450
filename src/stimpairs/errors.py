"""Exception types shared across the package, the input rules its modules
share, and its one JSON reader, one document-shape rule and one JSON writer.

Every real scalar a library function takes (a strength, a phase, an angle,
a refractive index, a rate) passes real, or positive_float built on it,
before its own range test, and every count passes positive_int.  real takes
a finite real number, Python or numpy, and refuses anything else with a
TypeError or ValueError naming the parameter.

Grouping them here keeps the command line driver's exit-code mapping in one
import: schema/validation problems exit 1, numerical failures exit 2.  The
rules that take numpy values import numpy in their bodies, so importing this
module, or passing real a Python number, loads no numpy.
"""

import json
import math
import sys


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
    """The document json.loads reads from text; text it refuses is a SchemaError.

    Besides text that does not parse, json.loads refuses an integer literal
    past CPython's integer-string limit (ValueError) and a value nested past
    the recursion limit (RecursionError); each is a SchemaError as well.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{where}invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{where}invalid JSON: {exc}") from exc


def json_object(value, path: str, keys=()) -> dict:
    """value, a JSON object holding each of keys; anything else is a SchemaError.

    The error names path, or the path of the first missing key, as dump_json
    names a value: settings[0].arm_b, geometry.L_m.  The empty path is the
    document itself.
    """
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected a JSON object" if path else "expected a JSON object")
    for key in keys:
        if key not in value:
            raise SchemaError(f"{_key_path(path, key)}: missing")
    return value


def json_array(value, path: str, size: int | None = None, nonempty: bool = False) -> list:
    """value, a JSON array of size entries, or of any number (at least one if
    nonempty) when size is None; anything else is a SchemaError naming path."""
    if isinstance(value, list) and (value or not nonempty if size is None else len(value) == size):
        return value
    if size is not None:
        raise SchemaError(f"{path}: expected a JSON array of {size} entries")
    raise SchemaError(f"{path}: expected a {'non-empty ' if nonempty else ''}JSON array")


def dump_json(doc, **options) -> str:
    """doc as strict JSON: json.dumps with allow_nan=False and the given options.

    Every document the package writes goes through here.  A NaN or infinity
    in doc is a FloatingPointError naming its path, as in fit.cov[0][1] or
    settings[3].arm_a.pol_deg, and no text is returned; the path is looked up
    only on failure.
    """
    try:
        return json.dumps(doc, allow_nan=False, **options)
    except ValueError:
        found = next(_non_finite(doc), None)
        if found is None:
            raise
        raise FloatingPointError("{} = {!r} is not a JSON number".format(*found)) from None


def _non_finite(value, path: str = "", inside: frozenset = frozenset()):
    """(path, value) of each NaN or infinity in value, the path as in fit.cov[0][1].

    inside holds the ids of the containers the walk is in.  A container that
    holds itself is not entered again, so dump_json re-raises json's own
    "Circular reference detected" for a document that contains itself.
    """
    if isinstance(value, float) and not math.isfinite(value):
        yield path, value
    elif isinstance(value, (dict, list, tuple)) and id(value) not in inside:
        inside = inside | {id(value)}
        if isinstance(value, dict):
            for key, item in value.items():
                yield from _non_finite(item, _key_path(path, key), inside)
        else:
            for i, item in enumerate(value):
                yield from _non_finite(item, f"{path}[{i}]", inside)


def _key_path(path: str, key: str) -> str:
    """The path of key in the object at path: a.b, or b at the top."""
    return f"{path}.{key}" if path else key


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
    raise SchemaError(f"{what}: expected a finite number, got {shown(value)}")


# The most characters of an outside string an error message repeats.
_SHOWN_CHARS = 64


def shown(value) -> str:
    """An outside value as an error message shows it, in a size that does not grow with it.

    A JSON array or object (a list, tuple or dict) is shown by its type and
    length, a string of more than _SHOWN_CHARS characters by its length and
    its first _SHOWN_CHARS, an integer of more than 3 _SHOWN_CHARS bits (58
    digits or more) by its bit_length, so one past the int-to-str limit is
    shown too, and any other value as json writes it (repr where json has no
    form): true, NaN, "x", 2.5.
    """
    if isinstance(value, int) and value.bit_length() > 3 * _SHOWN_CHARS:
        return f"an integer of {value.bit_length()} bits"
    if isinstance(value, (list, tuple)):
        return f"a JSON array of {len(value)} entries"
    if isinstance(value, dict):
        return f"a JSON object of {len(value)} keys"
    if isinstance(value, str) and len(value) > _SHOWN_CHARS:
        return f"a JSON string of {len(value)} characters, {json.dumps(value[:_SHOWN_CHARS])}..."
    return json.dumps(value, default=repr)


def positive_int(value, what: str) -> int:
    """A Python or numpy integer >= 1 as an int; a bool or a float (even 2.0) is not a count."""
    import numpy as np

    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def real(value, what: str) -> float:
    """value, a finite real scalar, as a Python float.

    A Python int or float (numpy's float64 is one) is judged without
    importing numpy; a numpy scalar or 0-d array of integers or floats is
    taken at its value, so a float32 gives the float of that value.  A
    bool, a string, a complex or any other object is a TypeError; an array
    of one entry or more, a NaN, an infinity or an integer past the float
    range is a ValueError.  Each message names what.
    """
    return _real(value, what, math.isfinite, "be finite")


def positive_float(value, what: str) -> float:
    """A finite amount above 0 as a float: real, where NaN, the infinities,
    0 and below are ValueErrors saying what must be positive."""
    return _real(value, what, lambda x: 0.0 < x < math.inf, "be positive")


def _real(value, what: str, ok, rule: str) -> float:
    """value as a float by real's rule, with ok as its range: a float that
    ok refuses (NaN and the infinities among them) is the ValueError
    "<what> must <rule>, got <float>".

    real and positive_float are its finite and positive ranges; a parameter
    with a range of its own passes that range, so its message is the one it
    gives every out-of-range number, NaN included.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        import numpy as np

        array = np.asarray(value)
        if array.ndim:
            raise ValueError(f"{what} must be a scalar, got shape {array.shape}")
        if array.dtype.kind not in "iuf":
            raise TypeError(f"{what} must be a real number, got {type(value).__name__}")
    elif isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{what} must be finite, got an integer past the float range")
    if ok(number := float(value)):
        return number
    raise ValueError(f"{what} must {rule}, got {number!r}")


def check_each(ok, values, message: str) -> None:
    """Raise ValueError(message) naming the first entry of values where ok fails.

    Counting the entries that pass costs less than ok.all(), whose reduction
    set-up dominates on the small arrays checked here.
    """
    import numpy as np

    if np.count_nonzero(ok) != ok.size:
        raise ValueError(message.format(float(np.asarray(values)[~ok].flat[0])))


def finite(value, what: str) -> "np.ndarray":
    """value as a float array (0-d for a scalar) whose every entry is finite.

    Entries that are not real numbers (None, strings, complex) raise
    TypeError, showing value's entries as a list (or its one entry) through
    shown, so the message stays short whatever value holds; a NaN or an
    infinity raises ValueError naming the first one.
    A 0-d array is judged by math.isfinite, which costs a fraction of the
    array check on one entry.
    """
    import numpy as np

    array = np.asarray(value)
    if array.dtype.kind not in "biuf":
        raise TypeError(f"{what} must be a real number, got {shown(array.tolist())}")
    array = array.astype(float, copy=False)
    if array.ndim:
        check_each(np.isfinite(array), array, what + " must be finite, got {!r}")
    elif not math.isfinite(array):
        raise ValueError(f"{what} must be finite, got {float(array)!r}")
    return array

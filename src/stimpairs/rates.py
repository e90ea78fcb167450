"""Pair-rate arithmetic on counted singles and coincidences.

The estimates here are scalar float arithmetic, so this module imports no
numpy and the `rates` command starts without it.
"""

import math

from .errors import positive_float


def pair_rate(singles: float, coincidences: float) -> float:
    """Pair rate estimate singles^2 / coincidences, for equal singles in both arms.

    With detection efficiency eta in each arm, a pair rate R gives singles
    eta R and coincidences eta^2 R, so the estimate is R whatever eta is
    (Klyshko, Sov. J. Quantum Electron. 10, 1112 (1980)).  Coincidences above
    singles would need eta = C / S above 1 and are a ValueError.  A rate past
    the float range is a FloatingPointError, never inf.
    """
    if not (math.isfinite(singles) and singles >= 0.0):
        raise ValueError(f"singles rate must be non-negative, got {singles!r}")
    positive_float(coincidences, "coincidence rate")
    if coincidences > singles:
        raise ValueError(
            f"coincidences {coincidences!r} exceed singles {singles!r}: "
            f"the implied detection efficiency C / S is above 1"
        )
    try:
        rate = singles**2 / coincidences
    except OverflowError:  # singles**2 is past the float range
        rate = math.inf
    if math.isinf(rate):
        raise FloatingPointError(f"rate {singles!r}**2 / {coincidences!r} overflows a float")
    return rate

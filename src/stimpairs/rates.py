"""Pair-rate arithmetic on counted singles and coincidences.

The estimates here are scalar float arithmetic, so this module imports no
numpy and the `rates` command starts without it.
"""

import math

from .errors import _real, positive_float


def pair_rate(singles: float, coincidences: float) -> float:
    """Pair rate estimate singles^2 / coincidences, for equal singles in both arms.

    With detection efficiency eta in each arm, a pair rate R gives singles
    eta R and coincidences eta^2 R, so the estimate is R whatever eta is
    (Klyshko, Sov. J. Quantum Electron. 10, 1112 (1980)).  Coincidences above
    singles would need eta = C / S above 1 and are a ValueError.  The rate is
    formed on the mantissas, so S^2 out of the float range does not matter
    when the rate itself is in range; it is S * S / C bit for bit wherever
    S * S and the rate are normal floats.  A rate past the float range is a
    FloatingPointError, never inf.
    """
    singles = _real(singles, "singles rate", lambda x: 0.0 <= x < math.inf, "be non-negative")
    coincidences = positive_float(coincidences, "coincidence rate")
    if coincidences > singles:
        raise ValueError(
            f"coincidences {coincidences!r} exceed singles {singles!r}: "
            f"the implied detection efficiency C / S is above 1"
        )
    (ms, es), (mc, ec) = math.frexp(singles), math.frexp(coincidences)
    try:
        return math.ldexp(ms * ms / mc, 2 * es - ec)
    except OverflowError:
        message = f"rate {singles!r}**2 / {coincidences!r} overflows a float"
        raise FloatingPointError(message) from None

"""Closed-form pair statistics for a multipass parametric interaction.

A pump that makes N passes through the same crystal drives one pair mode
coherently on every pass, picking up a round-trip phase phi between passes.
The passes therefore add up to an effective amplitude

    A(N, phi) = sum_{m=0}^{N-1} exp(i m phi),

and every pair observable of the multipass system reduces to the single-pass
formula evaluated at the rescaled interaction strength |A| tau, where tau is
the dimensionless per-pass strength (coupling times interaction time).

The exact 2M-photon emission probability is

    P_M = (M + 1) tanh^{2M}(|A| tau) / cosh^4(|A| tau),

whose small-tau limit (M + 1) (|A| tau)^{2M} carries the familiar
|sin(N phi / 2) / sin(phi / 2)|^{2M} interference factor.  Everything here is
a closed form; the truncated Fock-space oracle that these formulas are tested
against lives in fock.py.

Each observable has one implementation on an array of x = |A| tau.  A has
one builder, _amplitudes, and x one function, _strengths, which wraps the
phases and scales |A| by tau; every rate reads x from it.  The scalar
functions evaluate it on a one-element array, since a numpy scalar raised to
an integer power rounds differently from an array, and grid callers
(sweep_rows, the tilt-scan fringe) on a whole phase grid after validating
their inputs once, so a grid entry equals the scalar call bit for bit.
sweep_rows returns its grid as one float64 table, N and M held as exact
floats; the CLI converts it to Python numbers only to write CSV or JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _real, check_each, finite, positive_int, real
from .phase_plate import _wrap

SWEEP_COLUMNS = ("N", "phi", "tau", "M", "P_exact", "P_approx", "contamination")


@dataclass(frozen=True)
class ResonatorConfig:
    """Pass count, inter-pass phase, and per-pass interaction strength.

    phi is stored canonically in [0, 2 pi); every quantity derived from it is
    2 pi periodic so nothing is lost.
    """

    n_passes: int
    phi: float
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "n_passes", positive_int(self.n_passes, "n_passes"))
        object.__setattr__(self, "phi", float(_wrap(real(self.phi, "phi"))))
        tau = _real(self.tau, "tau", lambda x: 0.0 <= x < math.inf, "be a non-negative finite float")
        object.__setattr__(self, "tau", tau)


def amplitude_sum(n_passes: int, phi):
    """Coherent sum of N unit phasors, A = sum_m exp(i m phi).

    Summed directly instead of through the sin(N phi/2)/sin(phi/2) ratio so
    phi -> 0 needs no special casing and |A| <= N holds with equality exactly
    at phi = 0 mod 2 pi.  An array phi gives one A per entry; a scalar phi
    returns a complex.
    """
    n_passes = positive_int(n_passes, "n_passes")
    phi = finite(phi, "phi")
    a = _amplitudes((n_passes,), phi)[0]
    return complex(a) if phi.ndim == 0 else a


def _amplitudes(n_values, phases: np.ndarray) -> np.ndarray:
    """A(N, phi) for validated pass counts and finite phases, the one builder of A.

    Returns shape (len(n_values),) + phases.shape.  The phasors exp(i m phi)
    are built once, for the largest N, and each N sums the first N of them,
    so a row equals the one-N call on the same phases bit for bit.  The
    phases are used as given: callers that want [0, 2 pi) wrap them first.
    """
    terms = np.exp(1j * phases[..., None] * np.arange(max(n_values, default=0)))
    sums = np.empty((len(n_values),) + phases.shape, dtype=complex)
    for i, n in enumerate(n_values):
        # sums[i, ...] stays an array view when the phases are 0-d.
        terms[..., :n].sum(axis=-1, out=sums[i, ...])
    return sums


def _strengths(n_values, phases: np.ndarray, tau: float) -> np.ndarray:
    """x = |A(N, phi)| tau on the wrapped phases, the one place x is formed.

    Shape (len(n_values),) + phases.shape.  |A| is np.hypot of the parts,
    which equals abs(complex) bit for bit where np.abs does not.  An x past
    the float range is inf, with no overflow warning: P_exact and the
    contamination take their limits 0 and 1.5 there, and _p_approx refuses it.
    """
    a = _amplitudes(n_values, _wrap(phases))
    with np.errstate(over="ignore"):
        return np.hypot(a.real, a.imag) * tau


def _p_exact(m: int, x: np.ndarray) -> np.ndarray:
    # cosh(x)**4 overflows to inf past x ~ 178, where P_M -> 0 is the right limit.
    with np.errstate(over="ignore"):
        return (m + 1) * np.tanh(x) ** (2 * m) / np.cosh(x) ** 4


def _p_approx(m: int, x: np.ndarray) -> np.ndarray:
    # An x of inf raises no overflow in the power, so the result is judged.
    with np.errstate(over="ignore"):
        p = (m + 1) * x ** (2 * m)
    if np.isinf(p).any():
        raise FloatingPointError(f"|A| tau up to {x.max():.3g} overflows the small-tau limit")
    return p


def _contamination(x: np.ndarray) -> np.ndarray:
    return 1.5 * np.tanh(x) ** 2


def pair_probability_exact(m: int, cfg: ResonatorConfig) -> float:
    """Exact probability of the maximally entangled 2M-photon component.

    P_M = (M + 1) tanh^{2M}(x) / cosh^4(x) at x = |A| tau.  Equal to the
    beta-like form (M + 1) (1 - u)^2 u^M at u = tanh^2(x), see
    pair_probability_vs_u.
    """
    m = positive_int(m, "pair order M")
    x = _strengths((cfg.n_passes,), np.array([cfg.phi]), cfg.tau)[0]
    return float(_p_exact(m, x)[0])


def pair_probability_approx(m: int, cfg: ResonatorConfig) -> float:
    """Small-tau limit (M + 1) (|A| tau)^{2M}.

    |A| equals |sin(N phi/2) / sin(phi/2)|, so this is the textbook
    interference form; computing |A| by direct summation gives the phi -> 0
    value N^{2M} without a limit case.  The limit is returned as it is, above
    1 once |A| tau is not small; where it, or |A| tau itself, is past the
    float range it raises FloatingPointError naming |A| tau.
    """
    m = positive_int(m, "pair order M")
    x = _strengths((cfg.n_passes,), np.array([cfg.phi]), cfg.tau)[0]
    return float(_p_approx(m, x)[0])


def pair_probability_vs_u(m: int, u):
    """P_M as a function of u = tanh^2(|A| tau): f(u) = (M + 1) (1 - u)^2 u^M.

    An array u is evaluated elementwise, every entry in [0, 1]; a scalar u
    returns a float.
    """
    m = positive_int(m, "pair order M")
    u = np.asarray(u, dtype=float)
    check_each((u >= 0.0) & (u <= 1.0), u, "u must lie in [0, 1], got {!r}")
    v = np.atleast_1d(u)
    f = (m + 1) * (1.0 - v) ** 2 * v**m
    return float(f[0]) if u.ndim == 0 else f


def optimal_u(m: int) -> float:
    """Argmax of pair_probability_vs_u over u in [0, 1], namely M / (M + 2)."""
    m = positive_int(m, "pair order M")
    return m / (m + 2.0)


def double_pass_ratio(theta: float) -> float:
    """Two-pass to one-pass pair-rate ratio, 2 (1 + cos theta).

    4 at theta = 0 (constructive), 0 at theta = pi (the second pass undoes
    the first).
    """
    return 2.0 * (1.0 + math.cos(real(theta, "theta")))


def multiphoton_contamination(cfg: ResonatorConfig) -> float:
    """Ratio P_2 / P_1 of double-pair to single-pair emission, (3/2) tanh^2(|A| tau)."""
    x = _strengths((cfg.n_passes,), np.array([cfg.phi]), cfg.tau)[0]
    return float(_contamination(x)[0])


def sweep_rows(n_values, phis, tau: float, m: int = 1) -> np.ndarray:
    """Evaluate the sweep grid as one float64 table, one row per (N, phi) pair.

    The table is C-contiguous with shape (len(n_values) * len(phis), 7) and
    columns SWEEP_COLUMNS; the rows are N-major then phi, and phi is echoed as
    given.  N and M are exact small integers held as floats.  Inputs are
    validated once; x of the N list on the phases comes from one _strengths
    table, and each column is evaluated once on that whole array, so every
    row equals the scalar functions on ResonatorConfig(N, phi, tau) bit for
    bit.
    """
    n_values = tuple(positive_int(n, "n_passes") for n in n_values)
    phis = finite(phis, "phi").reshape(-1)
    tau = _real(tau, "tau", lambda x: 0.0 <= x < math.inf, "be a non-negative finite float")
    m = positive_int(m, "pair order M")
    x = _strengths(n_values, phis, tau)
    table = np.empty((len(n_values), len(phis), len(SWEEP_COLUMNS)))
    table[..., 0] = np.reshape(n_values, (-1, 1))
    table[..., 1] = phis
    table[..., 2] = tau
    table[..., 3] = m
    table[..., 4] = _p_exact(m, x)
    table[..., 5] = _p_approx(m, x)
    table[..., 6] = _contamination(x)
    return table.reshape(-1, len(SWEEP_COLUMNS))

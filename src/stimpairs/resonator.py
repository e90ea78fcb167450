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

Each observable has one implementation on an array of x = |A| tau.  The
scalar functions evaluate it on a one-element array, and grid callers
(sweep_rows, the tilt-scan fringe) on a whole phase grid after validating
their inputs once, so a grid entry equals the scalar call bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import check_each, finite, positive_int
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
        object.__setattr__(self, "phi", float(_wrap(finite(self.phi, "phi"))))
        object.__setattr__(self, "tau", _check_tau(self.tau))


def _check_tau(tau) -> float:
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be a non-negative finite float, got {tau!r}")
    return float(tau)


def amplitude_sum(n_passes: int, phi):
    """Coherent sum of N unit phasors, A = sum_m exp(i m phi).

    Summed directly instead of through the sin(N phi/2)/sin(phi/2) ratio so
    phi -> 0 needs no special casing and |A| <= N holds with equality exactly
    at phi = 0 mod 2 pi.  An array phi gives one A per entry; a scalar phi
    returns a complex.
    """
    n_passes = positive_int(n_passes, "n_passes")
    phi = finite(phi, "phi")
    a = _phasor_sum(n_passes, phi)
    return complex(a) if phi.ndim == 0 else a


def _phasor_sum(n_passes: int, phi: np.ndarray) -> np.ndarray:
    return np.exp(1j * phi[..., None] * np.arange(n_passes)).sum(axis=-1)


def _config_amplitude(cfg: ResonatorConfig) -> complex:
    """A of a config, which holds a validated N and a finite phi: no check repeats."""
    return complex(_phasor_sum(cfg.n_passes, np.asarray(cfg.phi)))


def _scaled_amplitude(n_passes: int, phi, tau: float) -> np.ndarray:
    """x = |A(N, phi)| tau for validated N and phi already wrapped to [0, 2 pi).

    x is at least 1-d, because a numpy scalar raised to an integer power
    rounds differently from an array; and np.hypot of the parts equals
    abs(complex) bit for bit, where np.abs does not.
    """
    a = _phasor_sum(n_passes, np.atleast_1d(phi))
    return np.hypot(a.real, a.imag) * tau


def _p_exact(m: int, x: np.ndarray) -> np.ndarray:
    # cosh(x)**4 overflows to inf past x ~ 178, where P_M -> 0 is the right limit.
    with np.errstate(over="ignore"):
        return (m + 1) * np.tanh(x) ** (2 * m) / np.cosh(x) ** 4


def _p_approx(m: int, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="raise"):
        return (m + 1) * x ** (2 * m)


def _contamination(x: np.ndarray) -> np.ndarray:
    return 1.5 * np.tanh(x) ** 2


def pair_probability_exact(m: int, cfg: ResonatorConfig) -> float:
    """Exact probability of the maximally entangled 2M-photon component.

    P_M = (M + 1) tanh^{2M}(x) / cosh^4(x) at x = |A| tau.  Equal to the
    beta-like form (M + 1) (1 - u)^2 u^M at u = tanh^2(x), see
    pair_probability_vs_u.
    """
    m = positive_int(m, "pair order M")
    return float(_p_exact(m, _scaled_amplitude(cfg.n_passes, cfg.phi, cfg.tau))[0])


def pair_probability_approx(m: int, cfg: ResonatorConfig) -> float:
    """Small-tau limit (M + 1) (|A| tau)^{2M}.

    |A| equals |sin(N phi/2) / sin(phi/2)|, so this is the textbook
    interference form; computing |A| by direct summation gives the phi -> 0
    value N^{2M} without a limit case.  The limit is returned as it is, above
    1 once |A| tau is not small; past the float range it raises
    FloatingPointError.
    """
    m = positive_int(m, "pair order M")
    return float(_p_approx(m, _scaled_amplitude(cfg.n_passes, cfg.phi, cfg.tau))[0])


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
    return 2.0 * (1.0 + math.cos(finite(theta, "theta")))


def multiphoton_contamination(cfg: ResonatorConfig) -> float:
    """Ratio P_2 / P_1 of double-pair to single-pair emission, (3/2) tanh^2(|A| tau)."""
    return float(_contamination(_scaled_amplitude(cfg.n_passes, cfg.phi, cfg.tau))[0])


def sweep_rows(n_values, phis, tau: float, m: int = 1) -> list[tuple]:
    """Evaluate the sweep grid, one row per (N, phi) pair, columns SWEEP_COLUMNS.

    The grid order is N-major then phi, and phi is echoed as given.  Inputs
    are validated once; each N is then one array evaluation over all phases,
    so every row equals the scalar functions on ResonatorConfig(N, phi, tau)
    bit for bit.  Each row is a tuple (int N, float phi, float tau, int M,
    three floats), zipped in C from the constant N, tau and M and the
    columns' float lists; no Python code runs per row.
    """
    n_values = [positive_int(n, "n_passes") for n in n_values]
    phis = finite(phis, "phi").reshape(-1)
    wrapped = _wrap(phis)
    tau = _check_tau(tau)
    m = positive_int(m, "pair order M")
    echoed = phis.tolist()
    rows = []
    for n in n_values:
        x = _scaled_amplitude(n, wrapped, tau)
        columns = (_p_exact(m, x), _p_approx(m, x), _contamination(x))
        rows.extend(zip(repeat(n), echoed, repeat(tau), repeat(m), *(c.tolist() for c in columns)))
    return rows

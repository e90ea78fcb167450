"""Reference values the benchmark checks stimpairs outputs against.

Everything here is derived from the physics, not from stimpairs: |A| comes
from the sin-ratio form instead of the library's phasor sum, analyzer states
from the README's letter table instead of Jones matrices, and plate phases
from the single-square-root formula written out again.  A check that fails
raises CheckFailure naming the layer whose output was wrong.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Expected counts more than this many Poisson standard deviations away from a
# draw mean the simulation is wrong; at 8 sigma a false alarm over a whole run
# has probability below 1e-10.
POISSON_SIGMAS = 8.0
# Fitted fringe parameters may sit this many shot-noise standard deviations
# from the truth.
FIT_SIGMAS = 8.0


class CheckFailure(Exception):
    """An output disagreed with its reference; layer names where."""

    def __init__(self, layer: str, message: str):
        super().__init__(f"{layer}: {message}")
        self.layer = layer


def require(ok: bool, layer: str, message: str) -> None:
    if not ok:
        raise CheckFailure(layer, message)


# ----- closed forms -----


def amplitude_sum(n: int, phi):
    """A(N, phi) = e^{i (N-1) phi / 2} sin(N phi / 2) / sin(phi / 2), limit-guarded."""
    phi = np.asarray(phi, dtype=float)
    half = phi / 2.0
    s = np.sin(half)
    small = np.abs(s) < 1e-12
    ratio = np.where(
        small,
        n * np.cos(n * half) / np.where(small, np.cos(half), 1.0),
        np.sin(n * half) / np.where(small, 1.0, s),
    )
    return np.exp(1j * (n - 1) * half) * ratio


def pair_probability(m: int, x):
    """(M + 1) tanh^{2M} x / cosh^4 x."""
    x = np.asarray(x, dtype=float)
    return (m + 1) * np.tanh(x) ** (2 * m) / np.cosh(x) ** 4


def closed_form_support(a_tau: complex, cutoff: int):
    """Indices and amplitudes of sech^2 x sum_n u^n sum_l (-1)^l |n-l, l; l, n-l>."""
    b = cutoff + 1
    x = abs(a_tau)
    if x == 0.0:
        return np.array([0]), np.array([1.0 + 0.0j])
    u = -1j * (a_tau / x) * math.tanh(x)
    idx, amp = [], []
    for n in range(cutoff + 1):
        coeff = u**n / math.cosh(x) ** 2
        for l in range(n + 1):
            idx.append((((n - l) * b + l) * b + l) * b + (n - l))
            amp.append(-coeff if l % 2 else coeff)
    return np.array(idx), np.array(amp)


def boundary_weight(amplitudes: np.ndarray, cutoff: int) -> float:
    """Probability on states with any occupation at the cutoff."""
    b = cutoff + 1
    cube = np.abs(amplitudes.reshape(b, b, b, b)) ** 2
    return float(cube.sum() - cube[:cutoff, :cutoff, :cutoff, :cutoff].sum())


def plate_offset(geom: dict, alpha):
    """Pump-minus-pair plate phase (2 pi L / lambda_p)[n_p^2/sqrt(n_p^2 - s^2) - (same, n_s)]."""
    s2 = np.sin(np.asarray(alpha, dtype=float)) ** 2
    k = TWO_PI * geom["L_m"] / geom["lambda_p_m"]
    n_p, n_s = geom["n_p"], geom["n_s"]
    return k * (n_p**2 / np.sqrt(n_p**2 - s2) - n_s**2 / np.sqrt(n_s**2 - s2))


def sweep_expected(n_values, phis, tau: float, m: int):
    """Columns P_exact, P_approx, contamination of an N-major sweep, with per-row scales.

    The scale is each column at |A| = N, the largest it can be for that row,
    so near-destructive rows are compared against an absolute floor.
    """
    n_col = np.repeat(np.asarray(n_values, dtype=float), len(phis))
    x = np.concatenate([np.abs(amplitude_sum(n, phis)) for n in n_values]) * tau
    top = n_col * tau

    def columns(y):
        return (pair_probability(m, y), (m + 1) * y ** (2 * m), 1.5 * np.tanh(y) ** 2)

    return columns(x), columns(top)


def check_sweep(table: np.ndarray, n_values, phis, tau: float, m: int, layer: str) -> None:
    """Rows (N, phi, tau, M, P_exact, P_approx, contamination) against the closed forms."""
    rows = len(n_values) * len(phis)
    require(table.shape == (rows, 7), layer, f"sweep table has shape {table.shape}, want ({rows}, 7)")
    require(
        np.array_equal(table[:, 0], np.repeat(np.asarray(n_values, dtype=float), len(phis)))
        and np.allclose(table[:, 1], np.tile(phis, len(n_values)), rtol=1e-15, atol=0.0)
        and np.all(table[:, 2] == tau)
        and np.all(table[:, 3] == m),
        layer,
        "sweep grid columns out of order",
    )
    expected, scales = sweep_expected(n_values, phis, tau, m)
    for col, want, top in zip((4, 5, 6), expected, scales):
        err = np.abs(table[:, col] - want)
        require(
            bool(np.all(err <= 1e-9 * np.abs(want) + 1e-12 * top)),
            layer,
            f"sweep column {col} off by {err.max():.3e}",
        )


def check_fit(b: float, c: float, b_ref, c_ref: float, total_counts: float, layer: str) -> None:
    """B in [0, 1], C in [0, 2 pi), both near (b_ref, c_ref); b_ref None skips the B match."""
    require(0.0 <= b <= 1.0, layer, f"B = {b!r} outside [0, 1]")
    require(0.0 <= c < TWO_PI, layer, f"C = {c!r} outside [0, 2 pi)")
    sigma = math.sqrt(2.0 / max(total_counts, 1.0))
    b_scale = b_ref if b_ref is not None else 1.0
    require(
        phase_distance(c, c_ref) <= FIT_SIGMAS * sigma / b_scale,
        layer,
        f"C = {c!r}, expected {c_ref!r} mod 2 pi",
    )
    if b_ref is not None:
        require(abs(b - min(b_ref, 1.0)) <= FIT_SIGMAS * sigma, layer, f"B = {b!r}, expected {b_ref!r}")


def phase_distance(a: float, b: float) -> float:
    """|a - b| folded onto [0, pi]."""
    return abs((a - b + math.pi) % TWO_PI - math.pi)


# ----- two-qubit states and analyzers -----

LETTER_STATES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def dephased_singlet(d: float) -> np.ndarray:
    """Singlet with its HV/VH coherence scaled by 1 - d."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = -0.5 * (1.0 - d)
    return rho


def born(rho: np.ndarray, state_a: np.ndarray, state_b: np.ndarray) -> float:
    v = np.kron(state_a, state_b)
    return float(np.real(np.vdot(v, rho @ v)))


def linear_state(angle: float, qwp_at_zero: bool = False) -> np.ndarray:
    """Polarizer at angle, behind a quarter-wave plate at 0 when asked: (cos, -i sin)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c, -1j * s if qwp_at_zero else s], dtype=complex)


def fringe_parameters(prob) -> tuple[float, float]:
    """(B, C) of p(a) = alpha + beta cos 2a + gamma sin 2a written as 2A(1 + B cos(2a + C))."""
    p0, p45, p90 = prob(0.0), prob(math.pi / 4.0), prob(math.pi / 2.0)
    alpha = (p0 + p90) / 2.0
    beta = (p0 - p90) / 2.0
    gamma = p45 - alpha
    return math.hypot(beta, gamma) / alpha, math.atan2(-gamma, beta) % TWO_PI


def poisson_ok(counts: np.ndarray, means: np.ndarray) -> bool:
    counts = np.asarray(counts, dtype=float)
    means = np.asarray(means, dtype=float)
    return bool(np.all(np.abs(counts - means) <= POISSON_SIGMAS * np.sqrt(means) + POISSON_SIGMAS))


def check_density(rho: np.ndarray, layer: str, atol: float = 1e-10, psd: bool = True) -> None:
    """Hermitian, unit trace and, when psd, no eigenvalue below -atol."""
    rho = np.asarray(rho)
    require(rho.shape == (4, 4), layer, f"rho has shape {rho.shape}")
    require(np.abs(rho - rho.conj().T).max() <= atol, layer, "rho is not Hermitian")
    require(abs(np.trace(rho) - 1.0) <= atol, layer, f"trace {np.trace(rho)!r}")
    if psd:
        lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
        require(lo >= -atol, layer, f"negative eigenvalue {lo:.3e}")

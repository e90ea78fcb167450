"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Criteria 1, 2 and 6 share one sweep over the (N, phi, tau) evolution grid,
cached module-wide.  The oracle evolves in the conserved pair sector (at most
31 x 31 amplitudes) and stores only those entries; the largest full space here
has 923,521 states, which the elementwise comparison builds densely.  Every tolerance below is pinned; loosening one is a
contract change, not a fix.
"""

import math
import time

import numpy as np
import pytest

from stimpairs.fock import FockSpace, disentangled_state, evolve_vacuum, project_entangled, suggest_cutoff
from stimpairs.phase_plate import PlateGeometry, relative_phase
from stimpairs.polarization import (
    ArmSetting,
    bell_state,
    dephasing_noise,
    fit_fringe,
    simulate_polarization_fringe,
    simulate_stimulation_fringe,
    state_density,
)
from stimpairs.resonator import (
    ResonatorConfig,
    amplitude_sum,
    double_pass_ratio,
    multiphoton_contamination,
    optimal_u,
    pair_probability_approx,
    pair_probability_exact,
    pair_probability_vs_u,
)
from stimpairs.tomography import (
    fidelity,
    project_physical,
    reconstruct_mle,
    simulate_tomography,
)

GRID_N = (1, 2, 3, 5, 10)
GRID_PHI = (0.0, 0.3, math.pi / 2.0, math.pi)
GRID_TAU = (0.005, 0.02, 0.05)

GEOM = PlateGeometry(thickness=3e-3, n_pump=1.53, n_pair=1.51, wavelength_pump=405e-9)

# Normal-incidence pump/pair offset for GEOM, frozen at 50 digits.
DELTA_AT_0 = 930.8422677303091


# Lines also echoed into the terminal summary by conftest, since pytest's
# capture would otherwise hide them for passing runs.
VERDICT_LINES: list[str] = []


def verdict(num: int, passed: bool, text: str) -> None:
    line = f"criterion {num:02d} {'pass' if passed else 'FAIL'}: {text}"
    VERDICT_LINES.append(line)
    print(line)
    assert passed, f"criterion {num:02d}: {text}"


@pytest.fixture(scope="module")
def evolved_grid():
    """One oracle evolution per (N, phi, tau); closed form alongside."""
    t0 = time.perf_counter()
    cache = {}
    for n in GRID_N:
        for phi in GRID_PHI:
            for tau in GRID_TAU:
                cfg = ResonatorConfig(n, phi, tau)
                a_tau = amplitude_sum(n, phi) * tau
                cutoff = max(12, suggest_cutoff(a_tau))
                space = FockSpace(cutoff)
                cache[(n, phi, tau)] = (
                    cfg,
                    evolve_vacuum(cfg, space),
                    disentangled_state(a_tau, space),
                )
    return cache, time.perf_counter() - t0


def test_criterion_01_oracle_equivalence(evolved_grid):
    cache, elapsed = evolved_grid
    worst = 0.0
    for (n, phi, tau), (cfg, state, _) in cache.items():
        for m in (1, 2, 3):
            p_oracle = abs(project_entangled(state, m)) ** 2
            p_closed = pair_probability_exact(m, cfg)
            worst = max(worst, abs(p_oracle - p_closed))
    verdict(
        1,
        worst < 1e-8 and elapsed < 120.0,
        f"closed form vs oracle, worst |dP| = {worst:.3e} (tol 1e-8), "
        f"grid evolved in {elapsed:.1f}s (cap 120s)",
    )


def test_criterion_02_disentangling_identity(evolved_grid):
    cache, _ = evolved_grid
    worst = 0.0
    for (_, state, closed) in cache.values():
        worst = max(worst, float(np.abs(state.amplitudes - closed.amplitudes).max()))
    verdict(
        2,
        worst < 1e-8,
        f"disentangled state vs oracle elementwise, worst = {worst:.3e} (tol 1e-8)",
    )


def test_criterion_03_quadratic_enhancement():
    tau = 1e-3
    base = pair_probability_approx(1, ResonatorConfig(1, 0.0, tau))
    worst = 0.0
    for n in range(1, 11):
        ratio = pair_probability_approx(1, ResonatorConfig(n, 0.0, tau)) / base
        worst = max(worst, abs(ratio - n * n) / (n * n))
    # The exact-form ratio carries an O((N tau)^2) correction, so the 1e-4
    # demand lands on the interference form; the exact route must still sit
    # inside its own convergence envelope.
    exact_dev = 0.0
    for n in range(1, 11):
        exact = pair_probability_exact(1, ResonatorConfig(n, 0.0, tau))
        approx = pair_probability_approx(1, ResonatorConfig(n, 0.0, tau))
        exact_dev = max(exact_dev, abs(exact - approx) / approx / (10.0 * (n * tau) ** 2))
    verdict(
        3,
        worst < 1e-4 and exact_dev < 1.0,
        f"P(N)/P(1) vs N^2, worst rel dev = {worst:.3e} (tol 1e-4); "
        f"exact within {exact_dev:.2f} of its 10(N tau)^2 envelope",
    )


def test_criterion_04_double_pass_four_times():
    exact_four = double_pass_ratio(0.0) == 4.0
    cfg = ResonatorConfig(2, 0.0, 1e-3)
    alphas = np.radians(np.linspace(2.0, 15.0, 41))
    scan = simulate_stimulation_fringe(GEOM, cfg, alphas, shots=1e6, seed=None)
    fit = fit_fringe(scan)
    ratio = fit.p2_over_p1
    verdict(
        4,
        exact_four and abs(ratio - 4.0) < 0.01,
        f"double_pass_ratio(0) = {double_pass_ratio(0.0)}, "
        f"zero-noise tilt-scan fit gives 2(1+B) = {ratio:.4f} (4.00 +- 0.01)",
    )


def test_criterion_05_optimal_u():
    worst = 0.0
    for m in range(1, 6):
        grid = np.linspace(0.0, 1.0, 100001)
        values = pair_probability_vs_u(m, grid)
        u_grid = grid[int(np.argmax(values))]
        worst = max(worst, abs(u_grid - optimal_u(m)))
    verdict(
        5,
        worst < 1e-4,
        f"grid argmax vs M/(M+2), worst |du| = {worst:.3e} (tol 1e-4)",
    )


def test_criterion_06_small_tau_envelope(evolved_grid):
    cache, _ = evolved_grid
    worst_margin = 0.0
    worst_zero = 0.0
    for (n, phi, tau), (cfg, _, _) in cache.items():
        for m in (1, 2, 3):
            exact = pair_probability_exact(m, cfg)
            approx = pair_probability_approx(m, cfg)
            rel = abs(approx - exact) / exact
            worst_margin = max(worst_margin, rel / (10.0 * (n * tau) ** 2))
            if n % 2 == 0 and phi == math.pi:
                # Destructive interference: |A| is rounding dust (~1e-16),
                # not 0, so both routes must be negligible, not exactly 0.
                worst_zero = max(worst_zero, exact, approx)
    zeros_ok = worst_zero <= 1e-30
    verdict(
        6,
        zeros_ok and worst_margin < 1.0,
        f"approx vs exact relative error, worst at {worst_margin:.3f} of the "
        f"10(N tau)^2 envelope; destructive points (even N, phi = pi) at most "
        f"{worst_zero:.1e} on both routes (bound 1e-30)",
    )


def test_criterion_07_phase_plate():
    linear = 2.0 * math.pi * GEOM.thickness / GEOM.wavelength_pump * (
        GEOM.n_pump - GEOM.n_pair
    )
    delta0 = relative_phase(GEOM, 0.0)
    machine = abs(delta0 - linear) / linear < 1e-14 and abs(
        delta0 - DELTA_AT_0
    ) / DELTA_AT_0 < 1e-12
    even = all(
        abs(relative_phase(GEOM, a) - relative_phase(GEOM, -a)) < 1e-9
        for a in (0.05, 0.15, 0.3)
    )
    # Period consistency: a noiseless tilt scan's fitted phase must land on
    # the known fringe origin, and a seeded scan within its own 3 sigma.
    cfg = ResonatorConfig(2, 0.0, 1e-3)
    alphas = np.radians(np.linspace(2.0, 15.0, 61))
    clean = fit_fringe(simulate_stimulation_fringe(GEOM, cfg, alphas, 1e9, seed=None))
    clean_c = min(clean.phase, 2.0 * math.pi - clean.phase)
    noisy = fit_fringe(simulate_stimulation_fringe(GEOM, cfg, alphas, 1e9, seed=77))
    noisy_c = min(noisy.phase, 2.0 * math.pi - noisy.phase)
    sigma_c = math.sqrt(noisy.covariance[2, 2])
    fits_ok = clean_c < 1e-6 and noisy_c < 3.0 * sigma_c
    verdict(
        7,
        machine and even and fits_ok,
        f"delta(0) = {delta0:.10f} vs linear form (machine precision), even in "
        f"alpha: {even}; fitted fringe origin {clean_c:.2e} rad clean, "
        f"{noisy_c:.2e} rad seeded (3 sigma = {3 * sigma_c:.2e})",
    )


def test_criterion_08_tomography_round_trip():
    results = []
    for d in (None, 0.1, 0.3):
        rho = state_density(bell_state()) if d is None else dephasing_noise(
            bell_state(), d
        )
        record = simulate_tomography(rho, 1e5, seed=101 if d is None else int(d * 100))
        t0 = time.perf_counter()
        res = reconstruct_mle(record)
        dt = time.perf_counter() - t0
        f = fidelity(project_physical(res.rho), rho)
        results.append((d, f, res.physical, dt))
    ok = all(f >= 0.99 and phys and dt < 30.0 for _, f, phys, dt in results)
    detail = ", ".join(
        f"d={d if d is not None else 0}: F={f:.5f} in {dt:.1f}s" for d, f, _, dt in results
    )
    verdict(8, ok, f"MLE at 1e5 shots (tol F >= 0.99, physical, < 30s): {detail}")


def test_criterion_09_dephased_regime():
    d = 0.3
    rho = dephasing_noise(bell_state(), d)
    angles = np.radians(np.linspace(0.0, 180.0, 37))
    scan = simulate_polarization_fringe(
        rho, ArmSetting(math.pi / 4.0), angles, shots=1e6, seed=9
    )
    vis = fit_fringe(scan).visibility
    record = simulate_tomography(rho, 1e5, seed=30)
    f = fidelity(project_physical(reconstruct_mle(record).rho), bell_state())
    ok = abs(vis - (1.0 - d)) < 0.02 and abs(f - (1.0 - d / 2.0)) < 0.01
    verdict(
        9,
        ok,
        f"d = 0.3: diagonal-basis visibility {vis:.4f} vs {1 - d} (+- 0.02), "
        f"singlet fidelity {f:.4f} vs {1 - d / 2} (+- 0.01)",
    )


def test_criterion_10_contamination():
    worst_ratio = 0.0
    worst_match = 0.0
    for tau in np.geomspace(1e-4, 0.01, 13):
        cfg = ResonatorConfig(2, 0.0, float(tau))
        ratio = pair_probability_exact(2, cfg) / pair_probability_exact(1, cfg)
        worst_ratio = max(worst_ratio, ratio)
        x = abs(amplitude_sum(2, 0.0)) * float(tau)
        worst_match = max(worst_match, abs(multiphoton_contamination(cfg) - ratio))
        worst_match = max(
            worst_match, abs(multiphoton_contamination(cfg) - 1.5 * math.tanh(x) ** 2)
        )
    verdict(
        10,
        worst_ratio < 1e-3 and worst_match < 1e-8,
        f"P2/P1 peaks at {worst_ratio:.3e} for tau <= 0.01 (bound 1e-3), matches "
        f"(3/2) tanh^2 to {worst_match:.1e} (tol 1e-8)",
    )

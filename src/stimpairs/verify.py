"""Fast self-check suite behind the command line verify subcommand.

Each check exercises one independently derivable fact through the public
API and reports its worst observed error against a pinned tolerance.  The
checks deliberately go through module attribute lookups (resonator.xxx, not a
from-import), so perturbing an implementation, including monkeypatching in a
test, makes the matching check fail by name.

This is the quick gate; the full acceptance suite lives in tests/.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import fock, phase_plate, polarization, resonator, tomography


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    tolerance: float
    worst: float
    runtime_s: float
    detail: str = ""


def _as_result(name, tolerance, worst, t0, detail=""):
    return CheckResult(
        name=name,
        passed=bool(worst <= tolerance),
        tolerance=float(tolerance),
        worst=float(worst),
        runtime_s=time.perf_counter() - t0,
        detail=detail,
    )


def check_oracle_pair_probability() -> CheckResult:
    """Closed-form emission probability against the evolved truncated vacuum."""
    t0 = time.perf_counter()
    worst = 0.0
    for m in (1, 2):
        for n in (1, 2, 3):
            for phi in (0.0, 0.3, math.pi):
                for tau in (0.005, 0.02):
                    cfg = resonator.ResonatorConfig(n, phi, tau)
                    a_tau = resonator.amplitude_sum(n, phi) * tau
                    cutoff = fock.suggest_cutoff(a_tau, floor=2 * m + 4)
                    state = fock.evolve_vacuum(cfg, cutoff)
                    p_oracle = abs(fock.project_entangled(state, m)) ** 2
                    p_closed = resonator.pair_probability_exact(m, cfg)
                    worst = max(worst, abs(p_oracle - p_closed))
    return _as_result("oracle_pair_probability", 1e-8, worst, t0)


def check_closed_form_state() -> CheckResult:
    """Elementwise oracle state against the disentangled closed form."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        for phi in (0.0, 0.3, math.pi):
            for tau in (0.005, 0.02):
                cfg = resonator.ResonatorConfig(n, phi, tau)
                a_tau = resonator.amplitude_sum(n, phi) * tau
                cutoff = fock.suggest_cutoff(a_tau, floor=8)
                evolved = fock.evolve_vacuum(cfg, cutoff)
                closed = fock.disentangled_state(a_tau, cutoff)
                # Both are zero off their stored entries, so the entries of either
                # hold every difference.
                for index in (evolved.indices, closed.indices):
                    worst = max(
                        worst, float(np.abs(evolved._at(index) - closed._at(index)).max())
                    )
    return _as_result("closed_form_state", 1e-8, worst, t0)


def check_su11_algebra() -> CheckResult:
    """Commutators of the pair triple on interior states (cutoff 4).

    L+ comes from fock._pair_terms and L- = (L+)^T; both act on the 15 basis
    states of total occupation <= cutoff - 2, where truncation keeps the algebra.
    """
    t0 = time.perf_counter()
    cutoff = 4
    rows, cols, weights = fock._pair_terms(cutoff)

    def ladder(to, frm, x):
        out = np.zeros_like(x)
        np.add.at(out, to, weights[:, None] * x[frm])
        return out

    lp, lm = functools.partial(ladder, rows, cols), functools.partial(ladder, cols, rows)

    def l0(x):
        return 0.5 * (lm(lp(x)) - lp(lm(x)))

    total = np.indices((cutoff + 1,) * 4).sum(axis=0).ravel()
    x = np.eye(total.size)[:, total <= cutoff - 2]
    d1 = l0(lp(x)) - lp(l0(x)) - lp(x)
    d2 = l0(lm(x)) - lm(l0(x)) + lm(x)
    d3 = lp(lm(x)) - lm(lp(x)) + 2.0 * l0(x)
    worst = max(np.abs(d1).max(), np.abs(d2).max(), np.abs(d3).max())
    return _as_result("su11_algebra", 1e-12, worst, t0)


def check_quadratic_enhancement() -> CheckResult:
    """Small-tau pair probability scales as the squared pass count at phi = 0."""
    t0 = time.perf_counter()
    tau = 1e-3
    base = resonator.pair_probability_approx(1, resonator.ResonatorConfig(1, 0.0, tau))
    worst = 0.0
    for n in range(2, 11):
        ratio = (
            resonator.pair_probability_approx(1, resonator.ResonatorConfig(n, 0.0, tau))
            / base
        )
        worst = max(worst, abs(ratio - n**2) / n**2)
    return _as_result("quadratic_enhancement", 1e-12, worst, t0)


def check_double_pass() -> CheckResult:
    """2 (1 + cos theta) endpoints and the factor-4 two-pass enhancement."""
    t0 = time.perf_counter()
    worst = abs(resonator.double_pass_ratio(0.0) - 4.0)
    worst = max(worst, abs(resonator.double_pass_ratio(math.pi)))
    tau = 1e-3
    ratio = resonator.pair_probability_approx(
        1, resonator.ResonatorConfig(2, 0.0, tau)
    ) / resonator.pair_probability_approx(1, resonator.ResonatorConfig(1, 0.0, tau))
    worst = max(worst, abs(ratio - 4.0))
    return _as_result("double_pass", 1e-9, worst, t0)


def check_optimal_interaction() -> CheckResult:
    """Grid-searched argmax of (M+1)(1-u)^2 u^M against M/(M+2)."""
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 100001)
    worst = 0.0
    for m in range(1, 6):
        values = (m + 1) * (1.0 - grid) ** 2 * grid**m
        u_grid = grid[int(np.argmax(values))]
        worst = max(worst, abs(u_grid - resonator.optimal_u(m)))
    return _as_result("optimal_interaction", 1e-4, worst, t0)


def check_plate_phase() -> CheckResult:
    """Normal-incidence identities and evenness of the plate phases."""
    t0 = time.perf_counter()
    geom = phase_plate.PlateGeometry(
        thickness=3e-3, n_pump=1.53, n_pair=1.51, wavelength_pump=405e-9
    )
    direct = (
        2.0
        * math.pi
        * geom.thickness
        / geom.wavelength_pump
        * (geom.n_pump - geom.n_pair)
    )
    # One array call: alpha = 0, then each tilt followed by its mirror image.
    deltas = phase_plate.relative_phase(geom, np.array([0.0, 0.1, -0.1, 0.25, -0.25, 0.4, -0.4]))
    worst = abs(deltas[0] - direct) / direct
    phi0 = phase_plate.phase_through_plate(405e-9, 1.53, 3e-3, 0.0)
    worst = max(
        worst, abs(phi0 - 2.0 * math.pi * 1.53 * 3e-3 / 405e-9) / phi0
    )
    tilted, mirrored = deltas[1::2], deltas[2::2]
    worst = max(worst, float(np.max(np.abs(tilted - mirrored) / np.abs(tilted))))
    return _as_result("plate_phase", 1e-12, worst, t0)


def check_contamination() -> CheckResult:
    """Double-pair contamination identity P_2 / P_1 = (3/2) tanh^2."""
    t0 = time.perf_counter()
    worst = 0.0
    for tau in (0.001, 0.005, 0.01):
        cfg = resonator.ResonatorConfig(2, 0.0, tau)
        ratio = resonator.pair_probability_exact(2, cfg) / resonator.pair_probability_exact(
            1, cfg
        )
        worst = max(worst, abs(ratio - resonator.multiphoton_contamination(cfg)))
    return _as_result("contamination", 1e-8, worst, t0)


def check_fringe_fit() -> CheckResult:
    """Noiseless fringe fit recovers injected (A, B, C) parameters."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 4.0 * math.pi, 41)
    worst = 0.0
    for a, b, c in ((50.0, 1.0, 0.0), (120.0, 0.7, 2.1), (8.0, 0.25, 4.9)):
        counts = 2.0 * a * (1.0 + b * np.cos(x + c))
        scan = polarization.FringeScan(x=np.arange(x.size, dtype=float), counts=counts, phase=x)
        fit = polarization.fit_fringe(scan)
        worst = max(
            worst,
            abs(fit.amplitude - a) / a,
            abs(fit.visibility - b),
            abs((fit.phase - c + math.pi) % (2.0 * math.pi) - math.pi),
        )
    return _as_result("fringe_fit", 1e-9, worst, t0)


def check_tomography_linear() -> CheckResult:
    """Noiseless linear inversion reproduces the input state exactly."""
    t0 = time.perf_counter()
    worst = 0.0
    singlet = polarization.bell_state()
    for rho in (
        polarization.state_density(singlet),
        polarization.dephasing_noise(singlet, 0.4),
        np.eye(4, dtype=complex) / 4.0,
    ):
        record = tomography.simulate_tomography(rho, shots=1e6, seed=None)
        result = tomography.reconstruct_linear(record)
        worst = max(worst, float(np.abs(result.rho - rho).max()))
    return _as_result("tomography_linear", 1e-10, worst, t0)


def check_dephasing() -> CheckResult:
    """Dephased singlet: fidelity 1 - d/2 and diagonal-basis visibility 1 - d."""
    t0 = time.perf_counter()
    singlet = polarization.bell_state()
    worst = 0.0
    for d in (0.0, 0.1, 0.3, 1.0):
        rho = polarization.dephasing_noise(singlet, d)
        polarization.check_density_matrix(rho)
        worst = max(worst, abs(tomography.fidelity(rho, singlet) - (1.0 - d / 2.0)))
        scan = polarization.simulate_polarization_fringe(
            rho,
            polarization.ArmSetting(pol=math.pi / 4.0),
            np.linspace(0.0, math.pi, 25),
            shots=1.0,
            seed=None,
        )
        if d < 1.0:
            fit = polarization.fit_fringe(scan)
            worst = max(worst, abs(fit.visibility - (1.0 - d)))
        else:
            worst = max(worst, polarization.visibility(scan))
    return _as_result("dephasing", 1e-9, worst, t0)


def check_singlet_invariance() -> CheckResult:
    """Singlet coincidences depend only on the analyzer angle difference."""
    t0 = time.perf_counter()
    rho = polarization.state_density(polarization.bell_state())
    polarization.check_density_matrix(rho)
    rng = np.random.default_rng(20260822)
    a, b, delta = rng.uniform(0.0, 2.0 * math.pi, size=(25, 3)).T
    # One stack: rows 0-24 are the settings (a, b), rows 25-49 the same
    # settings turned by delta.
    stack = polarization._projector_stack(
        polarization._analyzer_states(np.concatenate([a, a + delta])),
        polarization._analyzer_states(np.concatenate([b, b + delta])),
    )
    p = polarization._born_probabilities(rho, stack)
    worst = float(np.abs(p[:25] - p[25:]).max())
    return _as_result("singlet_invariance", 1e-12, worst, t0)


ALL_CHECKS = (
    check_oracle_pair_probability,
    check_closed_form_state,
    check_su11_algebra,
    check_quadratic_enhancement,
    check_double_pass,
    check_optimal_interaction,
    check_plate_phase,
    check_contamination,
    check_fringe_fit,
    check_tomography_linear,
    check_dephasing,
    check_singlet_invariance,
)


def run_checks() -> list[CheckResult]:
    """Run every named check; failures are collected, not raised."""
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            results.append(
                CheckResult(
                    name=check.__name__.removeprefix("check_"),
                    passed=False,
                    tolerance=math.nan,
                    worst=math.inf,
                    runtime_s=0.0,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
    return results

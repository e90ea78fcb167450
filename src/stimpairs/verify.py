"""Fast self-check suite behind the command line verify subcommand.

Each check exercises one independently derivable fact through the public
API and returns its pinned tolerance and its errors, floats and float arrays.
One runner names, times and judges every check: the name is the function's
minus its check_ prefix, the worst error is the maximum over all the errors
(a NaN error makes it NaN, which fails), and a crash is a failed check.  The
checks deliberately go through module attribute lookups (resonator.xxx, not a
from-import), so perturbing an implementation, including monkeypatching in a
test, makes the matching check fail by name.

This is the quick gate; the full acceptance suite lives in tests/.
"""

from __future__ import annotations

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


def check_oracle_pair_probability() -> tuple[float, list]:
    """Closed-form emission probability against the evolved truncated vacuum."""
    errors = []
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
                    errors.append(abs(p_oracle - p_closed))
    return 1e-8, errors


def check_closed_form_state() -> tuple[float, list]:
    """Elementwise oracle state against the disentangled closed form."""
    errors = []
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
                    errors.append(np.abs(evolved._at(index) - closed._at(index)))
    return 1e-8, errors


def _ladder(to, frm, weights, shape):
    """The map y -> out, out[to[k]] += weights[k] y[frm[k]] for each k, on arrays of this 2-d shape.

    np.bincount over the flattened (row, column) keys adds the terms of each
    entry in k order from zero, as np.add.at does, so the sums are bit for bit
    np.add.at's.
    """
    keys = (to[:, None] * shape[1] + np.arange(shape[1])).ravel()
    size = shape[0] * shape[1]
    return lambda y: np.bincount(keys, (weights[:, None] * y[frm]).ravel(), size).reshape(shape)


def check_su11_algebra() -> tuple[float, list]:
    """Commutators of the pair triple on interior states (cutoff 4).

    L+ comes from fock._pair_terms and L- = (L+)^T; both act on the 15 basis
    states of total occupation <= cutoff - 2, where truncation keeps the algebra.
    """
    cutoff = 4
    rows, cols, weights = fock._pair_terms(cutoff)
    total = np.indices((cutoff + 1,) * 4).sum(axis=0).ravel()
    x = np.eye(total.size)[:, total <= cutoff - 2]
    lp, lm = _ladder(rows, cols, weights, x.shape), _ladder(cols, rows, weights, x.shape)

    def l0(y):
        return 0.5 * (lm(lp(y)) - lp(lm(y)))

    d1 = l0(lp(x)) - lp(l0(x)) - lp(x)
    d2 = l0(lm(x)) - lm(l0(x)) + lm(x)
    d3 = lp(lm(x)) - lm(lp(x)) + 2.0 * l0(x)
    return 1e-12, [np.abs(d1), np.abs(d2), np.abs(d3)]


def check_quadratic_enhancement() -> tuple[float, list]:
    """Small-tau pair probability scales as the squared pass count at phi = 0."""
    tau = 1e-3
    base = resonator.pair_probability_approx(1, resonator.ResonatorConfig(1, 0.0, tau))
    errors = []
    for n in range(2, 11):
        ratio = (
            resonator.pair_probability_approx(1, resonator.ResonatorConfig(n, 0.0, tau))
            / base
        )
        errors.append(abs(ratio - n**2) / n**2)
    return 1e-12, errors


def check_double_pass() -> tuple[float, list]:
    """2 (1 + cos theta) endpoints and the factor-4 two-pass enhancement."""
    errors = [
        abs(resonator.double_pass_ratio(0.0) - 4.0),
        abs(resonator.double_pass_ratio(math.pi)),
    ]
    tau = 1e-3
    ratio = resonator.pair_probability_approx(
        1, resonator.ResonatorConfig(2, 0.0, tau)
    ) / resonator.pair_probability_approx(1, resonator.ResonatorConfig(1, 0.0, tau))
    errors.append(abs(ratio - 4.0))
    return 1e-9, errors


def check_optimal_interaction() -> tuple[float, list]:
    """Grid-searched argmax of pair_probability_vs_u, (M+1)(1-u)^2 u^M, against M/(M+2)."""
    grid = np.linspace(0.0, 1.0, 100001)
    errors = []
    for m in range(1, 6):
        u_grid = grid[int(np.argmax(resonator.pair_probability_vs_u(m, grid)))]
        errors.append(abs(u_grid - resonator.optimal_u(m)))
    return 1e-4, errors


def check_plate_phase() -> tuple[float, list]:
    """Normal-incidence identities and evenness of the plate phases."""
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
    phi0 = phase_plate.phase_through_plate(405e-9, 1.53, 3e-3, 0.0)
    tilted, mirrored = deltas[1::2], deltas[2::2]
    return 1e-12, [
        abs(deltas[0] - direct) / direct,
        abs(phi0 - 2.0 * math.pi * 1.53 * 3e-3 / 405e-9) / phi0,
        np.abs(tilted - mirrored) / np.abs(tilted),
    ]


def check_contamination() -> tuple[float, list]:
    """Double-pair contamination identity P_2 / P_1 = (3/2) tanh^2."""
    errors = []
    for tau in (0.001, 0.005, 0.01):
        cfg = resonator.ResonatorConfig(2, 0.0, tau)
        ratio = resonator.pair_probability_exact(2, cfg) / resonator.pair_probability_exact(
            1, cfg
        )
        errors.append(abs(ratio - resonator.multiphoton_contamination(cfg)))
    return 1e-8, errors


def check_fringe_fit() -> tuple[float, list]:
    """Noiseless fringe fit recovers injected (A, B, C) parameters."""
    x = np.linspace(0.0, 4.0 * math.pi, 41)
    errors = []
    for a, b, c in ((50.0, 1.0, 0.0), (120.0, 0.7, 2.1), (8.0, 0.25, 4.9)):
        counts = 2.0 * a * (1.0 + b * np.cos(x + c))
        fit = polarization.fit_fringe(polarization.FringeScan(x, counts))
        errors += [
            abs(fit.amplitude - a) / a,
            abs(fit.visibility - b),
            abs((fit.phase - c + math.pi) % (2.0 * math.pi) - math.pi),
        ]
    return 1e-9, errors


def check_tomography_linear() -> tuple[float, list]:
    """Noiseless linear inversion reproduces the input state exactly."""
    errors = []
    singlet = polarization.bell_state()
    for rho in (
        polarization.state_density(singlet),
        polarization.dephasing_noise(singlet, 0.4),
        np.eye(4, dtype=complex) / 4.0,
    ):
        record = tomography.simulate_tomography(rho, shots=1e6, seed=None)
        result = tomography.reconstruct_linear(record)
        errors.append(np.abs(result.rho - rho))
    return 1e-10, errors


def check_dephasing() -> tuple[float, list]:
    """Dephased singlet: fidelity 1 - d/2 and diagonal-basis visibility 1 - d."""
    singlet = polarization.bell_state()
    errors = []
    for d in (0.0, 0.1, 0.3, 1.0):
        rho = polarization.dephasing_noise(singlet, d)
        polarization.check_density_matrix(rho)
        errors.append(abs(tomography.fidelity(rho, singlet) - (1.0 - d / 2.0)))
        scan = polarization.simulate_polarization_fringe(
            rho,
            polarization.ArmSetting(pol=math.pi / 4.0),
            np.linspace(0.0, math.pi, 25),
            shots=1.0,
            seed=None,
        )
        if d < 1.0:
            fit = polarization.fit_fringe(scan)
            errors.append(abs(fit.visibility - (1.0 - d)))
        else:
            errors.append(polarization.visibility(scan))
    return 1e-9, errors


def check_singlet_invariance() -> tuple[float, list]:
    """Singlet coincidences depend only on the analyzer angle difference."""
    rho = polarization.state_density(polarization.bell_state())
    polarization.check_density_matrix(rho)
    # 25 generic angle triples (a, b, delta), drawn without numpy.random so
    # that verify never imports it: the 3-D golden-ratio sequence
    # 2 pi frac(k / g^j), k = 1..25, j = 1, 2, 3, g the real root of g^4 = g + 1.
    k = np.arange(1.0, 26.0)[:, None]
    a, b, delta = (2.0 * math.pi * (k / 1.2207440846057596 ** np.arange(1.0, 4.0) % 1.0)).T
    # One stack: rows 0-24 are the settings (a, b), rows 25-49 the same
    # settings turned by delta.
    stack = polarization._projector_stack(
        polarization._analyzer_states(np.concatenate([a, a + delta])),
        polarization._analyzer_states(np.concatenate([b, b + delta])),
    )
    p = polarization._born_probabilities(rho, stack)
    return 1e-12, [np.abs(p[:25] - p[25:])]


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


def _run(check) -> CheckResult:
    """Name, time and judge one check.

    np.max propagates NaN, so a NaN error gives worst NaN and fails the check.
    """
    name = check.__name__.removeprefix("check_")
    t0 = time.perf_counter()
    try:
        tolerance, errors = check()
        worst = float(np.max(np.concatenate([np.ravel(e) for e in errors])))
    except Exception as exc:  # a crash is a failed check, not a crashed suite
        return CheckResult(name, False, math.nan, math.inf, 0.0, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, worst <= tolerance, tolerance, worst, time.perf_counter() - t0)


def run_checks() -> list[CheckResult]:
    """Run every named check; failures are collected, not raised."""
    return [_run(check) for check in ALL_CHECKS]

"""Two-qubit polarization layer: analyzers, fringes, dephasing, and rates.

Coincidence amplitudes live in the product basis ordered (HH, HV, VH, VV),
first letter arm a, second letter arm b.  The emitted single-pair state is the
polarization singlet (|HV> - |VH>) / sqrt(2).

Each detection arm is a quarter-wave plate followed by a linear polarizer.
With the fast axis at angle q from horizontal the plate's Jones matrix is
R(q) diag(1, i) R(-q), so the chain transmits the (unit) analyzer state
J(q)^dagger |pol>; right circular means (|H> - i |V>) / sqrt(2) throughout the
package.  Angles are radians everywhere in this module; only the JSON and
command-line layers speak degrees.

Fringes are fit to the model 2 A (1 + B cos(x' + C)) in a phase coordinate
x': twice the polarizer angle for polarizer scans, the raw plate phase for
tilt scans.  B is the fitted visibility and 2 (1 + B) estimates the two-pass
to one-pass rate ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .errors import FitError
from .phase_plate import PlateGeometry, relative_phase, wrap_phase
from .resonator import ResonatorConfig, _p_approx, _p_exact, _scaled_amplitude

BASIS = ("HH", "HV", "VH", "VV")

# Phase flip of arm a's vertical component, diag in the (HH, HV, VH, VV) basis.
_Z_ARM_A = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def bell_state() -> np.ndarray:
    """The polarization singlet (|HV> - |VH>) / sqrt(2) as a 4-vector."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class ArmSetting:
    """One arm's analyzer: polarizer angle, plus quarter-wave plate angle if present.

    qwp None means the plate is removed from the beam, not set to zero.
    """

    pol: float
    qwp: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.pol):
            raise ValueError(f"polarizer angle must be finite, got {self.pol!r}")
        if self.qwp is not None and not math.isfinite(self.qwp):
            raise ValueError(f"qwp angle must be finite, got {self.qwp!r}")


@dataclass(frozen=True)
class MeasurementSetting:
    """Analyzer settings for both arms of one coincidence measurement."""

    arm_a: ArmSetting
    arm_b: ArmSetting


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def quarter_wave(theta: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with fast axis at theta."""
    r = rotation(theta)
    return r @ np.diag([1.0, 1.0j]) @ r.T


def analyzer_state(arm: ArmSetting) -> np.ndarray:
    """Unit Jones vector the analyzer chain transmits.

    Light crosses the plate first, then the polarizer, so the accepted state
    is J(qwp)^dagger |pol>; without the plate it is |pol> itself.
    """
    pol = np.array([math.cos(arm.pol), math.sin(arm.pol)], dtype=complex)
    if arm.qwp is None:
        return pol
    return quarter_wave(arm.qwp).conj().T @ pol


def analyzer_projector(setting: MeasurementSetting) -> np.ndarray:
    """Rank-one coincidence projector Pi_a otimes Pi_b in the (HH, HV, VH, VV) basis."""
    ua = analyzer_state(setting.arm_a)
    ub = analyzer_state(setting.arm_b)
    proj_a = np.outer(ua, ua.conj())
    proj_b = np.outer(ub, ub.conj())
    return np.kron(proj_a, proj_b)


def state_density(state: np.ndarray) -> np.ndarray:
    """|psi><psi| for a 4-amplitude pure state; also accepts a 4x4 density matrix."""
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (4, 4):
        check_density_matrix(arr)
        return arr
    if arr.shape != (4,):
        raise ValueError(f"expected 4 amplitudes or a 4x4 matrix, got shape {arr.shape}")
    nrm = np.linalg.norm(arr)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"pure state must be normalized, got norm {nrm!r}")
    return np.outer(arr, arr.conj())


def check_density_matrix(rho: np.ndarray, atol: float = 1e-8) -> None:
    """Reject anything that is not Hermitian, unit trace, and positive to atol."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.real)) or not np.all(np.isfinite(rho.imag)):
        raise ValueError("density matrix contains non-finite entries")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > atol:
        raise ValueError(f"density matrix is not Hermitian (defect {herm:.3e})")
    tr = rho.trace()
    if abs(tr - 1.0) > atol:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if evals.min() < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")


def _born_probabilities(rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """Tr(rho Pi_k) for a (k, 4, 4) projector stack, in one einsum.

    rho must already be validated (state_density or check_density_matrix).
    """
    p = np.real(np.einsum("ab,kba->k", rho, projectors))
    # Exactly zero probabilities round to tiny negatives; clip, do not hide bugs.
    if p.min() < -1e-10:
        raise ValueError(f"projector expectation {float(p.min())!r} is negative beyond tolerance")
    return p.clip(0.0, 1.0)


def coincidence_probability(rho: np.ndarray, setting: MeasurementSetting) -> float:
    """Born-rule coincidence probability Tr(rho Pi_a otimes Pi_b)."""
    rho = np.asarray(rho, dtype=complex)
    check_density_matrix(rho)
    return float(_born_probabilities(rho, analyzer_projector(setting)[None])[0])


def dephasing_noise(state: np.ndarray, d: float) -> np.ndarray:
    """Suppress the HV/VH coherences by (1 - d), keeping populations fixed.

    Implemented as a phase flip of arm a with probability d/2,
    rho -> (1 - d/2) rho + (d/2) Z_a rho Z_a, which is completely positive for
    d in [0, 1], so the output is physical by construction.  d = 0 is the
    identity; d = 1 leaves the classical HV/VH mixture with its perfect
    anticorrelation but no phase coherence.
    """
    if not (0.0 <= d <= 1.0):
        raise ValueError(f"dephasing strength d must lie in [0, 1], got {d!r}")
    rho = state_density(state)
    return (1.0 - d / 2.0) * rho + (d / 2.0) * (_Z_ARM_A @ rho @ _Z_ARM_A)


# ----- Fringe scans and the sinusoidal fit -----


@dataclass(frozen=True)
class FringeScan:
    """One scan of coincidence counts against a control variable.

    x is the scanned control (polarizer angle, tilt angle); phase, when
    present, is the matching phase coordinate the fit model consumes.
    """

    x: np.ndarray
    counts: np.ndarray
    phase: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if x.ndim != 1 or x.shape != counts.shape:
            raise ValueError(
                f"x and counts must be matching 1-d arrays, got {x.shape} and {counts.shape}"
            )
        if x.size < 2:
            raise ValueError("a scan needs at least 2 points")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(counts)):
            raise ValueError("scan contains non-finite values")
        dx = np.diff(x)
        if not (np.all(dx > 0) or np.all(dx < 0)):
            raise ValueError("scan variable must be strictly monotone")
        if counts.min() < 0:
            raise ValueError(f"counts must be non-negative, got min {counts.min()!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "counts", counts)
        if self.phase is not None:
            phase = np.asarray(self.phase, dtype=float)
            if phase.shape != x.shape or not np.all(np.isfinite(phase)):
                raise ValueError("phase coordinate must match x and be finite")
            object.__setattr__(self, "phase", phase)


@dataclass(frozen=True)
class FitResult:
    """Fitted 2 A (1 + B cos(x' + C)) parameters with covariance.

    visibility is B; p2_over_p1 is the inferred two-pass enhancement
    2 (1 + B).  covariance is the 3x3 matrix over (A, B, C) from the final
    Jacobian; residual_norm is the root sum of squared residuals.
    """

    amplitude: float
    visibility: float
    phase: float
    covariance: np.ndarray = field(compare=False)
    residual_norm: float

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (3, 3):
            raise ValueError(f"covariance must be 3x3, got {cov.shape}")
        object.__setattr__(self, "covariance", cov)

    @property
    def p2_over_p1(self) -> float:
        return 2.0 * (1.0 + self.visibility)

    def to_dict(self) -> dict:
        return {
            "A": self.amplitude,
            "B": self.visibility,
            "C": self.phase,
            "cov": self.covariance.tolist(),
            "residual": self.residual_norm,
            "visibility": self.visibility,
            "p2_over_p1": self.p2_over_p1,
        }


def _fringe_model(params: np.ndarray, x: np.ndarray) -> np.ndarray:
    a, b, c = params
    return 2.0 * a * (1.0 + b * np.cos(x + c))


def fit_fringe(scan: FringeScan) -> FitResult:
    """Damped least-squares fit of 2 A (1 + B cos(x' + C)) to a scan.

    Seeds A from half the mean count and B from the raw visibility, and
    multi-starts the phase over {0, pi/2, pi, 3pi/2} to dodge the cosine's
    local minima.  The result is canonicalized to B in [0, 1] (noisy
    estimates above 1 are clamped) and C in [0, 2 pi).  Raises FitError when
    the scan is too short, spans less than half a period, no start converges,
    or the parameters are degenerate (constant data leaves C undetermined).

    2(1 + B) estimates the double-pass over single-pass rate ratio; the ideal
    value is 4.  Experimental reference points from a tabletop run of this
    scheme, not reproduction targets: 2.7 +/- 0.1 from the fitted fringe and
    3.4 +/- 0.1 from directly compared count rates, the shortfall from 4
    being attributed to imperfect spatial overlap between the two passes.
    """
    x = scan.phase if scan.phase is not None else scan.x
    counts = scan.counts
    if x.size < 8:
        raise FitError(f"need at least 8 points to fit, got {x.size}")
    if (x.max() - x.min()) <= math.pi:
        raise FitError(
            f"scan spans {x.max() - x.min():.3f} rad of phase, need more than pi"
        )
    mean = counts.mean()
    if mean <= 0.0:
        raise FitError("all counts are zero, nothing to fit")
    a0 = mean / 2.0
    cmax, cmin = counts.max(), counts.min()
    b0 = (cmax - cmin) / (cmax + cmin) if cmax > 0 else 0.0
    b0 = min(max(b0, 1e-3), 1.0)

    best = None
    for c0 in (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi):
        try:
            res = least_squares(
                lambda p: _fringe_model(p, x) - counts,
                x0=np.array([a0, b0, c0]),
                method="lm",
                xtol=1e-14,
                ftol=1e-14,
                gtol=1e-14,
                max_nfev=20000,
            )
        except Exception as exc:  # MINPACK can raise on hard degeneracies
            raise FitError(f"least-squares backend failed: {exc}") from exc
        if res.success and (best is None or res.cost < best.cost):
            best = res
    if best is None:
        raise FitError("no fit start converged")

    a, b, c = best.x
    if a <= 0.0:
        raise FitError(f"fitted amplitude {a!r} is not positive")
    if b < 0.0:
        b, c = -b, c + math.pi

    jtj = best.jac.T @ best.jac
    # Constant data fits with B = 0 and an arbitrary C; the Jacobian column
    # for C collapses and the covariance blows up. Reject rather than report.
    if not np.all(np.isfinite(jtj)) or np.linalg.cond(jtj) > 1e12:
        raise FitError("fit parameters are degenerate (flat or constant scan)")
    dof = max(x.size - 3, 1)
    s2 = 2.0 * best.cost / dof
    cov = np.linalg.inv(jtj) * s2
    return FitResult(
        amplitude=float(a),
        visibility=float(min(b, 1.0)),
        phase=float(wrap_phase(c)),
        covariance=cov,
        residual_norm=float(math.sqrt(2.0 * best.cost)),
    )


def visibility(obj) -> float:
    """Fringe visibility: B from a fit, (max - min)/(max + min) from a raw scan.

    Experimental reference points measured on a tabletop pair source of this
    kind, for orientation rather than reproduction: 0.94 +/- 0.02 in the H/V
    basis, 0.70 +/- 0.03 in the diagonal basis, 0.74 +/- 0.04 in the
    circular basis.
    """
    if isinstance(obj, FitResult):
        return obj.visibility
    if isinstance(obj, FringeScan):
        cmax, cmin = obj.counts.max(), obj.counts.min()
        if cmax <= 0.0:
            raise ValueError("scan has no counts, visibility undefined")
        return float((cmax - cmin) / (cmax + cmin))
    raise TypeError(f"expected FringeScan or FitResult, got {type(obj).__name__}")


# ----- Simulated data -----


def _draw_counts(means: np.ndarray, seed: int | None) -> np.ndarray:
    """Poisson counts under a fixed seed; seed None returns the exact means."""
    if seed is None:
        return means
    rng = np.random.default_rng(seed)
    return rng.poisson(means).astype(float)


def simulate_polarization_fringe(
    rho: np.ndarray,
    arm_b: ArmSetting,
    pol_a_angles,
    shots: float,
    seed: int | None = None,
    arm_a_qwp: float | None = None,
) -> FringeScan:
    """Scan arm a's polarizer against a fixed arm b analyzer.

    Counts are Poisson draws around shots * probability (exact expected
    counts when seed is None).  The phase coordinate is twice the polarizer
    angle, the natural period of a polarization fringe.
    """
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots!r}")
    angles = np.asarray(list(pol_a_angles), dtype=float)
    if angles.ndim != 1 or angles.size < 2:
        raise ValueError("need a 1-d list of at least 2 polarizer angles")
    rho = state_density(rho)
    projectors = np.stack(
        [analyzer_projector(MeasurementSetting(ArmSetting(a, arm_a_qwp), arm_b)) for a in angles]
    )
    counts = _draw_counts(shots * _born_probabilities(rho, projectors), seed)
    return FringeScan(x=angles, counts=counts, phase=2.0 * angles)


def simulate_stimulation_fringe(
    geom: PlateGeometry,
    cfg: ResonatorConfig,
    alphas,
    shots: float,
    seed: int | None = None,
    phi_offset: float | None = None,
    model: str = "exact",
) -> FringeScan:
    """Tilt-scan fringe: plate tilt sweeps the inter-pass phase of the resonator.

    Each tilt alpha sets phi = delta(alpha) + phi_offset in the pass-summed
    pair probability (single pair, cfg's pass count and tau).  The default
    phi_offset places alpha = 0 on a fringe maximum.  model "exact" uses the
    full tanh/cosh probability, "approx" the small-tau limit whose maximum to
    single-pass ratio is exactly 4 for two passes.  The phase coordinate of
    the returned scan is the actual resonator phase, so a fit's C lands on 0
    mod 2 pi for the ideal noiseless fringe.
    """
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots!r}")
    if model not in ("exact", "approx"):
        raise ValueError(f"model must be 'exact' or 'approx', got {model!r}")
    alphas = np.asarray(list(alphas), dtype=float)
    if alphas.ndim != 1 or alphas.size < 2:
        raise ValueError("need a 1-d list of at least 2 tilt angles")
    if phi_offset is None:
        phi_offset = -relative_phase(geom, 0.0)
    phases = relative_phase(geom, alphas) + phi_offset
    x = _scaled_amplitude(cfg.n_passes, wrap_phase(phases), cfg.tau)
    probs = _p_exact(1, x) if model == "exact" else _p_approx(1, x)
    counts = _draw_counts(shots * probs, seed)
    return FringeScan(x=alphas, counts=counts, phase=phases)


# ----- Raw count-rate arithmetic -----


def pair_rate(singles: float, coincidences: float) -> float:
    """Stimulated pair rate estimate singles^2 / coincidences."""
    return nth_order_rate(singles, coincidences, 2)


def nth_order_rate(singles: float, coincidences: float, order: int) -> float:
    """n-photon generalization singles^n / coincidences of the pair-rate formula."""
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if not (math.isfinite(singles) and singles >= 0.0):
        raise ValueError(f"singles rate must be non-negative, got {singles!r}")
    if not (math.isfinite(coincidences) and coincidences > 0.0):
        raise ValueError(
            f"coincidence rate must be positive, got {coincidences!r}"
        )
    return singles**order / coincidences

"""Two-qubit polarization layer: analyzers, fringes, dephasing, and the pair rate.

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

from .errors import FitError, finite, positive_float
from .phase_plate import PlateGeometry, _wrap, relative_phase
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
        finite(self.pol, "polarizer angle")
        if self.qwp is not None:
            finite(self.qwp, "qwp angle")


@dataclass(frozen=True)
class MeasurementSetting:
    """Analyzer settings for both arms of one coincidence measurement."""

    arm_a: ArmSetting
    arm_b: ArmSetting


def _analyzer_states(pol, qwp=None) -> np.ndarray:
    """(k, 2) analyzer states J(qwp)^dagger |pol> for arrays of angles; qwp None: no plate.

    With c, s = cos qwp, sin qwp the plate R(qwp) diag(1, i) R(-qwp) is
    [[c^2 + i s^2, cs (1 - i)], [cs (1 - i), s^2 + i c^2]], so the state is
    ((c^2 - i s^2) cos pol + cs (1 + i) sin pol,
     cs (1 + i) cos pol + (s^2 - i c^2) sin pol),
    written out entry by entry instead of one 2x2 matrix product per angle.
    A scalar qwp applies to every polarizer angle.  Angles must already be
    finite.
    """
    cp, sp = np.cos(pol), np.sin(pol)
    if qwp is None:
        states = np.zeros(np.shape(cp) + (2,), dtype=complex)
        states.real[..., 0], states.real[..., 1] = cp, sp
        return states
    c, s = np.cos(qwp), np.sin(qwp)
    cc, ss, cs = c * c, s * s, c * s
    re_h = cc * cp + cs * sp
    states = np.empty(re_h.shape + (2,), dtype=complex)
    states.real[..., 0] = re_h
    states.real[..., 1] = cs * cp + ss * sp
    states.imag[..., 0] = cs * sp - ss * cp
    states.imag[..., 1] = cs * cp - cc * sp
    return states


def _arm_states(arms) -> np.ndarray:
    """(k, 2) analyzer states of a sequence of ArmSettings, with or without plates."""
    pol = np.array([arm.pol for arm in arms], dtype=float)
    states = _analyzer_states(pol)
    plated = [i for i, arm in enumerate(arms) if arm.qwp is not None]
    if plated:
        qwp = np.array([arms[i].qwp for i in plated], dtype=float)
        states[plated] = _analyzer_states(pol[plated], qwp)
    return states


def _projector_stack(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """(k, 4, 4) coincidence projectors |ua ub><ua ub| from (k, 2) arm states.

    Either arm may hold a single (1, 2) state shared by every row.  Entries
    are Pi_a[i, j] Pi_b[m, n], the products np.kron forms, in the
    (HH, HV, VH, VV) basis.
    """
    pa = ua[:, :, None] * ua.conj()[:, None, :]
    pb = ub[:, :, None] * ub.conj()[:, None, :]
    return (pa[:, :, None, :, None] * pb[:, None, :, None, :]).reshape(-1, 4, 4)


def analyzer_state(arm: ArmSetting) -> np.ndarray:
    """Unit Jones vector the analyzer chain transmits.

    Light crosses the plate first, then the polarizer, so the accepted state
    is J(qwp)^dagger |pol>; without the plate it is |pol> itself.
    """
    return _arm_states([arm])[0]


def analyzer_projector(setting: MeasurementSetting) -> np.ndarray:
    """Rank-one coincidence projector Pi_a otimes Pi_b in the (HH, HV, VH, VV) basis."""
    return _projector_stack(_arm_states([setting.arm_a]), _arm_states([setting.arm_b]))[0]


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
    2 (1 + B).  covariance is the 3x3 matrix over (A, B, C) from the
    analytic Jacobian at the solution; residual_norm is the root sum of
    squared residuals.
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


def fit_fringe(scan: FringeScan) -> FitResult:
    """Least-squares fit of 2 A (1 + B cos(x' + C)) to a scan, in one linear solve.

    With x' known the model is alpha + beta cos x' + gamma sin x', with
    alpha = 2 A, beta = 2 A B cos C and gamma = -2 A B sin C, so one
    np.linalg.lstsq on the columns [1, cos x', sin x'] finds the global
    least-squares minimum (the known-frequency three-parameter sine fit of
    IEEE Std 1057).  Then A = alpha / 2, B = hypot(beta, gamma) / alpha >= 0
    and C = atan2(-gamma, beta) wrapped to [0, 2 pi); B above 1 (noise) is
    reported as 1.  covariance is inv(J^T J) s^2, with J the analytic
    Jacobian of the model in (A, B, C) at the solution (unclamped B) and
    s^2 the residual sum of squares over n - 3.  Raises FitError when the
    scan is too short, spans less than half a period, has no counts or a
    non-positive A, or when cond(J^T J) > 1e12 (constant data leaves C
    undetermined).

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
    if counts.mean() <= 0.0:
        raise FitError("all counts are zero, nothing to fit")

    design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    alpha, beta, gamma = coef
    a = alpha / 2.0
    if a <= 0.0:
        raise FitError(f"fitted amplitude {a!r} is not positive")
    b = math.hypot(beta, gamma) / alpha
    c = math.atan2(-gamma, beta)
    resid = counts - design @ coef
    rss = float(resid @ resid)

    cos_xc, sin_xc = np.cos(x + c), np.sin(x + c)
    jac = np.column_stack([2.0 * (1.0 + b * cos_xc), 2.0 * a * cos_xc, -2.0 * a * b * sin_xc])
    jtj = jac.T @ jac
    # Constant data fits with B = 0 and an arbitrary C; the Jacobian column
    # for C collapses and the covariance blows up. Reject rather than report.
    if not np.all(np.isfinite(jtj)) or np.linalg.cond(jtj) > 1e12:
        raise FitError("fit parameters are degenerate (flat or constant scan)")
    cov = np.linalg.inv(jtj) * (rss / (x.size - 3))
    return FitResult(
        amplitude=float(a),
        visibility=float(min(b, 1.0)),
        phase=float(_wrap(c)),
        covariance=cov,
        residual_norm=math.sqrt(rss),
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
    shots = positive_float(shots, "shots")
    angles = np.asarray(list(pol_a_angles), dtype=float)
    if angles.ndim != 1 or angles.size < 2:
        raise ValueError("need a 1-d list of at least 2 polarizer angles")
    finite(angles, "polarizer angle")
    if arm_a_qwp is not None:
        finite(arm_a_qwp, "qwp angle")
    rho = state_density(rho)
    projectors = _projector_stack(_analyzer_states(angles, arm_a_qwp), _arm_states([arm_b]))
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
    shots = positive_float(shots, "shots")
    if model not in ("exact", "approx"):
        raise ValueError(f"model must be 'exact' or 'approx', got {model!r}")
    alphas = np.asarray(list(alphas), dtype=float)
    if alphas.ndim != 1 or alphas.size < 2:
        raise ValueError("need a 1-d list of at least 2 tilt angles")
    if phi_offset is None:
        phi_offset = -relative_phase(geom, 0.0)
    # delta(alpha) is bounded, so finite tilts and a finite offset give finite phases.
    phases = relative_phase(geom, alphas) + finite(phi_offset, "phase")
    x = _scaled_amplitude(cfg.n_passes, _wrap(phases), cfg.tau)
    probs = _p_exact(1, x) if model == "exact" else _p_approx(1, x)
    counts = _draw_counts(shots * probs, seed)
    return FringeScan(x=alphas, counts=counts, phase=phases)


# ----- Raw count-rate arithmetic -----


def pair_rate(singles: float, coincidences: float) -> float:
    """Pair rate estimate singles^2 / coincidences, for equal singles in both arms.

    With detection efficiency eta in each arm, a pair rate R gives singles
    eta R and coincidences eta^2 R, so the estimate is R whatever eta is
    (Klyshko, Sov. J. Quantum Electron. 10, 1112 (1980)).  A rate past the
    float range is a FloatingPointError, never inf.
    """
    if not (math.isfinite(singles) and singles >= 0.0):
        raise ValueError(f"singles rate must be non-negative, got {singles!r}")
    positive_float(coincidences, "coincidence rate")
    try:
        rate = singles**2 / coincidences
    except OverflowError:  # singles**2 is past the float range
        rate = math.inf
    if math.isinf(rate):
        raise FloatingPointError(f"rate {singles!r}**2 / {coincidences!r} overflows a float")
    return rate

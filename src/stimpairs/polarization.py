"""Two-qubit polarization layer: analyzers, fringes and dephasing.

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
x': twice the polarizer angle for polarizer scans, the plate phase relative to
zero tilt, delta(alpha) - delta(0), for tilt scans.  B is the fitted
visibility and 2 (1 + B) estimates the two-pass to one-pass rate ratio.

A polarizer scan builds its (k, 4, 4) projector stack on every call, in one
array pass from its own angles; a settings list, in tomography or one
analyzer_projector, gets its stack from _projectors.  A tilt scan reads its
strengths x = |A(N, phi)| tau from resonator._strengths, the function every
rate reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, finite, positive_float
from .phase_plate import PlateGeometry, _wrap, relative_phase
from .resonator import ResonatorConfig, _p_approx, _p_exact, _strengths

# Phase flip of arm a's vertical component, diag in the (HH, HV, VH, VV) basis.
_Z_ARM_A = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def bell_state() -> np.ndarray:
    """The polarization singlet (|HV> - |VH>) / sqrt(2) as a 4-vector."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def _scalar_angle(value, what: str) -> float:
    """A finite scalar angle as a Python float; any other shape raises ValueError.

    Stored as a float, a setting's angle gives the same float64 analyzer
    state whatever dtype it came in.
    """
    angle = finite(value, what)
    if angle.ndim != 0:
        raise ValueError(f"{what} must be a scalar, got shape {angle.shape}")
    return float(angle)


@dataclass(frozen=True)
class ArmSetting:
    """One arm's analyzer: polarizer angle, plus quarter-wave plate angle if present.

    qwp None means the plate is removed from the beam, not set to zero.
    """

    pol: float
    qwp: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "pol", _scalar_angle(self.pol, "polarizer angle"))
        if self.qwp is not None:
            object.__setattr__(self, "qwp", _scalar_angle(self.qwp, "qwp angle"))


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
    """(k, 2) analyzer states of a sequence of ArmSettings, with or without plates.

    Each row is the unit Jones vector its analyzer chain transmits.  Light
    crosses the plate first, then the polarizer, so the accepted state is
    J(qwp)^dagger |pol>; without the plate it is |pol> itself.
    """
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


def _projectors(settings) -> np.ndarray:
    """The (k, 4, 4) projector stack of a settings list, built in one array
    pass over the settings' angles."""
    return _projector_stack(
        _arm_states([s.arm_a for s in settings]), _arm_states([s.arm_b for s in settings])
    )


def analyzer_projector(setting: MeasurementSetting) -> np.ndarray:
    """Rank-one coincidence projector Pi_a otimes Pi_b in the (HH, HV, VH, VV) basis."""
    return _projectors([setting])[0]


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


def check_density_matrix(rho: np.ndarray) -> None:
    """Reject anything that is not Hermitian, unit trace, and positive to atol = 1e-8."""
    atol = 1e-8
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    # A complex entry is finite when both its parts are: one count covers both.
    if np.count_nonzero(np.isfinite(rho)) != rho.size:
        raise ValueError("density matrix contains non-finite entries")
    adjoint = rho.conj().T
    herm = np.abs(rho - adjoint).max()
    if herm > atol:
        raise ValueError(f"density matrix is not Hermitian (defect {herm:.3e})")
    tr = rho.trace()
    if abs(tr - 1.0) > atol:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1")
    evals = np.linalg.eigvalsh((rho + adjoint) / 2.0)
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

# The range of n S^2, for n counts up to S, in which fit_fringe fits.  Its
# sums of squares (J^T J, the residual sum) stay below about n S^2, so the top
# lies 2^10 under the largest float.  The covariance inverts J^T J, whose
# smallest singular value the degeneracy rule lets lie 1e12 under its largest,
# so the bottom lies 1e12 * 2^10 over the smallest normal float.
_SQUARES = (1e12 * 2**10 * np.finfo(float).tiny, np.finfo(float).max / 2**10)


@dataclass(frozen=True)
class FringeScan:
    """One scan of coincidence counts against the phase coordinate the fit reads.

    phase is x' of the fit model (twice the polarizer angle, or the tilt
    scan's delta(alpha) - delta(0)), in any order: a tilt scan across
    alpha = 0 runs down and back up again.  The scanned control itself is
    the caller's to keep.
    """

    phase: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        phase = np.asarray(self.phase, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if phase.ndim != 1 or phase.shape != counts.shape:
            raise ValueError(
                f"phase and counts must be matching 1-d arrays, "
                f"got {phase.shape} and {counts.shape}"
            )
        if phase.size < 2:
            raise ValueError("a scan needs at least 2 points")
        if np.count_nonzero(np.isfinite(phase) & np.isfinite(counts)) != phase.size:
            raise ValueError("scan contains non-finite values")
        if counts.min() < 0:
            raise ValueError(f"counts must be non-negative, got min {counts.min()!r}")
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "counts", counts)


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
    scan is too short or spans less than half a period, when its counts are
    all zero or their scale is out of range, when A is not positive, or when
    J^T J in (ln A, B, C), free of the count scale, has condition number
    above 1e12 (constant data leaves C undetermined).

    The count scale is judged before any arithmetic: with n counts up to S,
    n S^2 must lie in _SQUARES, from 1e12 * 2^10 times the smallest normal
    float to 2^10 under the largest.  Above, the sums of squares would
    overflow; below, J^T J would underflow and its inverse overflow.  A
    40-point scan fits with its largest count from about 8e-148 to 7e151.
    The fitted scale is judged the same way before J is formed: every entry
    of J, in (A, B, C) and in (ln A, B, C), is at most 2 (1 + B) max(1, A),
    the fitted fringe's peak when A >= 1.  It passes S only where the phases
    bunch so tightly that the linear solve amplifies the counts, and past the
    top of the range such a scan is refused as overflow.  No fit raises a
    floating-point warning.

    2(1 + B) estimates the double-pass over single-pass rate ratio; the ideal
    value is 4.  Experimental reference points from a tabletop run of this
    scheme, not reproduction targets: 2.7 +/- 0.1 from the fitted fringe and
    3.4 +/- 0.1 from directly compared count rates, the shortfall from 4
    being attributed to imperfect spatial overlap between the two passes.
    """
    x, counts = scan.phase, scan.counts
    if x.size < 8:
        raise FitError(f"need at least 8 points to fit, got {x.size}")
    if (x.max() - x.min()) <= math.pi:
        raise FitError(
            f"scan spans {x.max() - x.min():.3f} rad of phase, need more than pi"
        )
    _judge_scale(float(counts.max()), x.size, "counts")
    design = np.empty((x.size, 3))
    design[:, 0], design[:, 1], design[:, 2] = 1.0, np.cos(x), np.sin(x)
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    alpha, beta, gamma = coef.tolist()
    a = alpha / 2.0
    if a <= 0.0:
        raise FitError(f"fitted amplitude {a!r} is not positive")
    b = math.hypot(beta, gamma) / alpha
    c = math.atan2(-gamma, beta)
    _judge_scale(2.0 * (1.0 + b) * max(1.0, a), x.size, "fitted counts")
    resid = counts - design @ coef
    rss = float(resid @ resid)

    cos_xc, sin_xc = np.cos(x + c), np.sin(x + c)
    jac = np.empty((x.size, 3))
    jac[:, 0] = 2.0 * (1.0 + b * cos_xc)
    jac[:, 1], jac[:, 2] = 2.0 * a * cos_xc, -2.0 * a * b * sin_xc
    jtj = jac.T @ jac
    if _degenerate(jtj, a):
        raise FitError("fit parameters are degenerate (flat or constant scan)")
    cov = np.linalg.inv(jtj) * (rss / (x.size - 3))
    return FitResult(
        amplitude=float(a),
        visibility=float(min(b, 1.0)),
        phase=float(_wrap(c)),
        covariance=cov,
        residual_norm=math.sqrt(rss),
    )


def _judge_scale(top: float, n: int, what: str) -> None:
    """FitError unless n top^2 lies in _SQUARES, top bounding n values the fit squares."""
    squares = top * top * n  # Python floats: inf or 0 past the range, no warning
    if not _SQUARES[0] <= squares <= _SQUARES[1]:
        end = "overflow" if squares > _SQUARES[1] else "underflow"
        why = f"{what} up to {top:.3g} {end} the fit's sums of squares"
        raise FitError(why if top > 0.0 else "all counts are zero, nothing to fit")


def _degenerate(jtj: np.ndarray, a: float) -> bool:
    """fit_fringe's degeneracy verdict on J^T J in (A, B, C) at amplitude a.

    Constant data fits with B = 0 and an arbitrary C; the Jacobian column
    for C collapses and the covariance blows up, so such a fit is rejected
    rather than reported.  J^T J is judged in (ln A, B, C), whose columns
    all scale as A: degenerate when it has a non-finite entry or a condition
    number above 1e12.  The condition number is np.linalg.cond's, largest
    over smallest singular value, inf where the smallest is 0 or NaN (J^T J
    scaled past the float range).  fit_fringe's scale rule keeps its J^T J
    finite; the non-finite branch guards direct callers.
    """
    if np.count_nonzero(np.isfinite(jtj)) != jtj.size:
        return True
    scale = np.outer([a, 1.0, 1.0], [a, 1.0, 1.0])
    top, _, low = np.linalg.svd(jtj * scale, compute_uv=False).tolist()
    return not low > 0.0 or top / low > 1e12


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
    try:
        return rng.poisson(means).astype(float)
    except ValueError:  # numpy draws no Poisson count with a mean past about 9.2e18
        raise ValueError(
            f"mean count {means.max():.3g} is too large for a Poisson draw; "
            "lower the shots or drop the seed"
        ) from None


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
        arm_a_qwp = finite(arm_a_qwp, "qwp angle")
    rho = state_density(rho)
    projectors = _projector_stack(
        _analyzer_states(angles, arm_a_qwp), _analyzer_states(np.array([arm_b.pol]), arm_b.qwp)
    )
    counts = _draw_counts(shots * _born_probabilities(rho, projectors), seed)
    return FringeScan(phase=2.0 * angles, counts=counts)


def simulate_stimulation_fringe(
    geom: PlateGeometry,
    cfg: ResonatorConfig,
    alphas,
    shots: float,
    seed: int | None = None,
    model: str = "exact",
) -> FringeScan:
    """Tilt-scan fringe: plate tilt sweeps the inter-pass phase of the resonator.

    Each tilt alpha sets phi = delta(alpha) - delta(0) in the pass-summed
    pair probability (single pair, cfg's pass count and tau), which places
    alpha = 0 on a fringe maximum.  model "exact" uses the full tanh/cosh
    probability, "approx" the small-tau limit whose maximum to single-pass
    ratio is exactly 4 for two passes.  The scan's phase coordinate is that
    resonator phase phi, in the order of alphas, so a fit's C lands on 0 mod
    2 pi for the ideal noiseless fringe.
    """
    shots = positive_float(shots, "shots")
    if model not in ("exact", "approx"):
        raise ValueError(f"model must be 'exact' or 'approx', got {model!r}")
    alphas = np.asarray(list(alphas), dtype=float)
    if alphas.ndim != 1 or alphas.size < 2:
        raise ValueError("need a 1-d list of at least 2 tilt angles")
    # delta(alpha) is bounded, so finite tilts give finite phases.
    phases = relative_phase(geom, alphas) - relative_phase(geom, 0.0)
    x = _strengths((cfg.n_passes,), phases, cfg.tau)[0]
    probs = _p_exact(1, x) if model == "exact" else _p_approx(1, x)
    counts = _draw_counts(shots * probs, seed)
    return FringeScan(phase=phases, counts=counts)


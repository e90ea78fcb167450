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

Fringes are fit to a K-harmonic series 2 A (1 + sum_k r_k cos(k x' + C_k)),
k = 1..K, in a phase coordinate x': twice the polarizer angle for polarizer
scans, the plate phase relative to zero tilt, delta(alpha) - delta(0), for
tilt scans.  A polarizer fringe, and the tilt fringe of two passes, take
K = 1, the model 2 A (1 + B cos(x' + C)): B is the fitted visibility, clamped
at 1 there and only there, and 2 (1 + B) estimates the two-pass to one-pass
rate ratio.  The tilt fringe of N passes takes K = N - 1, and its enhancement
is N times the fitted curve's peak over its mean.

Simulated coincidence counts come from a source: a map from the (k, 2)
analyzer-state stacks (ua, ub) of arms a and b, either of which may be
(1, 2), to the mean count per shot of each analyzer pair.  The simulators
draw shots times a source's means, for a fringe here and for a record in
tomography.  A state is the source _born_source makes of it, the Born rule
Tr(rho Pi_k); a source that is not a state (threshold clicks, a seeded
background) needs no branch in either simulator.

A state's source builds the (k, 4, 4) projector stack of its (ua, ub) on
every call, in one array pass; a settings list, for tomography's
reconstruction or one analyzer_projector, gets its stack from _projectors.
A tilt scan reads its strengths x = |A(N, phi)| tau from
resonator._strengths, the function every rate reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, _real, finite, positive_float, positive_int, real
from .phase_plate import PlateGeometry, _wrap, relative_phase
from .resonator import ResonatorConfig, _p_approx, _p_exact, _strengths

# Phase flip of arm a's vertical component, diag in the (HH, HV, VH, VV) basis.
_Z_ARM_A = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def bell_state() -> np.ndarray:
    """The polarization singlet (|HV> - |VH>) / sqrt(2) as a 4-vector."""
    return np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class ArmSetting:
    """One arm's analyzer: polarizer angle, plus quarter-wave plate angle if present.

    qwp None means the plate is removed from the beam, not set to zero.
    Each angle is stored as the Python float errors.real makes of it, so a
    setting gives the same float64 analyzer state whatever dtype it came in.
    """

    pol: float
    qwp: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "pol", real(self.pol, "polarizer angle"))
        if self.qwp is not None:
            object.__setattr__(self, "qwp", real(self.qwp, "qwp angle"))


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


def _setting_states(settings) -> tuple:
    """(ua, ub), the (k, 2) analyzer states of a settings list's arms a and b."""
    return _arm_states([s.arm_a for s in settings]), _arm_states([s.arm_b for s in settings])


def _projectors(settings) -> np.ndarray:
    """The (k, 4, 4) projector stack of a settings list, built in one array
    pass over the settings' angles."""
    return _projector_stack(*_setting_states(settings))


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


def _born_source(rho: np.ndarray):
    """The source of a state: rho validated once (state_density), then the map
    (ua, ub) -> Tr(rho Pi_k) on _projector_stack(ua, ub), the Born rule."""
    rho = state_density(rho)
    return lambda ua, ub: _born_probabilities(rho, _projector_stack(ua, ub))


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
    _real(d, "dephasing strength d", lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]")
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
    """Fitted 2 A (1 + sum_k r_k cos(k x' + C_k)), k = 1..K, with covariance.

    harmonics holds (r_k, C_k) for k = 1..K, each C_k in [0, 2 pi).  At
    K = 1 the model is 2 A (1 + B cos(x' + C)): visibility is B = r_1,
    reported as 1 where the fit finds more (noise), phase is C, and
    p2_over_p1 = 2 (1 + B) is the inferred two-pass enhancement.  At K >= 2
    no r_k is clamped; visibility and phase read the first harmonic, and
    enhancement is the general estimate.  covariance is the (2K + 1)-square
    matrix over (A, r_1, C_1, ..., r_K, C_K) from the analytic Jacobian at
    the solution; residual_norm is the root sum of squared residuals.
    """

    amplitude: float
    harmonics: tuple
    covariance: np.ndarray = field(compare=False)
    residual_norm: float

    @property
    def visibility(self) -> float:
        return self.harmonics[0][0]

    @property
    def phase(self) -> float:
        return self.harmonics[0][1]

    @property
    def p2_over_p1(self) -> float:
        return 2.0 * (1.0 + self.visibility)

    @property
    def enhancement(self) -> float:
        """N peak / h_0 of the fitted curve, for N = K + 1 passes of equal weight.

        h_0 = 2 A is the curve's mean, so this is N max over x' of
        1 + sum_k r_k cos(k x' + C_k): N^2 for the ideal N-pass fringe, and
        the peak over the one-pass rate whenever the passes weigh the same.
        At K = 1 it is p2_over_p1.
        """
        if len(self.harmonics) == 1:
            return self.p2_over_p1
        return (len(self.harmonics) + 1) * _peak(np.array(self.harmonics))

    def to_dict(self) -> dict:
        if len(self.harmonics) == 1:
            return {
                "A": self.amplitude,
                "B": self.visibility,
                "C": self.phase,
                "cov": self.covariance.tolist(),
                "residual": self.residual_norm,
                "visibility": self.visibility,
                "p2_over_p1": self.p2_over_p1,
            }
        return {
            "A": self.amplitude,
            "harmonics": [list(h) for h in self.harmonics],
            "enhancement": self.enhancement,
            "cov": self.covariance.tolist(),
            "residual": self.residual_norm,
        }


def fit_fringe(scan: FringeScan, harmonics: int = 1) -> FitResult:
    """Least-squares fit of 2 A (1 + sum_k r_k cos(k x' + C_k)), k = 1..K, in one linear solve.

    K is harmonics.  With x' known the model is
    alpha + sum_k (beta_k cos k x' + gamma_k sin k x'), with alpha = 2 A,
    beta_k = 2 A r_k cos C_k and gamma_k = -2 A r_k sin C_k, so one
    np.linalg.lstsq on the 2K + 1 columns [1, cos x', sin x', ...,
    cos K x', sin K x'] finds the global least-squares minimum (at K = 1 the
    known-frequency three-parameter sine fit of IEEE Std 1057).  Then
    A = alpha / 2, r_k = hypot(beta_k, gamma_k) / alpha >= 0 and
    C_k = atan2(-gamma_k, beta_k) wrapped to [0, 2 pi).  At K = 1, and only
    there, r_1 = B above 1 (noise) is reported as 1.  covariance is
    inv(J^T J) s^2, with J the analytic Jacobian of the model in
    (A, r_1, C_1, ..., r_K, C_K) at the solution (unclamped r_k) and s^2 the
    residual sum of squares over n - 2K - 1.  Raises FitError when the scan
    has fewer than 2K + 6 points (8 at K = 1) or spans less than half a
    period, when its counts are all zero or their scale is out of range, when
    the phases do not resolve K harmonics (the design's singular values
    spread by more than 1e6, its Gram matrix past 1e12; judged before A's
    sign, which such a solve leaves to rounding), when A is not positive, or
    when J^T J in (ln A, r_1, C_1, ...), free of the count scale, has
    condition number above 1e12 (constant data leaves the C_k undetermined,
    and too many harmonics for the phases leave the columns dependent).  The
    first and last share one message.  At K >= 2 every message names K and n.

    The count scale is judged before any arithmetic: with n counts up to S,
    n S^2 must lie in _SQUARES, from 1e12 * 2^10 times the smallest normal
    float to 2^10 under the largest.  Above, the sums of squares would
    overflow; below, J^T J would underflow and its inverse overflow.  A
    40-point scan fits with its largest count from about 8e-148 to 7e151.
    The fitted scale is judged the same way before J is formed: every entry
    of J, in (A, r, C) and in (ln A, r, C), is at most
    2 (1 + sum_k r_k) max(1, A), the fitted fringe's bound when A >= 1.  It
    passes S only where the phases bunch so tightly that the linear solve
    amplifies the counts, and past the top of the range such a scan is
    refused as overflow.  No fit raises a floating-point warning.

    2(1 + B) estimates the double-pass over single-pass rate ratio; the ideal
    value is 4.  Experimental reference points from a tabletop run of this
    scheme, not reproduction targets: 2.7 +/- 0.1 from the fitted fringe and
    3.4 +/- 0.1 from directly compared count rates, the shortfall from 4
    being attributed to imperfect spatial overlap between the two passes.
    An N-pass tilt fringe |sum_m e^(i m x')|^2 has N - 1 harmonics, so it
    takes K = N - 1 and reads its enhancement from FitResult.enhancement.
    """
    k = positive_int(harmonics, "harmonics")
    x, counts = scan.phase, scan.counts
    n = x.size
    if n < 2 * k + 6:
        what = "" if k == 1 else f" {k} harmonics"
        raise FitError(f"need at least {2 * k + 6} points to fit{what}, got {n}")
    where = "" if k == 1 else f": {k} harmonics on {n} points"
    if (x.max() - x.min()) <= math.pi:
        raise FitError(
            f"scan spans {x.max() - x.min():.3f} rad of phase, need more than pi{where}"
        )
    _judge_scale(float(counts.max()), n, "counts", where)
    kx = np.multiply.outer(x, np.arange(1.0, k + 1.0))
    design = np.empty((n, 2 * k + 1))
    design[:, 0], design[:, 1::2], design[:, 2::2] = 1.0, np.cos(kx), np.sin(kx)
    coef, _, _, sv = np.linalg.lstsq(design, counts, rcond=None)
    why = "or constant scan" if k == 1 else "scan, or harmonics the phases do not resolve"
    degenerate = f"fit parameters are degenerate (flat {why}){where}"
    if sv[0] > 1e6 * sv[-1]:  # the design's Gram matrix past the 1e12 rule
        raise FitError(degenerate)
    alpha, *terms = coef.tolist()
    a = alpha / 2.0
    if a <= 0.0:
        raise FitError(f"fitted amplitude {a!r} is not positive{where}")
    betas, gammas = terms[::2], terms[1::2]
    r = [math.hypot(beta, gamma) / alpha for beta, gamma in zip(betas, gammas)]
    c = [math.atan2(-gamma, beta) for beta, gamma in zip(betas, gammas)]
    _judge_scale(2.0 * (1.0 + sum(r)) * max(1.0, a), n, "fitted counts", where)
    resid = counts - design @ coef
    rss = float(resid @ resid)

    r_k, c_k = np.array(r), np.array(c)
    arg = kx + c_k
    cos_kc, sin_kc = np.cos(arg), np.sin(arg)
    jac = np.empty((n, 2 * k + 1))
    jac[:, 0] = 2.0 * (1.0 + cos_kc @ r_k)
    jac[:, 1::2], jac[:, 2::2] = 2.0 * a * cos_kc, -2.0 * a * r_k * sin_kc
    jtj = jac.T @ jac
    if _degenerate(jtj, a):
        raise FitError(degenerate)
    cov = np.linalg.inv(jtj) * (rss / (n - 2 * k - 1))
    if k == 1:
        r[0] = min(r[0], 1.0)
    return FitResult(
        amplitude=float(a),
        harmonics=tuple(zip(r, _wrap(c_k).tolist())),
        covariance=cov,
        residual_norm=math.sqrt(rss),
    )


def _peak(harmonics: np.ndarray) -> float:
    """max over x of 1 + sum_k r_k cos(k x + C_k), rows (r_k, C_k) of harmonics, to rounding.

    Every local maximum of the curve on a grid of 16 K points a period is
    polished by Newton steps on the slope, taken only where the curve is
    concave; the largest polished value, or the grid's if larger, is the peak.
    """
    r, c = harmonics.T
    k = np.arange(1.0, r.size + 1.0)
    x = np.linspace(0.0, 2.0 * math.pi, 16 * r.size, endpoint=False)
    grid = np.cos(np.multiply.outer(x, k) + c) @ r
    x = x[(grid >= np.roll(grid, 1)) & (grid >= np.roll(grid, -1))]
    for _ in range(8):
        arg = np.multiply.outer(x, k) + c
        slope, curvature = np.sin(arg) @ (k * r), np.cos(arg) @ (k * k * r)
        x = x - np.divide(slope, curvature, out=np.zeros_like(x), where=curvature > 0.0)
    polished = np.cos(np.multiply.outer(x, k) + c) @ r
    return 1.0 + max(float(grid.max()), float(polished.max()))


def _judge_scale(top: float, n: int, what: str, where: str = "") -> None:
    """FitError unless n top^2 lies in _SQUARES, top bounding n values the fit squares."""
    squares = top * top * n  # Python floats: inf or 0 past the range, no warning
    if not _SQUARES[0] <= squares <= _SQUARES[1]:
        end = "overflow" if squares > _SQUARES[1] else "underflow"
        why = f"{what} up to {top:.3g} {end} the fit's sums of squares"
        raise FitError((why if top > 0.0 else "all counts are zero, nothing to fit") + where)


def _degenerate(jtj: np.ndarray, a: float) -> bool:
    """fit_fringe's degeneracy verdict on J^T J in (A, r_1, C_1, ...) at amplitude a.

    Constant data fits with every r_k = 0 and arbitrary C_k; the Jacobian
    columns for the C_k collapse and the covariance blows up, so such a fit
    is rejected rather than reported.  So is a harmonic count the scan's
    phases cannot tell apart.  J^T J is judged in (ln A, r_1, C_1, ...),
    whose columns all scale as A: degenerate when it has a non-finite entry
    or a condition number above 1e12.  The condition number is
    np.linalg.cond's, largest over smallest singular value, inf where the
    smallest is 0 or NaN (J^T J scaled past the float range).  fit_fringe's
    scale rule keeps its J^T J finite; the non-finite branch guards direct
    callers.
    """
    if np.count_nonzero(np.isfinite(jtj)) != jtj.size:
        return True
    scale = np.ones(len(jtj))
    scale[0] = a
    top, *_, low = np.linalg.svd(jtj * np.outer(scale, scale), compute_uv=False).tolist()
    return not low > 0.0 or top / low > 1e12


def visibility(obj) -> float:
    """Fringe visibility: B (r_1 at K >= 2) from a fit, (max - min)/(max + min) from a raw scan.

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

    rho is a state (4 amplitudes or a 4 x 4 density matrix, wrapped by
    _born_source) or a source itself.  Counts are Poisson draws around
    shots times the source's mean per shot at each angle (exact expected
    counts when seed is None).  The phase coordinate is twice the polarizer
    angle, the natural period of a polarization fringe.
    """
    shots = positive_float(shots, "shots")
    angles = np.asarray(list(pol_a_angles), dtype=float)
    if angles.ndim != 1 or angles.size < 2:
        raise ValueError("need a 1-d list of at least 2 polarizer angles")
    finite(angles, "polarizer angle")
    if arm_a_qwp is not None:
        arm_a_qwp = real(arm_a_qwp, "qwp angle")
    source = rho if callable(rho) else _born_source(rho)
    ua, ub = _analyzer_states(angles, arm_a_qwp), _analyzer_states(np.array([arm_b.pol]), arm_b.qwp)
    counts = _draw_counts(shots * source(ua, ub), seed)
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


"""Two-qubit state tomography: settings, simulated records, two reconstructors.

The default measurement set is the 16 products of {H, V, D, R} analyzers on
each arm, informationally complete for two qubits.  Analyzer letters map to
quarter-wave plate and polarizer angles as follows (angles from horizontal,
transmitted state J(qwp)^dagger |pol>):

    letter   state                   qwp      pol
    H        |H>                      0        0
    V        |V>                      0       90
    D        (|H> + |V>)/sqrt2       45       45
    A        (|H> - |V>)/sqrt2      -45      -45
    R        (|H> - i|V>)/sqrt2       0       45
    L        (|H> + i|V>)/sqrt2       0      -45

Reconstruction comes in two flavors, both in one real chart: its row i is
the coordinates of Pi_i in 16 fixed orthonormal Hermitian matrices E_k
(_hermitian, _coordinates), and its dot product with rho's coordinates is
Tr(rho Pi_i).  Linear inversion solves that 16 x 16 real system exactly and
reports (not clips) negative eigenvalues caused by shot noise.  Maximum
likelihood minimizes the Poisson negative log-likelihood over the density
matrices by rounds of damped Newton steps on rho = T^2 / tr T^2, T a
Hermitian 4 x 4 factor in the same coordinates, so every point and the result
are physical.  One map projects onto the density matrices: project_physical,
the nearest density matrix in Frobenius norm.  The MLE's start and its
residual use it, and so does the command line's fidelity of a linear
estimate.  One objective maps a point's setting probabilities to the
likelihood.  The MLE reads them off the chart at the start and after each
round; the Newton steps read them off a factor table, one 16 x 16 form per
setting, and form rho only at the end of the round.

Everything that depends on the settings list alone (analyzer states,
chart, completeness verdict and the finish's factor table) is one read-only
model that _model caches per settings tuple, so simulating a record and
reconstructing it builds that model once.  The projector stack the chart is
made of is not kept.  A simulation draws its counts from a source (see
polarization) of the model's analyzer states; reconstruction always fits a
density matrix, whatever source made the record.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ReconstructionError, SchemaError, dump_json, finite, json_array, json_number
from .errors import json_object, load_json, positive_float, shown
from .polarization import (
    ArmSetting,
    MeasurementSetting,
    _born_source,
    _draw_counts,
    _projector_stack,
    _setting_states,
    state_density,
)

ANALYZER_ANGLES = {
    "H": ArmSetting(pol=0.0, qwp=0.0),
    "V": ArmSetting(pol=math.pi / 2.0, qwp=0.0),
    "D": ArmSetting(pol=math.pi / 4.0, qwp=math.pi / 4.0),
    "A": ArmSetting(pol=-math.pi / 4.0, qwp=-math.pi / 4.0),
    "R": ArmSetting(pol=math.pi / 4.0, qwp=0.0),
    "L": ArmSetting(pol=-math.pi / 4.0, qwp=0.0),
}

DEFAULT_BASIS = ("H", "V", "D", "R")

# MLE limits (see reconstruct_mle).  _ROUNDING * sum_i |c_i ln mu_i - mu_i| /
# shots bounds the rounding error of f: a rise below it is noise, not a failed round.
_RESIDUAL_TOL = 1e-5
_ROUNDING = 4.0 * np.finfo(float).eps
_MAX_ROUNDS = 20
# Each round is one _newton_finish: it factors rho over all four eigenvectors,
# each eigenvalue lifted to at least _EIGEN_FLOOR, so those near 0 can grow
# again; _GAUGE_TOL and _NEWTON_MAX shape its steps, and its line search tries
# _HALVINGS points at most, down to 2^-99.
_EIGEN_FLOOR = 1e-12
_GAUGE_TOL = 1e-10
_NEWTON_MAX = 30
_HALVINGS = 100
# The scale a record may have for reconstruction (_checked_model).  The
# likelihood sums 16 terms c_i ln mu_i - mu_i, mu_i = shots p_i <= shots and
# |ln mu_i| < 745 over the positive floats: counts and shots up to _SCALE_MAX
# keep that sum 2^10 under the largest float.  A Newton step squares the
# gradient, at most 64 times the largest weight |1 - c_i / mu_i|, which is
# at most 1 + R / _EIGEN_FLOOR at a round's start (every p_i is then at least
# the floor), R the largest count over the shots: R up to _RATIO_MAX keeps
# that square 2^20 under the largest float.
_SCALE_MAX = np.finfo(float).max / 2**24
_RATIO_MAX = math.sqrt(np.finfo(float).max) * _EIGEN_FLOOR / 2**16


def standard_settings(basis=DEFAULT_BASIS) -> list[MeasurementSetting]:
    """The 16 product settings basis x basis, arm a major.

    basis is four analyzer letters from {H, V, D, A, R, L}; the default
    {H, V, D, R} is informationally complete, as is {H, V, D, L}.  A set of
    linear analyzers only, such as {H, V, D, A}, never measures the circular
    component and is not: reconstruction refuses its record as
    informationally incomplete.
    """
    letters = tuple(basis)
    if len(letters) != 4 or not set(letters) <= ANALYZER_ANGLES.keys():
        got = shown("".join(map(str, letters)))
        raise ValueError(f"basis needs 4 of the letters {''.join(ANALYZER_ANGLES)}, got {got}")
    return [
        MeasurementSetting(ANALYZER_ANGLES[a], ANALYZER_ANGLES[b])
        for a in letters
        for b in letters
    ]


def _settings_tuple(settings) -> tuple:
    """settings as a tuple; ValueError unless it is a non-empty list of MeasurementSetting."""
    settings = tuple(settings)
    if not settings or not all(isinstance(s, MeasurementSetting) for s in settings):
        raise ValueError("settings must be a non-empty list of MeasurementSetting")
    return settings


@dataclass(frozen=True)
class TomographyRecord:
    """Coincidence counts for a list of settings, all taken with equal shots.

    Counts are floats: Poisson draws are integer valued, but noiseless
    expected-count records (shots times probability) are legitimate inputs
    for the exact-recovery paths.
    """

    settings: tuple
    counts: np.ndarray
    shots: float

    def __post_init__(self):
        settings = _settings_tuple(self.settings)
        counts = finite(self.counts, "counts")
        if counts.shape != (len(settings),):
            raise ValueError(
                f"counts shape {counts.shape} does not match {len(settings)} settings"
            )
        if counts.min() < 0:
            raise ValueError(f"counts must be non-negative, got min {float(counts.min())!r}")
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", positive_float(self.shots, "shots"))

    def to_json(self) -> str:
        """The record in the JSON format, angles in degrees, through errors.dump_json.

        A finite angle whose degrees overflow the float range has no JSON
        number: FloatingPointError names it, as settings[0].arm_a.pol_deg.
        """

        def arm(a: ArmSetting) -> dict:
            doc = {"pol_deg": math.degrees(a.pol)}
            if a.qwp is not None:
                doc["qwp_deg"] = math.degrees(a.qwp)
            return doc

        entries = [
            {"arm_a": arm(s.arm_a), "arm_b": arm(s.arm_b), "counts": float(c)}
            for s, c in zip(self.settings, self.counts)
        ]
        return dump_json({"shots": self.shots, "settings": entries})

    @classmethod
    def from_json(cls, text: str, where: str = "") -> "TomographyRecord":
        """The record of to_json text; a malformed document is a SchemaError
        naming the path dump_json would write, as settings[0].arm_b.pol_deg.
        A where names the document before that path, as the command line's
        "counts record.json: settings[0].arm_b.pol_deg: ..."."""

        def parse_arm(arm, path: str) -> ArmSetting:
            arm = json_object(arm, path, ("pol_deg",))
            qwp = arm.get("qwp_deg")
            return ArmSetting(
                pol=math.radians(json_number(arm["pol_deg"], f"{path}.pol_deg")),
                qwp=None if qwp is None else math.radians(json_number(qwp, f"{path}.qwp_deg")),
            )

        try:
            doc = json_object(load_json(text), "", ("shots", "settings"))
            settings, counts = [], []
            for pos, entry in enumerate(json_array(doc["settings"], "settings", nonempty=True)):
                path = f"settings[{pos}]"
                entry = json_object(entry, path, ("counts", "arm_a", "arm_b"))
                c = json_number(entry["counts"], f"{path}.counts")
                if c < 0.0:
                    raise SchemaError(f"{path}.counts: must be >= 0, got {c!r}")
                arms = (parse_arm(entry[which], f"{path}.{which}") for which in ("arm_a", "arm_b"))
                settings.append(MeasurementSetting(*arms))
                counts.append(c)
            shots = json_number(doc["shots"], "shots")
        except SchemaError as exc:
            if not where:
                raise
            raise SchemaError(f"{where}: {exc}") from exc
        return cls(settings=tuple(settings), counts=np.array(counts), shots=shots)


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed density matrix plus method metadata.

    min_eigenvalue reports negativity honestly (linear inversion can go
    negative under shot noise; maximum likelihood cannot).  log_likelihood,
    iterations (Newton steps), rounds (Newton rounds run) and
    residual (the final projected-gradient residual ||rho - P(rho - grad f)||)
    are filled by the MLE only.
    """

    rho: np.ndarray
    method: str
    min_eigenvalue: float
    log_likelihood: float | None = None
    iterations: int | None = None
    residual: float | None = None
    rounds: int | None = None

    @property
    def physical(self) -> bool:
        return self.min_eigenvalue >= -1e-10


def simulate_tomography(
    rho: np.ndarray,
    shots: float,
    seed: int | None = None,
    settings=None,
) -> TomographyRecord:
    """Record of Poisson counts around shots times the mean per shot of each setting.

    rho is a state, validated once and wrapped by polarization._born_source,
    or a source itself; one call of it on the settings' cached analyzer
    states gives every setting's mean.  seed None skips the sampling and
    stores the exact expected counts.  settings are checked before any model
    is built.
    """
    shots = positive_float(shots, "shots")
    source = rho if callable(rho) else _born_source(rho)
    settings = _settings_tuple(settings if settings is not None else standard_settings())
    counts = _draw_counts(shots * source(*_model(settings).states), seed)
    return TomographyRecord(settings=settings, counts=counts, shots=shots)


_Model = collections.namedtuple("_Model", "states chart cond table")


@functools.lru_cache(maxsize=16)
def _model(settings: tuple) -> _Model:
    """Read-only arrays that depend on the settings tuple alone, built once per tuple.

    - states: (ua, ub), the settings' (k, 2) analyzer states
      (polarization._setting_states), which a simulation's source reads.
    - chart: the (k, 16) real chart _coordinates of the (k, 4, 4) projector
      stack polarization._projector_stack builds from states; the stack
      itself is not kept.
    - cond: the completeness verdict, the chart's condition number, or None
      when there are not 16 settings (_checked_model judges it).  The E_k
      are orthonormal over all complex 4 x 4 matrices, so the chart has the
      singular values of the complex map rho -> (Tr(rho Pi_i))_i.
    - table: _factor_table(chart), the Newton finish's per-setting forms.

    Callers pass tuple(settings): a list and a tuple of the same settings
    share one entry, and a record's settings are already a tuple.  The
    settings must be hashable, as MeasurementSettings of float angles are.
    An entry of 16 settings holds about 35 KB (32 KB of it the table), and
    the cache keeps the 16 most recently used lists.
    """
    states = _setting_states(settings)
    chart = _coordinates(_projector_stack(*states))
    cond = float(np.linalg.cond(chart)) if len(settings) == 16 else None
    model = _Model(states, chart, cond, _factor_table(chart))
    for array in (*model.states, model.chart, model.table):
        array.setflags(write=False)
    return model


def reconstruct_linear(record: TomographyRecord) -> ReconstructionResult:
    """Exact linear inversion of the Born-rule system.

    Requires an informationally complete 16-setting record.  The result is
    exactly Hermitian and trace normalized but NOT projected to the positive
    cone; shot noise shows up as negative eigenvalues, reported via
    min_eigenvalue.
    """
    model = _checked_model(record, record.counts)
    rho = _invert_linear(record, model)
    return ReconstructionResult(
        rho=rho, method="linear", min_eigenvalue=float(np.linalg.eigvalsh(rho).min())
    )


def _checked_model(record: TomographyRecord, counts: np.ndarray) -> _Model:
    """The settings' model, once the record passes both rules of reconstruction.

    ReconstructionError unless the settings determine every rho (the model's
    cached verdict: 16 settings whose chart has a condition number of at
    most 1e10), and then unless counts, the counts the method reads, and the
    shots lie in range: both at most _SCALE_MAX, and the largest count over
    the shots at most _RATIO_MAX.  The scale is judged in Python floats,
    before the method's sums, so the check itself cannot warn.
    """
    model = _model(record.settings)
    if model.cond is None:
        raise ReconstructionError(f"linear inversion needs 16 settings, got {len(model.chart)}")
    if model.cond > 1e10:
        raise ReconstructionError("settings are informationally incomplete")
    top, shots = float(counts.max()), record.shots
    if not (max(top, shots) <= _SCALE_MAX and top <= _RATIO_MAX * shots):
        raise ReconstructionError(f"counts up to {top:.3g} at shots {shots:.3g} overflow reconstruction")
    return model


def _invert_linear(record: TomographyRecord, model: _Model) -> np.ndarray:
    """The trace-one linear inversion for a record that _checked_model has
    passed: _hermitian of the solution x of chart @ x = counts / shots, so
    exactly Hermitian, over its trace, the sum of x's diagonal coordinates.

    The trace vanishes when |tr| <= 4 cond eps max|x|, cond the chart's
    condition number: the solve leaves each of the 4 diagonal coordinates
    off by up to about cond eps max|x|, so such a trace is rounding noise.
    Scaling shots scales x and its trace alike, so the verdict does not
    depend on the count scale.  On the 2,000 stress records of the tests
    every vanishing trace is below 0.11 cond eps max|x| and every other one
    above 2e13 cond eps max|x|; all counts zero gives x = 0 and vanishes.
    """
    x = np.linalg.solve(model.chart, record.counts / record.shots)
    tr = float(x[::5].sum())
    if abs(tr) <= 4.0 * model.cond * np.finfo(float).eps * float(np.abs(x).max()):
        raise ReconstructionError("reconstructed matrix has vanishing trace")
    return _hermitian(x / tr)


def project_physical(h: np.ndarray) -> np.ndarray:
    """Nearest density matrix to the Hermitian h in Frobenius norm: its eigenvalues
    move to the nearest point of the probability simplex (Smolin, Gambetta &
    Smith, PRL 108, 070502 (2012)).  Every Hermitian h has one; -I maps to I/4.

    Eigenvalue lam_j becomes max(lam_j - lam_k + (1 - s_k) / k, 0), with
    lam_1 >= ... >= lam_4 and s_k = sum_{i<=k} (lam_i - lam_k): k is the most
    eigenvalues with s_k < 1, found by a running sum of differences.  Written
    in differences, never as lam - 1, the result stays a state where lam - 1
    rounds to lam (|lam| >= 2^53, as a gradient step on a record with far more
    counts than shots can make).
    """
    evals, vecs = np.linalg.eigh(h)
    top = evals.tolist()[::-1]
    lowest, spread, k = top[0], 0.0, 1
    for lam in top[1:]:
        wider = spread + k * (lowest - lam)
        if wider >= 1.0:
            break
        lowest, spread, k = lam, wider, k + 1
    weights = np.maximum((evals - lowest) + (1.0 - spread) / k, 0.0)
    return (vecs * weights) @ vecs.conj().T


def log_likelihood(record: TomographyRecord, rho: np.ndarray) -> float:
    """Poisson log-likelihood sum_i (c_i ln mu_i - mu_i), mu_i = shots Tr(rho Pi_i).

    Constant c_i! terms are dropped.  This is -shots f(rho), f the objective
    reconstruct_mle minimizes (_mle_objective): a setting with counts whose
    rate mu_i is at most 0 gives -inf, and every other rate, however small,
    counts as it is.  rho is a state as polarization.state_density takes it:
    4 amplitudes or a 4x4 density matrix.
    """
    return _log_likelihood(record, _model(record.settings), state_density(rho))


def _log_likelihood(record: TomographyRecord, model: _Model, rho: np.ndarray) -> float:
    """log_likelihood of a checked rho, the value reconstruct_mle reports."""
    objective = _mle_objective(record.counts, record.shots)
    return -record.shots * objective(_probabilities(model.chart, rho))[0]


def _residual(rho: np.ndarray, grad: np.ndarray) -> float:
    """The projected-gradient residual ||rho - P(rho - grad)||, P = project_physical."""
    return float(np.linalg.norm(rho - project_physical(rho - grad)))


def _probabilities(chart: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The setting probabilities Re Tr(rho Pi_i): the chart applied to the
    coordinates of rho's Hermitian part, not of rho itself."""
    return chart @ _coordinates((rho + rho.conj().T) / 2.0)


def _mle_objective(counts: np.ndarray, shots: float):
    """The objective f = -sum_i (c_i ln mu_i - mu_i) / shots, mu_i = shots p_i.

    Returns objective(p), p the setting probabilities of a point
    (_probabilities for rho, _factor_probabilities for a factor), which
    gives f, the gradient weights w_i = 1 - c_i / mu_i (1 where c_i = 0) and
    the rounding error of f; inf, None, 0 where counts meet a rate
    mu_i <= 0.  The gradient sum_i w_i Pi_i in rho is _hermitian(w @ chart),
    the Hermitian matrix of the coordinates w @ chart.  The indices of the
    settings with counts > 0 and their counts are made here, once: each
    objective call is one scaling, one gather of the seen rates, one min for
    the domain check, one log and one weight update.
    """
    seen = np.flatnonzero(counts > 0.0)
    seen_counts = counts[seen]
    ones = np.ones(len(counts))

    def objective(p):
        mu = shots * p
        rates = mu[seen]
        if rates.min(initial=math.inf) <= 0.0:
            return math.inf, None, 0.0
        terms = -mu
        terms[seen] += seen_counts * np.log(rates)
        weights = ones.copy()
        weights[seen] -= seen_counts / rates
        return -float(terms.sum()) / shots, weights, _ROUNDING * float(np.abs(terms).sum()) / shots

    return objective


def _hermitian(x: np.ndarray) -> np.ndarray:
    """The Hermitian 4 x 4 matrices with coordinates x, 16 reals a row: with X
    the 4 x 4 array of a row, (X + X^T) / 2 + i (X - X^T) / 2.  This map is an
    isometry onto the Hermitian matrices, so E_k = _hermitian(e_k) are an
    orthonormal basis and _coordinates inverts it."""
    x = x.reshape(*x.shape[:-1], 4, 4)
    xt = x.swapaxes(-1, -2)
    return ((x + xt) + 1j * (x - xt)) / 2.0


def _coordinates(h: np.ndarray) -> np.ndarray:
    """The coordinates Re tr(E_k h) of Hermitian 4 x 4 matrices: Re h + Im h, flattened."""
    return (h.real + h.imag).reshape(*h.shape[:-2], 16)


_EYE16 = np.eye(16)
_EYE16.setflags(write=False)


def _basis_products() -> np.ndarray:
    """Row j holds Re tr(E_k E_j E_l) at column 16 k + l: a Hermitian
    Pi = sum_j pi_j E_j has Re tr(E_k Pi E_l) = pi @ this."""
    basis = _hermitian(_EYE16)
    products = np.einsum("kjac,lca->jkl", basis[:, None] @ basis[None], basis).real.reshape(16, 256)
    products.setflags(write=False)
    return products


_BASIS_PRODUCTS = _basis_products()


def _factor_table(chart: np.ndarray) -> np.ndarray:
    """Q_i[k, l] = Re tr(E_k Pi_i E_l) for each projector Pi_i, row i of the chart."""
    return (chart @ _BASIS_PRODUCTS).reshape(len(chart), 16, 16)


def _gram(t: np.ndarray) -> np.ndarray:
    """The density matrix T T^dagger / ||T||^2 of a factor T."""
    gram = t @ t.conj().T
    return gram / gram.trace().real


def _factor_probabilities(t: np.ndarray, table: np.ndarray):
    """(Q_i t, p_i) for the coordinates t of a Hermitian factor T, with
    p_i = t . Q_i t / t . t = Tr(Pi_i T^2) / tr T^2 the setting probabilities
    of rho = T^2 / tr T^2, table = _factor_table(chart): one product with the
    table instead of forming rho."""
    turned = table @ t
    return turned, turned @ t / (t @ t)


def _factor_derivatives(
    t: np.ndarray, turned: np.ndarray, p: np.ndarray, table: np.ndarray, weights: np.ndarray
):
    """The gradient g and Hessian H of f(T^2 / s), s = tr T^2 = t . t, in the
    coordinates t of the Hermitian factor T = sum_k t_k E_k.

    turned, p = _factor_probabilities(t, table) and weights are the
    objective's w_i at p.  f depends on t through p_i = t . Q_i t / s, so
    J_i = (2/s)(Q_i t - p_i t).  The partials of f in p_i are w_i and
    h_i = (1 - w_i) / p_i (= c_i / (shots p_i^2)).  With m = sum_i w_i p_i and
    G = sum_i w_i Q_i, g = sum_i w_i J_i = (2/s)(G t - m t) and
    H = sum_i h_i J_i J_i^T + (2/s)(G - m I - t g^T - g t^T).
    """
    s = float(t @ t)
    m = float(weights @ p)
    jac = (2.0 / s) * (turned - p[:, None] * t)
    curvature = np.divide(1.0 - weights, p, out=np.zeros_like(p), where=weights != 1.0)
    g = (2.0 / s) * (weights @ turned - m * t)
    weighted = (weights @ table.reshape(len(table), -1)).reshape(len(t), -1)
    tg = t[:, None] * g
    inner = weighted - m * _EYE16 - tg - tg.T
    return g, jac.T @ (curvature[:, None] * jac) + (2.0 / s) * inner


def _newton_finish(rho: np.ndarray, objective, table: np.ndarray):
    """Damped Newton for f over every density matrix: returns (rho', steps).

    rho = T^2 / tr T^2 with T = V diag(sqrt(lambda)) V^dagger the Hermitian
    root of rho, each eigenvalue lambda lifted to at least _EIGEN_FLOOR
    (Burer & Monteiro, Math. Program. 95, 329 (2003)), so T is invertible for
    every record.  Newton works on T's 16 real coordinates in the fixed
    orthonormal basis E_k of _hermitian, with table = _factor_table of the
    chart; each point's setting probabilities come from the table
    (_factor_probabilities), and the derivatives at a kept point reuse its
    product.  Hermiticity fixes the unitary gauge T -> T U; the scale t is
    the one move left that changes nothing, yet away from the optimum the
    Hessian does not vanish on it (H t = -g), so each step projects t out of
    g and H.  It solves with the Hessian's |eigenvalues|, skipping those at
    most _GAUGE_TOL times the largest (the scale, and directions where T is
    near singular).  It keeps the full step, or the first of its halvings
    (_HALVINGS trial points in all), at which f does not rise beyond
    its rounding error, and stops after the step whose promised fall,
    g . H^-1 g, is within that error.  It also stops when no trial point is
    kept, when the Hessian is not finite, or after _NEWTON_MAX steps.  The
    caller, one round of reconstruct_mle, judges rho' by f and its residual.
    """
    evals, vecs = np.linalg.eigh(rho)
    t = _coordinates((vecs * np.sqrt(np.maximum(evals, _EIGEN_FLOOR))) @ vecs.conj().T)
    turned, p = _factor_probabilities(t, table)
    f, weights, err = objective(p)
    steps = 0
    while steps < _NEWTON_MAX and weights is not None:
        g, hess = _factor_derivatives(t, turned, p, table, weights)
        if not np.isfinite(hess).all():
            break
        across = _EYE16 - t[:, None] * (t / (t @ t))
        lam, vec = np.linalg.eigh(across @ hess @ across)
        size = np.abs(lam)
        keep = size > _GAUGE_TOL * size.max()
        vec, size = vec[:, keep], size[keep]
        slopes = (across @ g) @ vec
        move = vec @ (slopes / size)
        last = slopes**2 @ (1.0 / size) <= err
        alpha = 1.0
        for _ in range(_HALVINGS):
            trial = t - alpha * move
            turned, p = _factor_probabilities(trial, table)
            f_new, w_new, err_new = objective(p)
            if f_new <= f + err:
                break
            alpha /= 2.0
        else:
            break
        norm = math.sqrt(trial @ trial)
        t, turned, f, weights, err = trial / norm, turned / norm, f_new, w_new, err_new
        steps += 1
        if last:
            break
    return _gram(_hermitian(t)), steps


def reconstruct_mle(record: TomographyRecord, *, jeffreys: bool = False) -> ReconstructionResult:
    """Maximum likelihood by rounds of damped Newton on a Hermitian factor of rho.

    Minimizes the shot-normalized negative Poisson log-likelihood f
    (_mle_objective) over the density matrices.  The start is the nearest
    state (project_physical) to the linear inversion mixed with 1e-3 of I/4,
    so every rate is positive; when the linear inversion has vanishing trace,
    the start is I/4, since f is still well defined.  Settings that are not
    informationally complete raise ReconstructionError.

    Each round is one _newton_finish from the current rho: damped Newton on
    rho = T^2 / tr T^2 over a Hermitian 4 x 4 factor T (Burer & Monteiro,
    Math. Program. 95, 329 (2003)), with every eigenvalue of rho first lifted
    to at least _EIGEN_FLOOR, so an eigenvalue near 0 can grow back where the
    optimum is full rank.  T has 16 real coordinates in a fixed basis, and
    the table that gives f's probabilities and derivatives in them
    (_factor_table) comes with the settings' cached model (_model).  A round
    ends at its promised-fall stop or after _NEWTON_MAX steps, so where the
    optimum has eigenvalues near _EIGEN_FLOOR a round can end short of it;
    the next round lifts them again and goes on.  A round whose point raises
    f beyond its rounding error is a ReconstructionError.  Converged means
    the projected-gradient residual ||rho - P(rho - grad f)||, taken after
    every round, is at most _RESIDUAL_TOL; _MAX_ROUNDS rounds without that
    are a ReconstructionError naming the final residual.  iterations counts
    the Newton steps of every round, rounds the rounds, and residual is the
    projected-gradient residual of the point returned.  log_likelihood is
    -shots f at the returned rho on the recorded counts,
    log_likelihood(record, rho), and finite for every result.  jeffreys adds
    0.5 to every count in the objective, never to the report.

    record.shots is taken as the exact scale of the mean counts,
    mu_i = shots Tr(rho Pi_i), so it must be the number of trials with the
    detection efficiency folded in.  A stated scale that is off moves the
    result (a dephased singlet at true fidelity 0.90, reconstructed with
    shots stated 10x too high, comes out at fidelity 0.000), while the
    linear inversion, which normalizes the trace, does not move.
    """
    counts = record.counts + 0.5 if jeffreys else record.counts
    model = _checked_model(record, counts)
    objective = _mle_objective(counts, record.shots)
    try:
        rho = project_physical(_invert_linear(record, model))
    except ReconstructionError:  # vanishing trace
        rho = np.eye(4) / 4.0
    rho = (1.0 - 1e-3) * rho + 1e-3 * np.eye(4) / 4.0
    f = objective(_probabilities(model.chart, rho))[0]
    steps = 0
    for rounds in range(1, _MAX_ROUNDS + 1):
        rho, taken = _newton_finish(rho, objective, model.table)
        steps += taken
        f_new, weights, err = objective(_probabilities(model.chart, rho))
        if f_new > f + err:
            raise ReconstructionError(
                f"MLE round {rounds} raised f by {f_new - f:.3e}, beyond its rounding error {err:.3e}"
            )
        f, residual = f_new, _residual(rho, _hermitian(weights @ model.chart))
        if residual <= _RESIDUAL_TOL:
            break
    else:
        raise ReconstructionError(
            f"MLE did not converge in {_MAX_ROUNDS} rounds (residual {residual:.3e})"
        )
    rho = (rho + rho.conj().T) / 2.0
    return ReconstructionResult(
        rho=rho,
        method="mle",
        min_eigenvalue=float(np.linalg.eigvalsh(rho).min()),
        log_likelihood=_log_likelihood(record, model, rho),
        iterations=steps,
        residual=residual,
        rounds=rounds,
    )


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """State fidelity of ``rho`` to ``target``.

    Each is a state as polarization.state_density takes it: 4 amplitudes or
    a 4x4 density matrix.  A pure (4-vector) target uses <psi|rho|psi>; a
    mixed (4x4) target the Uhlmann form (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2
    via eigendecomposition.
    """
    rho, sigma = state_density(rho), state_density(target)
    psi = np.asarray(target, dtype=complex)
    if psi.ndim == 1:
        value = complex(np.vdot(psi, rho @ psi))
        if abs(value.imag) > 1e-9:
            raise ValueError(f"fidelity came out complex ({value!r}); rho is malformed")
        return min(max(value.real, 0.0), 1.0)
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    root_sum = float(np.sqrt(np.clip(evals, 0.0, None)).sum())
    return min(root_sum**2, 1.0)


def rho_to_json(rho: np.ndarray) -> str:
    """4x4 density matrix as strict JSON (errors.dump_json) with an eigenvalue report."""
    return dump_json(rho_document(rho))


def rho_document(rho: np.ndarray) -> dict:
    """The document rho_to_json writes: matrix, [re, im] per entry, and eigenvalues.

    The tomography command embeds it in its JSON output as it is.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    bad = np.argwhere(~np.isfinite(rho))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"matrix[{i}][{j}] must be finite, got {complex(rho[i, j])!r}")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return {
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
        "eigenvalues": [float(v) for v in evals],
    }


def rho_from_json(text: str) -> np.ndarray:
    """The matrix of rho_to_json text; a malformed document is a SchemaError
    naming the path dump_json would write, as matrix[0][1][0] for a real part."""
    doc = json_object(load_json(text), "", ("matrix",))
    rho = np.zeros((4, 4), dtype=complex)
    for i, row in enumerate(json_array(doc["matrix"], "matrix", 4)):
        for j, pair in enumerate(json_array(row, f"matrix[{i}]", 4)):
            where = f"matrix[{i}][{j}]"
            re, im = json_array(pair, where, 2)
            rho[i, j] = complex(json_number(re, f"{where}[0]"), json_number(im, f"{where}[1]"))
    return rho

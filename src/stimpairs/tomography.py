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

Reconstruction comes in two flavors.  Linear inversion solves the 16x16
linear system exactly and reports (not clips) negative eigenvalues caused by
shot noise.  Maximum likelihood works on rho itself: accelerated gradient
steps on the Poisson negative log-likelihood, each projected back onto the
density matrices through an eigendecomposition, so every iterate and the
result are physical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ReconstructionError, SchemaError, finite, json_number, load_json, positive_float
from .polarization import (
    ArmSetting,
    MeasurementSetting,
    _arm_states,
    _born_probabilities,
    _draw_counts,
    _projector_stack,
    check_density_matrix,
    state_density,
)

SINGLE_STATES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
    "L": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
}

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
# shots bounds the rounding error of f: a rise below it is noise, not a restart.
_MAX_ITER = 5000
_STALL_STEPS = 5
_RESIDUAL_TOL = 1e-5
_ROUNDING = 4.0 * np.finfo(float).eps
_MIN_STEP = 1e-30


def standard_settings(basis=DEFAULT_BASIS) -> list[MeasurementSetting]:
    """The 16 product settings basis x basis, arm a major.

    basis is four analyzer letters from {H, V, D, A, R, L}; the default
    {H, V, D, R} is informationally complete, as is the {H, V, D, A} flavor
    with L or R swapped in for the circular component.
    """
    letters = tuple(basis)
    if len(letters) != 4:
        raise ValueError(f"basis needs exactly 4 letters, got {letters!r}")
    unknown = [b for b in letters if b not in ANALYZER_ANGLES]
    if unknown:
        raise ValueError(f"unknown analyzer letters {unknown}, pick from {sorted(ANALYZER_ANGLES)}")
    return [
        MeasurementSetting(ANALYZER_ANGLES[a], ANALYZER_ANGLES[b])
        for a in letters
        for b in letters
    ]


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
        settings = tuple(self.settings)
        if not settings or not all(isinstance(s, MeasurementSetting) for s in settings):
            raise ValueError("settings must be a non-empty list of MeasurementSetting")
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape != (len(settings),):
            raise ValueError(
                f"counts shape {counts.shape} does not match {len(settings)} settings"
            )
        if finite(counts, "counts").min() < 0:
            raise ValueError(f"counts must be non-negative, got min {counts.min()!r}")
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", positive_float(self.shots, "shots"))

    def to_json(self) -> str:
        def arm(a: ArmSetting) -> dict:
            doc = {"pol_deg": math.degrees(a.pol)}
            if a.qwp is not None:
                doc["qwp_deg"] = math.degrees(a.qwp)
            return doc

        entries = [
            {"arm_a": arm(s.arm_a), "arm_b": arm(s.arm_b), "counts": float(c)}
            for s, c in zip(self.settings, self.counts)
        ]
        return json.dumps({"shots": self.shots, "settings": entries})

    @classmethod
    def from_json(cls, text: str) -> "TomographyRecord":
        doc = load_json(text)
        if not isinstance(doc, dict) or "shots" not in doc or "settings" not in doc:
            raise SchemaError("expected an object with 'shots' and 'settings' keys")
        entries = doc["settings"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("'settings' must be a non-empty list")

        def parse_arm(entry: dict, which: str, pos: int) -> ArmSetting:
            if which not in entry or not isinstance(entry[which], dict):
                raise SchemaError(f"settings[{pos}]: missing arm object {which!r}")
            arm = entry[which]
            if "pol_deg" not in arm:
                raise SchemaError(f"settings[{pos}].{which}: missing 'pol_deg'")
            pol = math.radians(json_number(arm["pol_deg"], f"settings[{pos}].{which}: pol_deg"))
            qwp = (
                math.radians(json_number(arm["qwp_deg"], f"settings[{pos}].{which}: qwp_deg"))
                if "qwp_deg" in arm and arm["qwp_deg"] is not None
                else None
            )
            return ArmSetting(pol=pol, qwp=qwp)

        settings = []
        counts = []
        for pos, entry in enumerate(entries):
            if not isinstance(entry, dict) or "counts" not in entry:
                raise SchemaError(f"settings[{pos}]: missing 'counts'")
            c = json_number(entry["counts"], f"settings[{pos}]: counts")
            if c < 0.0:
                raise SchemaError(f"settings[{pos}]: counts must be >= 0, got {c!r}")
            settings.append(
                MeasurementSetting(parse_arm(entry, "arm_a", pos), parse_arm(entry, "arm_b", pos))
            )
            counts.append(c)
        shots = json_number(doc["shots"], "shots")
        return cls(settings=tuple(settings), counts=np.array(counts), shots=shots)


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed density matrix plus method metadata.

    min_eigenvalue reports negativity honestly (linear inversion can go
    negative under shot noise; maximum likelihood cannot).  log_likelihood
    and iterations (projected gradient steps) are filled by the MLE only.
    """

    rho: np.ndarray
    method: str
    min_eigenvalue: float
    log_likelihood: float | None = None
    iterations: int | None = None

    @property
    def physical(self) -> bool:
        return self.min_eigenvalue >= -1e-10


def simulate_tomography(
    rho: np.ndarray,
    shots: float,
    seed: int | None = None,
    settings=None,
) -> TomographyRecord:
    """Record of Poisson counts around shots * probability per setting.

    rho is validated once and every setting's probability comes from one
    batched Born-rule evaluation.  seed None skips the sampling and stores
    the exact expected counts.
    """
    shots = positive_float(shots, "shots")
    rho = state_density(rho)
    settings = list(settings) if settings is not None else standard_settings()
    counts = _draw_counts(shots * _born_probabilities(rho, _projectors(settings)), seed)
    return TomographyRecord(settings=tuple(settings), counts=counts, shots=shots)


def _projectors(settings) -> np.ndarray:
    """The (k, 4, 4) projector stack shared by simulation, design matrix and likelihood,
    built in one array pass over the settings' angles."""
    return _projector_stack(
        _arm_states([s.arm_a for s in settings]), _arm_states([s.arm_b for s in settings])
    )


def _design_matrix(projectors: np.ndarray) -> np.ndarray:
    # Row i dotted with vec(rho) gives Tr(rho Pi_i).
    return projectors.transpose(0, 2, 1).reshape(len(projectors), 16)


def reconstruct_linear(record: TomographyRecord) -> ReconstructionResult:
    """Exact linear inversion of the Born-rule system.

    Requires an informationally complete 16-setting record.  The result is
    Hermitized and trace normalized but NOT projected to the positive cone;
    shot noise shows up as negative eigenvalues, reported via
    min_eigenvalue.
    """
    design = _design_matrix(_projectors(record.settings))
    _require_complete(record, design)
    return _invert_linear(record, design)


def _require_complete(record: TomographyRecord, design: np.ndarray) -> None:
    """Raise ReconstructionError unless the settings determine every rho."""
    if len(record.settings) != 16:
        raise ReconstructionError(
            f"linear inversion needs 16 settings, got {len(record.settings)}"
        )
    if np.linalg.cond(design) > 1e10:
        raise ReconstructionError("settings are informationally incomplete")


def _invert_linear(record: TomographyRecord, design: np.ndarray) -> ReconstructionResult:
    """Linear inversion for a design that _require_complete has passed."""
    freqs = record.counts / record.shots
    rho = np.linalg.solve(design, freqs.astype(complex)).reshape(4, 4)
    rho = (rho + rho.conj().T) / 2.0
    tr = float(np.real(rho.trace()))
    if abs(tr) < 1e-12:
        raise ReconstructionError("reconstructed matrix has vanishing trace")
    rho = rho / tr
    evals = np.linalg.eigvalsh(rho)
    return ReconstructionResult(
        rho=rho, method="linear", min_eigenvalue=float(evals.min())
    )


def project_physical(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero and renormalize the trace."""
    rho = np.asarray(rho, dtype=complex)
    rho = (rho + rho.conj().T) / 2.0
    evals, vecs = np.linalg.eigh(rho)
    clipped = np.clip(evals, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ReconstructionError("matrix has no positive weight to keep")
    return (vecs * (clipped / total)) @ vecs.conj().T


def log_likelihood(record: TomographyRecord, rho: np.ndarray) -> float:
    """Poisson log-likelihood sum_i (c_i ln mu_i - mu_i), mu_i = shots Tr(rho Pi_i).

    Constant c_i! terms are dropped.  A setting whose predicted probability
    is zero up to projector rounding noise (below 1e-15) while its counts are
    nonzero gives -inf, as it should.
    """
    check_density_matrix(rho)
    return _log_likelihood(record, rho, _projectors(record.settings))


def _log_likelihood(record: TomographyRecord, rho: np.ndarray, stack: np.ndarray) -> float:
    """log_likelihood of a rho its caller has already validated, on the settings' stack."""
    p = _born_probabilities(rho, stack)
    mu = record.shots * np.where(p < 1e-15, 0.0, p)
    seen = record.counts > 0.0  # 0 ln 0 = 0 elsewhere
    if np.any(mu[seen] <= 0.0):
        return -math.inf
    terms = -mu
    terms[seen] += record.counts[seen] * np.log(mu[seen])
    return float(terms.sum())


def _project_density(h: np.ndarray) -> np.ndarray:
    """Nearest density matrix to the Hermitian h in Frobenius norm: its eigenvalues
    move to the nearest point of the probability simplex (Smolin, Gambetta &
    Smith, PRL 108, 070502 (2012)).

    The shift is the last (sum of the k largest - 1) / k below the k-th largest
    eigenvalue, found by a running sum over the four eigenvalues as floats.
    """
    evals, vecs = np.linalg.eigh(h)
    total = shift = 0.0
    for k, lam in enumerate(reversed(evals.tolist()), 1):
        total += lam
        if lam > (total - 1.0) / k:
            shift = (total - 1.0) / k
    return (vecs * np.maximum(evals - shift, 0.0)) @ vecs.conj().T


def _mle_objective(counts: np.ndarray, shots: float, design: np.ndarray, stack: np.ndarray):
    """The objective f(rho) = -sum_i (c_i ln mu_i - mu_i) / shots, mu_i = shots Tr(rho Pi_i).

    Returns two functions.  objective(rho) gives f, the gradient weights
    w_i = 1 - c_i / mu_i (1 where c_i = 0) and the rounding error of f; inf,
    None, 0 where counts meet a rate mu_i <= 0.  gradient(w) gives the
    gradient sum_i w_i Pi_i, so the caller forms it only for the points it
    keeps.  The indices of the settings with counts > 0, their counts and the
    flattened stack are made here, once: each objective call is one
    matrix-vector product, one gather of the seen rates, one min for the
    domain check, one log and one weight update.
    """
    flat = stack.reshape(len(stack), 16)
    seen = np.flatnonzero(counts > 0.0)
    seen_counts = counts[seen]
    ones = np.ones(len(counts))

    def objective(rho):
        mu = shots * (design @ rho.ravel()).real
        rates = mu[seen]
        if rates.min(initial=math.inf) <= 0.0:
            return math.inf, None, 0.0
        terms = -mu
        terms[seen] += seen_counts * np.log(rates)
        weights = ones.copy()
        weights[seen] -= seen_counts / rates
        return -float(terms.sum()) / shots, weights, _ROUNDING * float(np.abs(terms).sum()) / shots

    def gradient(weights):
        return (weights @ flat).reshape(4, 4)

    return objective, gradient


def reconstruct_mle(record: TomographyRecord, *, jeffreys: bool = False) -> ReconstructionResult:
    """Maximum likelihood by accelerated projected gradient (APG) on rho.

    Minimizes the shot-normalized negative Poisson log-likelihood f
    (_mle_objective; Shang, Zhang, Ng, Ng & Englert, PRA 95, 062336 (2017)).
    Each iteration is one gradient step from a Nesterov momentum point,
    projected onto the density matrices and backtracked until f falls as its
    quadratic model promises.  A step that raises f, or that turns against
    the momentum, is discarded and the momentum restarts (O'Donoghue &
    Candes, Found. Comput. Math. 15, 715 (2015)).  The start is the projected
    linear inversion mixed with 1e-3 of I/4, so every rate is positive; when
    the linear inversion has vanishing trace or no positive weight, the start
    is I/4, since f is still well defined.  Settings that are not
    informationally complete raise ReconstructionError.  Converged means the
    projected-gradient residual ||rho - P(rho - grad f)|| is at most
    _RESIDUAL_TOL once f has stalled at rounding level (_STALL_STEPS steps
    without a new minimum) or once no step lowers f within its rounding bound
    (near the optimum the projection's O(eps) drift in rho can move f by more
    than that bound).  A failed step with a larger residual, or _MAX_ITER
    iterations, is a ReconstructionError.  iterations counts
    projected gradient steps, discarded ones included.  jeffreys adds 0.5 to
    every count in the objective, never to the reported log-likelihood.
    """
    stack = _projectors(record.settings)
    design = _design_matrix(stack)
    counts = record.counts + 0.5 if jeffreys else record.counts
    objective, gradient = _mle_objective(counts, record.shots, design, stack)
    _require_complete(record, design)
    try:
        rho = project_physical(_invert_linear(record, design).rho)
    except ReconstructionError:  # vanishing trace or no positive weight
        rho = np.eye(4) / 4.0
    rho = (1.0 - 1e-3) * rho + 1e-3 * np.eye(4) / 4.0
    f, weights, _ = objective(rho)
    grad = gradient(weights)
    prev, theta, step = rho, 1.0, 1.0
    y, f_y, grad_y = rho, f, grad
    best, stalled, residual = f, 0, math.inf
    for iteration in range(1, _MAX_ITER + 1):
        while True:
            new = _project_density(y - step * grad_y)
            f_new, weights, err = objective(new)
            move = new - y
            model = f_y + np.vdot(grad_y, move).real + np.vdot(move, move).real / (2.0 * step)
            if f_new <= model + err or step < _MIN_STEP:
                break
            step /= 2.0
        if theta > 1.0 and (f_new > f + err or np.vdot(y - new, new - rho).real > 0.0):
            # f rose, or the step turned against the momentum: step again from rho.
            theta, y, f_y, grad_y = 1.0, rho, f, grad
            continue
        if f_new > f + err:
            residual = float(np.linalg.norm(rho - _project_density(rho - grad)))
            if residual <= _RESIDUAL_TOL:
                break
            raise ReconstructionError(
                f"MLE line search failed at iteration {iteration} (residual {residual:.3e})"
            )
        prev, rho, f, grad = rho, new, f_new, gradient(weights)
        best, stalled = (f, 0) if f < best else (best, stalled + 1)
        if stalled >= _STALL_STEPS:
            residual = float(np.linalg.norm(rho - _project_density(rho - grad)))
            if residual <= _RESIDUAL_TOL:
                break
        theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        y = rho + ((theta - 1.0) / theta_next) * (rho - prev)
        theta = theta_next
        f_y, weights, _ = objective(y)
        if weights is None:  # extrapolated out of the domain of f: restart
            theta, y, f_y, grad_y = 1.0, rho, f, grad
        else:
            grad_y = gradient(weights)
        step *= 2.0
    else:
        raise ReconstructionError(
            f"MLE did not converge in {_MAX_ITER} iterations (residual {residual:.3e})"
        )
    rho = (rho + rho.conj().T) / 2.0
    return ReconstructionResult(
        rho=rho,
        method="mle",
        min_eigenvalue=float(np.linalg.eigvalsh(rho).min()),
        log_likelihood=_log_likelihood(record, rho, stack),
        iterations=iteration,
    )


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """State fidelity of ``rho`` to a pure (4-vector) or mixed (4x4) target.

    Pure targets use <psi|rho|psi>; mixed targets the Uhlmann form
    (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 via eigendecomposition.
    """
    rho = np.asarray(rho, dtype=complex)
    check_density_matrix(rho)
    target = np.asarray(target, dtype=complex)
    if target.shape == (4,):
        nrm = np.linalg.norm(target)
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"target state must be normalized, got norm {nrm!r}")
        value = complex(np.vdot(target, rho @ target))
        if abs(value.imag) > 1e-9:
            raise ValueError(f"fidelity came out complex ({value!r}); rho is malformed")
        return min(max(value.real, 0.0), 1.0)
    if target.shape == (4, 4):
        check_density_matrix(target)
        w, v = np.linalg.eigh(rho)
        sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        inner = sqrt_rho @ target @ sqrt_rho
        evals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
        root_sum = float(np.sqrt(np.clip(evals, 0.0, None)).sum())
        return min(root_sum**2, 1.0)
    raise ValueError(f"target must be a 4-vector or 4x4 matrix, got shape {target.shape}")


def rho_to_json(rho: np.ndarray) -> str:
    """4x4 density matrix as JSON with an eigenvalue report."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    evals = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    return json.dumps(
        {
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
            "eigenvalues": [float(v) for v in evals],
        }
    )


def rho_from_json(text: str) -> np.ndarray:
    """The matrix of rho_to_json text; a malformed document is a SchemaError naming the entry."""
    doc = load_json(text)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise SchemaError("expected an object with a 'matrix' key")
    matrix = doc["matrix"]
    if not (isinstance(matrix, list) and len(matrix) == 4):
        raise SchemaError("'matrix' must be a 4x4 array of [re, im] pairs")
    rho = np.zeros((4, 4), dtype=complex)
    for i, row in enumerate(matrix):
        if not (isinstance(row, list) and len(row) == 4):
            raise SchemaError(f"matrix row {i} must have 4 entries")
        for j, pair in enumerate(row):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"matrix[{i}][{j}] must be an [re, im] pair")
            where = f"matrix[{i}][{j}]"
            rho[i, j] = complex(json_number(pair[0], f"{where} re"), json_number(pair[1], f"{where} im"))
    return rho

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
shot noise.  Maximum likelihood parametrizes rho = T T^dagger / Tr(T T^dagger)
with T lower triangular (4 real diagonal plus 6 complex entries, 16 real
parameters), maximizes the Poisson log-likelihood with its analytic gradient
under a quasi-Newton loop, and is physical by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ReconstructionError, SchemaError
from .polarization import (
    ArmSetting,
    MeasurementSetting,
    _born_probabilities,
    analyzer_projector,
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

# Lower-triangular structural positions below the diagonal, parameter order.
_OFF_DIAG = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
_OFF_ROWS, _OFF_COLS = np.array(_OFF_DIAG).T


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
        if not np.all(np.isfinite(counts)) or counts.min() < 0:
            raise ValueError("counts must be finite and non-negative")
        if not (math.isfinite(self.shots) and self.shots > 0):
            raise ValueError(f"shots must be positive, got {self.shots!r}")
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "shots", float(self.shots))

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
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
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
            try:
                pol = math.radians(float(arm["pol_deg"]))
                qwp = (
                    math.radians(float(arm["qwp_deg"]))
                    if "qwp_deg" in arm and arm["qwp_deg"] is not None
                    else None
                )
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"settings[{pos}].{which}: bad angle: {exc}") from exc
            return ArmSetting(pol=pol, qwp=qwp)

        settings = []
        counts = []
        for pos, entry in enumerate(entries):
            if not isinstance(entry, dict) or "counts" not in entry:
                raise SchemaError(f"settings[{pos}]: missing 'counts'")
            try:
                c = float(entry["counts"])
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"settings[{pos}]: counts not a number: {exc}") from exc
            if not (math.isfinite(c) and c >= 0.0):
                raise SchemaError(f"settings[{pos}]: counts must be finite and >= 0, got {c!r}")
            settings.append(
                MeasurementSetting(parse_arm(entry, "arm_a", pos), parse_arm(entry, "arm_b", pos))
            )
            counts.append(c)
        try:
            shots = float(doc["shots"])
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"shots not a number: {exc}") from exc
        return cls(settings=tuple(settings), counts=np.array(counts), shots=shots)


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed density matrix plus method metadata.

    min_eigenvalue reports negativity honestly (linear inversion can go
    negative under shot noise; maximum likelihood cannot).  log_likelihood
    and iterations are filled by the MLE path only.
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
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots!r}")
    rho = state_density(rho)
    settings = list(settings) if settings is not None else standard_settings()
    means = shots * _born_probabilities(rho, _projectors(settings))
    if seed is None:
        counts = means
    else:
        counts = np.random.default_rng(seed).poisson(means).astype(float)
    return TomographyRecord(settings=tuple(settings), counts=counts, shots=shots)


def _projectors(settings) -> np.ndarray:
    """The (k, 4, 4) projector stack shared by simulation, design matrix and likelihood."""
    return np.stack([analyzer_projector(s) for s in settings])


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
    if len(record.settings) != 16:
        raise ReconstructionError(
            f"linear inversion needs 16 settings, got {len(record.settings)}"
        )
    design = _design_matrix(_projectors(record.settings))
    if np.linalg.cond(design) > 1e10:
        raise ReconstructionError("settings are informationally incomplete")
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
    p = _born_probabilities(rho, _projectors(record.settings))
    mu = record.shots * np.where(p < 1e-15, 0.0, p)
    seen = record.counts > 0.0
    if np.any(mu[seen] == 0.0):
        return -math.inf
    terms = -mu
    terms[seen] += record.counts[seen] * np.log(mu[seen])
    return float(terms.sum())


def _t_from_params(params: np.ndarray) -> np.ndarray:
    t = np.diag(params[:4].astype(complex))
    t[_OFF_ROWS, _OFF_COLS] = params[4::2] + 1j * params[5::2]
    return t


def _params_from_t(t: np.ndarray) -> np.ndarray:
    off = t[_OFF_ROWS, _OFF_COLS]
    return np.concatenate([np.real(np.diag(t)), np.column_stack([off.real, off.imag]).ravel()])


def _rho_from_t(t: np.ndarray) -> np.ndarray:
    gram = t @ t.conj().T
    return gram / np.real(gram.trace())


def _objective_terms(record: TomographyRecord, *, jeffreys: bool):
    """Shot-normalized negative log-likelihood over T's 16 real parameters.

    Returns a callable params -> (f, grad) with the analytic Wirtinger
    gradient: d f / d T-bar = -(M T)/q0 + (S / q0^2) T on the triangular
    support, where M = sum_i w_i Pi_i, S = sum_i w_i Tr(T T^dagger Pi_i),
    and w_i = c_i / mu_i - 1.
    """
    counts = record.counts + 0.5 if jeffreys else record.counts
    shots = record.shots
    stack = _projectors(record.settings)

    def objective(params: np.ndarray):
        t = _t_from_params(params)
        gram = t @ t.conj().T
        q0 = float(np.real(gram.trace()))
        if q0 <= 0.0 or not math.isfinite(q0):
            return np.inf, np.zeros(16)
        # q_i = Tr(T T^dagger Pi_i) / q0, all real by Hermiticity.
        qs = np.real(np.einsum("kab,ba->k", stack, gram)) / q0
        qs = np.maximum(qs, 1e-300)
        mus = shots * qs
        f = -float(np.sum(counts * np.log(mus) - mus)) / shots
        ws = counts / mus - 1.0
        m = np.einsum("k,kab->ab", ws, stack)
        s_scalar = float(ws @ (qs * q0))
        gbar = -(m @ t) / q0 + (s_scalar / q0**2) * t
        return f, 2.0 * _params_from_t(gbar)

    return objective


def reconstruct_mle(
    record: TomographyRecord,
    *,
    jeffreys: bool = False,
    gtol: float = 1e-10,
    max_iter: int = 10000,
) -> ReconstructionResult:
    """Maximum-likelihood reconstruction over rho = T T^dagger / Tr(T T^dagger).

    Minimizes the shot-normalized negative Poisson log-likelihood with its
    analytic gradient (L-BFGS-B on the 16 real parameters of T), starting
    from the physicality-projected linear inversion.  Converged means the
    normalized gradient max-norm fell below gtol (default well below the
    1e-8 declaration threshold) or the optimizer hit its own parameter-step
    floor; anything else raises ReconstructionError with diagnostics.  A run
    that ends in an abnormal line search is restarted once from its last
    iterate, and iterations counts both runs.
    jeffreys adds 0.5 to every count in the objective (a regularizing prior
    offset), never to the reported log-likelihood.
    """
    objective = _objective_terms(record, jeffreys=jeffreys)
    linear = reconstruct_linear(record)
    start = project_physical(linear.rho)
    # Small maximally-mixed admixture keeps the Cholesky factor full rank.
    start = (1.0 - 1e-6) * start + 1e-6 * np.eye(4) / 4.0
    p0 = _params_from_t(np.linalg.cholesky(start))

    options = {"maxiter": max_iter, "maxfun": 4 * max_iter, "ftol": 1e-15, "gtol": gtol}
    res = minimize(objective, p0, jac=True, method="L-BFGS-B", options=options)
    iterations = res.nit
    if res.message.startswith("ABNORMAL"):
        # A failed line search can strand L-BFGS-B just short of the optimum;
        # one restart from its last iterate drops the stale curvature pairs.
        res = minimize(objective, res.x, jac=True, method="L-BFGS-B", options=options)
        iterations += res.nit
    grad_inf = float(np.max(np.abs(res.jac)))
    if not (res.success or grad_inf <= 1e-8):
        raise ReconstructionError(
            f"MLE did not converge after {iterations} iterations "
            f"(normalized gradient {grad_inf:.3e}): {res.message}"
        )
    rho = _rho_from_t(_t_from_params(res.x))
    rho = (rho + rho.conj().T) / 2.0
    evals = np.linalg.eigvalsh(rho)
    return ReconstructionResult(
        rho=rho,
        method="mle",
        min_eigenvalue=float(evals.min()),
        log_likelihood=log_likelihood(record, rho),
        iterations=int(iterations),
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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
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
            rho[i, j] = complex(float(pair[0]), float(pair[1]))
    return rho

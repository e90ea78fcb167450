"""Truncated four-mode Fock space and the brute-force evolution oracle.

Modes are ordered (aH, aV, bH, bV): two output arms a and b, each with a
horizontal and a vertical polarization mode.  A basis state is the occupation
tuple (n_aH, n_aV, n_bH, n_bV) with every occupation <= cutoff, enumerated
lexicographically:

    index = ((n_aH (c+1) + n_aV) (c+1) + n_bH) (c+1) + n_bV,   c = cutoff.

The combined pump drives the antisymmetric pair structure

    L+ = adag_aH adag_bV - adag_aV adag_bH,      L- = (L+)^dagger,
    L0 = (L- L+ - L+ L-) / 2,

an su(1,1) triple with [L0, L±] = ±L± and [L+, L-] = -2 L0 on states far from
the cutoff; on the boundary shell truncation breaks the algebra, so algebraic
checks must restrict to total photon number <= cutoff - 2.  Evolving the
vacuum under exp(-i tau (A L+ + A* L-)) and comparing against the closed-form
output state is the package's primary cross-validation route.

The evolution (evolve_vacuum) uses number conservation, not the
disentangling identity.  Each pair term conserves n_aH - n_bV and
n_aV - n_bH, so the vacuum stays on the sector |p, q; q, p> with p, q <=
cutoff, where the generator splits into two commuting one-pair ladders, one
per pair term.  Exponentiating each ladder exactly and taking their product
gives the same truncated unitary as the full space, at (c+1) x (c+1) cost.
build_generator keeps the full-space generator as the reference it is
tested against.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import SchemaError, TruncationError
from .resonator import ResonatorConfig, amplitude_sum

MODES = ("aH", "aV", "bH", "bV")

ENUMERATION_ORDER = "lex:aH,aV,bH,bV"

# Serialized amplitudes below this magnitude are dropped.
AMPLITUDE_EPS = 1e-15


class FockSpace:
    """Occupation enumeration and ladder operators at a fixed per-mode cutoff."""

    def __init__(self, cutoff: int):
        if not isinstance(cutoff, (int, np.integer)) or cutoff < 1:
            raise ValueError(f"cutoff must be a positive integer, got {cutoff!r}")
        self.cutoff = int(cutoff)
        self.base = self.cutoff + 1
        self.dim = self.base**4
        self._strides = (self.base**3, self.base**2, self.base, 1)
        self._cache: dict = {}

    @functools.cached_property
    def occupations(self) -> np.ndarray:
        """(dim, 4) occupation table in enumeration order, built on first use."""
        idx = np.arange(self.dim)
        occ = np.empty((self.dim, 4), dtype=np.int64)
        for k in range(3, -1, -1):
            occ[:, k] = idx % self.base
            idx //= self.base
        return occ

    def index(self, occ) -> int:
        occ = tuple(int(n) for n in occ)
        if len(occ) != 4 or any(n < 0 or n > self.cutoff for n in occ):
            raise ValueError(f"occupation {occ!r} outside [0, {self.cutoff}]^4")
        return sum(n * s for n, s in zip(occ, self._strides))

    def occupation(self, index: int) -> tuple[int, int, int, int]:
        if not (0 <= index < self.dim):
            raise ValueError(f"index {index!r} outside [0, {self.dim})")
        return tuple(int(n) for n in self.occupations[index])

    def vacuum(self) -> "FockVector":
        amps = np.zeros(self.dim, dtype=complex)
        amps[0] = 1.0
        return FockVector(amps, self.cutoff)

    @functools.cached_property
    def boundary_mask(self) -> np.ndarray:
        """True where any occupation sits at the cutoff (the leakage shell)."""
        return self.occupations.max(axis=1) == self.cutoff

    def raising(self, mode: str) -> sp.csr_matrix:
        """Creation operator for one mode; matrix elements sqrt(n + 1)."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
        key = ("raise", mode)
        op = self._cache.get(key)
        if op is None:
            k = MODES.index(mode)
            src = np.nonzero(self.occupations[:, k] < self.cutoff)[0]
            data = np.sqrt(self.occupations[src, k] + 1.0)
            rows = src + self._strides[k]
            op = sp.csr_matrix(
                (data.astype(complex), (rows, src)), shape=(self.dim, self.dim)
            )
            self._cache[key] = op
        return op

    def lowering(self, mode: str) -> sp.csr_matrix:
        key = ("lower", mode)
        op = self._cache.get(key)
        if op is None:
            op = self.raising(mode).conj().T.tocsr()
            self._cache[key] = op
        return op


@dataclass(frozen=True)
class FockVector:
    """State vector over the truncated space, amplitudes in enumeration order.

    leakage, when present, is the probability weight the producing evolution
    left on the cutoff shell (see evolve_vacuum).
    """

    amplitudes: np.ndarray
    cutoff: int
    leakage: float | None = field(default=None, compare=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        expected = (int(self.cutoff) + 1) ** 4
        if amps.shape != (expected,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({expected},) "
                f"for cutoff {self.cutoff}"
            )
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "cutoff", int(self.cutoff))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "FockVector") -> complex:
        """<self|other>, requiring matching cutoffs."""
        if self.cutoff != other.cutoff:
            raise ValueError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}"
            )
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_json(self) -> str:
        keep = np.flatnonzero(np.abs(self.amplitudes) > AMPLITUDE_EPS)
        kept = self.amplitudes[keep]
        entries = [
            list(entry)
            for entry in zip(keep.tolist(), kept.real.tolist(), kept.imag.tolist())
        ]
        return json.dumps(
            {"cutoff": self.cutoff, "order": ENUMERATION_ORDER, "amplitudes": entries}
        )

    @classmethod
    def from_json(cls, text: str) -> "FockVector":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("expected a JSON object")
        for key in ("cutoff", "order", "amplitudes"):
            if key not in doc:
                raise SchemaError(f"missing key {key!r}")
        if doc["order"] != ENUMERATION_ORDER:
            raise SchemaError(
                f"enumeration order {doc['order']!r} does not match {ENUMERATION_ORDER!r}"
            )
        cutoff = doc["cutoff"]
        if not isinstance(cutoff, int) or cutoff < 1:
            raise SchemaError(f"cutoff must be a positive integer, got {cutoff!r}")
        dim = (cutoff + 1) ** 4
        amps = np.zeros(dim, dtype=complex)
        for pos, entry in enumerate(doc["amplitudes"]):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise SchemaError(f"amplitude entry {pos} is not an [index, re, im] triple")
            i, re, im = entry
            if not isinstance(i, int) or not (0 <= i < dim):
                raise SchemaError(f"amplitude entry {pos}: index {i!r} outside [0, {dim})")
            amps[i] = complex(re, im)
        return cls(amps, cutoff)


def su11_generators(space: FockSpace):
    """(L+, L-, L0) as sparse matrices on the truncated space.

    L0 comes out diagonal with eigenvalue n_total/2 + 1 away from the cutoff
    shell; near the shell the truncated products deviate, which is expected.
    """
    cached = space._cache.get("su11")
    if cached is None:
        l_plus = (
            space.raising("aH") @ space.raising("bV")
            - space.raising("aV") @ space.raising("bH")
        ).tocsr()
        l_minus = l_plus.conj().T.tocsr()
        l_zero = (0.5 * (l_minus @ l_plus - l_plus @ l_minus)).tocsr()
        cached = (l_plus, l_minus, l_zero)
        space._cache["su11"] = cached
    return cached


def build_generator(
    cfg: ResonatorConfig,
    space: FockSpace,
    pump_basis: str = "combined",
    ccw_weight: complex = -1.0,
) -> sp.csr_matrix:
    """Hermitian evolution generator G with exp(-i tau G) the pass-summed unitary.

    pump_basis selects which pair term the pump drives: "cw" is
    adag_aH adag_bV, "ccw" is adag_aV adag_bH, and "combined" is their
    weighted sum cw + ccw_weight * ccw.  The default weight -1 is the
    antisymmetric combination produced by a pump polarized at -45 degrees;
    other pump polarizations map onto other complex weights.
    """
    a = amplitude_sum(cfg.n_passes, cfg.phi)
    cw = space.raising("aH") @ space.raising("bV")
    ccw = space.raising("aV") @ space.raising("bH")
    if pump_basis == "cw":
        k = cw
    elif pump_basis == "ccw":
        k = ccw
    elif pump_basis == "combined":
        k = cw + complex(ccw_weight) * ccw
    else:
        raise ValueError(
            f"pump_basis must be 'cw', 'ccw' or 'combined', got {pump_basis!r}"
        )
    return (a * k + np.conj(a) * k.conj().T).tocsr()


def _pair_ladder_column(coef: complex, cutoff: int, tau: float) -> np.ndarray:
    """First column of exp(-i tau (coef K + coef* K^T)) on one pair ladder.

    K is a pair-creation term restricted to its ladder |p; p>, p = 0..cutoff:
    K[p+1, p] = p + 1, and K kills p = cutoff exactly as the truncated
    ladder operators do.
    """
    k = np.diag(np.arange(1.0, cutoff + 1.0), -1)
    w, v = np.linalg.eigh(coef * k + np.conj(coef) * k.T)
    # exp(-i tau H) e0 expressed in the eigenbasis; column 0 of V^dagger.
    return v @ (np.exp(-1j * tau * w) * np.conj(v[0, :]))


def evolve_vacuum(
    cfg: ResonatorConfig,
    space: FockSpace | int,
    *,
    tol: float = 1e-10,
) -> FockVector:
    """Evolve the vacuum under exp(-i tau G) and report cutoff-shell leakage.

    G is build_generator's combined pump, A (cw - ccw) + h.c. with
    cw = adag_aH adag_bV and ccw = adag_aV adag_bH.  From the vacuum, cw
    climbs the ladder |p, 0; 0, p> and ccw the ladder |0, q; q, 0>; the two
    commute, so the evolved state is the product u_p u_q on |p, q; q, p>,
    where u_p and u_q are the first columns of the ladder unitaries with
    coefficients A and -A, each from one Hermitian eigendecomposition of a
    (c+1) x (c+1) matrix.  Both ladders stop at the cutoff as the full-space
    operators do, so this is the truncated evolution itself, not an
    approximation of it.  The sector amplitudes are scattered to full-space
    indices.  Truncated evolution is exactly unitary, so the norm stays 1;
    truncation error shows up as weight stranded on the cutoff shell
    (p = cutoff or q = cutoff), returned as leakage and required to stay
    below tol.
    """
    if isinstance(space, (int, np.integer)):
        space = FockSpace(space)
    a = amplitude_sum(cfg.n_passes, cfg.phi)
    c, b = space.cutoff, space.base
    # sector[p, q] is the amplitude of |p, q; q, p>.
    sector = np.outer(
        _pair_ladder_column(a, c, cfg.tau), _pair_ladder_column(-a, c, cfg.tau)
    )
    weight = np.abs(sector) ** 2
    leakage = float(weight[c, :].sum() + weight[:c, c].sum())
    if leakage > tol:
        raise TruncationError(
            f"cutoff {space.cutoff} leaves leakage {leakage:.3e} above tolerance "
            f"{tol:.1e}; raise the cutoff",
            leakage=leakage,
            cutoff=space.cutoff,
        )
    p, q = np.divmod(np.arange(b * b), b)
    psi = np.zeros(space.dim, dtype=complex)
    psi[((p * b + q) * b + q) * b + p] = sector.ravel()
    return FockVector(psi, space.cutoff, leakage=leakage)


def disentangled_state(a_tau: complex, space: FockSpace | int) -> FockVector:
    """Closed-form output state of exp(-i (A tau L+ + (A tau)* L-)) |vac>.

    Writing A tau = x e^{i theta} with x = |A tau|, the su(1,1) disentangling
    of the exponential gives

        sech^2(x) sum_n u^n sum_{l=0}^{n} (-1)^l |n-l, l; l, n-l>,
        u = -i e^{i theta} tanh(x).

    The phase factor e^{i theta} matters: only for real positive A tau does u
    reduce to -i tanh(x).  Coefficients are the exact infinite-space values
    truncated at n = cutoff, so the norm falls slightly below 1 by the tail
    weight.  A tau = 0 returns the vacuum.
    """
    if isinstance(space, (int, np.integer)):
        space = FockSpace(space)
    amps = np.zeros(space.dim, dtype=complex)
    x = abs(a_tau)
    if x == 0.0:
        amps[0] = 1.0
        return FockVector(amps, space.cutoff)
    u = -1j * (complex(a_tau) / x) * math.tanh(x)
    sech2 = 1.0 / math.cosh(x) ** 2
    for n in range(space.cutoff + 1):
        coeff = sech2 * u**n
        for l in range(n + 1):
            sign = -1.0 if l % 2 else 1.0
            amps[space.index((n - l, l, l, n - l))] = sign * coeff
    return FockVector(amps, space.cutoff)


def entangled_state(m: int, space: FockSpace | int) -> FockVector:
    """Maximally entangled 2M-photon state across the two arms.

    (1 / sqrt(M+1)) sum_{k=0}^{M} (-1)^k |M-k, k; k, M-k>.  M = 1 is the
    polarization singlet.
    """
    if isinstance(space, (int, np.integer)):
        space = FockSpace(space)
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"M must be a positive integer, got {m!r}")
    if m > space.cutoff:
        raise ValueError(f"M = {m} needs occupations up to {m}, cutoff is {space.cutoff}")
    amps = np.zeros(space.dim, dtype=complex)
    scale = 1.0 / math.sqrt(m + 1.0)
    for k in range(m + 1):
        sign = -1.0 if k % 2 else 1.0
        amps[space.index((m - k, k, k, m - k))] = sign * scale
    return FockVector(amps, space.cutoff)


def project_entangled(state: FockVector, m: int) -> complex:
    """Amplitude <Phi_M | state> onto the maximally entangled 2M-photon state."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"M must be a positive integer, got {m!r}")
    if m > state.cutoff:
        raise ValueError(f"M = {m} exceeds the state's cutoff {state.cutoff}")
    base = state.cutoff + 1
    total = 0.0 + 0.0j
    for k in range(m + 1):
        idx = ((m - k) * base + k) * base * base + k * base + (m - k)
        sign = -1.0 if k % 2 else 1.0
        total += sign * state.amplitudes[idx]
    return complex(total / math.sqrt(m + 1.0))


def suggest_cutoff(a_tau: complex, *, floor: int = 8, amp_tol: float = 1e-10) -> int:
    """Smallest cutoff whose top pair sector has amplitude below amp_tol.

    Pair-sector amplitudes fall off geometrically by tanh(|A tau|) per sector,
    so c = ceil(log(amp_tol) / log(tanh|A tau|)) bounds the stranded weight.
    Heuristic for sizing the space before an evolution; the evolution itself
    still measures and enforces its leakage.
    """
    if not (0.0 < amp_tol < 1.0):
        raise ValueError(f"amp_tol must be in (0, 1), got {amp_tol!r}")
    if floor < 1:
        raise ValueError(f"floor must be >= 1, got {floor!r}")
    x = abs(a_tau)
    if x == 0.0:
        return floor
    needed = math.ceil(math.log(amp_tol) / math.log(math.tanh(x)))
    return max(floor, needed)

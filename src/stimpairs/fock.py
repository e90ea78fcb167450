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

Each pair term of L+ conserves n_aH - n_bV and n_aV - n_bH, so everything the
pump reaches from the vacuum lies on the pair sector |p, q; q, p>.  One
private helper, _sector_index, maps that sector to full-space indices;
evolve_vacuum, the closed form and the entangled states and projections
scatter sector amplitudes to, or gather them from, the full space through
it.  L+ is built once per space; build_generator (the full-space reference
the oracle is tested against) and su11_generators both start from it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import SchemaError, TruncationError
from .resonator import ResonatorConfig, amplitude_sum

if TYPE_CHECKING:
    import scipy.sparse as sp

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
            # Deferred: every sparse operator derives from this one, so
            # importing fock loads no scipy.
            import scipy.sparse as sp

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

    @functools.cached_property
    def _l_plus(self) -> sp.csr_matrix:
        """Pair operator L+ = adag_aH adag_bV - adag_aV adag_bH, built once."""
        return (
            self.raising("aH") @ self.raising("bV")
            - self.raising("aV") @ self.raising("bH")
        ).tocsr()


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
        # Exact type checks: JSON true/false load as bool, a subclass of int.
        if type(cutoff) is not int or cutoff < 1:
            raise SchemaError(f"cutoff must be a positive integer, got {cutoff!r}")
        if not isinstance(doc["amplitudes"], list):
            raise SchemaError("amplitudes must be a list of [index, re, im] triples")
        dim = (cutoff + 1) ** 4
        amps = np.zeros(dim, dtype=complex)
        for pos, entry in enumerate(doc["amplitudes"]):
            if not (isinstance(entry, list) and len(entry) == 3):
                raise SchemaError(f"amplitude entry {pos} is not an [index, re, im] triple")
            i, re, im = entry
            if type(i) is not int or not (0 <= i < dim):
                raise SchemaError(f"amplitude entry {pos}: index {i!r} outside [0, {dim})")
            if type(re) not in (int, float) or type(im) not in (int, float):
                raise SchemaError(f"amplitude entry {pos}: re, im {re!r}, {im!r} not numbers")
            amps[i] = complex(re, im)
        return cls(amps, cutoff)


def su11_generators(space: FockSpace):
    """(L+, L-, L0) as sparse matrices on the truncated space.

    L- and L0 derive from the space's one L+, the one build_generator uses.
    L0 comes out diagonal with eigenvalue n_total/2 + 1 away from the cutoff
    shell; near the shell the truncated products deviate, which is expected.
    """
    l_plus = space._l_plus
    l_minus = l_plus.conj().T.tocsr()
    l_zero = (0.5 * (l_minus @ l_plus - l_plus @ l_minus)).tocsr()
    return l_plus, l_minus, l_zero


def build_generator(cfg: ResonatorConfig, space: FockSpace) -> sp.csr_matrix:
    """Hermitian evolution generator G with exp(-i tau G) the pass-summed unitary.

    G = A L+ + A* L-, with A the pass-summed amplitude and L+ the pair
    operator adag_aH adag_bV - adag_aV adag_bH of a pump polarized at -45
    degrees.  This is the full-space reference for evolve_vacuum; it never
    builds L0.
    """
    a = amplitude_sum(cfg.n_passes, cfg.phi)
    l_plus = space._l_plus
    return (a * l_plus + np.conj(a) * l_plus.conj().T).tocsr()


def _sector_index(p, q, cutoff: int):
    """Full-space index of the pair-sector state |p, q; q, p>, elementwise in p, q."""
    b = cutoff + 1
    return ((p * b + q) * b + q) * b + p


def _entangled_terms(m, cutoff: int):
    """Signs (-1)^k and full-space indices of the terms |M-k, k; k, M-k> of Phi_M."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"M must be a positive integer, got {m!r}")
    if m > cutoff:
        raise ValueError(f"M = {m} needs occupations up to {m}, cutoff is {cutoff}")
    k = np.arange(m + 1)
    return np.where(k % 2, -1.0, 1.0), _sector_index(m - k, k, cutoff)


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

    G is build_generator's A L+ + A* L-, with L+ = cw - ccw for the pair
    terms cw = adag_aH adag_bV and ccw = adag_aV adag_bH.  From the vacuum, cw
    climbs the ladder |p, 0; 0, p> and ccw the ladder |0, q; q, 0>; the two
    commute, so the evolved state is the product u_p u_q on |p, q; q, p>,
    where u_p and u_q are the first columns of the ladder unitaries with
    coefficients A and -A, each from one Hermitian eigendecomposition of a
    (c+1) x (c+1) matrix.  Both ladders stop at the cutoff as the full-space
    operators do, so this is the truncated evolution itself, not an
    approximation of it.  Truncated evolution is exactly unitary, so the norm
    stays 1; truncation error shows up as weight stranded on the cutoff shell
    (p = cutoff or q = cutoff), returned as leakage and required to stay below
    tol.
    """
    if isinstance(space, (int, np.integer)):
        space = FockSpace(space)
    a = amplitude_sum(cfg.n_passes, cfg.phi)
    c = space.cutoff
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
    psi = np.zeros(space.dim, dtype=complex)
    p, q = np.indices(sector.shape)
    psi[_sector_index(p, q, c)] = sector
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
    # |n-l, l; l, n-l> is the sector state p = n - l, q = l; keep n <= cutoff.
    p, q = np.indices((space.base, space.base))
    keep = p + q <= space.cutoff
    p, q = p[keep], q[keep]
    sign = np.where(q % 2, -1.0, 1.0)
    amps[_sector_index(p, q, space.cutoff)] = sign * (sech2 * u ** (p + q))
    return FockVector(amps, space.cutoff)


def entangled_state(m: int, space: FockSpace | int) -> FockVector:
    """Maximally entangled 2M-photon state across the two arms.

    (1 / sqrt(M+1)) sum_{k=0}^{M} (-1)^k |M-k, k; k, M-k>.  M = 1 is the
    polarization singlet.
    """
    if isinstance(space, (int, np.integer)):
        space = FockSpace(space)
    sign, index = _entangled_terms(m, space.cutoff)
    amps = np.zeros(space.dim, dtype=complex)
    amps[index] = sign * (1.0 / math.sqrt(m + 1.0))
    return FockVector(amps, space.cutoff)


def project_entangled(state: FockVector, m: int) -> complex:
    """Amplitude <Phi_M | state> onto the maximally entangled 2M-photon state."""
    sign, index = _entangled_terms(m, state.cutoff)
    return complex(np.sum(sign * state.amplitudes[index]) / math.sqrt(m + 1.0))


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
    ratio = math.tanh(x)
    if ratio == 1.0:
        raise ValueError(
            f"a_tau = {a_tau!r}: tanh|A tau| rounds to 1, so pair sectors do not "
            f"fall off and no finite cutoff bounds the leakage"
        )
    needed = math.ceil(math.log(amp_tol) / math.log(ratio))
    return max(floor, needed)

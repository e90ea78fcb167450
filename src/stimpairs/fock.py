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
private helper, _sector_index, maps that sector to full-space indices.  A
FockVector stores only its nonzero entries (sorted full-space indices and
their values), so evolve_vacuum, the closed form and the entangled states
emit sector entries through _sector_index and project_entangled gathers
them back; no state is ever laid out over the (c+1)^4 space.  On the sector
the evolution is two commuting pair ladders, both gauge-equivalent to one
real tridiagonal matrix whose eigendecomposition _ladder_eigen caches per
cutoff.  _pair_terms lists the entries of L+ from the index strides alone;
build_generator (the full-space reference the oracle is tested against) and
verify's su11_algebra check both start from it.
"""

from __future__ import annotations

import cmath
import functools
import json
import math

import numpy as np

from .errors import SchemaError, TruncationError, is_json_number, load_json, positive_int
from .resonator import ResonatorConfig, _config_amplitude

ENUMERATION_ORDER = "lex:aH,aV,bH,bV"

# Serialized amplitudes below this magnitude are dropped.
AMPLITUDE_EPS = 1e-15

# No array of amplitudes built here holds more than MAX_ENTRIES complex
# entries (2 GiB).  The dense view of a FockVector needs (c+1)^4 of them, the
# pair sector and its ladder matrices (c+1)^2; the second caps the cutoff at
# MAX_CUTOFF, which also keeps every full-space index inside int64.
MAX_ENTRIES = 2**27
MAX_CUTOFF = math.isqrt(MAX_ENTRIES) - 1


class FockSpace:
    """A validated per-mode cutoff and the size of its (c+1)^4 space."""

    def __init__(self, cutoff: int):
        cutoff = positive_int(cutoff, "cutoff")
        if cutoff > MAX_CUTOFF:
            raise ValueError(
                f"cutoff {cutoff} needs a pair sector of {(cutoff + 1) ** 2} amplitudes, "
                f"more than MAX_ENTRIES = {MAX_ENTRIES}; the largest cutoff is {MAX_CUTOFF}"
            )
        self.cutoff = cutoff
        self.base = cutoff + 1
        self.dim = self.base**4

    def vacuum(self) -> "FockVector":
        return FockVector._from_entries([0], [1.0], self.cutoff)


class FockVector:
    """State vector over the truncated space, stored as its nonzero entries.

    indices holds sorted, unique full-space indices (int64, enumeration
    order) and values their complex amplitudes; every other amplitude is zero.
    This is the layout of the JSON format.  A state the pump reaches from the
    vacuum has at most (c+1)^2 entries, so no state is ever stored over the
    (c+1)^4 space.  FockVector(amplitudes, cutoff) takes a dense vector, and
    the amplitudes property gives one back.

    leakage, when present, is the probability weight the producing evolution
    left on the cutoff shell (see evolve_vacuum).
    """

    __slots__ = ("indices", "values", "cutoff", "leakage")

    def __init__(self, amplitudes, cutoff: int, leakage: float | None = None):
        amps = np.asarray(amplitudes, dtype=complex)
        expected = (int(cutoff) + 1) ** 4
        if amps.shape != (expected,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({expected},) "
                f"for cutoff {cutoff}"
            )
        indices = np.flatnonzero(amps)
        self._store(indices, amps[indices], cutoff, leakage)

    @classmethod
    def _from_entries(cls, indices, values, cutoff: int, leakage=None) -> "FockVector":
        """Vector from sorted, unique full-space indices and their values; no dense pass."""
        vec = cls.__new__(cls)
        vec._store(indices, values, cutoff, leakage)
        return vec

    def _store(self, indices, values, cutoff, leakage) -> None:
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=complex)
        self.cutoff = int(cutoff)
        self.leakage = leakage

    @property
    def amplitudes(self) -> np.ndarray:
        """Dense copy of all (c+1)^4 amplitudes, built anew on every access.

        Raises ValueError when (c+1)^4 exceeds MAX_ENTRIES (cutoff 107 and
        up); indices and values hold the state at any cutoff.
        """
        dim = (self.cutoff + 1) ** 4
        if dim > MAX_ENTRIES:
            raise ValueError(
                f"cutoff {self.cutoff}: a dense vector needs {dim} amplitudes, more "
                f"than MAX_ENTRIES = {MAX_ENTRIES}; read indices and values instead"
            )
        amps = np.zeros(dim, dtype=complex)
        amps[self.indices] = self.values
        return amps

    def _at(self, index: np.ndarray) -> np.ndarray:
        """Amplitudes at the given full-space indices, zero where none is stored."""
        if not self.indices.size:
            return np.zeros(np.shape(index), dtype=complex)
        pos = np.minimum(np.searchsorted(self.indices, index), self.indices.size - 1)
        return np.where(self.indices[pos] == index, self.values[pos], 0.0)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def overlap(self, other: "FockVector") -> complex:
        """<self|other>, requiring matching cutoffs."""
        if self.cutoff != other.cutoff:
            raise ValueError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}"
            )
        return complex(np.vdot(self.values, other._at(self.indices)))

    def to_json(self) -> str:
        keep = np.abs(self.values) > AMPLITUDE_EPS
        index, kept = self.indices[keep], self.values[keep]
        entries = [
            list(entry)
            for entry in zip(index.tolist(), kept.real.tolist(), kept.imag.tolist())
        ]
        return json.dumps(
            {"cutoff": self.cutoff, "order": ENUMERATION_ORDER, "amplitudes": entries}
        )

    @classmethod
    def from_json(cls, text: str) -> "FockVector":
        doc = load_json(text)
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
        if type(cutoff) is not int or not (1 <= cutoff <= MAX_CUTOFF):
            raise SchemaError(
                f"cutoff must be an integer from 1 to {MAX_CUTOFF}, got {cutoff!r}"
            )
        if not isinstance(doc["amplitudes"], list):
            raise SchemaError("amplitudes must be a list of [index, re, im] triples")
        indices, values = _parse_entries(doc["amplitudes"], (cutoff + 1) ** 4)
        return cls._from_entries(indices, values, cutoff)


def _parse_entries(entries: list, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, unique indices and their values from JSON [index, re, im] triples.

    The checks run on whole columns: the set of types in each, the index
    range (min and max over the Python ints, exact at any size) and
    finiteness.  Only when one fails are the entries walked, to name the
    first bad one.  A repeated index keeps its last value.
    """
    ok = set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}
    if ok:
        index, re, im = zip(*entries) if entries else ((), (), ())
        ok = (
            set(map(type, index)) <= {int}
            and set(map(type, re + im)) <= {int, float}
            and min(index, default=0) >= 0
            and max(index, default=0) < dim
        )
    if ok:
        values = np.empty(len(index), dtype=complex)
        try:
            values.real = re
            values.imag = im
        except OverflowError:  # an integer past the float range
            ok = False
        ok = ok and bool(np.isfinite(values).all())
    if not ok:
        raise _first_bad_entry(entries, dim)
    index = np.array(index, dtype=np.int64)
    order = np.argsort(index, kind="stable")
    index, values = index[order], values[order]
    last = np.ones(index.size, dtype=bool)
    last[:-1] = index[1:] != index[:-1]
    return index[last], values[last]


def _first_bad_entry(entries: list, dim: int) -> SchemaError:
    """The schema error naming the first malformed [index, re, im] triple."""
    for pos, entry in enumerate(entries):
        if not (type(entry) is list and len(entry) == 3):
            return SchemaError(f"amplitude entry {pos} is not an [index, re, im] triple")
        i, re, im = entry
        if type(i) is not int or not (0 <= i < dim):
            return SchemaError(f"amplitude entry {pos}: index {i!r} outside [0, {dim})")
        if type(re) not in (int, float) or type(im) not in (int, float):
            return SchemaError(f"amplitude entry {pos}: re, im {re!r}, {im!r} not numbers")
        if not (is_json_number(re) and is_json_number(im)):
            return SchemaError(f"amplitude entry {pos}: re, im {re!r}, {im!r} not finite")
    return SchemaError("amplitude entries are malformed")


def _pair_terms(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and weights of L+ = adag_aH adag_bV - adag_aV adag_bH.

    A pair term on modes i and j sends column s to row s + stride_i +
    stride_j with weight sqrt(n_i + 1) sqrt(n_j + 1), for every s whose n_i
    and n_j are both below the cutoff; the ccw term adag_aV adag_bH carries
    the minus sign.  No occupation table is built.
    """
    b = cutoff + 1
    strides = (b**3, b**2, b, 1)
    terms = []
    for (i, j), sign in (((0, 3), 1.0), ((1, 2), -1.0)):
        # Occupations of each mode over the columns the term keeps in the space.
        occ = np.ix_(*(np.arange(cutoff if k in (i, j) else b) for k in range(4)))
        col = sum(n * stride for n, stride in zip(occ, strides))
        w = sign * (np.sqrt(occ[i] + 1.0) * np.sqrt(occ[j] + 1.0))
        terms.append((col + strides[i] + strides[j], col, np.broadcast_to(w, col.shape)))
    return tuple(np.concatenate([t.ravel() for t in part]) for part in zip(*terms))


def build_generator(cfg: ResonatorConfig, space: FockSpace) -> "scipy.sparse.csr_matrix":
    """Hermitian evolution generator G with exp(-i tau G) the pass-summed unitary.

    G = A L+ + A* L-, with A the pass-summed amplitude and L+ the pair
    operator adag_aH adag_bV - adag_aV adag_bH of a pump polarized at -45
    degrees, from _pair_terms.  This is the full-space reference for
    evolve_vacuum and the only code in the package that loads scipy.
    """
    # Deferred: importing fock, or running any command, loads no scipy.
    import scipy.sparse as sp

    a = _config_amplitude(cfg)
    rows, cols, weights = _pair_terms(space.cutoff)
    data = np.concatenate([a * weights, np.conj(a) * weights])
    index = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    return sp.csr_matrix((data, index), shape=(space.dim, space.dim))


def _sector_index(p, q, cutoff: int):
    """Full-space index of the pair-sector state |p, q; q, p>, elementwise in p, q."""
    b = cutoff + 1
    return ((p * b + q) * b + q) * b + p


def _entangled_terms(m, cutoff: int):
    """Signs (-1)^k and full-space indices of the terms |M-k, k; k, M-k> of Phi_M."""
    m = positive_int(m, "M")
    if m > cutoff:
        raise ValueError(f"M = {m} needs occupations up to {m}, cutoff is {cutoff}")
    k = np.arange(m + 1)
    return np.where(k % 2, -1.0, 1.0), _sector_index(m - k, k, cutoff)


@functools.lru_cache(maxsize=16)
def _ladder_eigen(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w, eigenvectors V and first row V[0, :] of the real ladder J.

    J = K + K^T, where K[p+1, p] = p + 1 is a pair-creation term restricted
    to its ladder |p; p>, p = 0..cutoff; K kills p = cutoff exactly as the
    truncated ladder operators do.  J is real, symmetric and tridiagonal and
    depends on the cutoff alone, so one eigendecomposition serves every
    evolution at that cutoff; the arrays are read-only.  The cache keeps the
    16 most recently used cutoffs, and an entry holds (c+1)(c+3) floats:
    8 KB at cutoff 30, 3.2 MB at cutoff 629.  So it never holds more than
    16 x 8 (c+1)(c+3) bytes, c the largest cutoff among those 16.
    """
    k = np.arange(1.0, cutoff + 1.0)
    w, v = np.linalg.eigh(np.diag(k, -1) + np.diag(k, 1))
    row = v[0, :].copy()
    for array in (w, v, row):
        array.setflags(write=False)
    return w, v, row


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
    where u_p and u_q are the first columns of the ladder unitaries
    exp(-i tau H) with H = coef K + coef* K^T (see _ladder_eigen for K and J)
    and coefficients A and -A.  Two identities reduce both to the real J:

    - gauge: with A = |A| e^{i theta} and D = diag(e^{i p theta}), H = |A| D J
      D^dagger, and D^dagger e0 = e0, so u_p = D exp(-i tau |A| J) e0;
    - sign flip: -A is the phase theta + pi, so u_q = (-1)^q u_p.

    So one evolution needs only the cached eigendecomposition of J at its
    cutoff.  Both ladders stop at the cutoff as the full-space operators do,
    so this is the truncated evolution itself, not an approximation of it.
    Truncated evolution is exactly unitary, so the norm stays 1; truncation
    error shows up as weight stranded on the cutoff shell (p = cutoff or q =
    cutoff), returned as leakage and required to stay below tol.
    """
    if isinstance(space, (int, np.integer)):
        space = FockSpace(space)
    a = _config_amplitude(cfg)
    c = space.cutoff
    w, v, row = _ladder_eigen(c)
    k = np.arange(c + 1)
    # u[p] = (D exp(-i tau |A| J) e0)[p]; sector[p, q] = u[p] (-1)^q u[q] is
    # the amplitude of |p, q; q, p>.
    u = v @ (np.exp(-1j * (cfg.tau * abs(a)) * w) * row)
    u *= np.exp(1j * cmath.phase(a) * k)
    sector = np.outer(u, np.where(k % 2, -u, u))
    weight = np.abs(sector) ** 2
    leakage = float(weight[c, :].sum() + weight[:c, c].sum())
    if leakage > tol:
        raise TruncationError(
            f"cutoff {space.cutoff} leaves leakage {leakage:.3e} above tolerance "
            f"{tol:.1e}; raise the cutoff",
            leakage=leakage,
            cutoff=space.cutoff,
        )
    # Row-major (p, q) order is increasing full-space index order.
    return FockVector._from_entries(
        _sector_index(k[:, None], k, c).ravel(), sector.ravel(), c, leakage=leakage
    )


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
    x = abs(a_tau)
    if x == 0.0:
        return space.vacuum()
    u = -1j * (complex(a_tau) / x) * math.tanh(x)
    sech2 = 1.0 / math.cosh(x) ** 2
    # |n-l, l; l, n-l> is the sector state p = n - l, q = l; keep n <= cutoff.
    # The mask keeps row-major (p, q) order, which is increasing index order.
    p, q = np.indices((space.base, space.base))
    keep = p + q <= space.cutoff
    p, q = p[keep], q[keep]
    sign = np.where(q % 2, -1.0, 1.0)
    return FockVector._from_entries(
        _sector_index(p, q, space.cutoff), sign * (sech2 * u ** (p + q)), space.cutoff
    )


def entangled_state(m: int, space: FockSpace | int) -> FockVector:
    """Maximally entangled 2M-photon state across the two arms.

    (1 / sqrt(M+1)) sum_{k=0}^{M} (-1)^k |M-k, k; k, M-k>.  M = 1 is the
    polarization singlet.
    """
    if isinstance(space, (int, np.integer)):
        space = FockSpace(space)
    sign, index = _entangled_terms(m, space.cutoff)
    # The index falls as k rises (p = M - k leads), so store the terms reversed.
    return FockVector._from_entries(
        index[::-1], sign[::-1] * (1.0 / math.sqrt(m + 1.0)), space.cutoff
    )


def project_entangled(state: FockVector, m: int) -> complex:
    """Amplitude <Phi_M | state> onto the maximally entangled 2M-photon state."""
    sign, index = _entangled_terms(m, state.cutoff)
    return complex(np.sum(sign * state._at(index)) / math.sqrt(m + 1.0))


def suggest_cutoff(a_tau: complex, *, floor: int = 8, amp_tol: float = 1e-10) -> int:
    """Smallest cutoff whose top pair sector has amplitude below amp_tol.

    Pair-sector amplitudes fall off geometrically by tanh(|A tau|) per sector,
    so c = ceil(log(amp_tol) / log(tanh|A tau|)) bounds the stranded weight.
    Heuristic for sizing the space before an evolution; the evolution itself
    still measures and enforces its leakage.
    """
    if not (0.0 < amp_tol < 1.0):
        raise ValueError(f"amp_tol must be in (0, 1), got {amp_tol!r}")
    floor = positive_int(floor, "floor")
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

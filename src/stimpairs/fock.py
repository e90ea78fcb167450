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
emit sector entries and project_entangled gathers them back; no command
lays a state out over the (c+1)^4 space.  The dense views
(FockVector(amplitudes, cutoff) and .amplitudes) remain for the benchmark
and the tests.  On the sector each pump pass is two commuting pair
ladders, both gauge-equivalent to one real tridiagonal matrix J;
_evolve_passes builds the ladder column pass by pass, and evolve_vacuum is
its one-pass call with the pass-summed amplitude.  Everything that
depends on the cutoff alone, J's eigendecomposition and the index arrays of
the sector and of its p + q <= c part, is one read-only table of six arrays
that _cutoff_tables caches per cutoff, 28 (c+1)^2 bytes.  Phi_M's terms are
the sector's anti-diagonal p + q = M, read off it as a view.
_pair_terms lists the entries of L+ from the index strides alone;
build_generator (the full-space reference the oracle is tested against) and
verify's su11_algebra check both start from it.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math

import numpy as np

from .errors import SchemaError, TruncationError, dump_json, is_json_number, json_array
from .errors import json_number, json_object, load_json, positive_int, shown
from .resonator import ResonatorConfig, _amplitudes

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

    The states evolve_vacuum, disentangled_state and entangled_state build
    share their indices with the per-cutoff cache (_cutoff_tables), so that
    array (or a view of it) is read-only: writing to it raises ValueError
    instead of corrupting every later state at the same cutoff.  Copy it
    before changing it.
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
        """The state in the JSON format, without entries of magnitude AMPLITUDE_EPS or less.

        A NaN or infinite amplitude raises ValueError naming its index: the
        mask keeps NaN (its magnitude is not <= AMPLITUDE_EPS) and the writer,
        errors.dump_json, refuses both, so the index is looked up only on failure.
        """
        keep = ~(np.abs(self.values) <= AMPLITUDE_EPS)
        index, kept = self.indices[keep], self.values[keep]
        # json writes each (index, re, im) tuple as an [index, re, im] array.
        entries = list(zip(index.tolist(), kept.real.tolist(), kept.imag.tolist()))
        try:
            return dump_json({"cutoff": self.cutoff, "order": ENUMERATION_ORDER, "amplitudes": entries})
        except FloatingPointError:
            pos = np.flatnonzero(~np.isfinite(kept))[0]
            raise ValueError(
                f"amplitude at index {index[pos]} is {complex(kept[pos])!r}, not finite; "
                f"the JSON format holds finite numbers only"
            ) from None

    @classmethod
    def from_json(cls, text: str) -> "FockVector":
        doc = json_object(load_json(text), "", ("cutoff", "order", "amplitudes"))
        if doc["order"] != ENUMERATION_ORDER:
            raise SchemaError(
                f"enumeration order {shown(doc['order'])} does not match {shown(ENUMERATION_ORDER)}"
            )
        cutoff = doc["cutoff"]
        # Exact type checks: JSON true/false load as bool, a subclass of int.
        if type(cutoff) is not int or not (1 <= cutoff <= MAX_CUTOFF):
            raise SchemaError(
                f"cutoff must be an integer from 1 to {MAX_CUTOFF}, got {shown(cutoff)}"
            )
        entries = json_array(doc["amplitudes"], "amplitudes")
        indices, values = _parse_entries(entries, (cutoff + 1) ** 4)
        return cls._from_entries(indices, values, cutoff)


def _parse_entries(entries: list, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, unique indices and their values from JSON [index, re, im] triples.

    The checks run on whole columns: the set of types in each, the index
    range (min and max over the Python ints, exact at any size) and
    finiteness.  Only an re or im column that holds an int is tested entry
    by entry, with is_json_number, for an integer past the float range.
    When a check fails the entries are walked to name the first bad one.
    Indices that are strictly increasing, as to_json writes them, are taken
    as they are; otherwise np.unique sorts them and a repeated index keeps
    its last value.
    """
    ok = set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}
    if ok:
        index, re, im = zip(*entries) if entries else ((), (), ())
        re_kinds, im_kinds = set(map(type, re)), set(map(type, im))
        ok = (
            set(map(type, index)) <= {int}
            and re_kinds | im_kinds <= {int, float}
            and (int not in re_kinds or all(map(is_json_number, re)))
            and (int not in im_kinds or all(map(is_json_number, im)))
            and min(index, default=0) >= 0
            and max(index, default=0) < dim
        )
    if ok:
        values = np.empty(len(index), dtype=complex)
        values.real = re
        values.imag = im
        ok = bool(np.isfinite(values).all())
    if not ok:
        _first_bad_entry(entries, dim)
    index = np.array(index, dtype=np.int64)
    if not (index[1:] > index[:-1]).all():
        # np.unique keeps each index's first place in the reversed list: its last.
        index, first = np.unique(index[::-1], return_index=True)
        values = values[::-1][first]
    return index, values


def _first_bad_entry(entries: list, dim: int) -> None:
    """Raise the schema error naming the first malformed [index, re, im]
    triple by its path, as amplitudes[3] or amplitudes[3][1] for its re."""
    for pos, entry in enumerate(entries):
        where = f"amplitudes[{pos}]"
        i, re, im = json_array(entry, where, 3)
        if type(i) is not int:
            raise SchemaError(f"{where}[0]: expected an integer index, got {shown(i)}")
        if not 0 <= i < dim:
            raise SchemaError(f"{where}[0]: index {i} outside [0, {dim})")
        json_number(re, f"{where}[1]")
        json_number(im, f"{where}[2]")
    raise SchemaError("amplitudes: malformed entries")


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
    evolve_vacuum and the only code in the package that loads scipy, which
    it needs installed; the package itself depends on numpy alone.
    """
    # Deferred: importing fock, or running any command, loads no scipy.
    import scipy.sparse as sp

    a = complex(_amplitudes((cfg.n_passes,), np.asarray(cfg.phi))[0])
    rows, cols, weights = _pair_terms(space.cutoff)
    data = np.concatenate([a * weights, np.conj(a) * weights])
    index = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    return sp.csr_matrix((data, index), shape=(space.dim, space.dim))


def _sector_index(p, q, cutoff: int):
    """Full-space index of the pair-sector state |p, q; q, p>, elementwise in p, q."""
    b = cutoff + 1
    return ((p * b + q) * b + q) * b + p


_CutoffTables = collections.namedtuple("_CutoffTables", "w v sector below sign pairs")


@functools.lru_cache(maxsize=16)
def _cutoff_tables(cutoff: int) -> _CutoffTables:
    """Read-only arrays that depend on the cutoff alone, built once per cutoff.

    - w, v: eigenvalues and eigenvectors of the real ladder J = K + K^T,
      where K[p+1, p] = p + 1 is a pair-creation term restricted to its
      ladder |p; p>, p = 0..cutoff; K kills p = cutoff exactly as the
      truncated ladder operators do (_evolve_passes).
    - sector: full-space indices of the pair sector |p, q; q, p> in
      row-major (p, q) order, which is increasing index order (evolve_vacuum).
      Its anti-diagonal p + q = M holds the terms of Phi_M (_entangled_terms).
    - below, sign, pairs: the indices of its p + q <= cutoff part in the same
      order, (-1)^q and the pair number n = p + q (disentangled_state).

    An entry holds 3.5 (c+1)^2 eight-byte numbers, 28 (c+1)^2 bytes: 27 KB
    at cutoff 30, 11 MB at cutoff 629.  The cache keeps the 16 most recently
    used cutoffs, so it never holds more than 16 x 28 (c+1)^2 bytes, c the
    largest cutoff among those 16.  A call that needs only the closed form or
    a Phi_M projection at a fresh cutoff also decomposes J; the oracle always
    evolves first at that cutoff.
    """
    off = np.arange(1.0, cutoff + 1.0)
    w, v = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
    p, q = np.indices((cutoff + 1, cutoff + 1)).reshape(2, -1)
    sector = _sector_index(p, q, cutoff)
    keep = p + q <= cutoff
    p, q = p[keep], q[keep]
    tables = _CutoffTables(
        w, v, sector, _sector_index(p, q, cutoff), np.where(q % 2, -1.0, 1.0), p + q
    )
    for array in tables:
        array.setflags(write=False)
    return tables


def _entangled_terms(m, cutoff: int):
    """Signs (-1)^k and full-space indices of the terms |M-k, k; k, M-k> of Phi_M.

    Read-only views of _cutoff_tables, k = 0..M in order: sign starts with row
    p = 0, (-1)^q, and the terms are sector's anti-diagonal p + q = M.
    """
    m = positive_int(m, "M")
    if m > cutoff:
        raise ValueError(f"M = {m} needs occupations up to {m}, cutoff is {cutoff}")
    t = _cutoff_tables(cutoff)
    return t.sign[: m + 1], t.sector[m * (cutoff + 1) : m - 1 : -cutoff]


def _cutoff(space) -> int:
    """The cutoff of a FockSpace, or of FockSpace(space) for any other value."""
    return space.cutoff if isinstance(space, FockSpace) else FockSpace(space).cutoff


def evolve_vacuum(
    cfg: ResonatorConfig,
    space: FockSpace | int,
    *,
    tol: float = 1e-10,
) -> FockVector:
    """Evolve the vacuum under exp(-i tau G) and report cutoff-shell leakage.

    G is build_generator's pass-summed A L+ + A* L-, so this is the one-pass
    call of _evolve_passes, with strength tau |A| and phase arg A.  Both
    ladders stop at the cutoff as the full-space operators do, so this is the
    truncated evolution itself, not an approximation of it.  Truncated
    evolution is exactly unitary, so the norm stays 1; truncation error shows
    up as weight stranded on the cutoff shell (p = cutoff or q = cutoff),
    returned as leakage and required to stay at or below tol.  tol is a
    number >= 0, inf for no limit; NaN or a negative tol raises ValueError.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be a number >= 0 (inf for no limit), got {tol!r}")
    c = _cutoff(space)
    a = complex(_amplitudes((cfg.n_passes,), np.asarray(cfg.phi))[0])
    return _evolve_passes((cfg.tau * abs(a),), (cmath.phase(a),), c, tol)


def _evolve_passes(strengths, phases, cutoff: int, tol: float) -> FockVector:
    """The vacuum after one pass per (strength s, phase theta), in order.

    Pass m is exp(-i s_m G_m) with G_m = e^{i theta_m} L+ + e^{-i theta_m}
    L-, and L+ = cw - ccw for the pair terms cw = adag_aH adag_bV and ccw =
    adag_aV adag_bH.  From the vacuum, cw climbs the ladder |p, 0; 0, p> and
    ccw the ladder |0, q; q, 0>; the two commute in every pass, so the state
    stays the product u_p u_q on |p, q; q, p>.  On each ladder a pass is
    exp(-i s H) with H = coef K + coef* K^T (see _cutoff_tables for K and J)
    and coefficients e^{i theta} and -e^{i theta}.  Two identities reduce
    both to the real J:

    - gauge: with D = diag(e^{i p theta}), H = D J D^dagger, so a pass is
      u <- D V e^{-i s w} V^T D^dagger u on J's cached eigenvectors V;
    - sign flip: -e^{i theta} is the phase theta + pi, a diagonal (-1)^q
      that commutes with every pass, so u_q = (-1)^q u_p.

    The first pass starts from V^T e0 = V[0] (D^dagger e0 = e0).  Leakage is
    as evolve_vacuum says, and above tol it raises TruncationError.  The
    callers have checked cutoff and tol and give at least one pass.
    """
    t = _cutoff_tables(cutoff)
    k = np.arange(cutoff + 1)
    u = t.v[0]
    for n, (s, theta) in enumerate(zip(strengths, phases)):
        if n:
            u = t.v.T @ (np.exp(-1j * theta * k) * u)
        u = t.v @ (np.exp(-1j * s * t.w) * u)
        u *= np.exp(1j * theta * k)
    # sector[p, q] = u[p] (-1)^q u[q] is the amplitude of |p, q; q, p>.
    sector = u[:, None] * np.where(k % 2, -u, u)
    # The cutoff shell of the sector is its last row and the rest of its last column.
    leakage = float((np.abs(sector[-1]) ** 2).sum() + (np.abs(sector[:-1, -1]) ** 2).sum())
    if leakage > tol:
        raise TruncationError(
            f"cutoff {cutoff} leaves leakage {leakage:.3e} above tolerance "
            f"{tol:.1e}; raise the cutoff",
            leakage=leakage,
            cutoff=cutoff,
        )
    return FockVector._from_entries(t.sector, sector.ravel(), cutoff, leakage=leakage)


def _size(a_tau) -> float:
    """|a_tau|, the pass-summed strength; ValueError unless it is finite.

    a_tau is complex, so it has this rule of its own, not errors.real's.
    """
    if math.isfinite(x := abs(a_tau)):
        return x
    raise ValueError(f"a_tau must be finite, got {a_tau!r}")


def disentangled_state(a_tau: complex, space: FockSpace | int) -> FockVector:
    """Closed-form output state of exp(-i (A tau L+ + (A tau)* L-)) |vac>.

    Writing A tau = x e^{i theta} with x = |A tau|, the su(1,1) disentangling
    of the exponential gives

        sech^2(x) sum_n u^n sum_{l=0}^{n} (-1)^l |n-l, l; l, n-l>,
        u = -i e^{i theta} tanh(x).

    The phase factor e^{i theta} matters: only for real positive A tau does u
    reduce to -i tanh(x).  Coefficients are the exact infinite-space values
    truncated at n = cutoff, so the norm falls slightly below 1 by the tail
    weight.  A tau = 0 returns the vacuum, a NaN or infinite A tau raises
    ValueError, and past x ~ 355 sech^2(x), and so every amplitude, is 0.
    """
    c = _cutoff(space)
    x = _size(a_tau)
    if x == 0.0:
        return FockSpace(c).vacuum()
    u = -1j * (complex(a_tau) / x) * math.tanh(x)
    try:
        sech2 = 1.0 / math.cosh(x) ** 2
    except OverflowError:
        sech2 = 0.0
    # |n-l, l; l, n-l> is the sector state p = n - l, q = l, kept for n <= cutoff.
    t = _cutoff_tables(c)
    return FockVector._from_entries(t.below, t.sign * (sech2 * u**t.pairs), c)


def entangled_state(m: int, space: FockSpace | int) -> FockVector:
    """Maximally entangled 2M-photon state across the two arms.

    (1 / sqrt(M+1)) sum_{k=0}^{M} (-1)^k |M-k, k; k, M-k>.  M = 1 is the
    polarization singlet.
    """
    c = _cutoff(space)
    sign, index = _entangled_terms(m, c)
    # The index falls as k rises (p = M - k leads), so store the terms reversed.
    return FockVector._from_entries(index[::-1], sign[::-1] * (1.0 / math.sqrt(m + 1.0)), c)


def project_entangled(state: FockVector, m: int) -> complex:
    """Amplitude <Phi_M | state> onto the maximally entangled 2M-photon state."""
    sign, index = _entangled_terms(m, state.cutoff)
    return complex((sign * state._at(index)).sum() / math.sqrt(m + 1.0))


def suggest_cutoff(a_tau: complex, *, floor: int = 8) -> int:
    """Smallest cutoff, at least floor, whose top pair sector has amplitude below 1e-10.

    Pair-sector amplitudes fall off geometrically by tanh(|A tau|) per sector,
    so c = ceil(log(1e-10) / log(tanh|A tau|)) bounds the stranded weight.
    Heuristic for sizing the space before an evolution; the evolution itself
    still measures and enforces its leakage.  A NaN or infinite a_tau raises
    ValueError.
    """
    floor = positive_int(floor, "floor")
    x = _size(a_tau)
    if x == 0.0:
        return floor
    ratio = math.tanh(x)
    if ratio == 1.0:
        raise ValueError(
            f"a_tau = {a_tau!r}: tanh|A tau| rounds to 1, so pair sectors do not "
            f"fall off and no finite cutoff bounds the leakage"
        )
    needed = math.ceil(math.log(1e-10) / math.log(ratio))
    return max(floor, needed)


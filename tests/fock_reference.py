"""Full-space Fock operators and the complex ladder evolution, kept as the
reference for stimpairs.fock.

The package lists L+ from index strides (fock._pair_terms) and never builds
an occupation table.  These are the constructions it replaced: the (c+1)^4 x 4
occupation table, one sparse creation operator per mode with matrix elements
sqrt(n + 1), and L+ and the su(1,1) triple as products of them.  Each of those
functions takes a FockSpace (only its cutoff, base and dim are read).

The package evolves the vacuum from one real eigendecomposition per cutoff
(in fock._cutoff_tables).  pair_ladder_column and evolve_sector are the
evolution it replaced: one complex Hermitian eigendecomposition per pair
ladder, with coefficients A and -A.  sector_passes is the reference for its
pass-by-pass evolution (fock._evolve_passes): one complex Hermitian
eigendecomposition per pass on the whole pair sector, with neither the gauge
nor the sign flip.
"""

import numpy as np
import scipy.sparse as sp

# Mode order of the enumeration (fock.ENUMERATION_ORDER).
MODES = ("aH", "aV", "bH", "bV")


def _strides(space):
    return (space.base**3, space.base**2, space.base, 1)


def occupations(space) -> np.ndarray:
    """(dim, 4) occupation table in enumeration order."""
    idx = np.arange(space.dim)
    occ = np.empty((space.dim, 4), dtype=np.int64)
    for k in range(3, -1, -1):
        occ[:, k] = idx % space.base
        idx //= space.base
    return occ


def index(space, occ) -> int:
    occ = tuple(int(n) for n in occ)
    if len(occ) != 4 or any(n < 0 or n > space.cutoff for n in occ):
        raise ValueError(f"occupation {occ!r} outside [0, {space.cutoff}]^4")
    return sum(n * s for n, s in zip(occ, _strides(space)))


def occupation(space, index: int) -> tuple[int, int, int, int]:
    if not (0 <= index < space.dim):
        raise ValueError(f"index {index!r} outside [0, {space.dim})")
    return tuple(int(n) for n in occupations(space)[index])


def boundary_mask(space) -> np.ndarray:
    """True where any occupation sits at the cutoff (the leakage shell)."""
    return occupations(space).max(axis=1) == space.cutoff


def raising(space, mode: str) -> sp.csr_matrix:
    """Creation operator for one mode; matrix elements sqrt(n + 1)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    k = MODES.index(mode)
    occ = occupations(space)
    src = np.nonzero(occ[:, k] < space.cutoff)[0]
    data = np.sqrt(occ[src, k] + 1.0)
    rows = src + _strides(space)[k]
    return sp.csr_matrix((data.astype(complex), (rows, src)), shape=(space.dim, space.dim))


def lowering(space, mode: str) -> sp.csr_matrix:
    return raising(space, mode).conj().T.tocsr()


def l_plus(space) -> sp.csr_matrix:
    """Pair operator L+ = adag_aH adag_bV - adag_aV adag_bH."""
    return (
        raising(space, "aH") @ raising(space, "bV")
        - raising(space, "aV") @ raising(space, "bH")
    ).tocsr()


def su11_generators(space):
    """(L+, L-, L0) as sparse matrices on the truncated space.

    L0 comes out diagonal with eigenvalue n_total/2 + 1 away from the cutoff
    shell; near the shell the truncated products deviate, which is expected.
    """
    lp = l_plus(space)
    lm = lp.conj().T.tocsr()
    l0 = (0.5 * (lm @ lp - lp @ lm)).tocsr()
    return lp, lm, l0


def pair_ladder_column(coef: complex, cutoff: int, tau: float) -> np.ndarray:
    """First column of exp(-i tau (coef K + coef* K^T)) on one pair ladder.

    K[p+1, p] = p + 1 on the ladder |p; p>, p = 0..cutoff, killing p = cutoff.
    """
    k = np.diag(np.arange(1.0, cutoff + 1.0), -1)
    w, v = np.linalg.eigh(coef * k + np.conj(coef) * k.T)
    # exp(-i tau H) e0 expressed in the eigenbasis; column 0 of V^dagger.
    return v @ (np.exp(-1j * tau * w) * np.conj(v[0, :]))


def evolve_sector(a: complex, cutoff: int, tau: float) -> tuple[np.ndarray, float]:
    """sector[p, q], the evolved amplitude of |p, q; q, p>, and its cutoff-shell weight.

    The cw ladder has coefficient A, the ccw ladder -A (L+ = cw - ccw).
    """
    sector = np.outer(
        pair_ladder_column(a, cutoff, tau), pair_ladder_column(-a, cutoff, tau)
    )
    weight = np.abs(sector) ** 2
    return sector, float(weight[cutoff, :].sum() + weight[:cutoff, cutoff].sum())


def sector_passes(strengths, phases, cutoff: int) -> np.ndarray:
    """The vacuum's pair-sector column after each pass in turn, sector[p, q] raveled.

    On the sector |p, q; q, p>, in row-major (p, q) order, L+ is K (x) I -
    I (x) K: cw raises p and ccw raises q, each with weight n + 1.  Pass m is
    exp(-i s_m (A_m L+ + A_m* L-)) with A_m = e^{i theta_m}, from a dense
    complex eigh of its generator, applied to the column.
    """
    b = cutoff + 1
    k = np.diag(np.arange(1.0, b), -1)
    lp = np.kron(k, np.eye(b)) - np.kron(np.eye(b), k)
    column = np.zeros(b * b, dtype=complex)
    column[0] = 1.0
    for s, theta in zip(strengths, phases):
        a = np.exp(1j * theta)
        w, v = np.linalg.eigh(a * lp + np.conj(a) * lp.T)
        column = v @ (np.exp(-1j * s * w) * (v.conj().T @ column))
    return column

"""Full-space Fock operators, kept as the reference for stimpairs.fock.

The package lists L+ from index strides (fock._pair_terms) and never builds
an occupation table.  These are the constructions it replaced: the (c+1)^4 x 4
occupation table, one sparse creation operator per mode with matrix elements
sqrt(n + 1), and L+ and the su(1,1) triple as products of them.  Each function
takes a FockSpace (only its cutoff, base and dim are read).
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

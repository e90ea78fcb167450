"""Enumeration, ladder operators, su(1,1) structure, and the evolution oracle.

The occupation table and the per-mode ladder operators are the full-space
reference in fock_reference; the package itself lists L+ from index strides.
"""

import functools
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import fock_reference as ref
import stimpairs.fock as fock_mod
from stimpairs.errors import SchemaError, TruncationError
from stimpairs.fock import (
    AMPLITUDE_EPS,
    ENUMERATION_ORDER,
    MAX_CUTOFF,
    MAX_ENTRIES,
    FockSpace,
    FockVector,
    build_generator,
    disentangled_state,
    entangled_state,
    evolve_vacuum,
    project_entangled,
    suggest_cutoff,
)
from stimpairs.phase_plate import PlateGeometry
from stimpairs.polarization import (
    ArmSetting,
    simulate_polarization_fringe,
    simulate_stimulation_fringe,
)
from stimpairs.resonator import ResonatorConfig, amplitude_sum, pair_probability_exact, sweep_rows
from stimpairs.tomography import simulate_tomography


def test_space_dimensions():
    space = FockSpace(3)
    assert space.dim == 4**4
    assert space.base == 4
    assert ref.occupations(space).shape == (256, 4)


def test_index_occupation_roundtrip():
    space = FockSpace(2)
    for i in range(space.dim):
        occ = ref.occupation(space, i)
        assert ref.index(space, occ) == i
    # Lexicographic: last mode varies fastest.
    assert ref.occupation(space, 0) == (0, 0, 0, 0)
    assert ref.occupation(space, 1) == (0, 0, 0, 1)
    assert ref.index(space, (1, 0, 0, 0)) == space.base**3


def test_index_rejects_out_of_range():
    space = FockSpace(2)
    with pytest.raises(ValueError):
        ref.index(space, (3, 0, 0, 0))
    with pytest.raises(ValueError):
        ref.index(space, (0, 0, -1, 0))
    with pytest.raises(ValueError):
        ref.occupation(space, space.dim)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        FockSpace(0)
    with pytest.raises(ValueError):
        FockSpace(2.5)
    assert FockSpace(MAX_CUTOFF).cutoff == MAX_CUTOFF
    with pytest.raises(ValueError, match="MAX_ENTRIES"):
        FockSpace(MAX_CUTOFF + 1)


_CFG = ResonatorConfig(1, 0.0, 0.01)
_MIXED = np.eye(4) / 4.0
_ANGLES = np.linspace(0.0, math.pi, 9)
_COUNT = "must be a positive integer"

# Case id: (the call, what its ValueError says).
_REFUSED = {
    "space": (lambda: FockSpace(True), "cutoff " + _COUNT),
    "evolve": (lambda: evolve_vacuum(_CFG, True), "cutoff " + _COUNT),
    "evolve-fraction": (lambda: evolve_vacuum(_CFG, 2.5), "cutoff " + _COUNT),
    "closed-form-string": (lambda: disentangled_state(0.1, "8"), "cutoff " + _COUNT),
    "entangled-none": (lambda: entangled_state(1, None), "cutoff " + _COUNT),
    "closed-form-nan": (lambda: disentangled_state(math.nan, 8), "a_tau must be finite"),
    "closed-form-complex-nan": (
        lambda: disentangled_state(complex(1.0, math.nan), 8),
        "a_tau must be finite",
    ),
    "suggest-nan": (lambda: suggest_cutoff(math.nan), "a_tau must be finite"),
    "entangled": (lambda: entangled_state(True, 4), "M " + _COUNT),
    "project": (lambda: project_entangled(evolve_vacuum(_CFG, 4), True), "M " + _COUNT),
    "config-bool": (lambda: ResonatorConfig(True, 0.0, 0.1), "n_passes " + _COUNT),
    "config-float": (lambda: ResonatorConfig(2.0, 0.0, 0.1), "n_passes " + _COUNT),
    "pair-order-bool": (lambda: pair_probability_exact(True, _CFG), "pair order M " + _COUNT),
    "sweep-fraction": (lambda: sweep_rows([1.7], [0.0], 0.01), "n_passes " + _COUNT),
    "sweep-bool": (lambda: sweep_rows([True], [0.0], 0.01), "n_passes " + _COUNT),
    "floor-fraction": (lambda: suggest_cutoff(0.0, floor=2.5), "floor " + _COUNT),
    "floor-bool": (lambda: suggest_cutoff(0.0, floor=True), "floor " + _COUNT),
}
_SIMULATORS = {
    "tomography": lambda shots: simulate_tomography(_MIXED, shots),
    "polarization": lambda shots: simulate_polarization_fringe(
        _MIXED, ArmSetting(0.0), _ANGLES, shots
    ),
    "stimulation": lambda shots: simulate_stimulation_fringe(
        PlateGeometry(3e-3, 1.53, 1.51, 405e-9), _CFG, _ANGLES / 10.0, shots
    ),
}
_REFUSED.update(
    (f"{name}-shots-{shots}", (functools.partial(simulate, shots), "shots must be positive"))
    for name, simulate in _SIMULATORS.items()
    for shots in (math.nan, math.inf)
)


@pytest.mark.parametrize("case", list(_REFUSED))
def test_bool_cutoffs_and_orders_are_refused(case):
    # A count is a Python or numpy integer of at least 1.  bool is an int
    # subclass: True once built cutoff 1 and ran as N = 1 and as M = 1; a
    # fraction once ran as int(1.7) = 1 or came back as the cutoff, and a
    # state builder took a non-integer cutoff for a FockSpace (AttributeError).
    # NaN or inf shots once failed later, as non-finite counts; a NaN A tau
    # gave an all-NaN closed form.
    call, match = _REFUSED[case]
    with pytest.raises(ValueError, match=match):
        call()
    state = evolve_vacuum(_CFG, 4)
    assert FockSpace(np.int64(3)).cutoff == 3
    assert project_entangled(state, np.int64(1)) == project_entangled(state, 1)


def test_unallocatable_suggested_cutoff_is_a_value_error():
    # suggest_cutoff(5) is 253,590: its pair sector alone would need 6.4e10
    # amplitudes.  The evolution refuses it before allocating anything.
    cutoff = suggest_cutoff(5.0)
    assert cutoff > MAX_CUTOFF
    with pytest.raises(ValueError, match=f"cutoff {cutoff} needs a pair sector"):
        evolve_vacuum(ResonatorConfig(1, 0.0, 5.0), cutoff)


def test_ladder_matrix_elements():
    space = FockSpace(3)
    for mode in ref.MODES:
        adag = ref.raising(space, mode)
        k = ref.MODES.index(mode)
        vac = ref.index(space, (0, 0, 0, 0))
        one = [0, 0, 0, 0]
        one[k] = 1
        assert adag[ref.index(space, tuple(one)), vac] == pytest.approx(1.0)
        two = [0, 0, 0, 0]
        two[k] = 2
        assert adag[ref.index(space, tuple(two)), ref.index(space, tuple(one))] == pytest.approx(
            math.sqrt(2.0)
        )
    with pytest.raises(ValueError):
        ref.raising(space, "xx")


def test_number_operator_from_ladders():
    space = FockSpace(3)
    for mode in ref.MODES:
        num = (ref.raising(space, mode) @ ref.lowering(space, mode)).toarray()
        k = ref.MODES.index(mode)
        assert np.allclose(np.diag(num).real, ref.occupations(space)[:, k])


def test_boundary_mask():
    space = FockSpace(2)
    mask = ref.boundary_mask(space)
    assert mask[ref.index(space, (2, 0, 1, 0))]
    assert not mask[ref.index(space, (1, 1, 1, 1))]
    assert mask.sum() == space.dim - space.cutoff**4


def test_evolution_leaves_occupation_table_unbuilt():
    # The oracle reads only cutoff, base and dim; FockSpace holds no
    # (c+1)^4 x 4 table, which only the reference builds.
    space = FockSpace(12)
    state = evolve_vacuum(ResonatorConfig(2, 0.3, 0.01), space)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert ref.boundary_mask(space).sum() == space.dim - space.cutoff**4


def test_su11_commutators_interior():
    # Truncation breaks the algebra on the top shells; check columns whose
    # total occupation keeps every product inside the space.
    space = FockSpace(4)
    l_plus, l_minus, l_zero = ref.su11_generators(space)
    total = ref.occupations(space).sum(axis=1)
    interior = total <= space.cutoff - 2
    comm = (l_zero @ l_plus - l_plus @ l_zero - l_plus).toarray()
    assert np.abs(comm[:, interior]).max() < 1e-12
    comm = (l_zero @ l_minus - l_minus @ l_zero + l_minus).toarray()
    assert np.abs(comm[:, interior]).max() < 1e-12
    # L0 diagonal n_total / 2 + 1 away from the shell.
    diag = np.real(np.diag(l_zero.toarray()))
    assert np.allclose(diag[interior], total[interior] / 2.0 + 1.0)


def test_generator_hermitian():
    space = FockSpace(3)
    cfg = ResonatorConfig(3, 0.7, 0.01)
    g = build_generator(cfg, space)
    assert abs(g - g.conj().T).max() < 1e-14


def test_generator_amplitude_scaling():
    space = FockSpace(2)
    l_plus, l_minus, _ = ref.su11_generators(space)
    # Single pass: G = L+ + L-; two constructive passes double it; two
    # destructive passes cancel to the zero matrix.
    single = build_generator(ResonatorConfig(1, 0.9, 0.01), space)
    assert abs(single - (l_plus + l_minus)).max() < 1e-14
    double = build_generator(ResonatorConfig(2, 0.0, 0.01), space)
    assert abs(double - 2.0 * (l_plus + l_minus)).max() < 1e-14
    cancel = build_generator(ResonatorConfig(2, math.pi, 0.01), space)
    assert abs(cancel).max() < 1e-12


def test_ladder_action_on_vacuum():
    space = FockSpace(3)
    l_plus, _, l_zero = ref.su11_generators(space)
    vac = space.vacuum().amplitudes
    pair = l_plus @ vac
    assert pair[ref.index(space, (1, 0, 0, 1))] == pytest.approx(1.0)
    assert pair[ref.index(space, (0, 1, 1, 0))] == pytest.approx(-1.0)
    assert np.count_nonzero(pair) == 2
    # The diagonal generator holds the vacuum at eigenvalue 1.
    assert np.allclose(l_zero @ vac, vac)


def test_generator_options_removed():
    # The generator is always the -45 degree pump A L+ + A* L-; the pump_basis
    # and ccw_weight keywords that selected other pair terms are gone.
    space = FockSpace(2)
    cfg = ResonatorConfig(1, 0.0, 0.01)
    with pytest.raises(TypeError):
        build_generator(cfg, space, pump_basis="cw")
    with pytest.raises(TypeError):
        build_generator(cfg, space, ccw_weight=-1.0)


def test_vacuum_and_vector_validation():
    space = FockSpace(2)
    vac = space.vacuum()
    assert vac.norm() == pytest.approx(1.0)
    assert vac.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        FockVector(np.zeros(10, dtype=complex), 2)


def test_dense_vector_is_stored_as_entries():
    dense = np.zeros(3**4, dtype=complex)
    dense[[40, 7, 80]] = [0.5j, -0.5, 0.25]
    state = FockVector(dense, 2)
    assert state.indices.dtype == np.int64
    assert state.indices.tolist() == [7, 40, 80]
    assert state.values.tolist() == [-0.5, 0.5j, 0.25]
    # amplitudes is a fresh dense copy on every access, not the storage.
    view = state.amplitudes
    assert np.array_equal(view, dense)
    view[7] = 9.0
    assert state.amplitudes[7] == -0.5
    assert state.amplitudes is not state.amplitudes


def test_dense_view_refuses_spaces_above_max_entries():
    # (c+1)^4 first exceeds MAX_ENTRIES at cutoff 107; the stored entries
    # still answer every question about the state.
    assert 107**4 <= MAX_ENTRIES < 108**4
    state = entangled_state(1, 107)
    with pytest.raises(ValueError, match="cutoff 107: a dense vector needs"):
        state.amplitudes
    assert state.norm() == pytest.approx(1.0)
    assert FockVector.from_json(state.to_json()).overlap(state) == pytest.approx(1.0)


def test_overlap_requires_matching_cutoff():
    a = FockSpace(2).vacuum()
    b = FockSpace(3).vacuum()
    with pytest.raises(ValueError):
        a.overlap(b)
    assert a.overlap(a) == pytest.approx(1.0)


def test_evolution_matches_closed_form():
    cfg = ResonatorConfig(2, 0.4, 0.02)
    a_tau = amplitude_sum(cfg.n_passes, cfg.phi) * cfg.tau
    state = evolve_vacuum(cfg, 8)
    closed = disentangled_state(a_tau, 8)
    assert np.abs(state.amplitudes - closed.amplitudes).max() < 1e-10
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert state.leakage is not None and state.leakage < 1e-10


def test_generator_conserves_pair_charges():
    # evolve_vacuum works in the sector n_aH = n_bV, n_aV = n_bH; that rests
    # on every pump term commuting with both charges.
    space = FockSpace(4)
    occ = ref.occupations(space)
    charges = [
        sp.diags((occ[:, i] - occ[:, j]).astype(float)) for i, j in ((0, 3), (1, 2))
    ]
    cw = ref.raising(space, "aH") @ ref.raising(space, "bV")
    ccw = ref.raising(space, "aV") @ ref.raising(space, "bH")
    cfg = ResonatorConfig(3, 0.7, 0.02)
    combined = build_generator(cfg, space)
    # The -45 degree pump: A (cw - ccw) + h.c., entry for entry.
    a = amplitude_sum(cfg.n_passes, cfg.phi)
    reference = a * (cw - ccw) + np.conj(a) * (cw - ccw).conj().T
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(combined, part), getattr(reference, part))
    for g in (cw + cw.conj().T, ccw + ccw.conj().T, combined):
        assert g.nnz > 0
        for q in charges:
            assert abs(g @ q - q @ g).max() < 1e-12


def test_evolution_matches_full_space_exponential():
    # Reference: dense exponential of the full-space generator on the vacuum
    # at the same cutoff, so the truncation is compared along with the sector
    # reduction.  Cases (cfg, tol, least leakage): complex A with leakage just
    # under the default tol; a destructive point (A ~ 1e-16); and a large tau
    # at tol 1e-3, last, where the truncated state is far from the
    # infinite-space closed form.
    cases = [
        (ResonatorConfig(3, 0.7, 0.02), 1e-10, 5e-11),
        (ResonatorConfig(2, math.pi, 0.05), 1e-10, 0.0),
        (ResonatorConfig(1, 0.0, 0.3), 1e-3, 1e-5),
    ]
    space = FockSpace(4)
    for cfg, tol, least in cases:
        g = build_generator(cfg, space).toarray()
        reference = scipy.linalg.expm(-1j * cfg.tau * g)[:, 0]
        state = evolve_vacuum(cfg, space, tol=tol)
        assert np.abs(state.amplitudes - reference).max() < 1e-12
        shell = float(np.sum(np.abs(reference[ref.boundary_mask(space)]) ** 2))
        assert state.leakage == pytest.approx(shell, rel=1e-9, abs=1e-20)
        assert state.leakage >= least
    closed = disentangled_state(0.3, space)
    assert np.abs(closed.amplitudes - reference).max() > 1e-3


def _oracle_grid():
    """(cfg, cutoff) of the 96 cross-validation points: the acceptance grid
    (cutoff at least 12) and the verify grid (floor 2M + 4), cutoffs 6-30."""
    points = [
        (n, phi, tau, 12)
        for n in (1, 2, 3, 5, 10)
        for phi in (0.0, 0.3, math.pi / 2.0, math.pi)
        for tau in (0.005, 0.02, 0.05)
    ]
    points += [
        (n, phi, tau, 2 * m + 4)
        for m in (1, 2)
        for n in (1, 2, 3)
        for phi in (0.0, 0.3, math.pi)
        for tau in (0.005, 0.02)
    ]
    return [
        (ResonatorConfig(n, phi, tau), suggest_cutoff(amplitude_sum(n, phi) * tau, floor=floor))
        for n, phi, tau, floor in points
    ]


def _high_gain_points():
    # |A tau| = 1, 1.5, 2 at the suggested cutoffs 85, 232, 629: real A (N = 1)
    # and complex A (N = 2, phi = 0.3).
    return [
        (ResonatorConfig(n, phi, x / abs(amplitude_sum(n, phi))), suggest_cutoff(x))
        for x in (1.0, 1.5, 2.0)
        for n, phi in ((1, 0.0), (2, 0.3))
    ]


def test_evolution_matches_complex_ladder_reference():
    # Reference: two complex Hermitian eigendecompositions per evolution,
    # one per ladder with coefficients A and -A.  The package uses one real
    # decomposition of J per cutoff, the gauge D = diag(e^{i p theta}) and the
    # sign flip (-1)^q; the results may differ only by rounding.
    grid = _oracle_grid()
    assert len(grid) == 96
    assert sorted({c for _, c in grid}) == [6, 8, 9, 12, 13, 15, 16, 17, 21, 30]
    points = grid + _high_gain_points()
    assert sorted({c for _, c in _high_gain_points()}) == [85, 232, 629]
    kinds = {"complex": 0, "destructive": 0}
    for cfg, cutoff in points:
        a = amplitude_sum(cfg.n_passes, cfg.phi)
        kinds["complex"] += abs(a.imag) > 0.1
        kinds["destructive"] += abs(a) < 1e-14  # even N at phi = pi: A ~ 1e-16
        state = evolve_vacuum(cfg, cutoff)
        sector, leakage = ref.evolve_sector(a, cutoff, cfg.tau)
        assert state.indices.size == (cutoff + 1) ** 2
        assert np.abs(state.values - sector.ravel()).max() <= 1e-14, (cfg, cutoff)
        assert abs(state.leakage - leakage) <= 1e-20, (cfg, cutoff)
    assert kinds["complex"] >= 30 and kinds["destructive"] == 10


def test_ladder_decomposition_is_cached_read_only_per_cutoff():
    tables = fock_mod._cutoff_tables(7)
    w, v = tables.w, tables.v
    assert fock_mod._cutoff_tables(7).v is v
    assert fock_mod._cutoff_tables.cache_info().maxsize == 16
    for array in (w, v):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        v[0, 0] = 1.0
    # J = K + K^T with K[p+1, p] = p + 1, real and tridiagonal.
    k = np.diag(np.arange(1.0, 8.0), -1)
    assert np.abs((v * w) @ v.T - (k + k.T)).max() < 1e-13


def test_sector_layouts_are_cached_read_only():
    tables = fock_mod._cutoff_tables(7)
    assert all(a is b for a, b in zip(fock_mod._cutoff_tables(7), tables))
    assert tables._fields == ("w", "v", "sector", "below", "sign", "pairs")
    # Phi_M's terms are views of the table, not copies.
    terms = fock_mod._entangled_terms(2, 7)
    assert terms[0].base is tables.sign and terms[1].base is tables.sector
    for array in tables + terms:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    # M is checked on every call: 2.0 and True equal the valid M 2 and 1, so a
    # check skipped for a cached cutoff would let them through.
    fock_mod._entangled_terms(1, 7)
    for m in (0, 2.0, True, 8):
        with pytest.raises(ValueError):
            fock_mod._entangled_terms(m, 7)


def test_sector_layouts_match_the_uncached_expressions():
    # The expressions evolve_vacuum, disentangled_state and _entangled_terms
    # evaluated on every call before the layouts were cached.
    for cutoff in range(1, 41):
        t = fock_mod._cutoff_tables(cutoff)
        k = np.arange(cutoff + 1)
        expected = fock_mod._sector_index(k[:, None], k, cutoff).ravel()
        p, q = np.indices((cutoff + 1, cutoff + 1))
        keep = p + q <= cutoff
        p, q = p[keep], q[keep]
        for got, want in (
            (t.sector, expected),
            (t.below, fock_mod._sector_index(p, q, cutoff)),
            (t.sign, np.where(q % 2, -1.0, 1.0)),
            (t.pairs, p + q),
        ):
            assert got.dtype == want.dtype and np.array_equal(got, want), cutoff
        for m in range(1, cutoff + 1):
            k = np.arange(m + 1)
            sign, index = fock_mod._entangled_terms(m, cutoff)
            for got, want in (
                (sign, np.where(k % 2, -1.0, 1.0)),
                (index, fock_mod._sector_index(m - k, k, cutoff)),
            ):
                assert got.dtype == want.dtype and np.array_equal(got, want), (m, cutoff)


def test_writing_to_cached_state_indices_raises():
    cfg = ResonatorConfig(2, 0.3, 0.02)
    state = evolve_vacuum(cfg, 9)
    before = state.indices.copy()
    with pytest.raises(ValueError):
        state.indices[0] = 5
    again = evolve_vacuum(cfg, 9)
    assert np.array_equal(again.indices, before)
    assert np.array_equal(again.values, state.values)
    for other in (disentangled_state(0.1j, 9), entangled_state(2, 9)):
        with pytest.raises(ValueError):
            other.indices[0] = 5


def test_ladder_identities_hold_for_any_phase():
    # Gauge: coef = |A| e^{i theta} gives D exp(-i tau |A| J) e0; sign flip:
    # -A gives (-1)^p times the same column.
    cutoff, tau = 10, 0.7
    w, v = fock_mod._cutoff_tables(cutoff)[:2]
    real = v @ (np.exp(-1j * tau * 0.4 * w) * v[0])
    p = np.arange(cutoff + 1)
    for theta in (0.0, 0.3, 2.0, math.pi, -1.1):
        a = 0.4 * np.exp(1j * theta)
        gauge = np.exp(1j * theta * p) * real
        assert np.abs(ref.pair_ladder_column(a, cutoff, tau) - gauge).max() < 1e-14
        flip = np.where(p % 2, -gauge, gauge)
        assert np.abs(ref.pair_ladder_column(-a, cutoff, tau) - flip).max() < 1e-14


def test_truncation_error_reports_leakage():
    # tau far too large for a tiny cutoff strands weight on the shell.
    cfg = ResonatorConfig(1, 0.0, 1.0)
    with pytest.raises(TruncationError) as err:
        evolve_vacuum(cfg, 2)
    assert err.value.leakage > 1e-10
    assert err.value.cutoff == 2


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300], ids=["nan", "-1", "tiny-negative"])
def test_evolution_refuses_nan_or_negative_tol(tol):
    # A NaN tol would accept any leakage, and a negative one no state at all;
    # both are a bad argument, not a truncation.
    cfg = ResonatorConfig(10, 0.0, 0.5)
    with pytest.raises(ValueError, match=r"^tol must be a number >= 0"):
        evolve_vacuum(cfg, 6, tol=tol)


def test_evolution_tol_bounds_leakage_and_inf_is_no_limit():
    cfg = ResonatorConfig(10, 0.0, 0.5)
    leakage = evolve_vacuum(cfg, 6, tol=math.inf).leakage
    assert 0.1 < leakage < 0.2
    assert evolve_vacuum(cfg, 6, tol=leakage).leakage == leakage
    for tol in (0.0, math.nextafter(leakage, 0.0)):
        with pytest.raises(TruncationError):
            evolve_vacuum(cfg, 6, tol=tol)


def _oracle_grid():
    """(config, cutoff) of the 96 cross-validation points: the acceptance grid at
    cutoff max(12, suggest_cutoff), then verify's grid at floor 2M + 4."""
    points = [
        (n, phi, tau, 12)
        for n in (1, 2, 3, 5, 10)
        for phi in (0.0, 0.3, math.pi / 2.0, math.pi)
        for tau in (0.005, 0.02, 0.05)
    ]
    points += [
        (n, phi, tau, 2 * m + 4)
        for m in (1, 2)
        for n in (1, 2, 3)
        for phi in (0.0, 0.3, math.pi)
        for tau in (0.005, 0.02)
    ]
    return [
        (ResonatorConfig(n, phi, tau), suggest_cutoff(amplitude_sum(n, phi) * tau, floor=floor))
        for n, phi, tau, floor in points
    ]


def test_leakage_is_the_cutoff_shell_of_the_full_sector_bit_for_bit():
    # evolve_vacuum squares only the last row and column of the sector; the
    # float must equal the shell sum of the whole sector's |amplitude|^2.
    grid = _oracle_grid()
    assert len(grid) == 96 and {c for _, c in grid} >= {6, 12, 30}
    for cfg, c in grid:
        state = evolve_vacuum(cfg, c)
        w = np.abs(state.values.reshape(c + 1, c + 1)) ** 2
        assert state.leakage == float(w[c, :].sum() + w[:c, c].sum()), (cfg, c)


def _cascade(n, phi, tau, cutoff, tol=1e-12):
    """N passes of strength tau at phases m phi, m = 0..N-1: the cascade."""
    return fock_mod._evolve_passes([tau] * n, [m * phi for m in range(n)], cutoff, tol)


def _chebyshev_u(n, x):
    """U_n(x), the Chebyshev polynomial of the second kind, by its recurrence."""
    low, high = 1.0, 2.0 * x
    for _ in range(n - 1):
        low, high = high, 2.0 * x * high - low
    return high if n else low


# N = 1-12, the 13 phases 2 pi j / 12 (0, pi and 2 pi among them), and three
# strengths.  Cutoff 60 leaves at most 4.7e-32 on the shell (N = 12, tau =
# 0.05 at phi = 0 or 2 pi, r = 0.6); tol=1e-12 makes a larger leakage an
# error.  A truncated amplitude errs by about the shell's amplitude, the
# square root of the leakage: at cutoff 12 the same grid differs from the
# closed form by up to 1.2e-4 (N = 12, phi = 2 pi, tau = 0.05, leakage
# 7.9e-7), so only an oversized cutoff compares at rounding.
_CASCADE_GRID = [
    (n, 2.0 * math.pi * j / 12.0, tau)
    for n in range(1, 13)
    for j in range(13)
    for tau in (0.001, 0.02, 0.05)
]


def test_pass_cascade_matches_the_closed_form():
    # N passes of tau at phases m phi give one two-mode squeezed state per
    # ladder with sinh r = sinh tau |U_{N-1}(cosh tau cos(phi / 2))|, so
    # |sector[p, q]| = tanh^{p+q} r / cosh^2 r.  Worst difference 1.7e-14, at
    # N = 12, phi = pi, tau = 0.001 (r = 0: twelve passes back to the vacuum).
    cutoff = 60
    k = np.arange(cutoff + 1)
    for n, phi, tau in _CASCADE_GRID:
        u = _chebyshev_u(n - 1, math.cosh(tau) * math.cos(phi / 2.0))
        r = math.asinh(math.sinh(tau) * abs(u))
        ladder = np.tanh(r) ** k / math.cosh(r)
        got = np.abs(_cascade(n, phi, tau, cutoff).values)
        assert np.abs(got - np.outer(ladder, ladder).ravel()).max() <= 3e-14, (n, phi, tau)


def test_pass_cascade_matches_the_dense_sector_reference():
    # One dense complex eigh per pass on the whole (c+1)^2 sector, no gauge
    # and no sign flip, against the cached real J.  Complex amplitudes, at
    # cutoffs small enough that tau = 0.2 leaves weight on the shell: both
    # are the same truncated evolution.  Worst difference 4.1e-15, at cutoff
    # 12, N = 5, phi = pi, tau = 0.2.
    for cutoff in (5, 12):
        for n in (1, 2, 3, 5):
            for phi in (0.0, 0.3, math.pi / 2.0, 2.0, math.pi):
                for tau in (0.02, 0.2):
                    state = _cascade(n, phi, tau, cutoff, tol=math.inf)
                    want = ref.sector_passes([tau] * n, [m * phi for m in range(n)], cutoff)
                    assert np.abs(state.values - want).max() <= 1e-14, (cutoff, n, phi, tau)


def test_pass_cascade_limits():
    # phi = 0: every pass has the same generator, so N passes of tau are one
    # pass of N tau (worst 1.4e-14, N = 12, tau = 0.001).  phi = pi with even
    # N: passes m and m + 1 undo each other, leaving the vacuum (worst 1.7e-14,
    # N = 12, tau = 0.001).
    cutoff = 60
    vacuum = np.zeros((cutoff + 1) ** 2)
    vacuum[0] = 1.0
    for n in range(1, 13):
        for tau in (0.001, 0.02, 0.05):
            once = fock_mod._evolve_passes([n * tau], [0.0], cutoff, 1e-12).values
            assert np.abs(_cascade(n, 0.0, tau, cutoff).values - once).max() <= 3e-14, (n, tau)
            if n % 2 == 0:
                back = _cascade(n, math.pi, tau, cutoff).values
                assert np.abs(back - vacuum).max() <= 3e-14, (n, tau)


def test_zero_tau_evolution_is_identity():
    state = evolve_vacuum(ResonatorConfig(4, 0.8, 0.0), 3)
    assert state.amplitudes[0] == pytest.approx(1.0)
    assert state.norm() == pytest.approx(1.0)
    # Eigenbasis roundtrip leaves sub-1e-30 dust on the shell, nothing more.
    assert state.leakage < 1e-20


def test_output_lives_in_pair_sectors():
    # Total emission weight: vacuum plus every entangled sector recovers
    # (almost) everything; the remainder is the truncated tail.
    cfg = ResonatorConfig(2, 0.0, 0.04)
    state = evolve_vacuum(cfg, 8)
    total = abs(state.amplitudes[0]) ** 2
    for m in range(1, 9):
        total += abs(project_entangled(state, m)) ** 2
    assert total <= 1.0 + 1e-12
    assert total == pytest.approx(1.0, abs=1e-12)


def test_probability_converges_in_cutoff():
    cfg = ResonatorConfig(2, 0.0, 0.05)
    p_small = abs(project_entangled(evolve_vacuum(cfg, 10), 1)) ** 2
    p_large = abs(project_entangled(evolve_vacuum(cfg, 12), 1)) ** 2
    assert abs(p_large - p_small) < 1e-10


def test_projection_matches_probability():
    cfg = ResonatorConfig(3, 0.3, 0.01)
    state = evolve_vacuum(cfg, 8)
    for m in (1, 2):
        p = abs(project_entangled(state, m)) ** 2
        assert p == pytest.approx(pair_probability_exact(m, cfg), abs=1e-10)
    with pytest.raises(ValueError):
        project_entangled(state, 0)
    with pytest.raises(ValueError):
        project_entangled(state, 9)


def test_entangled_state_structure():
    space = FockSpace(4)
    for m in (1, 2, 3):
        phi_m = entangled_state(m, space)
        assert phi_m.norm() == pytest.approx(1.0)
        # Antisymmetric signs: k = 1 term negative.
        amp = phi_m.amplitudes[ref.index(space, (m - 1, 1, 1, m - 1))]
        assert amp == pytest.approx(-1.0 / math.sqrt(m + 1.0))
    with pytest.raises(ValueError):
        entangled_state(5, space)
    with pytest.raises(ValueError):
        entangled_state(0, space)


def test_projection_is_overlap_with_entangled_state():
    cfg = ResonatorConfig(2, 0.0, 0.03)
    state = evolve_vacuum(cfg, 8)
    space = FockSpace(8)
    for m in (1, 2):
        direct = project_entangled(state, m)
        via_overlap = entangled_state(m, space).overlap(state)
        assert direct == pytest.approx(via_overlap, abs=1e-14)


def test_sector_states_match_loop_reference():
    # Reference: the per-state loops over |n-l, l; l, n-l> through
    # FockSpace.index that the sector-array code replaced.
    def disentangled_loop(a_tau, space):
        amps = np.zeros(space.dim, dtype=complex)
        x = abs(a_tau)
        if x == 0.0:
            amps[0] = 1.0
            return amps
        u = -1j * (complex(a_tau) / x) * math.tanh(x)
        sech2 = 1.0 / math.cosh(x) ** 2
        for n in range(space.cutoff + 1):
            coeff = sech2 * u**n
            for l in range(n + 1):
                sign = -1.0 if l % 2 else 1.0
                amps[ref.index(space, (n - l, l, l, n - l))] = sign * coeff
        return amps

    def entangled_loop(m, space):
        amps = np.zeros(space.dim, dtype=complex)
        for k in range(m + 1):
            amps[ref.index(space, (m - k, k, k, m - k))] = (-1.0) ** k / math.sqrt(m + 1.0)
        return amps

    def project_loop(amps, m, space):
        total = 0.0 + 0.0j
        for k in range(m + 1):
            total += (-1.0) ** k * amps[ref.index(space, (m - k, k, k, m - k))]
        return total / math.sqrt(m + 1.0)

    for cutoff in (4, 12):
        space = FockSpace(cutoff)
        for a_tau in (0.1 * np.exp(0.7j), 0.0, -0.35j):
            closed = disentangled_state(a_tau, space)
            reference = disentangled_loop(a_tau, space)
            assert np.abs(closed.amplitudes - reference).max() <= 1e-15
            for m in (1, 2, 3):
                phi_m = entangled_loop(m, space)
                assert np.abs(entangled_state(m, space).amplitudes - phi_m).max() <= 1e-15
                expected = project_loop(reference, m, space)
                assert abs(project_entangled(closed, m) - expected) <= 1e-15


def test_disentangled_phase_convention():
    # Complex A tau rotates u, it does not just scale it.
    space = FockSpace(4)
    a_tau = 0.1 * np.exp(0.7j)
    state = disentangled_state(a_tau, space)
    pair_amp = state.amplitudes[ref.index(space, (1, 0, 0, 1))]
    expected = -1j * np.exp(0.7j) * math.tanh(0.1) / math.cosh(0.1) ** 2
    assert pair_amp == pytest.approx(expected, abs=1e-14)
    # Past x ~ 355 cosh^2(x) overflows: sech^2(x), and so every amplitude, is 0.
    pair_amp = disentangled_state(354.0, space).amplitudes[ref.index(space, (1, 0, 0, 1))]
    assert pair_amp != 0.0
    assert pair_amp == pytest.approx(-1j * math.tanh(354.0) / math.cosh(354.0) ** 2, rel=1e-15)
    for x in (356.0, 711.0):
        state = disentangled_state(x, space)
        assert state.indices.size == 15 and not state.values.any()


def test_disentangled_zero_coupling_is_vacuum():
    state = disentangled_state(0.0, 3)
    assert state.amplitudes[0] == 1.0
    assert state.norm() == pytest.approx(1.0)


def test_fock_vector_json_roundtrip():
    cfg = ResonatorConfig(2, 0.5, 0.02)
    state = evolve_vacuum(cfg, 4)
    text = state.to_json()
    loaded = FockVector.from_json(text)
    assert loaded.cutoff == state.cutoff
    assert np.abs(loaded.amplitudes - state.amplitudes).max() < 1e-14
    doc = json.loads(text)
    assert doc["order"] == ENUMERATION_ORDER
    # Both parts finite, the magnitude past the float range: written as it is.
    huge = FockVector._from_entries([5], [complex(1e308, -1e308)], 1)
    assert FockVector.from_json(huge.to_json()).values.tobytes() == huge.values.tobytes()


_AMPLITUDE_PART = st.one_of(
    st.floats(-1e-14, 1e-14),  # around AMPLITUDE_EPS, subnormals and zeros included
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    cutoff=st.integers(1, 40),
    data=st.data(),
)
def test_fock_vector_json_roundtrip_property(cutoff, data):
    # Entries above AMPLITUDE_EPS come back bit for bit at their indices;
    # smaller ones are dropped, and nothing else appears.
    dim = (cutoff + 1) ** 4
    index = sorted(data.draw(st.sets(st.integers(0, dim - 1), max_size=30)))
    parts = data.draw(st.lists(st.tuples(_AMPLITUDE_PART, _AMPLITUDE_PART),
                               min_size=len(index), max_size=len(index)))
    values = np.array([complex(re, im) for re, im in parts], dtype=complex)
    state = FockVector._from_entries(np.array(index, dtype=np.int64), values, cutoff)
    back = FockVector.from_json(state.to_json())
    keep = np.abs(values) > AMPLITUDE_EPS
    assert back.cutoff == cutoff
    assert np.array_equal(back.indices, state.indices[keep])
    assert back.values.tobytes() == values[keep].tobytes()


def test_fock_vector_json_matches_loop_reference():
    # to_json selects entries with array code; its text must equal that of
    # this per-amplitude loop, byte for byte.  The high pair sectors fall
    # below AMPLITUDE_EPS, so the threshold is exercised.  Cutoff 30 is the
    # oracle grid's largest point, 923,521 states.
    for cfg, cutoff in ((ResonatorConfig(3, 0.7, 0.05), 12), (ResonatorConfig(10, 0.0, 0.05), 30)):
        state = evolve_vacuum(cfg, cutoff)
        entries = [
            [int(i), float(a.real), float(a.imag)]
            for i, a in enumerate(state.amplitudes)
            if abs(a) > AMPLITUDE_EPS
        ]
        expected = json.dumps(
            {"cutoff": cutoff, "order": ENUMERATION_ORDER, "amplitudes": entries}
        )
        assert 50 < len(entries) < (cutoff + 1) ** 2
        assert state.to_json() == expected


@pytest.mark.parametrize(
    "bad, index",
    [
        ({3: math.nan, 5: math.inf}, 3),
        ({5: math.inf}, 5),
        ({7: complex(-math.inf, 0.0)}, 7),
        ({2: complex(0.0, math.nan)}, 2),
    ],
    ids=["nan-and-inf", "inf", "-inf-real", "nan-imag"],
)
def test_to_json_refuses_non_finite_amplitudes(bad, index):
    # NaN must not slip through the AMPLITUDE_EPS mask, nor Infinity into
    # the file: from_json and README refuse both.
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    for i, value in bad.items():
        amps[i] = value
    with pytest.raises(ValueError, match=rf"^amplitude at index {index} is .*not finite"):
        FockVector(amps, 1).to_json()


def test_fock_vector_json_schema_errors():
    with pytest.raises(SchemaError):
        FockVector.from_json("not json")
    with pytest.raises(SchemaError):
        FockVector.from_json("[1, 2]")
    with pytest.raises(SchemaError):
        FockVector.from_json('{"cutoff": 2, "amplitudes": []}')
    with pytest.raises(SchemaError):
        FockVector.from_json(
            json.dumps({"cutoff": 2, "order": "wrong", "amplitudes": []})
        )
    with pytest.raises(SchemaError):
        FockVector.from_json(
            json.dumps(
                {"cutoff": 2, "order": ENUMERATION_ORDER, "amplitudes": [[999, 0, 0]]}
            )
        )
    bad_docs = [
        {"cutoff": 0, "order": ENUMERATION_ORDER, "amplitudes": []},
        # JSON true loads as a bool, which Python counts as the int 1.
        {"cutoff": True, "order": ENUMERATION_ORDER, "amplitudes": []},
        {"cutoff": 2, "order": ENUMERATION_ORDER, "amplitudes": [[True, 1.0, 0.0]]},
        {"cutoff": 2, "order": ENUMERATION_ORDER, "amplitudes": {}},
        {"cutoff": 2, "order": ENUMERATION_ORDER, "amplitudes": [[0, "x", 0.0]]},
        {"cutoff": 2, "order": ENUMERATION_ORDER, "amplitudes": [[0, 1.0, None]]},
        {"cutoff": 2, "order": ENUMERATION_ORDER, "amplitudes": [[0, [1.0], 0.0]]},
        {"cutoff": MAX_CUTOFF + 1, "order": ENUMERATION_ORDER, "amplitudes": []},
    ]
    for doc in bad_docs:
        with pytest.raises(SchemaError):
            FockVector.from_json(json.dumps(doc))


@pytest.mark.parametrize(
    "entry, message",
    [
        ("[4, 1.0, 0.0, 5]", "amplitudes[1]: expected a JSON array of 3 entries"),
        ('{"i": 4}', "amplitudes[1]: expected a JSON array of 3 entries"),
        ("[81, 1.0, 0.0]", "amplitudes[1][0]: index 81 outside [0, 81)"),
        ("[-1, 1.0, 0.0]", "amplitudes[1][0]: index -1 outside [0, 81)"),
        ("[4, true, 0.0]", "amplitudes[1][1]: expected a finite number, got true"),
        # Python's json reads these non-standard literals as float nan/inf.
        ("[4, NaN, 0.0]", "amplitudes[1][1]: expected a finite number, got NaN"),
        ("[4, 0.5, Infinity]", "amplitudes[1][2]: expected a finite number, got Infinity"),
        ("[4, -Infinity, 0.5]", "amplitudes[1][1]: expected a finite number, got -Infinity"),
        # An integer past the float range cannot become an amplitude.
        (f"[4, {10**400}, 0.5]", "amplitudes[1][1]: expected a finite number, got an integer of 1329 bits"),
    ],
    ids=["long", "object", "index-high", "index-low", "bool", "nan", "inf", "-inf", "huge-int"],
)
def test_fock_vector_json_names_first_bad_entry(entry, message):
    # Entry 0 is fine and entry 2 is bad too: the error names entry 1.
    text = (
        f'{{"cutoff": 2, "order": "{ENUMERATION_ORDER}", '
        f'"amplitudes": [[0, 1.0, 0.0], {entry}, [99, NaN, 0]]}}'
    )
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        FockVector.from_json(text)


_MAX_INT = int(sys.float_info.max)


def test_fock_vector_json_shows_a_large_bad_index_in_a_short_message():
    # An index that is an array is named by its path and shown by its size.
    entry = [list(range(50_000)), 1.0, 0.0]
    text = json.dumps({"cutoff": 2, "order": ENUMERATION_ORDER, "amplitudes": [[0, 1.0, 0.0], entry]})
    with pytest.raises(SchemaError) as err:
        FockVector.from_json(text)
    message = str(err.value)
    assert message == "amplitudes[1][0]: expected an integer index, got a JSON array of 50000 entries"
    assert len(message.encode()) < 1024


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("order", "o" * 1_000_000,
         f'enumeration order a JSON string of 1000000 characters, "{"o" * 64}"... '
         f'does not match "{ENUMERATION_ORDER}"'),
        ("cutoff", list(range(1_000_000)),
         f"cutoff must be an integer from 1 to {MAX_CUTOFF}, got a JSON array of 1000000 entries"),
    ],
    ids=["order", "cutoff"],
)
def test_fock_vector_json_shows_a_large_order_or_cutoff_in_a_short_message(key, value, message):
    # The order and the cutoff are shown by their kind and size, not echoed whole.
    doc = {"cutoff": 2, "order": ENUMERATION_ORDER, "amplitudes": [[0, 1.0, 0.0]], key: value}
    with pytest.raises(SchemaError) as err:
        FockVector.from_json(json.dumps(doc))
    assert str(err.value) == message
    assert len(str(err.value).encode()) < 1024


@pytest.mark.parametrize("column", [1, 2], ids=["re", "im"])
def test_fock_vector_json_refuses_int_just_past_float_range(column):
    # int(max) + 1 rounds down to the float maximum rather than overflowing,
    # so a finiteness test on the loaded column cannot see it; the reader
    # refuses it as is_json_number does, and keeps the largest int in range.
    def doc(value):
        entry = [4, 0.5, 0.5]
        entry[column] = value
        return json.dumps({"cutoff": 2, "order": ENUMERATION_ORDER, "amplitudes": [[0, 1, 0], entry]})

    # Each is shown by its size, 1024 bits, not by its 309 digits.
    where = rf"^amplitudes\[1\]\[{column}\]: expected a finite number, got an integer of 1024 bits$"
    with pytest.raises(SchemaError, match=where):
        FockVector.from_json(doc(_MAX_INT + 1))
    with pytest.raises(SchemaError, match=where):
        FockVector.from_json(doc(-_MAX_INT - 1))
    loaded = FockVector.from_json(doc(_MAX_INT))
    assert np.abs(loaded.values).max() == sys.float_info.max


def test_fock_vector_json_sorts_unique_entries_given_out_of_order():
    # Only indices that are not strictly increasing go through np.unique;
    # each entry keeps its own value.
    entries = [[40, 1.0, 0.5], [7, 0.0, 2.0], [80, -3.0, 0.0], [0, 4, 0], [8, 0.25, -1]]
    doc = {"cutoff": 2, "order": ENUMERATION_ORDER, "amplitudes": entries}
    loaded = FockVector.from_json(json.dumps(doc))
    assert loaded.indices.dtype == np.int64
    assert loaded.indices.tolist() == [0, 7, 8, 40, 80]
    assert loaded.values.tolist() == [4.0, 2.0j, 0.25 - 1j, 1.0 + 0.5j, -3.0]
    ordered = FockVector.from_json(json.dumps({**doc, "amplitudes": sorted(entries)}))
    assert ordered.indices.tobytes() == loaded.indices.tobytes()
    assert ordered.values.tobytes() == loaded.values.tobytes()


def test_fock_vector_json_last_duplicate_wins():
    doc = {
        "cutoff": 2,
        "order": ENUMERATION_ORDER,
        "amplitudes": [[40, 1.0, 0.0], [7, 0.0, 2.0], [40, 0.0, -3.0], [0, 4, 0]],
    }
    loaded = FockVector.from_json(json.dumps(doc))
    assert loaded.indices.tolist() == [0, 7, 40]
    assert loaded.values.tolist() == [4.0, 2.0j, -3.0j]
    # A repeat next to its first entry leaves the indices non-decreasing but
    # not strictly increasing, so it is deduplicated too.
    adjacent = [[0, 1.0, 0.0], [5, 1.0, 0.0], [5, 2.0, 0.0], [9, 3.0, 0.0]]
    loaded = FockVector.from_json(json.dumps({**doc, "amplitudes": adjacent}))
    assert loaded.indices.tolist() == [0, 5, 9]
    assert loaded.values.tolist() == [1.0, 2.0, 3.0]
    single = FockVector.from_json(json.dumps({**doc, "amplitudes": [[80, 0.5, 0.5]]}))
    assert single.indices.tolist() == [80] and single.values.tolist() == [0.5 + 0.5j]
    empty = FockVector.from_json(json.dumps({**doc, "amplitudes": []}))
    assert empty.indices.size == 0 and empty.norm() == 0.0
    assert project_entangled(empty, 1) == 0.0


def test_oracle_allocations_stay_in_the_pair_sector():
    # Cutoff 30 (923,521 states): one dense complex vector alone is 14.8 MB,
    # while the sector is 961 amplitudes.  Evolution, closed form,
    # projections and a JSON round trip together must stay far below one
    # full-space vector.
    cfg = ResonatorConfig(10, 0.0, 0.05)
    a_tau = amplitude_sum(cfg.n_passes, cfg.phi) * cfg.tau
    cutoff = suggest_cutoff(a_tau, floor=12)
    assert cutoff == 30
    evolve_vacuum(cfg, cutoff)  # lazy imports and caches outside the trace
    tracemalloc.start()
    try:
        state = evolve_vacuum(cfg, cutoff)
        closed = disentangled_state(a_tau, cutoff)
        amps = [project_entangled(state, m) for m in (1, 2)]
        back = FockVector.from_json(state.to_json())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert state.indices.size == 31**2 and closed.indices.size == 31 * 32 // 2
    assert abs(amps[0]) ** 2 == pytest.approx(pair_probability_exact(1, cfg), rel=1e-12)
    assert back.cutoff == 30 and back.indices.size < state.indices.size


@pytest.mark.parametrize("x", [1.0, 1.5, 2.0])
def test_oracle_at_high_gain(x):
    # |A tau| up to 2 at the suggested cutoffs 85, 232 and 629, where the full
    # space has up to 1.6e11 states: the oracle runs on the sector alone.
    cfg = ResonatorConfig(1, 0.0, x)
    cutoff = suggest_cutoff(x)
    assert cutoff == {1.0: 85, 1.5: 232, 2.0: 629}[x]
    state = evolve_vacuum(cfg, cutoff)
    assert state.indices.size == (cutoff + 1) ** 2
    assert state.leakage < 1e-10
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    for m in (1, 2):
        p = abs(project_entangled(state, m)) ** 2
        assert p == pytest.approx(pair_probability_exact(m, cfg), rel=1e-12)
    # The closed form's entries (n <= cutoff) are a subset of the evolved
    # sector; the evolved weight outside them is the truncated tail.
    closed = disentangled_state(x, cutoff)
    pos = np.searchsorted(state.indices, closed.indices)
    assert np.array_equal(state.indices[pos], closed.indices)
    assert np.abs(state.values[pos] - closed.values).max() < 1e-8
    outside = np.delete(state.values, pos)
    assert np.sum(np.abs(outside) ** 2) < 1e-10
    if cutoff > 106:
        with pytest.raises(ValueError, match=f"cutoff {cutoff}: a dense vector needs"):
            state.amplitudes


def test_suggest_cutoff():
    assert suggest_cutoff(0.0) == 8
    assert suggest_cutoff(0.5, floor=2) == math.ceil(
        math.log(1e-10) / math.log(math.tanh(0.5))
    )
    assert suggest_cutoff(1e-6, floor=4) == 4
    # tanh(20) rounds to 1: no cutoff bounds the leakage.
    with pytest.raises(ValueError, match="no finite cutoff"):
        suggest_cutoff(20.0)
    with pytest.raises(ValueError):
        suggest_cutoff(0.1, floor=0)


def test_suggested_cutoff_keeps_leakage_low():
    for a_tau in (0.1, 0.3):
        cfg = ResonatorConfig(1, 0.0, a_tau)
        state = evolve_vacuum(cfg, suggest_cutoff(a_tau, floor=6))
        assert state.leakage < 1e-10

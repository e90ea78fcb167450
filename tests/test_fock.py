"""Enumeration, ladder operators, su(1,1) structure, and the evolution oracle."""

import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from stimpairs.errors import SchemaError, TruncationError
from stimpairs.fock import (
    AMPLITUDE_EPS,
    ENUMERATION_ORDER,
    MODES,
    FockSpace,
    FockVector,
    build_generator,
    disentangled_state,
    entangled_state,
    evolve_vacuum,
    project_entangled,
    su11_generators,
    suggest_cutoff,
)
from stimpairs.resonator import ResonatorConfig, amplitude_sum, pair_probability_exact


def test_space_dimensions():
    space = FockSpace(3)
    assert space.dim == 4**4
    assert space.base == 4
    assert space.occupations.shape == (256, 4)


def test_index_occupation_roundtrip():
    space = FockSpace(2)
    for i in range(space.dim):
        occ = space.occupation(i)
        assert space.index(occ) == i
    # Lexicographic: last mode varies fastest.
    assert space.occupation(0) == (0, 0, 0, 0)
    assert space.occupation(1) == (0, 0, 0, 1)
    assert space.index((1, 0, 0, 0)) == space.base**3


def test_index_rejects_out_of_range():
    space = FockSpace(2)
    with pytest.raises(ValueError):
        space.index((3, 0, 0, 0))
    with pytest.raises(ValueError):
        space.index((0, 0, -1, 0))
    with pytest.raises(ValueError):
        space.occupation(space.dim)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        FockSpace(0)
    with pytest.raises(ValueError):
        FockSpace(2.5)


def test_ladder_matrix_elements():
    space = FockSpace(3)
    for mode in MODES:
        adag = space.raising(mode)
        k = MODES.index(mode)
        vac = space.index((0, 0, 0, 0))
        one = [0, 0, 0, 0]
        one[k] = 1
        assert adag[space.index(tuple(one)), vac] == pytest.approx(1.0)
        two = [0, 0, 0, 0]
        two[k] = 2
        assert adag[space.index(tuple(two)), space.index(tuple(one))] == pytest.approx(
            math.sqrt(2.0)
        )
    with pytest.raises(ValueError):
        space.raising("xx")


def test_number_operator_from_ladders():
    space = FockSpace(3)
    for mode in MODES:
        num = (space.raising(mode) @ space.lowering(mode)).toarray()
        k = MODES.index(mode)
        assert np.allclose(np.diag(num).real, space.occupations[:, k])


def test_boundary_mask():
    space = FockSpace(2)
    mask = space.boundary_mask
    assert mask[space.index((2, 0, 1, 0))]
    assert not mask[space.index((1, 1, 1, 1))]
    assert mask.sum() == space.dim - space.cutoff**4


def test_evolution_leaves_occupation_table_unbuilt():
    # The oracle reads only cutoff, base and dim; the (c+1)^4 x 4 table and
    # the boundary mask are built on first use only.
    space = FockSpace(12)
    state = evolve_vacuum(ResonatorConfig(2, 0.3, 0.01), space)
    assert "occupations" not in vars(space)
    assert "boundary_mask" not in vars(space)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert space.boundary_mask.sum() == space.dim - space.cutoff**4
    assert "occupations" in vars(space)


def test_su11_commutators_interior():
    # Truncation breaks the algebra on the top shells; check columns whose
    # total occupation keeps every product inside the space.
    space = FockSpace(4)
    l_plus, l_minus, l_zero = su11_generators(space)
    total = space.occupations.sum(axis=1)
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
    l_plus, l_minus, _ = su11_generators(space)
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
    l_plus, _, l_zero = su11_generators(space)
    vac = space.vacuum().amplitudes
    pair = l_plus @ vac
    assert pair[space.index((1, 0, 0, 1))] == pytest.approx(1.0)
    assert pair[space.index((0, 1, 1, 0))] == pytest.approx(-1.0)
    assert np.count_nonzero(pair) == 2
    # The diagonal generator holds the vacuum at eigenvalue 1.
    assert np.allclose(l_zero @ vac, vac)


def test_generator_pump_basis():
    space = FockSpace(2)
    cfg = ResonatorConfig(1, 0.0, 0.01)
    cw = build_generator(cfg, space, pump_basis="cw")
    ccw = build_generator(cfg, space, pump_basis="ccw")
    combined = build_generator(cfg, space, pump_basis="combined")
    assert abs(combined - (cw - ccw)).max() < 1e-14
    with pytest.raises(ValueError):
        build_generator(cfg, space, pump_basis="sideways")


def test_vacuum_and_vector_validation():
    space = FockSpace(2)
    vac = space.vacuum()
    assert vac.norm() == pytest.approx(1.0)
    assert vac.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        FockVector(np.zeros(10, dtype=complex), 2)


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
    occ = space.occupations
    charges = [
        sp.diags((occ[:, i] - occ[:, j]).astype(float)) for i, j in ((0, 3), (1, 2))
    ]
    cfg = ResonatorConfig(3, 0.7, 0.02)
    for basis in ("cw", "ccw", "combined"):
        g = build_generator(cfg, space, pump_basis=basis)
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
        shell = float(np.sum(np.abs(reference[space.boundary_mask]) ** 2))
        assert state.leakage == pytest.approx(shell, rel=1e-9, abs=1e-20)
        assert state.leakage >= least
    closed = disentangled_state(0.3, space)
    assert np.abs(closed.amplitudes - reference).max() > 1e-3


def test_truncation_error_reports_leakage():
    # tau far too large for a tiny cutoff strands weight on the shell.
    cfg = ResonatorConfig(1, 0.0, 1.0)
    with pytest.raises(TruncationError) as err:
        evolve_vacuum(cfg, 2)
    assert err.value.leakage > 1e-10
    assert err.value.cutoff == 2


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
        amp = phi_m.amplitudes[space.index((m - 1, 1, 1, m - 1))]
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


def test_disentangled_phase_convention():
    # Complex A tau rotates u, it does not just scale it.
    space = FockSpace(4)
    a_tau = 0.1 * np.exp(0.7j)
    state = disentangled_state(a_tau, space)
    pair_amp = state.amplitudes[space.index((1, 0, 0, 1))]
    expected = -1j * np.exp(0.7j) * math.tanh(0.1) / math.cosh(0.1) ** 2
    assert pair_amp == pytest.approx(expected, abs=1e-14)


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


def test_fock_vector_json_matches_loop_reference():
    # to_json selects entries with array code; its text must equal that of
    # this per-amplitude loop, byte for byte.  At cutoff 12 the high pair
    # sectors fall below AMPLITUDE_EPS, so the threshold is exercised.
    state = evolve_vacuum(ResonatorConfig(3, 0.7, 0.05), 12)
    entries = [
        [int(i), float(a.real), float(a.imag)]
        for i, a in enumerate(state.amplitudes)
        if abs(a) > AMPLITUDE_EPS
    ]
    expected = json.dumps(
        {"cutoff": 12, "order": ENUMERATION_ORDER, "amplitudes": entries}
    )
    assert 50 < len(entries) < 13**2
    assert state.to_json() == expected


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
    with pytest.raises(SchemaError):
        FockVector.from_json(
            json.dumps({"cutoff": 0, "order": ENUMERATION_ORDER, "amplitudes": []})
        )


def test_suggest_cutoff():
    assert suggest_cutoff(0.0) == 8
    assert suggest_cutoff(0.5, floor=2) == math.ceil(
        math.log(1e-10) / math.log(math.tanh(0.5))
    )
    assert suggest_cutoff(1e-6, floor=4) == 4
    with pytest.raises(ValueError):
        suggest_cutoff(0.1, amp_tol=2.0)
    with pytest.raises(ValueError):
        suggest_cutoff(0.1, floor=0)


def test_suggested_cutoff_keeps_leakage_low():
    for a_tau in (0.1, 0.3):
        cfg = ResonatorConfig(1, 0.0, a_tau)
        state = evolve_vacuum(cfg, suggest_cutoff(a_tau, floor=6))
        assert state.leakage < 1e-10

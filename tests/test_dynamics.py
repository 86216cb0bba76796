import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinmirror import dynamics, sectors
from spinmirror.chains import (
    chain_pattern,
    christandl_chain,
    parallel_chain_pattern,
    product_lattice_couplings,
    uniform_chain,
)
from spinmirror.dynamics import (
    KRYLOV_BREAKDOWN,
    apply_hamiltonian,
    classify_spectrum,
    evolve,
    evolve_sparse,
    evolve_state,
    has_degenerate_mixed_group,
    mirror_propagator,
    mirroring_report,
    permuted_ranks,
    phase_network_fit,
    transfer_fidelity,
)
from spinmirror.lattice import (
    SYMMETRY_NAMES,
    CouplingPattern,
    ExchangeGraph,
    build_chain,
    build_rect_lattice,
    build_square_lattice,
    check_symmetry,
    group_closure,
    pattern_from_weights,
    random_symmetric_pattern,
    symmetry_map,
    uniform_pattern,
)
from spinmirror.sectors import (
    Propagator,
    SectorHamiltonian,
    SectorState,
    SparseState,
    basis_state,
    build_sector_hamiltonian,
    enumerate_sector_basis,
    from_sector_state,
    popcount,
)
from spinmirror.witness import WitnessSpec, build_witness, diagonal_basis_state

from oracles import (
    apply_hamiltonian_reference,
    classify_groups,
    evolve_one_sector_reference,
    evolve_sparse_reference,
    evolve_stationary_reference,
    pauli_hamiltonian,
    permutation_operator,
    restrict_to_sector,
    sector_masks,
    sector_matrix,
    sector_propagation,
)


def random_graph(site_count, n_edges, seed):
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in range(site_count) for b in range(a + 1, site_count)]
    chosen = rng.choice(len(pairs), size=n_edges, replace=False)
    return ExchangeGraph(
        site_count,
        tuple((*pairs[i], float(rng.uniform(0.2, 1.5))) for i in sorted(chosen)),
    )


def random_sector_state(basis, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return SectorState(basis, v / np.linalg.norm(v))


def test_evolve_at_zero_time_is_identity():
    H = build_sector_hamiltonian(chain_pattern(christandl_chain(4)).to_graph(), 2)
    psi = random_sector_state(H.basis, 0)
    out = evolve(H, psi, 0.0)
    assert np.abs(out.amplitudes - psi.amplitudes).max() < 1e-14


def test_two_site_flip():
    # hopping element 2, so the excitation has fully swapped at t = pi/4
    pat = chain_pattern(uniform_chain(2))
    H = build_sector_hamiltonian(pat.to_graph(), 1)
    out = evolve(H, basis_state(H.basis, 0b01), math.pi / 4)
    assert abs(abs(out.amplitudes[H.basis.rank(0b10)]) - 1.0) < 1e-14
    assert abs(out.amplitudes[H.basis.rank(0b01)]) < 1e-14


def test_transfer_fidelity_quarter_swap():
    pat = chain_pattern(uniform_chain(2))
    assert transfer_fidelity(pat, 0, 1, math.pi / 8) == pytest.approx(math.sqrt(2) / 2, abs=1e-14)


def test_transfer_fidelity_takes_a_lattice_past_63_sites():
    # 8x8 couplings in [-1, 1) with a quarter of them zero, against expm of the
    # one-excitation H built here; at 7x7 the moduli are the sector eigh's bytes
    rng = np.random.default_rng(5)
    for n in (8, 7):
        g = build_square_lattice(n)
        w = rng.uniform(-1.0, 1.0, len(g.edges()))
        pat = pattern_from_weights(g, np.where(rng.random(len(w)) < 0.25, 0.0, w))
        ts = np.linspace(0.4, 10.0, 6)
        got = transfer_fidelity(pat, (1, 1), (n, n), ts)
        if n == 8:
            H = np.zeros((64, 64))
            for a, b, x in pat.to_graph().edges:
                H[a, b] = H[b, a] = 2 * x
            want = [abs(scipy.linalg.expm(-1j * H * t)[63, 0]) for t in ts]
            assert np.max(np.abs(got - want)) < 1e-12
        else:
            evals, vecs = build_sector_hamiltonian(pat, 1).eig()
            want = np.abs(Propagator(evals, vecs[-1] * vecs[0]).amplitudes(ts))
            assert got.tobytes() == want.tobytes()
        assert transfer_fidelity(pat, 0, n * n - 1, ts[2]) == pytest.approx(got[2], abs=1e-14)


def test_mirror_propagator_matches_pauli_expm():
    g = build_square_lattice(3)
    rot = symmetry_map(g, "rotation_pi")
    pat = random_symmetric_pattern(g, (rot,), seed=4)
    full = pauli_hamiltonian(9, pat.to_graph().edges)
    ts = (0.3, 1.7, 4.1)
    for k in (1, 2, 3):
        masks = sector_masks(9, k)
        # rotation by pi sends flat site p of the 3x3 lattice to site 8 - p
        mirrored = [sum(1 << (8 - p) for p in range(9) if m >> p & 1) for m in masks]
        rows = np.searchsorted(masks, mirrored)
        H = restrict_to_sector(full, 9, k).toarray()
        amps = mirror_propagator(pat, k, rot).amplitudes(ts)
        assert amps.shape == (len(masks), len(ts))
        for i, t in enumerate(ts):
            U = scipy.linalg.expm(-1j * t * H)
            assert np.abs(amps[:, i] - U[rows, np.arange(len(masks))]).max() < 1e-12


def test_unitarity_and_reversibility():
    g = random_graph(10, 14, seed=5)
    H = build_sector_hamiltonian(g, 3)
    psi = random_sector_state(H.basis, 1)
    t = 3.7
    out = evolve(H, psi, t)
    assert abs(out.norm() - 1.0) < 1e-12
    back = evolve(H, out, -t)
    assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-10


def test_krylov_agrees_with_dense():
    # a dense random state on a sector of dimension 1001: Lanczos on the sector
    # matrix (evolve) and on the state's support (evolve_sparse) both agree
    # with expm_multiply to 1e-9
    g = random_graph(14, 24, seed=7)
    H = build_sector_hamiltonian(g, 4)
    assert 1000 <= H.dim <= 4096
    psi = random_sector_state(H.basis, 2)
    t = 2.3
    masks, ref = sector_propagation(14, g.edges, 4, dict(zip(H.basis.masks.tolist(),
                                                             psi.amplitudes)), t)
    assert np.array_equal(H.basis.masks, masks)
    assert np.linalg.norm(evolve(H, psi, t).amplitudes - ref) < 1e-9
    sparse_out = evolve_sparse(g, from_sector_state(psi), t)
    assert np.linalg.norm(oracle_vector(masks, sparse_out) - ref) < 1e-9
    assert abs(sparse_out.norm() - 1.0) < 1e-10


def test_apply_hamiltonian_matches_matrix():
    g = random_graph(8, 10, seed=11)
    H = build_sector_hamiltonian(g, 2)
    psi = random_sector_state(H.basis, 3)
    via_matrix = H.mat @ psi.amplitudes
    via_sparse = apply_hamiltonian(g, from_sector_state(psi))
    ref = from_sector_state(type(psi)(H.basis, via_matrix))
    assert via_sparse.add(ref.scaled(-1.0)).norm() < 1e-12


def test_evolve_state_multi_sector():
    pat = chain_pattern(christandl_chain(3))
    psi = SparseState.from_dict(3, {0b000: 0.5, 0b001: 0.5, 0b011: 0.5, 0b111: 0.5})
    t = 1.9
    out = evolve_state(pat.to_graph(), psi, t)
    assert abs(out.norm() - 1.0) < 1e-12
    # vacuum and full sectors are frozen (H has no diagonal part)
    assert out.amplitude(0b000) == pytest.approx(0.5, abs=1e-12)
    assert out.amplitude(0b111) == pytest.approx(0.5, abs=1e-12)
    # sector contents must match the dense per-sector evolution
    H1 = build_sector_hamiltonian(pat.to_graph(), 1)
    comp = psi.sector_split()[1].to_sector_state(H1.basis)
    ref = evolve(H1, comp, t)
    for mask, amp in zip(H1.basis.masks, ref.amplitudes):
        assert out.amplitude(int(mask)) == pytest.approx(amp, abs=1e-12)


def test_permuted_ranks_small():
    basis = enumerate_sector_basis(2, 1)
    sym = symmetry_map(build_chain(2), "vertical_axis")
    assert list(permuted_ranks(basis, sym)) == [1, 0]
    assert not permuted_ranks(basis, sym).flags.writeable
    P = permutation_operator(list(basis.masks), sym.perm)
    assert np.array_equal(P, [[0, 1], [1, 0]])


def test_mirroring_report_christandl():
    c = christandl_chain(5)
    pat = chain_pattern(c)
    sym = symmetry_map(pat.geometry, "vertical_axis")
    rep = mirroring_report(pat, 2, sym, c.nominal_transfer_time)
    assert rep.min_modulus >= 1 - 1e-12
    assert rep.max_offtarget < 1e-6
    fit = phase_network_fit(rep.phases, rep.basis)
    assert fit.ok and fit.residual <= 1e-8
    # sector phase is the single-excitation phase to the k-th power
    psi1 = (-1j) ** (c.n - 1)
    assert abs(fit.global_phase - psi1**2) < 1e-9


def test_phase_fit_rejects_scattered_phases():
    basis = enumerate_sector_basis(4, 1)
    phases = np.array([1.0, 1.0j, -1.0, -1.0j])
    fit = phase_network_fit(phases, basis)
    assert not fit.ok
    with pytest.raises(ValueError):
        phase_network_fit(phases[:2], basis)


def test_classify_two_site_chain():
    sym = symmetry_map(build_chain(2), "vertical_axis")
    groups = classify_spectrum(chain_pattern(uniform_chain(2)).to_graph(), 1, sym)
    assert [(g.eigenvalue, g.multiplicity, g.label) for g in groups] == [
        (pytest.approx(-2.0), 1, "-1"),
        (pytest.approx(2.0), 1, "+1"),
    ]
    assert not has_degenerate_mixed_group(groups)


def test_classify_zero_couplings_single_mixed_group():
    g = build_square_lattice(2)
    pat = CouplingPattern(g, np.zeros((1, 2)), np.zeros((2, 1)))
    groups = classify_spectrum(pat.to_graph(), 1, symmetry_map(g, "rotation_pi"))
    assert len(groups) == 1
    assert groups[0].multiplicity == 4
    assert groups[0].label == "mixed"
    assert has_degenerate_mixed_group(groups)


def test_classify_requires_commuting_symmetry():
    g = build_square_lattice(2)
    pat = CouplingPattern(g, np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    with pytest.raises(ValueError, match="commute"):
        classify_spectrum(pat.to_graph(), 1, symmetry_map(g, "rotation_pi"))


def test_classify_vectors_are_genuine_symmetry_eigenvectors():
    pat = parallel_chain_pattern(christandl_chain(4), 2)
    groups = classify_spectrum(pat.to_graph(), 2, symmetry_map(pat.geometry, "vertical_axis"))
    assert max(g.max_symmetry_defect for g in groups) <= 1e-8
    assert sum(g.multiplicity for g in groups) == build_sector_hamiltonian(pat, 2).dim


# -- sector evolution, and the growing index of evolve_sparse ----------------

PRODUCT_4X4_PATTERN = product_lattice_couplings(christandl_chain(4), christandl_chain(4))
PRODUCT_4X4 = PRODUCT_4X4_PATTERN.to_graph()
MASK_4X4_K5 = 0b1001000100101  # sites 0, 2, 5, 8, 12


def oracle_vector(masks, state):
    """state's amplitudes over the oracle's masks; support outside them fails."""
    got = dict(zip(state.masks.tolist(), state.amps.tolist()))
    assert set(got) <= set(int(m) for m in masks)
    return np.array([got.get(int(m), 0j) for m in masks])


@pytest.mark.parametrize("k", [4, 5])
def test_evolutions_match_sector_oracle_at_dims_1820_and_4368(k):
    # k=4 has dim 1820, k=5 dim 4368; every route runs Lanczos
    masks_in = (0b11110000, 0b1000010000100001) if k == 4 else (MASK_4X4_K5, 0b11111)
    amps_in = {masks_in[0]: 0.6, masks_in[1]: 0.8j}
    t = 1.1
    masks, ref = sector_propagation(16, PRODUCT_4X4.edges, k, amps_in, t)
    H = build_sector_hamiltonian(PRODUCT_4X4, k)
    assert np.array_equal(H.basis.masks, masks)
    psi = SparseState.from_dict(16, amps_in)
    on_sector = evolve(H, psi.to_sector_state(H.basis), t).amplitudes
    assert np.linalg.norm(on_sector - ref) < 1e-9
    for out in (evolve_sparse(PRODUCT_4X4, psi, t), evolve_state(PRODUCT_4X4, psi, t)):
        assert np.linalg.norm(oracle_vector(masks, out) - ref) < 1e-9


def test_evolve_sparse_builds_one_krylov_space_per_accepted_substep(monkeypatch):
    # t = 1.1 takes four substeps; two step lengths are rejected and halved on
    # the space already built, where rebuilding it would cost 180 matvecs. A
    # one-sector state runs on its sector's CSR; a state on two sectors grows
    # its index, and each growth step lifts the stored vectors onto it
    products, spaces, lifted = [], [], []
    space, lift = dynamics._krylov_space, dynamics._HopOperator.lift

    def count_space(matvec, v, *args):
        spaces.append(1)

        def counted(x):
            products.append(len(x))
            return matvec(x)

        return space(counted, v, *args)

    def spy_lift(self, V, rows):
        out = lift(self, V, rows)
        assert np.array_equal(out[:rows][:, self._index_pos], V[:rows])
        lifted.append((rows, V.shape[-1], out.shape[-1]))
        return out

    monkeypatch.setattr(dynamics, "_krylov_space", count_space)
    monkeypatch.setattr(dynamics._HopOperator, "lift", spy_lift)
    t, k4 = 1.1, 0b1000010000100001
    psi = SparseState.unit(16, MASK_4X4_K5)
    out = evolve_sparse(PRODUCT_4X4, psi, t)
    assert len(products) == dynamics.KRYLOV_DIM * len(spaces) == 120
    assert set(products) == {4368} and lifted == []
    assert same_bytes(out, evolve_one_sector_reference(PRODUCT_4X4, psi, t))
    masks, ref = sector_propagation(16, PRODUCT_4X4.edges, 5, {MASK_4X4_K5: 1.0}, t)
    assert np.linalg.norm(oracle_vector(masks, out) - ref) < 1e-9

    products.clear(), spaces.clear()
    psi = SparseState.from_dict(16, {MASK_4X4_K5: 0.6, k4: 0.8j})
    out = evolve_sparse(PRODUCT_4X4, psi, t)
    assert len(products) == dynamics.KRYLOV_DIM * len(spaces) == 120
    # every growth step carries all stored vectors of the first space, from
    # the two-entry start vector up to both whole sectors, 4368 + 1820 states
    rows, before, after = zip(*lifted)
    assert rows == tuple(range(1, len(lifted) + 1))
    assert before[0] == 2 and after[-1] == 4368 + 1820 and before[1:] == after[:-1]
    assert same_bytes(out, evolve_sparse_reference(PRODUCT_4X4, psi, t))
    parts = out.sector_split()
    for k, start in ((5, {MASK_4X4_K5: 0.6}), (4, {k4: 0.8j})):
        masks, ref = sector_propagation(16, PRODUCT_4X4.edges, k, start, t)
        assert np.linalg.norm(oracle_vector(masks, parts[k]) - ref) < 1e-9


def test_evolve_state_runs_no_eigendecomposition(monkeypatch):
    calls = []
    eig = SectorHamiltonian.eig

    def spy(self):
        calls.append(self.dim)
        return eig(self)

    monkeypatch.setattr(SectorHamiltonian, "eig", spy)
    mask, t = 0b1000010000100001, 1.1  # k=4: dim 1820
    out = evolve_state(PRODUCT_4X4, SparseState.unit(16, mask), t)
    assert calls == []
    masks, ref = sector_propagation(16, PRODUCT_4X4.edges, 4, {mask: 1.0}, t)
    assert np.linalg.norm(oracle_vector(masks, out) - ref) < 1e-9


def test_evolve_sparse_repeats_byte_for_byte():
    psi = SparseState.unit(16, MASK_4X4_K5)
    first = evolve_sparse(PRODUCT_4X4, psi, 1.1)
    second = evolve_sparse(PRODUCT_4X4, psi, 1.1)
    assert first.masks.tobytes() == second.masks.tobytes()
    assert first.amps.tobytes() == second.amps.tobytes()


def test_evolve_sparse_builds_no_state_per_krylov_term(monkeypatch):
    psi = SparseState.unit(16, MASK_4X4_K5)
    built = []
    init = SparseState.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SparseState, "__init__", counting)
    evolve_sparse(PRODUCT_4X4, psi, 1.1)
    assert len(built) <= 2


def test_evolution_rejects_site_count_mismatch():
    nine_sites = SparseState.unit(9, 0b1)
    empty = SparseState(9, np.empty(0, np.int64), np.empty(0, np.complex128))
    for psi, t in ((nine_sites, 0.0), (empty, 0.0), (empty, 1.0)):
        with pytest.raises(ValueError, match="site counts"):
            evolve_sparse(PRODUCT_4X4, psi, t)
        with pytest.raises(ValueError, match="site counts"):
            evolve_state(PRODUCT_4X4, psi, t)


def test_evolve_rejects_a_state_from_another_sector_of_the_same_dimension():
    graph = chain_pattern(christandl_chain(4)).to_graph()
    H1, H3 = build_sector_hamiltonian(graph, 1), build_sector_hamiltonian(graph, 3)
    assert H1.dim == H3.dim == 4
    with pytest.raises(ValueError, match="different bases"):
        evolve(H1, basis_state(H3.basis, 0b0111), 1.0)


@pytest.mark.parametrize("k", [2, 5], ids=["dim-120", "dim-4368"])
def test_evolve_returns_new_amplitudes_at_zero_time_and_on_the_zero_vector(k):
    H = build_sector_hamiltonian(PRODUCT_4X4, k)
    zero = SectorState(H.basis, np.zeros(H.dim, np.complex128))
    for psi, t in ((random_sector_state(H.basis, 8), 0.0), (zero, 1.1)):
        before = psi.amplitudes.copy()
        out = evolve(H, psi, t)
        assert np.array_equal(out.amplitudes, before)
        out.amplitudes[:] = 7.0
        assert np.array_equal(psi.amplitudes, before)


@pytest.mark.parametrize("t", [0.3, 4.1])
def test_evolve_matches_the_pauli_oracle_in_every_sector_without_eig(monkeypatch, t):
    # every sector of a 3x3 lattice is far below dimension 4096 (at most 126)
    full = pauli_hamiltonian(9, ROT_3X3.to_graph().edges)
    monkeypatch.setattr(SectorHamiltonian, "eig", lambda self: pytest.fail("eig was called"))
    for k in range(10):
        H = build_sector_hamiltonian(ROT_3X3, k)
        psi = random_sector_state(H.basis, k)
        U = scipy.linalg.expm(-1j * t * restrict_to_sector(full, 9, k).toarray())
        assert np.linalg.norm(evolve(H, psi, t).amplitudes - U @ psi.amplitudes) < 1e-9


# -- cached hop structures, against the per-call hop path ----------------------


def random_witness(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    diag = SparseState(n, np.arange(2**n, dtype=np.int64), v / np.linalg.norm(v))
    return build_witness(WitnessSpec(n, diag))


def main_symmetric_graph(n, seed):
    g = build_square_lattice(n)
    return random_symmetric_pattern(g, (symmetry_map(g, "main_diagonal"),), seed=seed).to_graph()


def random_support_state(site_count, ks, size, seed):
    rng = np.random.default_rng(seed)
    masks = np.unique(np.concatenate([rng.choice(sector_masks(site_count, k), size) for k in ks]))
    return SparseState(site_count, masks, rng.normal(size=len(masks)) + 1j * rng.normal(size=len(masks)))


def zero_edge_graph(seed):
    edges = list(PRODUCT_4X4.edges)
    for i in (2, 9, 17):
        edges[i] = (*edges[i][:2], 0.0)
    graph = ExchangeGraph(16, tuple(edges))
    return graph, random_support_state(16, (4,), 12, seed)


def colliding_state(*amps):
    """amps on the single excitations at sites 1, 4 and 9 of the 4x4 lattice."""
    return SparseState(16, np.array([1 << 1, 1 << 4, 1 << 9]), np.array(amps, np.complex128))


HOP_CASES = {
    # (graph under two weight draws of one topology, state)
    "witness-4x4": lambda s: (main_symmetric_graph(4, s), random_witness(4, 1)),
    "witness-5x5": lambda s: (main_symmetric_graph(5, s), random_witness(5, 2)),
    "random-4x4": lambda s: (main_symmetric_graph(4, s), random_support_state(16, (3, 5), 10, 3)),
    "vacuum": lambda s: (main_symmetric_graph(4, s), SparseState.unit(16, 0)),
    "full": lambda s: (main_symmetric_graph(4, s), SparseState.unit(16, (1 << 16) - 1)),
    # a whole sector is closed under hops: the first step builds the CSR
    "whole-sector": lambda s: (main_symmetric_graph(4, s), SparseState(
        16, sector_masks(16, 2), np.random.default_rng(6).normal(size=120) + 0.5j)),
    "zero-edges": lambda s: zero_edge_graph(4),
    # -1 - 0j times 2w has a negative-zero imaginary part, which must survive
    "negative-zero": lambda s: (main_symmetric_graph(4, s),
                                SparseState(16, np.array([0b1011]), np.array([complex(-1, -0.0)]))),
    # sites 1, 4 and 9 all hop onto site 5; the edges 1-5 and 4-5 are mirror
    # images, so their +-1e16 terms cancel exactly. In hop order (by edge:
    # 1-5, 5-9, 4-5) the 9-5 term is rounded to the float spacing near 1e16;
    # in source order it is added after the cancellation, exactly
    "summation-order": lambda s: (main_symmetric_graph(4, s), colliding_state(1e16, -1e16, 1.0)),
    # the same sums on the imaginary parts, under -0.0 real parts: once any
    # targets collide every sum starts at +0.0, so a -0.0 part becomes +0.0,
    # also where one hop lands alone
    "negative-zero-sum": lambda s: (main_symmetric_graph(4, s), colliding_state(
        complex(-0.0, 1e16), complex(-0.0, -1e16), complex(-0.0, 1.0))),
}


def same_bytes(a, b):
    return a.masks.tobytes() == b.masks.tobytes() and a.amps.tobytes() == b.amps.tobytes()


# the reference of the route evolve_sparse takes for each case: the witnesses,
# the vacuum and the full state are stationary, random-4x4 spans two sectors
EVOLVE_REFERENCES = dict.fromkeys(HOP_CASES, evolve_one_sector_reference)
EVOLVE_REFERENCES.update(dict.fromkeys(("witness-4x4", "witness-5x5", "vacuum", "full"),
                                       evolve_stationary_reference))
EVOLVE_REFERENCES["random-4x4"] = evolve_sparse_reference


@pytest.mark.parametrize("case", sorted(HOP_CASES))
def test_hop_products_are_byte_identical_to_the_per_call_hop_path(case):
    sectors._support_structure.cache_clear()
    reference = EVOLVE_REFERENCES[case]
    for seed in (10, 11):  # a cold structure, then a cached one under new weights
        graph, psi = HOP_CASES[case](seed)
        assert same_bytes(apply_hamiltonian(graph, psi), apply_hamiltonian_reference(graph, psi))
        assert same_bytes(evolve_sparse(graph, psi, 0.9), reference(graph, psi, 0.9))


# the supports of the other cases are closed under hops: no growth step
OPEN_HOP_CASES = sorted(set(HOP_CASES) - {"vacuum", "full", "whole-sector"})


@pytest.mark.parametrize("case", OPEN_HOP_CASES)
def test_apply_hamiltonian_and_the_first_growth_step_scatter_alike(case):
    graph, psi = HOP_CASES[case](10)
    op = dynamics._HopOperator(graph, psi.masks)
    grown = op.matvec(psi.amps)
    assert len(op.masks) > len(psi.masks)
    # the same canonicalization apply_hamiltonian applies: exact zeros dropped
    assert same_bytes(apply_hamiltonian(graph, psi), SparseState(psi.site_count, op.masks, grown))


def test_a_closed_single_sector_index_reads_the_cached_sector(monkeypatch):
    graph, psi = main_symmetric_graph(4, 10), SparseState.unit(16, 0b1000010000100000)
    sectors._support_structure.cache_clear()
    build_sector_hamiltonian(graph, 3)  # the sector's hops are cached
    sizes = []
    hop_structure = sectors._hop_structure

    def spy(endpoints, masks):
        sizes.append(len(masks))
        return hop_structure(endpoints, masks)

    monkeypatch.setattr(sectors, "_hop_structure", spy)
    out = evolve_sparse(graph, psi, 0.9)
    assert len(out.masks) == math.comb(16, 3)  # the state spread over its sector
    assert sizes == [1]  # the hops of psi's support, for the stationary test
    assert same_bytes(out, evolve_one_sector_reference(graph, psi, 0.9))


def test_writing_into_returned_states_leaves_the_next_product_unchanged():
    graph, psi = main_symmetric_graph(4, 3), random_witness(4, 5)
    for apply in (apply_hamiltonian, lambda g, x: evolve_sparse(g, x, 0.9)):
        out = apply(graph, psi)
        for arr in (out.masks, out.amps):
            arr.setflags(write=True)
            arr[:] = 0
    assert same_bytes(apply_hamiltonian(graph, psi), apply_hamiltonian_reference(graph, psi))
    assert same_bytes(evolve_sparse(graph, psi, 0.9), evolve_stationary_reference(graph, psi, 0.9))


# -- the routes of evolve_sparse: stationary, one sector, a growing index -------


def spy_support_keys(monkeypatch):
    """The distinct supports evolve_sparse requests hops for, in the order first
    asked, through both bindings: build_sector_hamiltonian and the growing index
    read the cache from sectors."""
    keys, structure = [], sectors._support_structure

    def spy(endpoints, support):
        if support not in keys:
            keys.append(support)
        return structure(endpoints, support)

    monkeypatch.setattr(dynamics, "_support_structure", spy)
    monkeypatch.setattr(sectors, "_support_structure", spy)
    return keys


@pytest.mark.parametrize("evolution", [evolve_sparse, evolve_state])
def test_no_time_or_no_amplitude_returns_the_input_bytes_in_fresh_arrays(monkeypatch,
                                                                           evolution):
    keys = spy_support_keys(monkeypatch)
    psi = SparseState.from_dict(16, {0b11: 0.6, 0b101: 0.8j})
    zero = SparseState(16, np.zeros(0, np.int64), np.zeros(0))
    for state, t in ((psi, 0.0), (zero, 0.9)):
        out = evolution(PRODUCT_4X4, state, t)
        assert out.site_count == 16 and same_bytes(out, state)
        assert not np.shares_memory(out.masks, state.masks)
        assert not np.shares_memory(out.amps, state.amps)
    assert keys == []


def test_a_stationary_witness_never_requests_its_sector(monkeypatch):
    # the witness of diagonal state 10000 lies in one sector, k = 11 of the
    # 5x5 lattice: C(25, 11) = 4,457,400 masks, never to be enumerated
    graph, t = main_symmetric_graph(5, 8), 1.3
    w = build_witness(WitnessSpec(5, diagonal_basis_state(5, "10000")))
    assert set(popcount(w.masks).tolist()) == {11}
    keys, enumerated = spy_support_keys(monkeypatch), []
    monkeypatch.setattr(sectors, "enumerate_sector_basis", lambda *a: enumerated.append(a))
    out = evolve_sparse(graph, w, t)
    assert keys == [w.masks.tobytes()] and enumerated == []
    assert same_bytes(out, evolve_stationary_reference(graph, w, t))


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_the_stationary_route_on_both_sides_of_the_breakdown_rule(monkeypatch, factor):
    # psi = v + eps u with u another eigenvector has the relative residual
    # ||H psi - E psi|| / ||psi|| = eps |lambda_u - lambda_v| / (1 + eps^2),
    # which the route reads in units of the mean coupling
    graph, k, t = random_graph(6, 9, 3), 3, 0.7
    masks, H = sector_matrix(6, graph.edges, k)
    evals, vecs = np.linalg.eigh(H.toarray())
    gaps = np.minimum(np.diff(evals, prepend=-np.inf), np.diff(evals, append=np.inf))
    i = int(np.argmax(gaps))
    j = (i + 1) % len(evals)
    scale = np.mean([abs(w) for *_, w in graph.edges])
    eps = factor * KRYLOV_BREAKDOWN * scale / abs(evals[j] - evals[i])
    psi = vecs[:, i] + eps * vecs[:, j]
    h = H @ psi
    energy = np.vdot(psi, h).real / np.vdot(psi, psi).real
    residual = np.linalg.norm(h - energy * psi) / np.linalg.norm(psi) / scale
    assert residual == pytest.approx(factor * KRYLOV_BREAKDOWN, rel=0.1)
    spaces, expm = [], dynamics._krylov_expm
    monkeypatch.setattr(dynamics, "_krylov_expm", lambda *a: spaces.append(1) or expm(*a))
    out = evolve_sparse(graph, SparseState(6, np.array(masks), psi), t)
    assert len(spaces) == int(factor > 1)
    _, ref = sector_propagation(6, graph.edges, k, dict(zip(masks, psi)), t)
    assert np.linalg.norm(oracle_vector(masks, out) - ref) < 1e-9


@pytest.mark.parametrize("graph, k, mask, t", [
    (PRODUCT_4X4, 5, MASK_4X4_K5, 1.1),
    (uniform_pattern(build_square_lattice(5)).to_graph(), 4, 0b1000000100000010000001, 0.5),
], ids=["product-4x4-k5", "uniform-5x5-k4"])
def test_a_one_sector_state_evolves_on_its_cached_sector(monkeypatch, graph, k, mask, t):
    keys = spy_support_keys(monkeypatch)
    monkeypatch.setattr(dynamics, "_HopOperator", None)  # no growing index
    psi = SparseState.unit(graph.site_count, mask)
    masks, ref = sector_propagation(graph.site_count, graph.edges, k, {mask: 1.0}, t)
    for evolution in (evolve_sparse, evolve_state):
        keys.clear()
        out = evolution(graph, psi, t)
        assert keys == [psi.masks.tobytes(), (graph.site_count, k)]
        assert np.array_equal(out.masks, masks)
        assert np.linalg.norm(out.amps - ref) < 1e-9


@pytest.mark.parametrize("graph, k, mask, closure", [
    # the rungs of two parallel chains have strength 0: one excitation per chain stays so
    (parallel_chain_pattern(christandl_chain(4), 2).to_graph(), 2, 0b10001, 16),
    # 14 sites without a live edge: the closure is the 4x4 sector, C(30, 5) is 142,506
    (ExchangeGraph(30, PRODUCT_4X4.edges), 5, MASK_4X4_K5, 4368),
], ids=["parallel-chains", "uncoupled-sites"])
def test_a_one_sector_state_on_unjoined_sites_keeps_the_growing_index(monkeypatch, graph, k,
                                                                      mask, closure):
    keys = spy_support_keys(monkeypatch)
    psi, t = SparseState.unit(graph.site_count, mask), 0.9
    out = evolve_sparse(graph, psi, t)
    assert keys == [psi.masks.tobytes()] and len(out.masks) == closure
    assert same_bytes(out, evolve_sparse_reference(graph, psi, t))
    sites = 1 + max(max(a, b) for a, b, _ in graph.edges)
    masks, ref = sector_propagation(sites, graph.edges, k, {mask: 1.0}, t)
    assert np.linalg.norm(oracle_vector(masks, out) - ref) < 1e-9


def uniform_chain_graph(site_count):
    return ExchangeGraph(site_count, tuple((p, p + 1, 1.0) for p in range(site_count - 1)))


@pytest.mark.parametrize("site_count, k", [(20, 4), (40, 8)])
def test_a_domain_wall_on_a_long_chain_keeps_the_growing_index(monkeypatch, site_count, k):
    # at t = 0.1 the first Krylov space grows the index over masks within 30
    # hops of the wall, far fewer than the sector: C(40, 8) is 76,904,685
    graph, psi, t = uniform_chain_graph(site_count), SparseState.unit(site_count, 2**k - 1), 0.1
    keys, enumerated = spy_support_keys(monkeypatch), []
    monkeypatch.setattr(sectors, "enumerate_sector_basis", lambda *a: enumerated.append(a))
    out = evolve_sparse(graph, psi, t)
    assert keys == [psi.masks.tobytes()] and enumerated == []
    assert len(out.masks) < math.comb(site_count, k) / 2
    assert same_bytes(out, evolve_sparse_reference(graph, psi, t))
    if site_count <= 20:
        masks, ref = sector_propagation(site_count, graph.edges, k, {2**k - 1: 1.0}, t)
        assert np.linalg.norm(oracle_vector(masks, out) - ref) < 1e-9


@pytest.mark.parametrize("graph", [
    uniform_pattern(build_square_lattice(3)).to_graph(),
    uniform_chain_graph(9),
    random_graph(8, 10, 4),
    parallel_chain_pattern(christandl_chain(4), 2).to_graph(),  # zero rungs: two parts
], ids=["uniform-3x3", "chain-9", "random-8", "parallel-chains"])
def test_the_sector_radius_bounds_every_hop_distance_in_the_sector(graph):
    from scipy.sparse.csgraph import shortest_path

    endpoints = sectors._live_edges(graph)[0]
    for k in range(1, graph.site_count):
        masks, H = sector_matrix(graph.site_count, graph.edges, k)
        hops = shortest_path(H != 0, unweighted=True)  # inf between unjoined masks
        for mask, far in zip(masks, hops.max(axis=1)):
            bound = dynamics._sector_radius(endpoints, SparseState.unit(graph.site_count, mask))
            assert far <= bound and (bound == np.inf) == (far == np.inf)


def test_one_breakdown_scale_on_every_route():
    # the mean |w| over the nonzero couplings: a zero edge does not count, and
    # every live edge carries equally many entries of a whole sector's H
    graph = parallel_chain_pattern(christandl_chain(5), 2).to_graph()
    live = [abs(w) for *_, w in graph.edges if w != 0.0]
    assert len(live) < len(graph.edges)
    assert dynamics._breakdown([w for *_, w in graph.edges]) == KRYLOV_BREAKDOWN * np.mean(live)
    for k in (1, 3, 5):
        H = build_sector_hamiltonian(graph, k)
        scale = dynamics._breakdown(H.mat.data / 2) / KRYLOV_BREAKDOWN
        assert scale == pytest.approx(np.mean(live), rel=1e-14)


def scaled_graph(graph, s):
    return ExchangeGraph(graph.site_count, tuple((a, b, s * w) for a, b, w in graph.edges))


def test_evolution_does_not_depend_on_the_coupling_scale():
    # at coupling 1e-14 a unit state still swaps at t = pi / (4 * 1e-14)
    out = evolve_sparse(ExchangeGraph(2, ((0, 1, 1e-14),)), SparseState.unit(2, 0b01),
                        math.pi / 4e-14)
    assert abs(out.amplitude(0b10) + 1j) < 1e-12 and abs(out.amplitude(0b01)) < 1e-12
    # one sector and two sectors at t and at t / s under couplings scaled by s
    s, t = 1e-14, 1.1
    tiny = scaled_graph(PRODUCT_4X4, s)
    for psi in (SparseState.unit(16, MASK_4X4_K5),
                SparseState.from_dict(16, {MASK_4X4_K5: 0.6, 0b1000010000100001: 0.8j})):
        ref = evolve_sparse(PRODUCT_4X4, psi, t)
        for evolution in (evolve_sparse, evolve_state):
            out = evolution(tiny, psi, t / s)
            assert np.array_equal(out.masks, ref.masks)
            assert np.linalg.norm(out.amps - ref.amps) < 1e-12
    H, H_tiny = build_sector_hamiltonian(PRODUCT_4X4, 5), build_sector_hamiltonian(tiny, 5)
    start = basis_state(H.basis, MASK_4X4_K5)
    ref = evolve(H, start, t).amplitudes
    assert np.linalg.norm(evolve(H_tiny, start, t / s).amplitudes - ref) < 1e-12


def test_the_krylov_route_does_not_depend_on_extreme_coupling_scales():
    # a state on two sectors of a moving 3x3 pattern takes the growing index;
    # without scaling H inside the Lanczos spaces, their norms' squares underflow
    # below c ~ 1e-154 and overflow above c ~ 1e154
    g = build_square_lattice(3)
    pat = random_symmetric_pattern(g, (symmetry_map(g, "rotation_pi"),), seed=2)
    amps = np.array([1, 0.5j, 0.3]) / np.linalg.norm([1, 0.5j, 0.3])
    psi = SparseState(9, np.array([0b11, 0b100000001, 0b1]), amps)
    ref = evolve_sparse(pat, psi, 0.7)
    assert ref.norm() == pytest.approx(1.0, abs=1e-12) and len(ref.masks) > 3
    for c in (1e-160, 1e-170, 1e-250, 1e160, 1e250):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evolve_sparse(pattern_from_weights(g, c * pat.edge_weights()), psi, 0.7 / c)
        assert np.array_equal(out.masks, ref.masks), c
        assert np.linalg.norm(out.amps - ref.amps) < 1e-9, c


def test_a_witness_at_a_tiny_coupling_scale_stops_after_one_product(monkeypatch):
    graph, w, t = scaled_graph(main_symmetric_graph(4, 3), 1e-14), random_witness(4, 5), 1.3e14
    products, spaces = [], []
    apply, expm = sectors._Hops.apply, dynamics._krylov_expm
    monkeypatch.setattr(sectors._Hops, "apply", lambda *a: products.append(1) or apply(*a))
    monkeypatch.setattr(dynamics, "_krylov_expm", lambda *a: spaces.append(1) or expm(*a))
    out = evolve_sparse(graph, w, t)
    assert len(products) == 1 and spaces == []
    assert same_bytes(out, evolve_stationary_reference(graph, w, t))
    assert out.add(w.scaled(-1.0)).norm() <= 1e-9


# -- mirror reports in parity blocks, against the Pauli and sector oracles -----

ROT_3X3 = random_symmetric_pattern(
    build_square_lattice(3), (symmetry_map(build_square_lattice(3), "rotation_pi"),), seed=4
)


def pauli_mirror_entries(pattern, k, sym, t):
    """U[perm(x), x] and the largest other |U| entry, from expm of the Pauli H
    of a pattern or a graph."""
    graph = pattern.to_graph() if isinstance(pattern, CouplingPattern) else pattern
    n = graph.site_count
    H = restrict_to_sector(pauli_hamiltonian(n, graph.edges), n, k).toarray()
    U = scipy.linalg.expm(-1j * t * H)
    masks = sector_masks(n, k)
    mirrored = [sum(1 << sym.perm[p] for p in range(n) if m >> p & 1) for m in masks]
    rows, cols = np.searchsorted(masks, mirrored), np.arange(len(masks))
    off = np.abs(U)
    off[rows, cols] = 0.0
    return U[rows, cols], float(off.max())


def assert_report_matches_pauli(rep, pattern, sym, tol):
    target, max_off = pauli_mirror_entries(pattern, rep.k, sym, rep.t)
    assert np.abs(rep.moduli * rep.phases - target).max() < tol
    assert abs(rep.max_offtarget - max_off) < tol
    assert rep.min_modulus == rep.moduli.min()


def assert_columns_match_sector_oracle(rep, pattern, sym, tol):
    rows = permuted_ranks(rep.basis, sym)
    edges = pattern.to_graph().edges
    site_count = pattern.geometry.site_count
    for x in np.random.default_rng(0).choice(rep.basis.dim, size=3, replace=False):
        mask = int(rep.basis.masks[x])
        masks, col = sector_propagation(site_count, edges, rep.k, {mask: 1.0}, rep.t)
        assert np.array_equal(masks, rep.basis.masks)
        assert abs(rep.moduli[x] * rep.phases[x] - col[rows[x]]) < tol
        col[rows[x]] = 0.0
        assert rep.max_offtarget >= np.abs(col).max() - tol


@pytest.mark.parametrize("k", range(1, 9))
def test_parity_block_report_matches_pauli_oracle(k):
    # the centre site of the 3x3 lattice is fixed by the rotation, so every
    # sector has fixed basis states and a + block larger than its - block
    sym = symmetry_map(ROT_3X3.geometry, "rotation_pi")
    rep = mirroring_report(ROT_3X3, k, sym, 1.3)
    assert rep.backend == "parity-blocks"
    plus, minus = rep.block_dims
    assert plus + minus == math.comb(9, k) and plus > minus
    assert_report_matches_pauli(rep, ROT_3X3, sym, 1e-12)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_parity_block_report_matches_pauli_oracle_on_an_even_chain(k):
    # the mirror of an even chain moves each excitation to the other
    # sublattice, so at odd k the targets are imaginary and a conjugated
    # propagator would show (on the square lattices here they are real)
    chain = build_chain(6)
    sym = symmetry_map(chain, "vertical_axis")
    pattern = random_symmetric_pattern(chain, (sym,), seed=2)
    rep = mirroring_report(pattern, k, sym, 0.9)
    assert rep.backend == "parity-blocks"
    assert np.abs(rep.phases.imag).max() > 0.5
    assert_report_matches_pauli(rep, pattern, sym, 1e-12)


def nearly_symmetric_3x3():
    J = ROT_3X3.J.copy()
    J[0, 0] = np.nextafter(J[0, 0], np.inf)
    return CouplingPattern(ROT_3X3.geometry, J, ROT_3X3.K)


def asymmetric_3x3():
    rng = np.random.default_rng(11)
    return CouplingPattern(build_square_lattice(3), rng.uniform(0.5, 1.5, (2, 3)),
                           rng.uniform(0.5, 1.5, (3, 2)))


@pytest.mark.parametrize("make", [asymmetric_3x3, nearly_symmetric_3x3])
@pytest.mark.parametrize("k", [2, 4])
def test_report_without_exact_symmetry_takes_dense_path(make, k):
    pattern = make()
    sym = symmetry_map(pattern.geometry, "rotation_pi")
    if make is nearly_symmetric_3x3:
        # symmetric within 1e-15: a tolerance would wrongly call it commuting
        assert check_symmetry(pattern, sym) and not check_symmetry(pattern, sym, tol=0.0)
    rep = mirroring_report(pattern, k, sym, 1.3)
    assert rep.backend == "full-sector" and rep.block_dims == (rep.basis.dim,)
    assert_report_matches_pauli(rep, pattern, sym, 1e-12)


def test_parity_blocks_diagonalize_each_block_once(monkeypatch):
    # a block whose sides the mirror keeps takes one eigh of the Gram matrix of
    # its coupling between the sublattices, on the smaller side, and no SVD; one
    # whose sides it flips takes one eigh; no solve is of the whole sector
    calls = []

    def counted(name, solve):
        def run(a, *args, **kwargs):
            calls.append((name, a.shape))
            return solve(a, *args, **kwargs)
        return run

    def no_full_eig(self):
        raise AssertionError("full-sector eigendecomposition on the parity-block path")

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(SectorHamiltonian, "eig", no_full_eig)
    rep = mirroring_report(ROT_3X3, 4, symmetry_map(ROT_3X3.geometry, "rotation_pi"), 1.3)
    assert rep.block_dims == (66, 60) and rep.block_solvers == ("gram", "gram")
    assert calls == [("eigh", (30, 30)), ("eigh", (30, 30))]  # couplings 36 x 30, 30 x 30
    calls.clear()
    pattern, sym = chain_10()
    rep = mirroring_report(pattern, 5, sym, 0.9)
    assert rep.block_dims == (126, 126) and rep.block_solvers == ("eigh", "eigh")
    assert calls == [("eigh", (126, 126)), ("eigh", (126, 126))]


def chain_10():
    chain = build_chain(10)
    sym = symmetry_map(chain, "vertical_axis")
    return random_symmetric_pattern(chain, (sym,), seed=3), sym


@pytest.mark.parametrize("k, solvers", [(4, ("gram", "gram")), (5, ("eigh", "eigh"))])
def test_a_mirror_that_flips_the_sides_takes_eigh(k, solvers):
    # the reversal of an even chain moves each excitation to the other
    # sublattice: at odd k every state changes side, at even k none does
    pattern, sym = chain_10()
    rep = mirroring_report(pattern, k, sym, 0.9)
    assert min(rep.block_dims) > dynamics._GRADED_FLOOR and rep.block_solvers == solvers
    assert_report_matches_pauli(rep, pattern, sym, 1e-12)


def test_an_odd_cycle_takes_eigh():
    # two diagonal edges into the centre, swapped by the rotation, close triangles
    sym = symmetry_map(ROT_3X3.geometry, "rotation_pi")
    graph = ExchangeGraph(9, ROT_3X3.to_graph().edges + ((0, 4, 0.7), (4, 8, 0.7)))
    assert check_symmetry(graph, sym, tol=0.0)
    rep = mirroring_report(graph, 4, sym, 1.3)
    assert rep.backend == "parity-blocks" and rep.block_dims == (66, 60)
    assert rep.block_solvers == ("eigh", "eigh")
    assert_report_matches_pauli(rep, graph, sym, 1e-12)


def test_zero_couplings_leave_one_side_empty():
    # with no live edge every state sits on side 0: the coupling has no
    # columns, every direction is kernel, and U = 1
    pattern = CouplingPattern(ROT_3X3.geometry, np.zeros_like(ROT_3X3.J), np.zeros_like(ROT_3X3.K))
    sym = symmetry_map(pattern.geometry, "rotation_pi")
    rep = mirroring_report(pattern, 4, sym, 1.3)
    assert rep.block_dims == (66, 60) and rep.block_solvers == ("gram", "gram")
    assert_report_matches_pauli(rep, pattern, sym, 1e-12)
    fixed = permuted_ranks(rep.basis, sym) == np.arange(rep.basis.dim)
    assert np.array_equal(rep.moduli, fixed.astype(float)) and rep.max_offtarget == 1.0


@pytest.mark.parametrize("even, odd, t, case", [
    (5, 9, 0.7, "full"), (9, 5, 1.3, "full"), (7, 7, 2.1, "full"),
    (6, 8, 0.9, "rank-deficient"), (8, 6, -1.7, "rank-deficient"), (7, 7, 1.1, "rank-deficient"),
    (6, 0, 0.9, "full"), (0, 6, 0.9, "full"),
    (5, 9, 0.0, "full"), (7, 7, -0.4, "full"),
])
def test_the_graded_solve_matches_expm_of_its_block(even, odd, t, case):
    # B couples the side-0 rows to the side-1 rows through C; the rows of each
    # side come interleaved, as _blocks gives them
    rng = np.random.default_rng(even * 31 + odd)
    side = rng.permutation(np.repeat([0, 1], [even, odd]))
    C = rng.uniform(-2, 2, (even, odd))
    if case == "rank-deficient":  # rank 2, so both sides hold kernel directions
        C = rng.uniform(-2, 2, (even, 2)) @ rng.uniform(-2, 2, (2, odd))
    B = np.zeros((even + odd,) * 2)
    B[np.ix_(side == 0, side == 1)] = C
    B += B.T
    want = scipy.linalg.expm(-1j * t * B)
    columns = dynamics._graded_solve(C, side, t)
    for cols in (np.arange(even + odd), np.array([odd % 3, even + odd - 1, 0])[: even + odd]):
        assert np.abs(columns(cols) - want[:, cols]).max() < 1e-12


def test_pieces_cut_apart_by_zero_couplings_are_coloured_one_by_one():
    # a zero middle bond cuts the chain in two; each half is coloured from its
    # lowest site, which the reversal keeps, so odd k is graded as well
    pattern, sym = chain_10()
    K = pattern.K.copy()
    K[0, 4] = 0.0
    cut = CouplingPattern(pattern.geometry, pattern.J, K)
    rep = mirroring_report(cut, 5, sym, 0.9)
    assert rep.block_dims == (126, 126) and rep.block_solvers == ("gram", "gram")
    assert_report_matches_pauli(rep, cut, sym, 1e-12)


# -- the four irrep blocks of a second commuting reflection --------------------

RECT_3X4 = build_rect_lattice(3, 4)
V_H_3X4 = random_symmetric_pattern(
    RECT_3X4, (symmetry_map(RECT_3X4, "vertical_axis"), symmetry_map(RECT_3X4, "horizontal_axis")),
    seed=6,
)
PRODUCT_3X3 = product_lattice_couplings(christandl_chain(3), christandl_chain(3))
FOUR = ("rotation_pi", "horizontal_axis")


@pytest.mark.parametrize("pattern, mirror, k, floor, group, dims, solver", [
    # on 3x4, h keeps every site's side; rotation_pi and v flip each state's side at odd k
    (V_H_3X4, "rotation_pi", 4, 48, FOUR, (139, 124, 116, 116), "gram"),
    (V_H_3X4, "rotation_pi", 4, 116, ("rotation_pi",), (255, 240), "gram"),
    (V_H_3X4, "rotation_pi", 3, 48, FOUR, (60, 60, 50, 50), "eigh"),
    (V_H_3X4, "rotation_pi", 3, 50, ("rotation_pi",), (110, 110), "eigh"),
    (V_H_3X4, "vertical_axis", 5, 48, ("vertical_axis", "horizontal_axis"),
     (208, 208, 188, 188), "eigh"),
    (V_H_3X4.to_graph(), "rotation_pi", 4, 48, ("rotation_pi",), (255, 240), "gram"),
    (ROT_3X3, "rotation_pi", 4, 0, ("rotation_pi",), (66, 60), "gram"),
    (ROT_3X3, "rotation_pi", 2, 48, ("rotation_pi",), (20, 16), "eigh"),
    (asymmetric_3x3(), "rotation_pi", 4, 48, (), (126,), "gram"),
    (asymmetric_3x3(), "rotation_pi", 2, 48, (), (36,), "eigh"),
])
def test_each_group_order_and_solver_matches_the_pauli_oracle(monkeypatch, pattern, mirror, k,
                                                              floor, group, dims, solver):
    # G has order 4 only when every one of its blocks is above the floor; a bare
    # graph has no geometry to take g from, ROT_3X3 commutes with no second
    # reflection even with the floor at 0, and a mirror that does not commute
    # leaves G = {1}
    monkeypatch.setattr(dynamics, "_GRADED_FLOOR", floor)
    sym = symmetry_map(getattr(pattern, "geometry", RECT_3X4), mirror)
    rep = mirroring_report(pattern, k, sym, 0.9)
    assert (rep.group, rep.block_dims, rep.block_solvers) == (group, dims, (solver,) * len(dims))
    assert rep.backend == ("parity-blocks" if group else "full-sector")
    assert_report_matches_pauli(rep, pattern, sym, 1e-12)


@pytest.mark.parametrize("k", range(1, 9))
def test_the_3x3_product_lattice_in_four_blocks_matches_the_pauli_oracle(monkeypatch, k):
    # h keeps every site's side on three rows, so with the floor at 0 every
    # sector takes four blocks, each by one Gram solve
    monkeypatch.setattr(dynamics, "_GRADED_FLOOR", 0)
    sym = symmetry_map(PRODUCT_3X3.geometry, "rotation_pi")
    rep = mirroring_report(PRODUCT_3X3, k, sym, christandl_chain(3).nominal_transfer_time)
    assert rep.group == FOUR and min(rep.block_dims) > 0 and sum(rep.block_dims) == math.comb(9, k)
    assert rep.block_solvers == ("gram",) * 4
    assert_report_matches_pauli(rep, PRODUCT_3X3, sym, 1e-12)


def test_product_lattice_k4_report_in_four_blocks(monkeypatch):
    columns = []
    monkeypatch.setattr(dynamics, "evolve", lambda *args: columns.append(args))
    sym = symmetry_map(PRODUCT_4X4_PATTERN.geometry, "rotation_pi")
    rep = mirroring_report(PRODUCT_4X4_PATTERN, 4, sym, christandl_chain(4).nominal_transfer_time)
    assert columns == []
    assert rep.group == FOUR and rep.block_dims == (476, 448, 448, 448)
    assert_columns_match_sector_oracle(rep, PRODUCT_4X4_PATTERN, sym, 1e-12)


def test_reports_do_not_depend_on_the_coupling_scale():
    # every block of the 4x4 product at k=4 is graded, and the Gram solve scales
    # its coupling by a power of two first: M M^T would overflow at 1e160 and
    # underflow at 1e-170. A power-of-two scale keeps every bit
    sym = symmetry_map(PRODUCT_4X4_PATTERN.geometry, "rotation_pi")
    t, w = christandl_chain(4).nominal_transfer_time, PRODUCT_4X4_PATTERN.edge_weights()
    ref = mirroring_report(PRODUCT_4X4_PATTERN, 4, sym, t)
    assert ref.block_solvers == ("gram",) * 4
    for c in (1e160, 1e-170, 2.0**500, 2.0**-500):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = mirroring_report(pattern_from_weights(PRODUCT_4X4_PATTERN.geometry, c * w),
                                   4, sym, t / c)
        if math.frexp(c)[0] == 0.5:
            assert np.array_equal(rep.moduli, ref.moduli), c
            assert np.array_equal(rep.phases, ref.phases), c
            assert rep.max_offtarget == ref.max_offtarget, c
        assert np.abs(rep.moduli - ref.moduli).max() < 1e-12, c
        assert np.abs(rep.phases - ref.phases).max() < 1e-12, c
        assert abs(rep.max_offtarget - ref.max_offtarget) < 1e-12, c


def test_product_lattice_k5_report_in_parity_blocks(monkeypatch):
    # dim 4368 in two blocks of 2184, read off the blocks without evolving columns
    columns = []
    monkeypatch.setattr(dynamics, "evolve", lambda *args: columns.append(args))
    sym = symmetry_map(PRODUCT_4X4_PATTERN.geometry, "rotation_pi")
    t = christandl_chain(4).nominal_transfer_time
    rep = mirroring_report(PRODUCT_4X4_PATTERN, 5, sym, t)
    assert columns == []
    assert rep.backend == "parity-blocks" and rep.block_dims == (2184, 2184)
    assert_columns_match_sector_oracle(rep, PRODUCT_4X4_PATTERN, sym, 1e-9)


def test_full_sector_report_matches_sector_oracle(monkeypatch):
    # a 4x4 pattern that breaks the rotation: one block of dim 1820, no evolve
    columns = []
    monkeypatch.setattr(dynamics, "evolve", lambda *args: columns.append(args))
    rng = np.random.default_rng(11)
    pattern = CouplingPattern(build_square_lattice(4), rng.uniform(0.5, 1.5, (3, 4)),
                              rng.uniform(0.5, 1.5, (4, 3)))
    sym = symmetry_map(pattern.geometry, "rotation_pi")
    rep = mirroring_report(pattern, 4, sym, 1.3)
    assert columns == []
    assert rep.backend == "full-sector" and rep.block_dims == (1820,)
    assert_columns_match_sector_oracle(rep, pattern, sym, 1e-9)


# -- spectrum classification against a dense-permutation oracle ----------------


def assert_classify_matches_oracle(pattern, k, sym, tol=None):
    groups = classify_spectrum(pattern, k, sym, tol)
    graph = pattern.to_graph() if isinstance(pattern, CouplingPattern) else pattern
    ref = classify_groups(graph.site_count, graph.edges, k, sym.perm, tol)
    assert [(g.multiplicity, g.vector_symmetries) for g in groups] == [
        (m, labels) for _, m, labels in ref
    ]
    assert [g.label for g in groups] == [
        "+1" if set(labels) == {1} else "-1" if set(labels) == {-1} else "mixed"
        for _, _, labels in ref
    ]
    assert max(abs(g.eigenvalue - e) for g, (e, _, _) in zip(groups, ref)) < 1e-12
    return groups


# every geometry of at most 10 sites with its reflections (no identity maps)
DRAWN_GEOMETRIES = [build_chain(n) for n in range(2, 11)] + [
    build_square_lattice(2), build_square_lattice(3),
    *(build_rect_lattice(r, c) for r, c in ((2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2)))]


def reflections(geometry):
    names = [n for n in SYMMETRY_NAMES if geometry.rows == geometry.cols or "diagonal" not in n]
    maps = (symmetry_map(geometry, n) for n in names)
    return [m for m in maps if m.perm != tuple(range(geometry.site_count))]


@st.composite
def classify_cases(draw):
    """(geometry, generator names, seed, zero-below threshold, mirror name, k, floor)."""
    geometry = draw(st.sampled_from(DRAWN_GEOMETRIES))
    maps = reflections(geometry)
    gens = draw(st.lists(st.sampled_from(maps), min_size=1, max_size=2, unique=True))
    closure = group_closure(gens)
    mirror = draw(st.sampled_from([m for m in maps if m.perm in closure]))
    return (geometry, tuple(m.name for m in gens), draw(st.integers(0, 2**16)),
            draw(st.sampled_from([0.0, 1.0, 2.0])), mirror.name,
            draw(st.integers(0, geometry.site_count)),
            draw(st.sampled_from([0, dynamics._GRADED_FLOOR])))


@given(classify_cases())
@example((build_rect_lattice(2, 4), ("vertical_axis", "horizontal_axis"), 3, 0.0,
          "rotation_pi", 0, 0))
@example((build_rect_lattice(2, 5), ("vertical_axis", "horizontal_axis"), 3, 0.0,
          "rotation_pi", 4, 0))
@example((build_square_lattice(3), ("main_diagonal", "anti_diagonal"), 5, 1.0,
          "rotation_pi", 9, 0))
@example((build_chain(6), ("vertical_axis",), 0, 2.0, "vertical_axis", 3, 48))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_classify_matches_the_oracle_on_drawn_symmetric_patterns(case):
    # the pattern (up to four blocks; a floor of 0 lets small sectors split in
    # four), its bare graph ({1, P}), and a copy with one coupling moved by an
    # ulp, which P commutes with only within 1e-12; couplings below the
    # threshold are zero (all of them at 2.0)
    geometry, names, seed, zero_below, mirror, k, floor = case
    pat = random_symmetric_pattern(geometry, [symmetry_map(geometry, n) for n in names], seed)
    w = pat.edge_weights()
    w = np.where(w < zero_below, 0.0, w)
    pat, sym = pattern_from_weights(geometry, w), symmetry_map(geometry, mirror)
    moved = next((i for i, (a, b) in enumerate(geometry.edges())
                  if {sym.perm[a], sym.perm[b]} != {a, b}), 0)
    w = w.copy()
    w[moved] = np.nextafter(w[moved], np.inf)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_GRADED_FLOOR", floor)
        for form in (pat, pat.to_graph(), pattern_from_weights(geometry, w)):
            assert_classify_matches_oracle(form, k, sym)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("mirror", ["rotation_pi", "vertical_axis"])
def test_classify_matches_oracle_on_the_product_lattice(k, mirror):
    groups = assert_classify_matches_oracle(PRODUCT_4X4_PATTERN, k,
                                            symmetry_map(PRODUCT_4X4_PATTERN.geometry, mirror))
    assert all(g.max_symmetry_defect == 0.0 for g in groups)


@pytest.mark.parametrize("k", range(9))
def test_classify_matches_oracle_on_parallel_chains(k):
    pat = parallel_chain_pattern(christandl_chain(4), 2)
    groups = assert_classify_matches_oracle(pat, k, symmetry_map(pat.geometry, "vertical_axis"))
    assert all(g.max_symmetry_defect == 0.0 for g in groups)


@pytest.mark.parametrize("k", [2, 4])
def test_classify_tolerant_path_matches_oracle(monkeypatch, k):
    # commutes within 1e-15 only: the full sector is diagonalized and the
    # mirror projected per group, with the defect measured
    def no_blocks(*args):
        raise AssertionError("irrep blocks for a pattern that does not commute exactly")

    monkeypatch.setattr(dynamics, "_blocks", no_blocks)
    pattern = nearly_symmetric_3x3()
    groups = assert_classify_matches_oracle(pattern, k, symmetry_map(pattern.geometry, "rotation_pi"))
    assert 0.0 < max(g.max_symmetry_defect for g in groups) <= 1e-8


@pytest.mark.parametrize("k, floor, shapes", [
    (4, 48, [(139, 139), (124, 124), (116, 116), (116, 116)]),
    (4, 116, [(255, 255), (240, 240)]),
    (3, 48, [(60, 60), (60, 60), (50, 50), (50, 50)]),
])
def test_classify_labels_each_irrep_block_by_its_mirror_character(monkeypatch, k, floor, shapes):
    calls, sym = [], symmetry_map(RECT_3X4, "rotation_pi")
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(dynamics, "_GRADED_FLOOR", floor)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    classify_spectrum(V_H_3X4, k, sym)
    assert calls == shapes
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    groups = assert_classify_matches_oracle(V_H_3X4, k, sym)
    assert all(g.max_symmetry_defect == 0.0 for g in groups)


def test_classify_exact_path_solves_the_two_blocks(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    def no_full_eig(self):
        raise AssertionError("full-sector eigendecomposition on the exact path")

    sym = symmetry_map(ROT_3X3.geometry, "rotation_pi")
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(SectorHamiltonian, "eig", no_full_eig)
    groups = classify_spectrum(ROT_3X3, 4, sym)
    assert shapes == [(66, 66), (60, 60)]
    assert [sum(g.vector_symmetries.count(s) for g in groups) for s in (1, -1)] == [66, 60]
    assert all(g.max_symmetry_defect == 0.0 for g in groups)

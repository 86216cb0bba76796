import math

import numpy as np
import pytest

from spinmirror.dynamics import evolve_sparse
from spinmirror.lattice import (
    ExchangeGraph,
    build_square_lattice,
    pattern_from_weights,
    random_symmetric_pattern,
    symmetry_map,
    uniform_pattern,
)
from spinmirror.sectors import SparseState, permute_masks
from spinmirror.witness import (
    WitnessSpec,
    build_witness,
    certificate_to_obj,
    diagonal_basis_state,
    impossibility_certificate,
    pair_sign,
    phi_pair,
    verify_odd_distance,
    verify_zero_energy,
    witness_subspace_basis,
)

from oracles import dense_vector, pauli_hamiltonian


def random_diagonal_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    return SparseState(n, np.arange(2**n, dtype=np.int64), v)


def test_pair_sign_alternates():
    assert [pair_sign(d) for d in (1, 2, 3, 4)] == [-1, 1, -1, 1]


def test_phi_pair_amplitudes():
    minus = phi_pair(-1)
    r = 1 / math.sqrt(2)
    assert minus.amplitude(0b10) == pytest.approx(r)
    assert minus.amplitude(0b01) == pytest.approx(-r)
    assert abs(minus.norm() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        phi_pair(0)


def test_witness_support_sizes():
    w2 = build_witness(WitnessSpec(2, diagonal_basis_state(2, "00")))
    assert len(w2.masks) == 2  # one straddling pair
    w3 = build_witness(WitnessSpec(3, diagonal_basis_state(3, "100")))
    assert len(w3.masks) == 8  # three pairs
    assert abs(w3.norm() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="normalized"):
        build_witness(WitnessSpec(2, SparseState.from_dict(2, {0: 0.5})))


def test_witness_spec_refuses_lattices_past_the_bitmask_limit():
    WitnessSpec(7, diagonal_basis_state(7, "1000000"))  # 49 sites
    with pytest.raises(ValueError, match="64 sites; bitmask states hold at most 63"):
        WitnessSpec(8, diagonal_basis_state(8, "10000000"))


def test_witness_zero_energy_uniform():
    for n in (2, 3, 4):
        pat = uniform_pattern(build_square_lattice(n))
        w = build_witness(WitnessSpec(n, random_diagonal_state(n, seed=n)))
        assert verify_zero_energy(pat, w) <= 1e-14


def test_witness_zero_energy_matches_full_space_oracle():
    n = 3
    pat = uniform_pattern(build_square_lattice(n))
    w = build_witness(WitnessSpec(n, diagonal_basis_state(n, "110")))
    H = pauli_hamiltonian(9, pat.to_graph().edges)
    v = dense_vector(w)
    assert np.linalg.norm(H @ v) <= 1e-13


def test_witness_survives_any_main_diagonal_symmetric_pattern():
    g = build_square_lattice(4)
    main = symmetry_map(g, "main_diagonal")
    w = build_witness(WitnessSpec(4, random_diagonal_state(4, seed=9)))
    for seed in range(5):
        pat = random_symmetric_pattern(g, (main,), seed)
        assert verify_zero_energy(pat, w) <= 1e-12


def test_perturbed_edge_breaks_stationarity():
    g = build_square_lattice(3)
    weights = uniform_pattern(g).edge_weights().copy()
    weights[0] += 0.1  # vertical edge (1,1)-(2,1); its mirror image keeps 1.0
    pat = pattern_from_weights(g, weights)
    w = build_witness(WitnessSpec(3, diagonal_basis_state(3, "100")))
    assert verify_zero_energy(pat, w) > 1e-6


def test_witness_phase_invariance():
    n = 3
    pat = uniform_pattern(build_square_lattice(n))
    diag = random_diagonal_state(n, seed=4)
    r1 = verify_zero_energy(pat, build_witness(WitnessSpec(n, diag)))
    r2 = verify_zero_energy(pat, build_witness(WitnessSpec(n, diag.scaled(np.exp(0.7j)))))
    assert r1 == pytest.approx(r2, abs=1e-15)


def test_witness_is_stationary_under_evolution():
    g = build_square_lattice(3)
    pat = random_symmetric_pattern(g, (symmetry_map(g, "main_diagonal"),), seed=21)
    w = build_witness(WitnessSpec(3, random_diagonal_state(3, seed=2)))
    for t in (0.3, 1.7, 12.0):
        out = evolve_sparse(pat.to_graph(), w, t)
        assert out.add(w.scaled(-1.0)).norm() <= 1e-9


def test_witness_5x5_keeps_its_support_under_evolution():
    # one product by H over the 32,768-mask support finds the witness
    # stationary, so it only takes its phase, on its own support
    g = build_square_lattice(5)
    pat = random_symmetric_pattern(g, (symmetry_map(g, "main_diagonal"),), seed=8)
    w = build_witness(WitnessSpec(5, random_diagonal_state(5, seed=9)))
    assert len(w.masks) == 2**5 * 2**10
    out = evolve_sparse(pat.to_graph(), w, 1.3)
    assert np.array_equal(out.masks, w.masks)
    assert np.linalg.norm(out.amps - w.amps) <= 1e-9


def test_odd_distance_accepts_distance_three():
    g = build_square_lattice(4)
    # a couple of distance-3 hops plus their main-diagonal mirror images
    edges = {}
    for (a_ij, b_ij) in [((1, 1), (2, 3)), ((1, 2), (4, 2)), ((2, 2), (3, 4))]:
        a, b = g.flat(*a_ij), g.flat(*b_ij)
        am, bm = g.flat(a_ij[1], a_ij[0]), g.flat(b_ij[1], b_ij[0])
        w = 0.5 + 0.1 * len(edges)
        edges[(min(a, b), max(a, b))] = w
        edges[(min(am, bm), max(am, bm))] = w
    graph = ExchangeGraph(16, tuple((a, b, w) for (a, b), w in sorted(edges.items())))
    wit = build_witness(WitnessSpec(4, random_diagonal_state(4, seed=5)))
    assert verify_odd_distance(graph, wit) <= 1e-12


def test_odd_distance_rejects_even_edges():
    g = build_square_lattice(3)
    wit = build_witness(WitnessSpec(3, diagonal_basis_state(3, "100")))
    bad = ExchangeGraph(9, ((g.flat(1, 1), g.flat(1, 3), 1.0),))  # distance 2
    with pytest.raises(ValueError, match="even Manhattan distance"):
        verify_odd_distance(bad, wit)
    with pytest.raises(ValueError, match="square"):
        verify_odd_distance(ExchangeGraph(6, ((0, 1, 1.0),)), wit)


def test_odd_distance_requires_symmetric_strengths():
    g = build_square_lattice(3)
    wit = build_witness(WitnessSpec(3, diagonal_basis_state(3, "100")))
    asym = ExchangeGraph(9, ((g.flat(1, 1), g.flat(1, 2), 1.0),
                             (g.flat(1, 1), g.flat(2, 1), 2.0)))
    with pytest.raises(ValueError, match="symmetric"):
        verify_odd_distance(asym, wit)


def test_certificate_impossible_for_asymmetric_diagonal_state():
    g = build_square_lattice(3)
    pat = uniform_pattern(g)
    rot = symmetry_map(g, "rotation_pi")
    cert = impossibility_certificate(pat, diagonal_basis_state(3, "100"), rot)
    assert cert.conclusion == "impossible"
    assert cert.initial_target_overlap == 0.0
    assert cert.residual <= 1e-12
    assert cert.r_cross_symmetric
    obj = certificate_to_obj(cert)
    assert obj["schema_version"] == "1"
    assert obj["conclusion"] == "impossible"


def test_certificate_blind_for_symmetric_diagonal_state():
    g = build_square_lattice(3)
    cert = impossibility_certificate(
        uniform_pattern(g), diagonal_basis_state(3, "010"), symmetry_map(g, "rotation_pi")
    )
    assert cert.conclusion == "inconclusive"
    assert cert.initial_target_overlap == pytest.approx(1.0)
    assert "separate" in cert.reason


def test_certificate_inconclusive_without_symmetry():
    g = build_square_lattice(3)
    weights = uniform_pattern(g).edge_weights().copy()
    weights[3] = 2.0
    pat = pattern_from_weights(g, weights)
    cert = impossibility_certificate(pat, diagonal_basis_state(3, "100"),
                                     symmetry_map(g, "rotation_pi"))
    assert cert.conclusion == "inconclusive"
    assert "symmetry" in cert.reason
    with pytest.raises(ValueError, match="rotation_pi"):
        impossibility_certificate(pat, diagonal_basis_state(3, "100"),
                                  symmetry_map(g, "vertical_axis"))


def test_witness_subspace_is_orthonormal():
    basis = witness_subspace_basis(2)
    assert len(basis) == 4
    gram = np.array([[a.inner(b) for b in basis] for a in basis])
    assert np.abs(gram - np.eye(4)).max() < 1e-12
    pat = uniform_pattern(build_square_lattice(2))
    for w in basis:
        assert verify_zero_energy(pat, w) <= 1e-14


def tensor_loop_witness(spec):
    """The witness as one SparseState.tensor product per pair, in (i, j) order."""
    n = spec.n
    g = build_square_lattice(n)
    diag_sites = [g.flat(d, d) for d in range(1, n + 1)]
    embedded = permute_masks(spec.diagonal_state.masks, diag_sites)
    state = SparseState(n * n, embedded, spec.diagonal_state.amps)
    r = 1 / math.sqrt(2)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pair = SparseState.from_dict(
                n * n, {1 << g.flat(j, i): r, 1 << g.flat(i, j): pair_sign(j - i) * r}
            )
            state = state.tensor(pair)
    return state


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_pass_witness_is_byte_identical_to_a_tensor_loop(n, seed):
    spec = WitnessSpec(n, random_diagonal_state(n, seed=100 * n + seed))
    got, ref = build_witness(spec), tensor_loop_witness(spec)
    assert got.masks.tobytes() == ref.masks.tobytes()
    assert got.amps.tobytes() == ref.amps.tobytes()

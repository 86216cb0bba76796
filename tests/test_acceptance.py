"""Acceptance battery: one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get a single pass/fail line
per criterion. Tolerances are asserted exactly as stated; nothing here is
loosened to accommodate observed behaviour. Criterion 01 bounds uniform
chains with n >= 4 by 1 - 1e-10, the same threshold it uses to call n = 2, 3
perfect, because uniform chains never reach unit fidelity but can come
arbitrarily close to it: a fixed margin further below 1 would only hold on a
short enough window.
"""

import math

import numpy as np
import pytest

from spinmirror.chains import (
    chain_pattern,
    christandl_chain,
    measured_transfer_modulus,
    parallel_chain_pattern,
    product_lattice_couplings,
    uniform_chain,
)
from spinmirror.dynamics import (
    classify_spectrum,
    evolve_sparse,
    has_degenerate_mixed_group,
    mirroring_report,
    permuted_ranks,
    phase_network_fit,
    transfer_fidelity,
)
from spinmirror.lattice import (
    ExchangeGraph,
    build_chain,
    build_square_lattice,
    manhattan_distance,
    pattern_from_weights,
    random_symmetric_pattern,
    symmetry_map,
    uniform_pattern,
)
from spinmirror.optimizer import preset_chain4, preset_rx_3x3_witness, probe_2x2
from spinmirror.sectors import SparseState, build_sector_hamiltonian
from spinmirror.witness import (
    WitnessSpec,
    build_witness,
    diagonal_basis_state,
    impossibility_certificate,
    verify_odd_distance,
    verify_zero_energy,
)
from spinmirror import jsonio

from oracles import chain_hopping, pauli_hamiltonian, restrict_to_sector, uniform_chain_amplitude

GOLDEN = (math.sqrt(5) - 1) / 2


def end_to_end_moduli(chain, ts):
    """|U_{n,1}(t)| on the time grid, via one dense diagonalization of the oracle block."""
    evals, vecs = np.linalg.eigh(chain_hopping(chain))
    weights = vecs[-1, :] * vecs[0, :]
    return np.abs(weights @ np.exp(-1j * np.outer(evals, ts)))


def refine_peak(chain, lo, hi):
    """Golden-section polish of the transfer modulus on a bracket."""
    def f(t):
        return measured_transfer_modulus(chain, t)

    a, b = lo, hi
    x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-13:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    return max(f1, f2)


def random_diagonal_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    return SparseState(n, np.arange(2**n, dtype=np.int64), v)


def test_criterion_01_uniform_chain_transfer_law():
    """Uniform chains transfer perfectly for n = 2, 3 and never for n >= 4.

    Never reaching unit fidelity is not a fixed margin below 1: when n+1 is a
    prime, twice a prime or a power of two the peak comes arbitrarily close to
    1 over long enough windows (pretty good transfer), so the gap left on a
    finite window depends on its length. For n >= 4 every grid local maximum
    within 1e-3 of the grid peak is refined and must stay below 1 - 1e-10,
    the threshold that counts as perfect for n = 2, 3. The grid moduli of
    every length must match the closed form in oracles.py to 1e-12.
    """
    ts = np.arange(1, 200001) * 1e-3
    oracle_err = {}
    for n in (2, 3):
        chain = uniform_chain(n)
        mods = end_to_end_moduli(chain, ts)
        oracle_err[n] = float(np.abs(mods - np.abs(uniform_chain_amplitude(n, ts))).max())
        i = int(np.argmax(mods))
        peak = refine_peak(chain, ts[i] - 1e-3, ts[i] + 1e-3)
        assert peak >= 1 - 1e-10, f"n={n}: refined peak {peak:.15f}"
    too_good = []
    for n in range(4, 11):
        chain = uniform_chain(n)
        mods = end_to_end_moduli(chain, ts)
        oracle_err[n] = float(np.abs(mods - np.abs(uniform_chain_amplitude(n, ts))).max())
        inner = mods[1:-1]
        near_top = np.flatnonzero(
            (inner >= mods[:-2]) & (inner >= mods[2:]) & (inner >= mods.max() - 1e-3)
        ) + 1
        peak = max(refine_peak(chain, ts[i] - 1e-3, ts[i] + 1e-3) for i in near_top)
        if not peak < 1 - 1e-10:
            too_good.append((n, peak))
    assert not too_good, (
        "uniform chains reached perfect transfer (refined peak 1 - 1e-10 or "
        f"more) on the (0, 200] grid with step 1e-3: {too_good}"
    )
    assert max(oracle_err.values()) <= 1e-12, (
        f"grid moduli differ from the closed form: {oracle_err}"
    )


def test_criterion_02_engineered_chain_single_excitation():
    for n in range(2, 13):
        chain = christandl_chain(n)
        evals, vecs = np.linalg.eigh(chain_hopping(chain))
        U = (vecs * np.exp(-1j * evals * chain.nominal_transfer_time)) @ vecs.T
        antidiag = np.abs(U[::-1, :].diagonal())
        assert antidiag.min() >= 1 - 1e-10, f"n={n}: {antidiag.min():.15f}"


def test_criterion_03_multi_excitation_mirroring_with_phases():
    for n in (4, 5):
        chain = christandl_chain(n)
        pat = chain_pattern(chain)
        sym = symmetry_map(pat.geometry, "vertical_axis")
        for k in range(1, n // 2 + 1):
            rep = mirroring_report(pat, k, sym, chain.nominal_transfer_time)
            fit = phase_network_fit(rep.phases, rep.basis)
            assert rep.min_modulus >= 1 - 1e-9, f"n={n} k={k}: {rep.min_modulus}"
            assert fit.residual <= 1e-8, f"n={n} k={k}: residual {fit.residual}"


def test_criterion_04_product_lattice_transfer_and_two_excitation_breakdown():
    c4 = christandl_chain(4)
    pat = product_lattice_couplings(c4, c4)
    t_star = c4.nominal_transfer_time
    for i in range(1, 5):
        for j in range(1, 5):
            f = transfer_fidelity(pat, (i, j), (5 - i, 5 - j), t_star)
            assert f >= 1 - 1e-10, f"site ({i},{j}): {f:.15f}"

    c3 = christandl_chain(3)
    pat3 = product_lattice_couplings(c3, c3)
    H = build_sector_hamiltonian(pat3.to_graph(), 2)
    evals, vecs = H.eig()
    rows = permuted_ranks(H.basis, symmetry_map(pat3.geometry, "rotation_pi"))
    ts = 20 * c3.nominal_transfer_time * np.arange(1, 20001) / 20000
    amps = np.abs((vecs[rows, :] * vecs) @ np.exp(-1j * np.outer(evals, ts)))
    worst_peak = float(amps.max(axis=1).min())
    # observed supremum for the worst basis state is about 0.3063
    assert worst_peak < 1 - 1e-3, (
        f"every 2-excitation basis state mirrors to {worst_peak:.6f} or better"
    )


def test_criterion_05_local_pair_identities():
    r = 1 / math.sqrt(2)
    w = 0.85
    # two nested pairs on 4 sites, edges (0,1) and (2,3) of equal strength
    v4 = np.zeros(16, complex)
    for m_out, a_out in ((1 << 0, r), (1 << 3, r)):
        for m_in, a_in in ((1 << 1, r), (1 << 2, -r)):
            v4[m_out | m_in] = a_out * a_in
    # a pair around one middle site carrying an arbitrary qubit state
    chi = np.array([0.6, 0.8j])
    v3 = np.zeros(8, complex)
    for m_pair, a_pair in ((1 << 0, r), (1 << 2, -r)):
        for bit, a_mid in ((0, chi[0]), (1, chi[1])):
            v3[m_pair | (bit << 1)] = a_pair * a_mid
    for xx, yy in ((True, True), (True, False), (False, True)):
        H4 = pauli_hamiltonian(4, [(0, 1, w), (2, 3, w)], xx=xx, yy=yy)
        assert np.linalg.norm(H4 @ v4) <= 1e-14
        H3 = pauli_hamiltonian(3, [(0, 1, w), (1, 2, w)], xx=xx, yy=yy)
        assert np.linalg.norm(H3 @ v3) <= 1e-14
    # unequal strengths must not annihilate
    H_bad = pauli_hamiltonian(4, [(0, 1, 0.7), (2, 3, 1.3)])
    assert np.linalg.norm(H_bad @ v4) > 0.5


def test_criterion_06_witness_theorem_battery():
    for n in range(2, 6):
        g = build_square_lattice(n)
        main = symmetry_map(g, "main_diagonal")
        anti = symmetry_map(g, "anti_diagonal")
        rot = symmetry_map(g, "rotation_pi")
        patterns = [uniform_pattern(g)]
        patterns += [
            random_symmetric_pattern(g, (main, anti), seed=1000 * n + i) for i in range(8)
        ]
        patterns += [
            random_symmetric_pattern(g, (main,), seed=2000 * n + i) for i in range(16)
        ]
        assert len(patterns) == 25
        witnesses = [
            build_witness(WitnessSpec(n, random_diagonal_state(n, seed=3000 * n + j)))
            for j in range(10)
        ]
        for pat in patterns:
            graph = pat.to_graph()
            for w in witnesses:
                assert verify_zero_energy(graph, w) <= 1e-12
                moved = evolve_sparse(graph, w, 1.3)
                assert moved.add(w.scaled(-1.0)).norm() <= 1e-9
        diag0 = diagonal_basis_state(n, "1" + "0" * (n - 1))
        for pat in patterns:
            cert = impossibility_certificate(pat, diag0, rot)
            assert cert.conclusion == "impossible"
            assert cert.initial_target_overlap == 0.0
            assert cert.residual <= 1e-12
    # negative control: break one edge's mirror partner
    g = build_square_lattice(3)
    weights = uniform_pattern(g).edge_weights().copy()
    weights[0] += 0.1
    broken = pattern_from_weights(g, weights)
    wit = build_witness(WitnessSpec(3, diagonal_basis_state(3, "100")))
    assert verify_zero_energy(broken, wit) > 1e-6


def random_odd_distance_graph(seed):
    """Main-diagonal-symmetric 4x4 graph whose edges all span odd distances."""
    g = build_square_lattice(4)
    rng = np.random.default_rng(seed)
    odd_pairs = [
        (a, b)
        for a in range(16)
        for b in range(a + 1, 16)
        if manhattan_distance(g, a, b) % 2 == 1
    ]
    weights = {}
    for idx in rng.choice(len(odd_pairs), size=8, replace=False):
        a, b = odd_pairs[idx]
        w = float(rng.uniform(0.5, 1.5))
        (i1, j1), (i2, j2) = g.coords(a), g.coords(b)
        am, bm = g.flat(j1, i1), g.flat(j2, i2)
        weights[(a, b)] = w
        weights[(min(am, bm), max(am, bm))] = w
    return ExchangeGraph(16, tuple((a, b, v) for (a, b), v in sorted(weights.items())))


def test_criterion_07_odd_distance_generalization():
    for seed in range(10):
        graph = random_odd_distance_graph(seed)
        wit = build_witness(WitnessSpec(4, random_diagonal_state(4, seed=100 + seed)))
        assert verify_odd_distance(graph, wit) <= 1e-12
    wit = build_witness(WitnessSpec(4, diagonal_basis_state(4, "1000")))
    g = build_square_lattice(4)
    bad = ExchangeGraph(16, ((g.flat(1, 1), g.flat(1, 3), 1.0),))
    with pytest.raises(ValueError, match="even Manhattan distance"):
        verify_odd_distance(bad, wit)


def test_criterion_08_parallel_chain_obstruction():
    chain = christandl_chain(4)
    pat = parallel_chain_pattern(chain, 2)
    sym = symmetry_map(pat.geometry, "vertical_axis")
    groups = classify_spectrum(pat.to_graph(), 2, sym)
    assert has_degenerate_mixed_group(groups)
    assert any(grp.multiplicity >= 2 and grp.label == "mixed" for grp in groups)
    rep = mirroring_report(pat, 2, sym, chain.nominal_transfer_time)
    assert rep.min_modulus >= 1 - 1e-9


def random_long_range_graph(site_count, n_edges, seed):
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in range(site_count) for b in range(a + 1, site_count)]
    chosen = rng.choice(len(pairs), size=n_edges, replace=False)
    return ExchangeGraph(
        site_count,
        tuple(
            (pairs[i][0], pairs[i][1], float(rng.uniform(-1.5, 1.5)))
            for i in sorted(chosen)
        ),
    )


def test_criterion_09_sector_hamiltonians_match_pauli_oracle_exactly():
    systems = []
    for n in range(2, 7):
        systems.append(chain_pattern(christandl_chain(n)).to_graph())
        systems.append(chain_pattern(uniform_chain(n)).to_graph())
        rng = np.random.default_rng(50 + n)
        systems.append(
            pattern_from_weights(build_chain(n), rng.uniform(0.3, 1.7, n - 1)).to_graph()
        )
    systems.append(uniform_pattern(build_square_lattice(2)).to_graph())
    systems.append(uniform_pattern(build_square_lattice(3)).to_graph())
    g3 = build_square_lattice(3)
    systems.append(
        random_symmetric_pattern(g3, (symmetry_map(g3, "main_diagonal"),), seed=7).to_graph()
    )
    systems.append(parallel_chain_pattern(christandl_chain(4), 2).to_graph())
    systems.append(random_long_range_graph(10, 14, seed=5))
    systems.append(random_long_range_graph(12, 16, seed=6))
    for graph in systems:
        m = graph.site_count
        full = pauli_hamiltonian(m, graph.edges)
        for k in range(m + 1):
            mine = build_sector_hamiltonian(graph, k).mat.toarray()
            ref = restrict_to_sector(full, m, k).toarray()
            assert np.abs(mine - ref).max() == 0.0, f"{m} sites, k={k}"


def probe_obj(res):
    return {
        "supremum": res.supremum,
        "best_ratio": res.best_ratio,
        "best_time": res.best_time,
        "rows": [list(row) for row in res.rows],
    }


def test_criterion_10_optimizer_ceilings_and_probe():
    report, runs = preset_rx_3x3_witness(seed=0, n_restarts=8)
    assert report["ceiling_respected"]
    assert report["best_value"] <= report["ceiling"]
    assert len(report["restarts"]) == 8

    report4, _ = preset_chain4(seed=0)
    assert report4["best_value"] >= 1 - 1e-8, f"chain-4 best {report4['best_value']}"

    a = probe_2x2(n_ratios=200, n_times=2000)
    b = probe_2x2(n_ratios=200, n_times=2000)
    assert a.n_ratios >= 200 and a.n_times >= 2000
    assert jsonio.canonical_dumps(probe_obj(a)) == jsonio.canonical_dumps(probe_obj(b))
    # no truth claim: the observed supremum (about 0.3304) is only pinned
    # loosely, as a guard that the deterministic grid has not drifted
    assert 0.31 <= a.supremum <= 0.34

import itertools
import math
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinmirror.chains import (
    chain_pattern,
    christandl_chain,
    parallel_chain_pattern,
    product_lattice_couplings,
    uniform_chain,
)
from spinmirror.dynamics import apply_hamiltonian, permuted_ranks
from spinmirror.lattice import (
    ExchangeGraph,
    build_chain,
    build_square_lattice,
    pattern_from_weights,
    symmetry_map,
    uniform_pattern,
)
from spinmirror.optimizer import Objective, _objective_propagator
from spinmirror import sectors
from spinmirror.sectors import (
    HOP_CACHE_SIZE,
    SectorState,
    SparseState,
    basis_state,
    build_sector_hamiltonian,
    enumerate_sector_basis,
    from_sector_state,
    permute_masks,
    popcount,
)

from oracles import (
    pauli_hamiltonian,
    restrict_to_sector,
    sector_hamiltonian_reference,
    sector_masks,
)


def test_sector_dims_and_order():
    b = enumerate_sector_basis(4, 0)
    assert list(b.masks) == [0]
    b = enumerate_sector_basis(4, 2)
    assert list(b.masks) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    b = enumerate_sector_basis(16, 3)
    assert b.dim == math.comb(16, 3) == 560
    assert np.all(np.diff(b.masks) > 0)
    assert np.all(popcount(b.masks) == 3)
    assert np.array_equal(b.masks, sector_masks(16, 3))
    for i in range(b.dim):
        assert b.rank(b.unrank(i)) == i


def test_sector_bounds():
    with pytest.raises(ValueError):
        enumerate_sector_basis(4, 5)
    with pytest.raises(ValueError):
        enumerate_sector_basis(64, 1)
    b = enumerate_sector_basis(4, 2)
    with pytest.raises(ValueError, match="not in sector"):
        b.rank(0b111)
    with pytest.raises(ValueError):
        b.unrank(6)


@given(st.integers(min_value=1, max_value=14), st.data())
@settings(max_examples=50, deadline=None)
def test_rank_unrank_round_trip(m, data):
    k = data.draw(st.integers(min_value=0, max_value=m))
    b = enumerate_sector_basis(m, k)
    i = data.draw(st.integers(min_value=0, max_value=b.dim - 1))
    assert b.rank(b.unrank(i)) == i


def test_popcount_matches_python():
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 2**62, size=100, dtype=np.int64)
    vals = np.append(vals, [0, 1, (1 << 62) | 1])
    assert np.array_equal(popcount(vals), [bin(int(v)).count("1") for v in vals])


def test_popcount_swar_fallback_matches_python(monkeypatch):
    # numpy before 2.0 has no bitwise_count; popcount then counts bits by SWAR
    monkeypatch.delattr(np, "bitwise_count")
    rng = np.random.default_rng(1)
    vals = rng.integers(0, 2**63 - 1, size=1000, dtype=np.int64, endpoint=True)
    vals = np.append(vals, np.array([0, 1, 2**62, 2**63 - 1], dtype=np.int64))
    counts = popcount(vals)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, [bin(int(v)).count("1") for v in vals])


def test_two_site_hamiltonian():
    H = build_sector_hamiltonian(chain_pattern(uniform_chain(2, 0.8)).to_graph(), 1)
    assert np.array_equal(H.mat.toarray(), [[0.0, 1.6], [1.6, 0.0]])


def test_three_site_tridiagonal():
    H = build_sector_hamiltonian(chain_pattern(uniform_chain(3)).to_graph(), 1)
    assert np.array_equal(H.mat.toarray(), [[0, 2, 0], [2, 0, 2], [0, 2, 0]])


def test_sector_matches_pauli_oracle_chain():
    graph = chain_pattern(christandl_chain(4)).to_graph()
    full = pauli_hamiltonian(4, graph.edges)
    for k in range(5):
        mine = build_sector_hamiltonian(graph, k).mat.toarray()
        ref = restrict_to_sector(full, 4, k).toarray()
        assert np.abs(mine - ref).max() == 0.0


def test_sector_matches_pauli_oracle_long_range():
    # the zero-strength edge must add nothing, not even stored zeros
    graph = ExchangeGraph(5, ((0, 3, 0.9), (1, 4, -0.4), (0, 1, 1.1), (2, 4, 0.0)))
    full = pauli_hamiltonian(5, graph.edges)
    for k in range(6):
        mat = build_sector_hamiltonian(graph, k).mat
        ref = restrict_to_sector(full, 5, k).toarray()
        assert np.abs(mat.toarray() - ref).max() == 0.0
        assert mat.nnz == np.count_nonzero(ref)


# -- SparseState ---------------------------------------------------------------


def test_sparse_state_canonical_form():
    s = SparseState(3, np.array([5, 1, 5, 2], dtype=np.int64),
                    np.array([1.0, 2.0, -1.0, 0.0], dtype=complex))
    # duplicates merged, exact zeros dropped, masks ascending
    assert list(s.masks) == [1]
    assert s.amplitude(1) == 2.0
    assert s.amplitude(5) == 0.0


def test_sparse_state_merges_exactly_as_a_unique_and_add_at_reference():
    rng = np.random.default_rng(12)
    masks = rng.integers(0, 64, size=500)
    amps = rng.normal(size=500) + 1j * rng.normal(size=500)
    order = np.argsort(masks, kind="stable")
    ref_masks, inverse = np.unique(masks[order], return_inverse=True)
    ref_amps = np.zeros(len(ref_masks), dtype=np.complex128)
    np.add.at(ref_amps, inverse, amps[order])
    s = SparseState(6, masks, amps)
    assert s.masks.tobytes() == ref_masks.astype(np.int64).tobytes()
    assert s.amps.tobytes() == ref_amps.tobytes()


def test_sparse_state_scaling_drops_underflow():
    s = SparseState.from_dict(2, {0b01: 1e-200, 0b10: 1.0})
    scaled = s.scaled(1e-200)
    assert list(scaled.masks) == [0b10]
    assert scaled.amplitude(0b10) == 1e-200


def test_sparse_state_copies_canonical_input():
    masks = np.array([1, 2], dtype=np.int64)
    amps = np.array([1.0, 2.0], dtype=np.complex128)
    s = SparseState(2, masks, amps)
    masks[0], amps[0] = 3, 5.0
    assert list(s.masks) == [1, 2] and s.amplitude(1) == 1.0


def test_permute_masks():
    masks = np.array([0b001, 0b110, 0b101], dtype=np.int64)
    assert list(permute_masks(masks, (2, 0, 1))) == [0b100, 0b011, 0b110]
    # a shorter target list embeds the low bits, as the witness diagonal does
    assert list(permute_masks(np.array([0b11], dtype=np.int64), (4, 0))) == [0b10001]


def test_sparse_state_site_count_limits():
    with pytest.raises(ValueError):
        SparseState.unit(0, 0)
    with pytest.raises(ValueError):
        SparseState.unit(64, 0)
    SparseState.unit(63, 1 << 62)


def test_sparse_state_algebra():
    a = SparseState.from_dict(2, {0b01: 1.0})
    b = SparseState.from_dict(2, {0b10: 1.0j})
    c = a.add(b.scaled(2.0))
    assert c.amplitude(0b10) == 2.0j
    assert a.inner(a) == 1.0
    assert a.inner(b) == 0.0
    assert abs(c.norm() - math.sqrt(5)) < 1e-15
    assert b.inner(c) == pytest.approx(2.0 + 0j)  # <b|c> conjugates the bra


def test_sparse_state_map_sites_preserves_inner():
    rng = np.random.default_rng(3)
    masks = np.arange(8, dtype=np.int64)
    x = SparseState(3, masks, rng.normal(size=8) + 1j * rng.normal(size=8))
    y = SparseState(3, masks, rng.normal(size=8) + 1j * rng.normal(size=8))
    perm = (2, 0, 1)
    xp, yp = x.map_sites(perm), y.map_sites(perm)
    assert abs(x.inner(y) - xp.inner(yp)) < 1e-14
    assert abs(x.norm() - xp.norm()) < 1e-14


def test_sparse_state_tensor_requires_disjoint_support():
    a = SparseState.from_dict(2, {0b01: 1.0})
    with pytest.raises(ValueError, match="overlap"):
        a.tensor(SparseState.from_dict(2, {0b01: 1.0}))
    prod = a.tensor(SparseState.from_dict(2, {0b10: 1.0}))
    assert prod.amplitude(0b11) == 1.0


def test_sector_split_and_round_trip():
    s = SparseState.from_dict(3, {0b000: 0.5, 0b001: 0.5, 0b110: 0.5, 0b011: 0.5})
    parts = s.sector_split()
    assert sorted(parts) == [0, 1, 2]
    assert list(parts[2].masks) == [0b011, 0b110]
    basis = enumerate_sector_basis(3, 2)
    sector = parts[2].to_sector_state(basis)
    assert isinstance(sector, SectorState)
    back = from_sector_state(sector)
    assert list(back.masks) == [0b011, 0b110]
    with pytest.raises(ValueError, match="sector"):
        s.to_sector_state(basis)  # support straddles sectors


def test_basis_state_and_sector_state_validation():
    basis = enumerate_sector_basis(3, 1)
    st_ = basis_state(basis, 0b010)
    assert st_.amplitudes[basis.rank(0b010)] == 1.0
    with pytest.raises(ValueError):
        SectorState(basis, np.zeros(2))


def _coo_reference(graph, k, masks=None):
    """H over the sorted masks (default: H_k from itertools combinations), through COO."""
    if masks is None:
        masks = sorted(
            sum(1 << p for p in occ) for occ in itertools.combinations(range(graph.site_count), k)
        )
    rank = {m: i for i, m in enumerate(masks)}
    rows, cols, vals = [], [], []
    for m in masks:
        for a, b, w in graph.edges:
            if w != 0.0 and ((m >> a) & 1) != ((m >> b) & 1):
                rows.append(rank[m])
                cols.append(rank[m ^ (1 << a) ^ (1 << b)])
                vals.append(2.0 * w)
    dim = len(masks)
    ij = (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))
    return sp.coo_matrix((np.array(vals, dtype=float), ij), shape=(dim, dim)).tocsr()


def csr_bytes(mat):
    return [(getattr(mat, name).dtype, getattr(mat, name).tobytes())
            for name in ("data", "indices", "indptr")]


def lattice_graph(n, seed, zero_edge=None):
    geo = build_square_lattice(n)
    weights = np.random.default_rng(seed).uniform(0.1, 2.0, len(geo.edges()))
    if zero_edge is not None:
        weights[zero_edge] = 0.0
    return pattern_from_weights(geo, weights).to_graph()


@pytest.mark.parametrize(
    "n, k, zero_edge",
    [(2, 0, None), (2, 4, None), (3, 4, 5), (3, 2, 0), (5, 3, 7)],
)
def test_csr_build_is_byte_identical_to_a_coo_reference(n, k, zero_edge):
    # cold, then from the cached structure under other weights of one topology
    sectors._support_structure.cache_clear()
    for seed in (n + k, 100 + n + k):
        graph = lattice_graph(n, seed, zero_edge)
        got = build_sector_hamiltonian(graph, k).mat
        ref = _coo_reference(graph, k)
        assert csr_bytes(got) == csr_bytes(ref)
        assert csr_bytes(got) == csr_bytes(sector_hamiltonian_reference(graph, k))
        assert got.has_sorted_indices
    info = sectors._support_structure.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_new_weights_on_a_cached_topology_give_fresh_values():
    first, second = lattice_graph(3, 1), lattice_graph(3, 2)
    sectors._support_structure.cache_clear()
    old = build_sector_hamiltonian(first, 3).mat
    warm = build_sector_hamiltonian(second, 3).mat
    assert sectors._support_structure.cache_info().hits == 1
    sectors._support_structure.cache_clear()
    cold = build_sector_hamiltonian(second, 3).mat
    assert csr_bytes(warm) == csr_bytes(cold)
    assert not np.array_equal(warm.data, old.data)


def test_zero_weight_edge_changes_the_key_and_stores_nothing():
    sectors._support_structure.cache_clear()
    full = build_sector_hamiltonian(lattice_graph(3, 4), 4).mat
    graph = lattice_graph(3, 4, zero_edge=6)
    cut = build_sector_hamiltonian(graph, 4).mat
    info = sectors._support_structure.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    assert cut.nnz < full.nnz and np.all(cut.data != 0.0)
    assert csr_bytes(cut) == csr_bytes(_coo_reference(graph, 4))


@pytest.mark.parametrize("shift", [-1, 0])
def test_a_sector_past_memory_is_refused_before_it_is_enumerated(monkeypatch, shift):
    # 4368 masks of the 4x4 lattice at k = 5 across 24 live edges: one byte
    # short of the estimate refuses, without enumerating; exactly it builds
    from spinmirror.dynamics import evolve_state

    graph = lattice_graph(4, 3)
    need = 32 * math.comb(16, 5) * 24
    monkeypatch.setattr(sectors, "_available_bytes", lambda: need + shift)
    enumerated, enumerate_basis = [], sectors.enumerate_sector_basis

    def spy(site_count, k):
        enumerated.append((site_count, k))
        return enumerate_basis(site_count, k)

    monkeypatch.setattr(sectors, "enumerate_sector_basis", spy)
    for run in (lambda: build_sector_hamiltonian(graph, 5),
                lambda: evolve_state(graph, SparseState.unit(16, 0b11111), 0.5)):
        sectors._support_structure.cache_clear()
        if shift < 0:
            with pytest.raises(ValueError, match=f"the hops of 4368 masks across 24 edges "
                                                 f"need about {need} bytes at peak"):
                run()
        else:
            run()
    assert enumerated == ([] if shift < 0 else [(16, 5)] * 2)


def grown_to_closure(graph, mask):
    """The operator of a unit state after H was applied until its index closed."""
    op = sectors._HopOperator(graph, np.array([mask], dtype=np.int64))
    x = np.ones(1, np.complex128)
    while op._csr is None:
        x = op.matvec(x)
    return op


PRODUCT_4X4 = product_lattice_couplings(christandl_chain(4), christandl_chain(4)).to_graph()


@pytest.mark.parametrize("graph, k", [(uniform_pattern(build_square_lattice(3)).to_graph(), 4),
                                      (PRODUCT_4X4, 3)], ids=["uniform-3x3-k4", "product-4x4-k3"])
def test_a_closed_growth_index_gives_the_sector_matrix(graph, k):
    op = grown_to_closure(graph, (1 << k) - 1)
    H = build_sector_hamiltonian(graph, k)
    assert op.masks.tobytes() == H.basis.masks.tobytes()
    assert csr_bytes(op._csr) == csr_bytes(H.mat)


def test_a_closed_index_inside_a_sector_matches_a_coo_reference():
    # the rungs of two parallel chains have strength 0: one excitation per chain stays so
    graph = parallel_chain_pattern(christandl_chain(4), 2).to_graph()
    op = grown_to_closure(graph, 0b10001)
    assert len(op.masks) == 16 < math.comb(8, 2)
    assert csr_bytes(op._csr) == csr_bytes(_coo_reference(graph, 2, list(op.masks)))


@pytest.mark.parametrize("k", [0, 1, 9])
def test_a_graph_of_zero_strengths_gives_an_empty_sector_matrix(k):
    geo = build_square_lattice(3)
    graph = pattern_from_weights(geo, np.zeros(len(geo.edges()))).to_graph()
    mat = build_sector_hamiltonian(graph, k).mat
    assert mat.shape == (math.comb(9, k),) * 2 and mat.nnz == 0
    assert csr_bytes(mat) == csr_bytes(_coo_reference(graph, k))


def chain_graphs(count):
    return [chain_pattern(uniform_chain(n, 0.5 + n)).to_graph() for n in range(2, count + 2)]


def mirror_ranks(graph):
    n = graph.site_count
    return permuted_ranks(enumerate_sector_basis(n, 1), symmetry_map(build_chain(n), "vertical_axis"))


# each cache with a call that reads one entry of it per chain graph
STRUCTURE_CACHES = {
    "sector": (sectors._support_structure, lambda g: build_sector_hamiltonian(g, 1)),
    "support": (sectors._support_structure,
                lambda g: apply_hamiltonian(g, SparseState.unit(g.site_count, 1))),
    "ranks": (sectors._rank_structure, mirror_ranks),
}


@st.composite
def drawn_graphs(draw):
    """Site count and live edges: isolated sites, several pieces, odd cycles."""
    m = draw(st.integers(min_value=1, max_value=12))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=m)) if pairs else set()
    return m, tuple(sorted(chosen))


@given(drawn_graphs())
@example((0, ()))
@example((7, ((0, 1), (0, 2), (1, 2), (4, 5))))  # a triangle beside a path
@example((9, ((1, 2), (2, 3), (3, 4), (1, 4), (5, 8), (6, 8))))  # a 4-cycle beside a path
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
def test_sublattice_sides_are_distance_parities_from_each_piece_s_lowest_site(graph):
    from scipy.sparse.csgraph import shortest_path

    m, endpoints = graph
    adjacency = np.zeros((m, m))
    for a, b in endpoints:
        adjacency[a, b] = 1.0
    dist = shortest_path(adjacency, directed=False, unweighted=True) if m else adjacency
    side = [int(dist[min(q for q in range(m) if dist[p, q] < np.inf), p]) % 2 for p in range(m)]
    two_sided = all(side[a] != side[b] for a, b in endpoints)
    want = sum(s << p for p, s in enumerate(side)) if two_sided else None
    assert sectors._sublattice(m, endpoints) == want


def test_structure_cache_holds_at_most_its_bound():
    # and evicts the least recently used entry first, in each of the three caches
    graphs = chain_graphs(HOP_CACHE_SIZE + 4)
    kept = graphs[-HOP_CACHE_SIZE:]
    for kind, (cache, touch) in STRUCTURE_CACHES.items():
        cache.cache_clear()
        for graph in graphs:
            touch(graph)
            assert cache.cache_info().currsize <= HOP_CACHE_SIZE, kind
        assert cache.cache_info() == (0, len(graphs), HOP_CACHE_SIZE, HOP_CACHE_SIZE), kind
        touch(kept[0])  # a hit: the least recent entry becomes the most recent
        touch(graphs[0])  # a miss: it went first, and now kept[1] goes
        touch(kept[0])  # a hit
        touch(kept[1])  # a miss
        info = cache.cache_info()
        assert (info.hits, info.misses) == (2, len(graphs) + 2), kind


def test_cached_structures_are_read_only():
    graph = lattice_graph(3, 5)
    endpoints = tuple((a, b) for a, b, _ in graph.edges)
    support = np.array([0b111, 0b10101], dtype=np.int64)
    sector = sectors._support_structure(endpoints, (9, 3))
    hops = sectors._support_structure(endpoints, support.tobytes())
    ranks = sectors._rank_structure(9, 3, symmetry_map(build_square_lattice(3), "rotation_pi").perm)
    arrays = [sector.csr_order, ranks]
    for h in (sector, hops):
        arrays += [h.grown, h.index_pos, h.indptr, h.cols, h.edges]
    assert not any(a.flags.writeable for a in arrays)


def test_writing_into_a_built_matrix_leaves_the_next_build_unchanged():
    graph = lattice_graph(3, 8)
    ref = csr_bytes(sector_hamiltonian_reference(graph, 3))
    mat = build_sector_hamiltonian(graph, 3).mat
    for name in ("data", "indices", "indptr"):
        getattr(mat, name)[:] = 0
    assert csr_bytes(build_sector_hamiltonian(graph, 3).mat) == ref


@pytest.mark.parametrize("kind", ["sector_average", "single_state"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propagator_derivatives_match_central_differences(kind, seed):
    rng = np.random.default_rng(seed)
    n = 4 + seed
    geo = build_chain(n)
    pat = pattern_from_weights(geo, rng.uniform(0.2, 2.0, n - 1))
    mirror = symmetry_map(geo, "vertical_axis")
    if kind == "sector_average":
        obj = Objective(kind=kind, mirror=mirror, k=2)
    else:
        masks = rng.choice(1 << n, size=5, replace=False)
        amps = rng.normal(size=5) + 1j * rng.normal(size=5)
        obj = Objective(kind=kind, mirror=mirror, state=SparseState(n, masks, amps))
    prop = _objective_propagator(pat.to_graph(), obj)
    # central differences miss by at most h^2/6 sum|w||E|^3 (first) and
    # h^2/12 sum|w|E^4 (second), plus rounding of order eps sum|w| / h^p
    w, e, eps = np.abs(prop.weights), np.abs(prop.evals), np.finfo(float).eps
    h1, h2 = 1e-5, 1e-4
    tol1 = 2 * (h1**2 / 6 * (w @ e**3) + 4 * eps * w.sum(axis=-1) / h1)
    tol2 = 2 * (h2**2 / 12 * (w @ e**4) + 8 * eps * w.sum(axis=-1) / h2**2)
    for t in rng.uniform(0.0, 10.0, 3):
        a, da, d2a = prop.derivatives(t)
        lo1, mid, hi1 = np.moveaxis(prop.amplitudes([t - h1, t, t + h1]), -1, 0)
        assert np.all(np.abs(a - mid) <= 1e-13)
        assert np.all(np.abs(da - (hi1 - lo1) / (2 * h1)) <= tol1)
        lo2, _, hi2 = np.moveaxis(prop.amplitudes([t - h2, t, t + h2]), -1, 0)
        assert np.all(np.abs(d2a - (hi2 - 2 * mid + lo2) / h2**2) <= tol2)


def test_threads_share_the_structure_cache():
    # more threads than cores cycling more keys than the bound, switching often;
    # tiny sectors keep the threads inside the cache's bookkeeping
    graphs = chain_graphs(HOP_CACHE_SIZE + 3)
    expected = [csr_bytes(_coo_reference(g, 1)) for g in graphs]
    failures = []

    def work(offset):
        try:
            for step in range(1000):
                i = (offset + step) % len(graphs)
                if csr_bytes(build_sector_hamiltonian(graphs[i], 1).mat) != expected[i]:
                    failures.append(i)
        except Exception as e:  # a lost update surfaces as an exception here
            failures.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert sectors._support_structure.cache_info().currsize <= HOP_CACHE_SIZE

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmirror.chains import chain_pattern, christandl_chain, uniform_chain
from spinmirror.lattice import (
    ExchangeGraph,
    build_chain,
    build_square_lattice,
    pattern_from_weights,
    symmetry_map,
)
from spinmirror.optimizer import Objective, _objective_propagator
from spinmirror.sectors import (
    SectorState,
    SparseState,
    basis_state,
    build_sector_hamiltonian,
    enumerate_sector_basis,
    from_sector_state,
    permute_masks,
    popcount,
)

from oracles import pauli_hamiltonian, restrict_to_sector, sector_masks


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


def _coo_reference(graph, k):
    """H_k assembled entry by entry from itertools combinations, through COO."""
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


@pytest.mark.parametrize(
    "n, k, zero_edge",
    [(2, 0, None), (2, 4, None), (3, 4, 5), (3, 2, 0), (5, 3, 7)],
)
def test_csr_build_is_byte_identical_to_a_coo_reference(n, k, zero_edge):
    geo = build_square_lattice(n)
    weights = np.random.default_rng(n + k).uniform(0.1, 2.0, len(geo.edges()))
    if zero_edge is not None:
        weights[zero_edge] = 0.0
    graph = pattern_from_weights(geo, weights).to_graph()
    got = build_sector_hamiltonian(graph, k).mat
    ref = _coo_reference(graph, k)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.has_sorted_indices


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

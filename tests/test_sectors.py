import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmirror.chains import chain_pattern, christandl_chain, uniform_chain
from spinmirror.lattice import ExchangeGraph
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

import math
from functools import partial

import numpy as np
import pytest

from spinmirror.chains import (
    ChainCouplings,
    chain_pattern,
    christandl_chain,
    measured_transfer_modulus,
    parallel_chain_pattern,
    product_lattice_couplings,
    single_excitation_hopping,
    uniform_chain,
)
from spinmirror.dynamics import transfer_fidelity
from spinmirror.lattice import check_symmetry, symmetry_map


def test_christandl_values():
    c = christandl_chain(2)
    assert c.couplings == (0.5,)
    assert c.nominal_transfer_time == pytest.approx(math.pi / 2, abs=0)
    c = christandl_chain(4)
    assert np.allclose(c.couplings, [math.sqrt(3) / 2, 1.0, math.sqrt(3) / 2], atol=0)


def test_christandl_transfers_at_nominal_time():
    # the time stated by the constructor must agree with direct diagonalization
    for n in range(2, 13):
        c = christandl_chain(n)
        assert measured_transfer_modulus(c, c.nominal_transfer_time) >= 1 - 1e-12


def test_christandl_scale_rescales_time():
    c = christandl_chain(5, scale=2.5)
    assert c.nominal_transfer_time == pytest.approx(math.pi / 5)
    assert measured_transfer_modulus(c, c.nominal_transfer_time) >= 1 - 1e-12


def test_mirror_symmetry_enforced():
    with pytest.raises(ValueError, match="mirror-symmetric"):
        ChainCouplings(4, (1.0, 2.0, 1.5), None)
    c = christandl_chain(7)
    assert np.allclose(c.couplings, c.couplings[::-1], atol=0)


def test_uniform_chain_times():
    s = 1.3
    c2 = uniform_chain(2, s)
    assert c2.nominal_transfer_time == pytest.approx(math.pi / (4 * s))
    assert measured_transfer_modulus(c2, c2.nominal_transfer_time) >= 1 - 1e-12
    c3 = uniform_chain(3, s)
    assert c3.nominal_transfer_time == pytest.approx(math.pi / (2 * math.sqrt(2) * s))
    assert measured_transfer_modulus(c3, c3.nominal_transfer_time) >= 1 - 1e-12
    assert uniform_chain(4).nominal_transfer_time is None
    with pytest.raises(ValueError):
        uniform_chain(1)


def test_uniform_4_never_reaches_unit_fidelity():
    c = uniform_chain(4)
    ts = np.arange(1, 50001) * 1e-3
    h = single_excitation_hopping(c)
    evals, vecs = np.linalg.eigh(h)
    amps = (vecs[-1, :] * vecs[0, :]) @ np.exp(-1j * np.outer(evals, ts))
    assert np.abs(amps).max() < 1 - 1e-5


def test_hopping_matrix_elements():
    h = single_excitation_hopping(uniform_chain(3, 0.7))
    expect = np.array([[0, 1.4, 0], [1.4, 0, 1.4], [0, 1.4, 0]])
    assert np.array_equal(h, expect)


def test_chain_pattern_round_trip():
    c = christandl_chain(5)
    pat = chain_pattern(c)
    assert pat.geometry.kind == "chain"
    assert np.allclose(pat.chain_couplings, c.couplings, atol=0)
    assert check_symmetry(pat, symmetry_map(pat.geometry, "vertical_axis"))


def test_product_lattice_structure():
    c = christandl_chain(3)
    pat = product_lattice_couplings(c, c)
    assert pat.J.shape == (2, 3) and pat.K.shape == (3, 2)
    # every column of J carries the row chain, every row of K the column chain
    for j in range(3):
        assert np.allclose(pat.J[:, j], c.couplings, atol=0)
    for i in range(3):
        assert np.allclose(pat.K[i, :], c.couplings, atol=0)
    with pytest.raises(ValueError, match="equal length"):
        product_lattice_couplings(christandl_chain(3), christandl_chain(4))


def test_product_lattice_transfers_each_axis():
    c = christandl_chain(3)
    pat = product_lattice_couplings(c, c)
    t = c.nominal_transfer_time
    # a corner excitation reaches the opposite corner at the common time
    assert transfer_fidelity(pat, (1, 1), (3, 3), t) >= 1 - 1e-12
    assert transfer_fidelity(pat, (2, 1), (2, 3), t) >= 1 - 1e-12


def test_parallel_chain_pattern():
    c = christandl_chain(4)
    two = parallel_chain_pattern(c, 2)
    assert two.geometry.kind == "rect"
    assert two.geometry.rows == 2 and two.geometry.cols == 4
    assert np.array_equal(two.J, np.zeros((1, 4)))
    for i in range(2):
        assert np.allclose(two.K[i, :], c.couplings, atol=0)
    assert check_symmetry(two, symmetry_map(two.geometry, "vertical_axis"))
    square = parallel_chain_pattern(c)
    assert square.geometry.kind == "square"
    assert square.geometry.rows == 4
    with pytest.raises(ValueError):
        parallel_chain_pattern(c, 0)


_CHAIN5 = christandl_chain(5)


@pytest.mark.parametrize(
    "curve",
    [
        partial(measured_transfer_modulus, _CHAIN5),
        partial(transfer_fidelity, chain_pattern(_CHAIN5), 0, 4),
    ],
    ids=["measured_transfer_modulus", "transfer_fidelity"],
)
def test_curves_take_time_arrays(curve):
    ts = np.linspace(0.1, 3.0, 6).reshape(2, 3)
    moduli = curve(ts)
    assert moduli.shape == (2, 3)
    for idx in np.ndindex(ts.shape):
        scalar = curve(float(ts[idx]))
        assert type(scalar) is float
        assert abs(moduli[idx] - scalar) <= 1e-15
    assert type(curve(np.array(1.2))) is float
    assert curve(np.array([1.2])).shape == (1,)


def test_transfer_fidelity_rejects_flat_sites_outside_the_chain():
    pat = chain_pattern(christandl_chain(5))
    with pytest.raises(ValueError, match="outside 0..4"):
        transfer_fidelity(pat, 0, 99, 1.0)
    with pytest.raises(ValueError, match="outside 0..4"):
        transfer_fidelity(pat, -1, 0, 1.0)

import math
import warnings
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
    uniform_chain,
)
from spinmirror.dynamics import transfer_fidelity
from spinmirror.lattice import check_symmetry, symmetry_map

from oracles import chain_hopping


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
    evals, vecs = np.linalg.eigh(chain_hopping(c))
    amps = (vecs[-1, :] * vecs[0, :]) @ np.exp(-1j * np.outer(evals, ts))
    assert np.abs(amps).max() < 1 - 1e-5


@pytest.mark.parametrize("build", [christandl_chain, uniform_chain])
@pytest.mark.parametrize("n", range(2, 9))
def test_transfer_fidelity_matches_the_oracle_block_to_the_bit(build, n):
    c = build(n)
    ts = np.linspace(0.0, 4.0, 41)
    evals, vecs = np.linalg.eigh(chain_hopping(c))
    expect = np.abs((vecs[-1, :] * vecs[0, :]) @ np.exp(-1j * np.outer(evals, ts)))
    assert np.array_equal(transfer_fidelity(chain_pattern(c), 0, n - 1, ts), expect)
    assert np.array_equal(measured_transfer_modulus(c, ts), expect)


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
_CURVES = pytest.mark.parametrize(
    "curve",
    [
        partial(measured_transfer_modulus, _CHAIN5),
        partial(transfer_fidelity, chain_pattern(_CHAIN5), 0, 4),
    ],
    ids=["measured_transfer_modulus", "transfer_fidelity"],
)


@_CURVES
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


@pytest.mark.parametrize("couplings", [(math.nan, math.nan), (math.inf, math.inf), (1e308, 1e308)],
                         ids=["nan", "inf", "2c-overflows"])
def test_chain_couplings_refuse_a_non_finite_hopping_element(couplings):
    with pytest.raises(ValueError, match="2c must be finite"):
        ChainCouplings(3, couplings, None)


@pytest.mark.parametrize("build, value", [(christandl_chain, math.inf), (christandl_chain, math.nan),
                                          (uniform_chain, math.inf), (uniform_chain, math.nan)])
def test_chain_constructors_refuse_a_non_finite_scale(build, value):
    with pytest.raises(ValueError, match=f"must be finite and positive, got {value}"):
        build(4, value)


def test_a_subnormal_scale_has_no_finite_transfer_time():
    # pi / (2 * 1e-320) overflows
    with pytest.raises(ValueError, match="transfer time must be finite and positive, got inf"):
        christandl_chain(4, 1e-320)
    with pytest.raises(ValueError, match="transfer time must be finite and positive, got inf"):
        ChainCouplings(2, (1.0,), math.inf)


@_CURVES
@pytest.mark.parametrize("t", [math.inf, math.nan, np.array([0.5, math.inf]), np.array([[math.nan]])],
                         ids=["inf", "nan", "array-inf", "array-nan"])
def test_curves_refuse_a_non_finite_time(curve, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="evolution time must be finite"):
            curve(t)

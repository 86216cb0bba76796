import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmirror import jsonio
from spinmirror.chains import chain_pattern, christandl_chain, parallel_chain_pattern
from spinmirror.lattice import (
    CouplingPattern,
    ExchangeGraph,
    build_chain,
    build_rect_lattice,
    build_square_lattice,
    check_symmetry,
    edge_orbits,
    group_closure,
    manhattan_distance,
    pattern_from_graph,
    pattern_from_weights,
    random_symmetric_pattern,
    symmetrize_pattern,
    symmetry_map,
    uniform_pattern,
)
from oracles import symmetry_perm

ALL_NAMES = ("main_diagonal", "anti_diagonal", "rotation_pi", "vertical_axis", "horizontal_axis")


def test_flat_coords_bijection():
    g = build_rect_lattice(3, 5)
    seen = set()
    for i in range(1, 4):
        for j in range(1, 6):
            f = g.flat(i, j)
            assert g.coords(f) == (i, j)
            seen.add(f)
    assert seen == set(range(15))
    with pytest.raises(ValueError):
        g.flat(0, 1)
    with pytest.raises(ValueError):
        g.flat(1, 6)


def test_edge_counts_and_order():
    assert build_chain(1).edges() == []
    assert build_chain(2).edges() == [(0, 1)]
    # vertical edges (all of J, row-major) come before horizontal ones
    g = build_square_lattice(2)
    assert g.edges() == [(0, 2), (1, 3), (0, 1), (2, 3)]
    assert len(build_square_lattice(4).edges()) == 24


def test_manhattan_distance():
    g = build_square_lattice(4)
    assert manhattan_distance(g, (1, 1), (1, 2)) == 1
    assert manhattan_distance(g, (1, 1), (4, 4)) == 6
    assert manhattan_distance(g, 0, 15) == 6  # flat addressing
    assert manhattan_distance(g, (2, 3), (3, 1)) == 3


def test_exchange_graph_validation():
    ExchangeGraph(3, ((0, 1, 1.0), (1, 2, 0.5)))
    with pytest.raises(ValueError):
        ExchangeGraph(3, ((1, 0, 1.0),))  # endpoints must be ordered a < b
    with pytest.raises(ValueError):
        ExchangeGraph(3, ((0, 3, 1.0),))  # out of range
    with pytest.raises(ValueError):
        ExchangeGraph(3, ((0, 1, float("nan")),))


def test_pattern_round_trips():
    g = build_square_lattice(3)
    square = random_symmetric_pattern(g, (symmetry_map(g, "main_diagonal"),), seed=7)
    # a chain document and a rect one (two parallel chains)
    for pat in (square, chain_pattern(christandl_chain(5)),
                parallel_chain_pattern(christandl_chain(4), 2)):
        g = pat.geometry
        back = pattern_from_graph(pat.to_graph(), g)
        assert np.array_equal(back.J, pat.J) and np.array_equal(back.K, pat.K)
        # serialization keeps every bit: repr floats parse back exactly
        text = jsonio.canonical_dumps(jsonio.pattern_to_obj(pat))
        again = jsonio.pattern_from_obj(json.loads(text))
        assert again.geometry == g
        assert np.array_equal(again.J, pat.J) and np.array_equal(again.K, pat.K)


def test_pattern_from_graph_rejects_long_edges():
    g = build_square_lattice(3)
    with pytest.raises(ValueError, match="nearest-neighbour"):
        pattern_from_graph(ExchangeGraph(9, ((0, 2, 1.0),)), g)


def test_symmetry_maps_are_involutions():
    for g in (build_square_lattice(3), build_square_lattice(4)):
        for name in ALL_NAMES:
            m = symmetry_map(g, name)
            assert all(m(m(s)) == s for s in range(g.site_count)), name
    g = build_rect_lattice(2, 4)
    for name in ("rotation_pi", "vertical_axis", "horizontal_axis"):
        m = symmetry_map(g, name)
        assert all(m(m(s)) == s for s in range(g.site_count))
    with pytest.raises(ValueError, match="square"):
        symmetry_map(g, "main_diagonal")


def test_symmetry_maps_match_the_coordinate_formulas():
    geometries = [build_chain(n) for n in range(1, 7)]
    geometries += [build_square_lattice(n) for n in range(1, 7)]
    geometries += [build_rect_lattice(r, c) for r in range(1, 5) for c in range(1, 5)]
    for g in geometries:
        for name in ALL_NAMES:
            if name in ("main_diagonal", "anti_diagonal") and g.rows != g.cols:
                with pytest.raises(ValueError, match="requires a square geometry"):
                    symmetry_map(g, name)
                continue
            want = symmetry_perm(g.rows, g.cols, name)
            assert symmetry_map(g, name).perm == want, (g, name)


def test_rotation_is_composition_of_diagonals():
    for n in range(2, 9):
        g = build_square_lattice(n)
        main = symmetry_map(g, "main_diagonal")
        anti = symmetry_map(g, "anti_diagonal")
        rot = symmetry_map(g, "rotation_pi")
        assert main.compose(anti).perm == rot.perm
        assert anti.compose(main).perm == rot.perm


def test_group_closure_sizes():
    g = build_square_lattice(3)
    main = symmetry_map(g, "main_diagonal")
    anti = symmetry_map(g, "anti_diagonal")
    assert len(group_closure([main])) == 2
    assert len(group_closure([main, anti])) == 4  # id, two reflections, rotation


def test_check_symmetry_2x2_example():
    g = build_square_lattice(2)
    # verticals (1,1)-(2,1)=1, (1,2)-(2,2)=2; horizontals (1,1)-(1,2)=1, (2,1)-(2,2)=2
    pat = CouplingPattern(g, np.array([[1.0, 2.0]]), np.array([[1.0], [2.0]]))
    assert check_symmetry(pat, symmetry_map(g, "main_diagonal"))
    assert not check_symmetry(pat, symmetry_map(g, "anti_diagonal"))
    assert not check_symmetry(pat, symmetry_map(g, "rotation_pi"))


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_cross_symmetry_implies_rotation_symmetry(seed):
    g = build_square_lattice(3)
    group = (symmetry_map(g, "main_diagonal"), symmetry_map(g, "anti_diagonal"))
    pat = random_symmetric_pattern(g, group, seed)
    for m in group:
        assert check_symmetry(pat, m)
    assert check_symmetry(pat, symmetry_map(g, "rotation_pi"))


def test_edge_orbits_2x2():
    g = build_square_lattice(2)
    rot = (symmetry_map(g, "rotation_pi"),)
    assert edge_orbits(g, rot) == [[0, 1], [2, 3]]
    rx = (symmetry_map(g, "main_diagonal"), symmetry_map(g, "anti_diagonal"))
    assert edge_orbits(g, rx) == [[0, 1, 2, 3]]


@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=12, max_size=12))
@settings(max_examples=25, deadline=None)
def test_symmetrize_is_idempotent(weights):
    g = build_square_lattice(3)
    group = (symmetry_map(g, "main_diagonal"),)
    once = symmetrize_pattern(pattern_from_weights(g, weights), group)
    assert check_symmetry(once, group[0])
    twice = symmetrize_pattern(once, group)
    assert np.array_equal(once.J, twice.J) and np.array_equal(once.K, twice.K)


def test_random_symmetric_pattern_is_deterministic():
    g = build_square_lattice(4)
    group = (symmetry_map(g, "main_diagonal"), symmetry_map(g, "anti_diagonal"))
    a = random_symmetric_pattern(g, group, seed=11)
    b = random_symmetric_pattern(g, group, seed=11)
    c = random_symmetric_pattern(g, group, seed=12)
    assert np.array_equal(a.J, b.J) and np.array_equal(a.K, b.K)
    assert not np.array_equal(a.K, c.K)
    for m in group:
        assert check_symmetry(a, m)
    with pytest.raises(ValueError):
        random_symmetric_pattern(g, group, seed=0, coupling_range=(2.0, 1.0))


def test_uniform_pattern_has_every_symmetry():
    g = build_square_lattice(5)
    pat = uniform_pattern(g, 0.7)
    for name in ALL_NAMES:
        assert check_symmetry(pat, symmetry_map(g, name))

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    permutation_operator,
    sector_hamiltonian_reference,
    sector_matrix,
    sector_propagation,
    symmetry_perm,
)
from spinmirror.chains import chain_pattern, christandl_chain
from spinmirror import optimizer, sectors
from spinmirror.lattice import (
    _orbit_pattern,
    build_chain,
    build_square_lattice,
    check_symmetry,
    edge_orbits,
    pattern_from_weights,
    random_symmetric_pattern,
    symmetry_map,
    uniform_pattern,
)
from spinmirror.dynamics import KRYLOV_BREAKDOWN
from spinmirror.optimizer import (
    COUPLING_BOX,
    TIME_GRID_POINTS,
    Objective,
    OptimizationRun,
    PolishCounts,
    _golden_max,
    _newton_max,
    _objective_propagator,
    _time_horizon,
    evaluate_objective,
    optimize,
    preset_chain4,
    preset_rx_3x3_witness,
    probe_2x2,
    witness_ceiling,
)
from spinmirror.sectors import Propagator, SparseState
from spinmirror.witness import WitnessSpec, build_witness, diagonal_basis_state


def rotation_objective(g, k):
    return Objective(kind="sector_average", mirror=symmetry_map(g, "rotation_pi"), k=k)


def test_objective_validation():
    g = build_square_lattice(2)
    rot = symmetry_map(g, "rotation_pi")
    with pytest.raises(ValueError, match="kind"):
        Objective(kind="both", mirror=rot, k=1)
    with pytest.raises(ValueError, match="sector"):
        Objective(kind="sector_average", mirror=rot)
    with pytest.raises(ValueError, match="state"):
        Objective(kind="single_state", mirror=rot)


def test_time_window_must_be_finite():
    # the window ends at 8 pi / mean |w|, which overflows for subnormal couplings
    g = build_chain(3)
    obj = Objective(kind="sector_average", mirror=symmetry_map(g, "vertical_axis"), k=1)
    with pytest.raises(ValueError, match="time window"):
        evaluate_objective(pattern_from_weights(g, [1e-320, 1e-320]), obj)


def test_zero_pattern_average_counts_fixed_masks():
    # H = 0 so U = I always; only the 2 rotation-fixed masks of the 6 in k=2
    # contribute, pinning the average at 1/3 with argmax at the first grid time.
    # The other 4 mirrored entries vanish, so the polish has no derivative to
    # follow and must keep the grid incumbent without dividing by zero.
    g = build_square_lattice(2)
    pat = pattern_from_weights(g, np.zeros(4))
    counts = PolishCounts()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, t = evaluate_objective(pat, rotation_objective(g, 2), counts)
    assert v == pytest.approx(1 / 3, abs=1e-15)
    assert t == 0.0
    assert counts == PolishCounts(kept_incumbent=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_witness_objective_keeps_its_grid_incumbent(seed):
    # the R_x-constrained 3x3 witness is stationary, so its objective is one
    # spectral point whose weight, the mirrored overlap, is exactly zero: there
    # is no maximum to polish
    g = build_square_lattice(3)
    group = (symmetry_map(g, "main_diagonal"), symmetry_map(g, "anti_diagonal"))
    psi = build_witness(WitnessSpec(3, diagonal_basis_state(3, "100")))
    obj = single_state_objective(g, psi)
    counts = PolishCounts()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, _ = evaluate_objective(random_symmetric_pattern(g, group, seed), obj, counts)
    assert np.isfinite(v) and v < 1e-12
    assert v == 0.0
    assert counts == PolishCounts(kept_incumbent=1)
    assert counts.stationary_sectors == 1


def _reference_grid(prop, t1):
    """evaluate_objective's grid and its three refinements as plain np.linspace
    calls on Propagator.amplitudes: (best time, best value, last width, values)."""

    def values(ts):
        return np.abs(np.atleast_2d(prop.amplitudes(ts))).mean(axis=0)

    ts = np.linspace(0.0, t1, TIME_GRID_POINTS)
    vals = values(ts)
    i = int(np.argmax(vals))
    best_t, best_v = float(ts[i]), float(vals[i])
    width = t1 / (TIME_GRID_POINTS - 1)
    for _ in range(3):
        local = np.linspace(max(0.0, best_t - width), min(t1, best_t + width), 21)
        lv = values(local)
        j = int(np.argmax(lv))
        if lv[j] > best_v:
            best_v, best_t = float(lv[j]), float(local[j])
        width /= 10
    return best_t, best_v, width, values


def _golden_polished(pattern, objective):
    """evaluate_objective's grid and refinements, then a golden-section polish."""
    prop = _objective_propagator(pattern.to_graph(), objective)
    t1 = 8 * math.pi / float(np.mean(np.abs(pattern.edge_weights())))
    best_t, best_v, width, values = _reference_grid(prop, t1)
    lo, hi = max(0.0, best_t - 10 * width), min(t1, best_t + 10 * width)
    gt, gv = _golden_max(lambda t: float(values([t])[0]), lo, hi, 1e-12 * max(1.0, t1))
    return max(gv, best_v)


def _reference_evaluation(pattern, objective):
    """evaluate_objective written out plainly, in the couplings' own time units:
    ((value, time), counts). The kernel reads times in units of a power of two,
    which moves no bit while the mean |w| is at most 8 pi (a window of >= 1)."""
    counts = PolishCounts()
    prop = _objective_propagator(pattern.to_graph(), objective, counts)
    if np.ptp(prop.evals) == 0:
        counts.kept_incumbent += 1
        return (float(np.abs(np.atleast_2d(prop.amplitudes([0.0]))).mean(axis=0)[0]), 0.0), counts
    t1 = 8 * math.pi / float(np.mean(np.abs(pattern.edge_weights())))
    best_t, best_v, width, _ = _reference_grid(prop, t1)
    lo, hi = max(0.0, best_t - 10 * width), min(t1, best_t + 10 * width)
    polished = _newton_max(prop, lo, hi, best_t, 1e-12 * max(1.0, t1), counts)
    if polished is not None and polished[1] > best_v:
        best_t, best_v = polished
    else:
        counts.kept_incumbent += 1
    return (best_v, best_t), counts


def drawn_case(g, weights, k=None, masks=(), amps=()):
    """The pattern and the objective of one differential case: a sector average
    at k, or else the state of the masks and amplitudes."""
    pattern = pattern_from_weights(g, weights)
    mirror = symmetry_map(g, "vertical_axis" if g.kind == "chain" else "rotation_pi")
    if k is not None:
        return pattern, Objective(kind="sector_average", mirror=mirror, k=k)
    state = SparseState(g.site_count, list(masks), list(amps))
    return pattern, Objective(kind="single_state", mirror=mirror, state=state)


@st.composite
def objective_cases(draw):
    """Chains and the 2x2 and 3x3 lattices, couplings in [0.05, 25] or 0 (so
    mean |w| < 8 pi), and a sector average at any k or a state on up to four
    basis states, the empty and the full mask (each one stationary sector) among
    those drawn."""
    g = draw(st.sampled_from([build_chain(n) for n in range(2, 7)]
                             + [build_square_lattice(2), build_square_lattice(3)]))
    m, edges = g.site_count, len(g.edges())
    weights = draw(st.lists(st.sampled_from([0.0]) | st.floats(0.05, 25.0),
                            min_size=edges, max_size=edges))
    if draw(st.booleans()):
        return drawn_case(g, weights, k=draw(st.integers(0, m)))
    masks = draw(st.lists(st.sampled_from([0, (1 << m) - 1]) | st.integers(0, (1 << m) - 1),
                          min_size=1, max_size=4, unique=True))
    parts = st.floats(-1.0, 1.0)
    amps = [complex(draw(parts), draw(parts)) for _ in masks]
    return drawn_case(g, weights, masks=masks, amps=amps)


@given(objective_cases())
# zero couplings: H = 0 and one energy
@example(drawn_case(build_square_lattice(2), [0.0] * 4, k=2))
# one basis state of a one-state sector, and one stationary and one moving sector
@example(drawn_case(build_chain(4), [0.9, 1.3, 0.8], k=0))
@example(drawn_case(build_chain(3), [1.0, 2.0], masks=[0b000, 0b001], amps=[0.6, 0.8]))
# incumbents at t = 0 (a mirror-symmetric state), at the window's end, which
# 399 (t1 / 399) misses by an ulp, and on a refinement grid
@example(drawn_case(build_chain(3), [1.0, 1.0], masks=[0b010], amps=[1.0]))
@example(drawn_case(build_chain(4), [0.7, 0.0, 1.7], k=2))
@example(drawn_case(build_chain(3), [2.68, 0.71], k=1))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_the_evaluation_kernel_matches_the_reference_bit_for_bit(case):
    pattern, objective = case
    expected, reference_counts = _reference_evaluation(pattern, objective)
    counts = PolishCounts()
    assert evaluate_objective(pattern, objective, counts) == expected
    assert counts == reference_counts
    assert counts.stationary_sectors == reference_counts.stationary_sectors


@pytest.mark.parametrize("c", [1e-200, 1e-160, 1e8, 1e100, 1e200, 2.0**600, 2.0**-600])
def test_the_time_polish_does_not_depend_on_the_coupling_scale(c):
    # (H, t) -> (cH, t / c) keeps every modulus: the polish must find the same
    # maximum, with the same steps, far from unit coupling scale too
    g = build_chain(4)
    obj = Objective(kind="sector_average", mirror=symmetry_map(g, "vertical_axis"), k=1)
    w = np.array([0.9, 1.3, 0.8])
    unit = PolishCounts()
    v1, t1 = evaluate_objective(pattern_from_weights(g, w), obj, unit)
    counts = PolishCounts()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, t = evaluate_objective(pattern_from_weights(g, c * w), obj, counts)
    assert abs(v - v1) <= 1e-12
    assert t * c == pytest.approx(t1, rel=1e-9)
    assert counts == unit


@pytest.mark.parametrize("kind", ["sector_average", "single_state"])
@pytest.mark.parametrize("seed", range(4))
def test_newton_polish_is_no_worse_than_golden_section(kind, seed):
    rng = np.random.default_rng(seed)
    n = 4 + seed % 3
    g = build_chain(n)
    pat = pattern_from_weights(g, rng.uniform(0.2, 2.0, n - 1))
    mirror = symmetry_map(g, "vertical_axis")
    if kind == "sector_average":
        obj = Objective(kind=kind, mirror=mirror, k=1 + seed % 2)
    else:
        masks = rng.choice(1 << n, size=4, replace=False)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        obj = Objective(kind=kind, mirror=mirror, state=SparseState(n, masks, amps))
    counts = PolishCounts()
    v, _ = evaluate_objective(pat, obj, counts)
    assert v >= _golden_polished(pat, obj) - 1e-15
    assert counts.newton_steps > 0


def test_newton_polish_bisects_when_a_step_leaves_the_bracket():
    # |a(t)| = |cos(t/2)|, maximal at t = 0; from t = -2.5 the Newton step
    # t - 2 tan(t/2) lands near 3.5, outside [-3, 1]
    prop = Propagator(np.array([0.0, 1.0]), np.array([[0.5, 0.5]], dtype=complex))
    counts = PolishCounts()
    t, f = _newton_max(prop, -3.0, 1.0, -2.5, 1e-12, counts)
    assert abs(t) < 1e-9
    assert f == pytest.approx(1.0, abs=1e-15)
    assert counts.bisections >= 1 and counts.newton_steps >= 1
    # f' < 0 over all of [0.5, 1]: no maximum inside, nothing to polish
    assert _newton_max(prop, 0.5, 1.0, 0.7, 1e-12, PolishCounts()) is None


def test_single_state_across_sectors_closed_form():
    # (|00> + |10>)/sqrt2 on a 2-chain: amplitude is (1 - i sin 2t)/2 whose
    # modulus peaks at sqrt(2)/2.
    g = build_chain(2)
    r = 1 / math.sqrt(2)
    psi = SparseState.from_dict(2, {0: r, 1: r})
    obj = Objective(kind="single_state", mirror=symmetry_map(g, "vertical_axis"), state=psi)
    v, t = evaluate_objective(uniform_pattern(g), obj)
    assert v == pytest.approx(math.sqrt(2) / 2, abs=1e-9)
    assert t > 0


def test_best_value_is_scale_invariant():
    g = build_square_lattice(2)
    rot = symmetry_map(g, "rotation_pi")
    pat = random_symmetric_pattern(g, (rot,), seed=3)
    obj = rotation_objective(g, 1)
    v1, t1 = evaluate_objective(pat, obj)
    v2, t2 = evaluate_objective(pattern_from_weights(g, 2.5 * pat.edge_weights()), obj)
    assert v2 == pytest.approx(v1, abs=1e-9)
    assert t2 == pytest.approx(t1 / 2.5, rel=1e-4)


def test_descent_keeps_constraints_and_improves_monotonically():
    g = build_square_lattice(2)
    rot = symmetry_map(g, "rotation_pi")
    run = OptimizationRun(geometry=g, constraint_group=(rot,), max_iters=3, seed=7)
    out = optimize(run, rotation_objective(g, 1))
    assert out.completed
    assert out.evaluations > 0
    assert len(out.trace[0][3]) == 2  # one parameter per rotation orbit
    vals = [row[1] for row in out.trace]
    assert vals == sorted(vals)
    assert out.best_value == out.trace[-1][1]
    assert check_symmetry(out.best_pattern, rot)


def test_zero_iterations_scores_the_start_only():
    g = build_square_lattice(2)
    run = OptimizationRun(
        geometry=g, constraint_group=(), max_iters=0, initial_pattern=uniform_pattern(g)
    )
    out = optimize(run, rotation_objective(g, 1))
    assert len(out.trace) == 1
    assert np.array_equal(out.best_pattern.edge_weights(), np.ones(4))


def test_identical_runs_reproduce_exactly():
    g = build_square_lattice(2)
    rot = symmetry_map(g, "rotation_pi")
    obj = rotation_objective(g, 1)
    outs = [
        optimize(OptimizationRun(geometry=g, constraint_group=(rot,), max_iters=2, seed=11), obj)
        for _ in range(2)
    ]
    assert outs[0].trace == outs[1].trace
    assert outs[0].best_value == outs[1].best_value
    assert outs[0].best_time == outs[1].best_time


def test_initial_pattern_must_respect_the_orbits():
    g = build_square_lattice(2)
    rot = symmetry_map(g, "rotation_pi")
    run = OptimizationRun(
        geometry=g,
        constraint_group=(rot,),
        max_iters=1,
        initial_pattern=pattern_from_weights(g, [1.0, 2.0, 3.0, 4.0]),
    )
    with pytest.raises(ValueError, match="orbit"):
        optimize(run, rotation_objective(g, 1))


def test_initial_pattern_must_be_on_the_search_geometry():
    # a 5-chain start was read as the first three weights of a 4-chain search
    run = OptimizationRun(geometry=build_chain(4), constraint_group=(), max_iters=1,
                          initial_pattern=pattern_from_weights(build_chain(5), [1.0, 2.0, 3.0, 4.0]))
    obj = Objective(kind="sector_average", mirror=symmetry_map(build_chain(4), "vertical_axis"), k=1)
    with pytest.raises(ValueError, match="initial pattern"):
        optimize(run, obj)


def test_unknown_method_rejected():
    g = build_square_lattice(2)
    run = OptimizationRun(geometry=g, constraint_group=(), method="gradient")
    with pytest.raises(ValueError, match="method"):
        optimize(run, rotation_objective(g, 1))


def test_nelder_mead_keeps_an_exact_start():
    g = build_chain(4)
    run = OptimizationRun(
        geometry=g,
        constraint_group=(),
        method="nelder_mead_on_free_parameters",
        max_iters=10,
        initial_pattern=chain_pattern(christandl_chain(4)),
    )
    obj = Objective(kind="sector_average", mirror=symmetry_map(g, "vertical_axis"), k=1)
    out = optimize(run, obj)
    assert out.best_value >= 1 - 1e-9


def mirror_chain_search(method, seed):
    """A search over the two mirror-symmetric couplings of a 4-chain, with its objective."""
    g = build_chain(4)
    mirror = symmetry_map(g, "vertical_axis")
    run = OptimizationRun(geometry=g, constraint_group=(mirror,), method=method,
                          max_iters=3 if method == "coordinate_descent" else 10, seed=seed)
    return run, Objective(kind="sector_average", mirror=mirror, k=1)


# seeds at which each method records several trace rows
SEARCHES = [("coordinate_descent", 0), ("nelder_mead_on_free_parameters", 3)]


@pytest.mark.parametrize("method,seed", SEARCHES)
def test_each_trace_row_holds_what_its_point_measured(method, seed):
    run, obj = mirror_chain_search(method, seed)
    out = optimize(run, obj)
    assert len(out.trace) >= 4
    orbits = edge_orbits(run.geometry, run.constraint_group)
    for _, value, t, params in out.trace:
        assert evaluate_objective(_orbit_pattern(run.geometry, orbits, params), obj) == (value, t)
    _, value, t, params = out.trace[-1]
    assert (out.best_value, out.best_time) == (value, t)
    best = _orbit_pattern(run.geometry, orbits, params)
    assert np.array_equal(out.best_pattern.edge_weights(), best.edge_weights())


@pytest.mark.parametrize("method,seed", SEARCHES)
def test_no_point_is_recorded_twice(method, seed):
    out = optimize(*mirror_chain_search(method, seed))
    assert len({row[3] for row in out.trace}) == len(out.trace)


@pytest.mark.parametrize("method,seed", SEARCHES)
def test_each_point_is_evaluated_once_on_a_symmetric_pattern(method, seed, monkeypatch):
    seen = []
    evaluate = optimizer._BoundObjective.evaluate
    run, obj = mirror_chain_search(method, seed)

    def spy(bound, weights, counts):
        seen.append(pattern_from_weights(run.geometry, weights))
        return evaluate(bound, weights, counts)

    monkeypatch.setattr(optimizer._BoundObjective, "evaluate", spy)
    out = optimize(run, obj)
    assert len(seen) == out.evaluations
    assert all(check_symmetry(pattern, sym) for pattern in seen for sym in run.constraint_group)


def single_state_objective(g, state):
    return Objective(kind="single_state", mirror=symmetry_map(g, "rotation_pi"), state=state)


def test_ceiling_is_zero_for_a_pure_witness():
    g = build_square_lattice(2)
    w = build_witness(WitnessSpec(2, diagonal_basis_state(2, "10")))
    assert witness_ceiling(uniform_pattern(g), single_state_objective(g, w)) <= 1e-9


def test_ceiling_is_vacuous_without_witness_component():
    # excitation on a diagonal site: orthogonal to every witness vector
    g = build_square_lattice(2)
    psi = SparseState.unit(4, 0b0001)
    assert witness_ceiling(uniform_pattern(g), single_state_objective(g, psi)) == 1.0


def test_ceiling_of_an_even_mixture_and_dominance():
    g = build_square_lattice(2)
    r = 1 / math.sqrt(2)
    w = build_witness(WitnessSpec(2, diagonal_basis_state(2, "10")))
    perp = SparseState.unit(4, 0b0110)  # both off-diagonal sites excited
    mix = w.scaled(r).add(perp.scaled(r))
    obj = single_state_objective(g, mix)
    assert witness_ceiling(uniform_pattern(g), obj) == pytest.approx(r, abs=1e-12)
    group = (symmetry_map(g, "main_diagonal"), symmetry_map(g, "anti_diagonal"))
    for seed in range(3):
        pat = random_symmetric_pattern(g, group, seed)
        best, _ = evaluate_objective(pat, obj)
        assert best <= witness_ceiling(pat, obj) + 1e-9


def test_a_best_value_above_the_ceiling_is_reported(monkeypatch):
    # a ceiling one step below the best value it bounds: no slack forgives it
    def just_below(pattern, objective):
        return float(np.nextafter(evaluate_objective(pattern, objective)[0], -np.inf))

    monkeypatch.setattr(optimizer, "witness_ceiling", just_below)
    report, _ = preset_rx_3x3_witness(n_restarts=1, max_iters=1)
    assert report["ceiling"] < report["best_value"]
    assert report["ceiling_respected"] is False


def test_ceiling_preconditions():
    g = build_square_lattice(2)
    with pytest.raises(ValueError, match="single_state"):
        witness_ceiling(uniform_pattern(g), rotation_objective(g, 1))
    w = build_witness(WitnessSpec(2, diagonal_basis_state(2, "10")))
    obj = single_state_objective(g, w)
    with pytest.raises(ValueError, match="symmetric"):
        witness_ceiling(pattern_from_weights(g, [1.0, 1.0, 2.0, 1.0]), obj)


def test_probe_2x2_is_deterministic():
    a = probe_2x2(n_ratios=5, n_times=64)
    b = probe_2x2(n_ratios=5, n_times=64)
    assert a == b
    assert len(a.rows) == 5
    assert all(len(row) == 3 for row in a.rows)
    assert a.supremum == max(row[1] for row in a.rows)
    assert 0.0 < a.supremum <= 1.0 + 1e-12
    assert a.ratio_range == COUPLING_BOX
    assert a.rows[0][0] == pytest.approx(COUPLING_BOX[0], rel=1e-12)
    assert a.rows[-1][0] == pytest.approx(COUPLING_BOX[1], rel=1e-12)
    with pytest.raises(ValueError):
        probe_2x2(n_ratios=1)


def rotation_eigenpair(n, k):
    """A rotation-symmetric n x n pattern, its sector-k oracle and its most isolated eigenpair.

    Returns (pattern, masks, H, P, evals, vecs, i): H and the mirror P come
    from the oracles and the eigenpairs from scipy, none from package code.
    """
    g = build_square_lattice(n)
    pat = random_symmetric_pattern(g, (symmetry_map(g, "rotation_pi"),), seed=n + k)
    graph = pat.to_graph()
    masks, H = sector_matrix(graph.site_count, graph.edges, k)
    P = permutation_operator(masks, symmetry_perm(n, n, "rotation_pi"))
    evals, vecs = scipy.linalg.eigh(H.toarray())
    gaps = np.minimum(np.diff(evals, prepend=-np.inf), np.diff(evals, append=np.inf))
    i = int(np.argmax(gaps))
    assert gaps[i] > 1e-3  # nondegenerate
    return pat, masks, H, P, evals, vecs, i


@pytest.mark.parametrize("n, k", [(2, 2), (3, 4)])
def test_a_stationary_sector_is_one_spectral_point(n, k):
    pat, masks, _, P, _, vecs, i = rotation_eigenpair(n, k)
    v = vecs[:, i]
    obj = single_state_objective(pat.geometry, SparseState(n * n, masks, v))
    assert len(_objective_propagator(pat.to_graph(), obj).evals) == 1
    value, t = evaluate_objective(pat, obj)
    assert value == pytest.approx(abs(np.vdot(P @ v, v)), abs=1e-12)
    assert t == 0.0


@pytest.mark.parametrize("n, k", [(2, 2), (3, 4)])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_the_stationary_switch_on_both_sides_of_the_breakdown_rule(n, k, factor):
    # psi = v + eps u with u another eigenvector has the relative residual
    # ||H psi - E psi|| / ||psi|| = eps |lambda_u - lambda_v| / (1 + eps^2),
    # which the switch reads in units of the mean coupling
    pat, masks, H, P, evals, vecs, i = rotation_eigenpair(n, k)
    graph = pat.to_graph()
    scale = np.mean([abs(w) for _, _, w in graph.edges])
    j = (i + 1) % len(evals)
    eps = factor * KRYLOV_BREAKDOWN * scale / abs(evals[j] - evals[i])
    psi = vecs[:, i] + eps * vecs[:, j]
    h = H @ psi
    energy = np.vdot(psi, h).real / np.vdot(psi, psi).real
    residual = np.linalg.norm(h - energy * psi) / np.linalg.norm(psi) / scale
    assert residual == pytest.approx(factor * KRYLOV_BREAKDOWN, rel=0.1)
    obj = single_state_objective(pat.geometry, SparseState(n * n, masks, psi))
    counts = PolishCounts()
    prop = _objective_propagator(graph, obj, counts)
    stationary = factor < 1
    assert counts.stationary_sectors == int(stationary)
    assert len(prop.evals) == (1 if stationary else len(masks))
    value, t = evaluate_objective(pat, obj)
    start = dict(zip(masks, psi))

    def oracle(time):
        return np.vdot(P @ psi, sector_propagation(n * n, graph.edges, k, start, time)[1])

    assert abs(value - abs(oracle(t))) < 1e-11
    # the window's end, where the bound ||r|| t ||tau|| of one spectral point is widest
    t_end = _time_horizon([w for _, _, w in graph.edges])
    assert abs(prop.amplitudes(t_end) - oracle(t_end)) < 1e-11


def scaled(pattern, s):
    return pattern_from_weights(pattern.geometry, s * pattern.edge_weights())


@pytest.mark.parametrize("case", ["chain-2", "eigenvector-3x3"])
def test_the_stationary_switch_does_not_depend_on_the_coupling_scale(case):
    # 1e-14 couplings stretch the window to 8 pi / 1e-14: the switch, the
    # value and the time in units of the window must not move
    if case == "chain-2":
        g = build_chain(2)
        pat = pattern_from_weights(g, [1.0])
        obj = Objective(kind="single_state", mirror=symmetry_map(g, "vertical_axis"),
                        state=SparseState.unit(2, 0b01))
    else:
        pat, masks, _, _, _, vecs, i = rotation_eigenpair(3, 4)
        obj = single_state_objective(pat.geometry, SparseState(9, masks, vecs[:, i]))
    runs = []
    for s in (1.0, 1e-14):
        counts = PolishCounts()
        value, t = evaluate_objective(scaled(pat, s), obj, counts)
        runs.append((value, t * s, counts.stationary_sectors))
    (v1, t1, n1), (v2, t2, n2) = runs
    assert n1 == n2 == (0 if case == "chain-2" else 1)
    assert v2 == pytest.approx(v1, abs=1e-12)
    assert t2 == pytest.approx(t1, rel=1e-9, abs=1e-12)
    if case == "chain-2":
        # |<10| e^{-iHt} |01>| = |sin(w t)| reaches 1 inside the window
        assert v2 == pytest.approx(1.0, abs=1e-9)


def test_an_underflowing_sector_is_diagonalized_without_warnings():
    # amplitudes of 1e-170 square to 0, so the sector norm underflows
    pat, masks, _, _, _, vecs, i = rotation_eigenpair(3, 4)
    obj = single_state_objective(pat.geometry, SparseState(9, masks, 1e-170 * vecs[:, i]))
    counts = PolishCounts()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, _ = evaluate_objective(pat, obj, counts)
    assert counts.stationary_sectors == 0
    assert value == 0.0


def test_the_stationary_switch_reads_moving_sectors_at_extreme_coupling_scales():
    # the residual's squares would underflow below c ~ 1e-154 and overflow above
    # c ~ 1e154, reading both sectors as one spectral point each
    g = build_square_lattice(3)
    rot = symmetry_map(g, "rotation_pi")
    pat = random_symmetric_pattern(g, (rot,), seed=2)
    amps = np.array([1, 0.5j, 0.3]) / np.linalg.norm([1, 0.5j, 0.3])
    obj = single_state_objective(g, SparseState(9, np.array([0b11, 0b100000001, 0b1]), amps))
    ref, ref_t = evaluate_objective(pat, obj)
    assert ref > 0.65 and ref_t > 0
    for c in (1e-170, 1e-250, 1e160, 1e250):
        counts = PolishCounts()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, t = evaluate_objective(scaled(pat, c), obj, counts)
        assert counts.stationary_sectors == 0, c
        assert value == pytest.approx(ref, abs=1e-13), c
        assert t * c == pytest.approx(ref_t, rel=1e-9), c
    # the rx witness stays stationary, and unmirrored, at a tiny scale
    group = (symmetry_map(g, "main_diagonal"), symmetry_map(g, "anti_diagonal"))
    witness = single_state_objective(g, build_witness(WitnessSpec(3, diagonal_basis_state(3, "100"))))
    counts = PolishCounts()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, t = evaluate_objective(scaled(random_symmetric_pattern(g, group, seed=0), 1e-170),
                                      witness, counts)
    assert counts.stationary_sectors == 1
    assert (value, t) == (0.0, 0.0)


def test_a_basis_state_is_diagonalized():
    g = build_square_lattice(3)
    pat = random_symmetric_pattern(g, (symmetry_map(g, "rotation_pi"),), seed=0)
    obj = single_state_objective(g, SparseState.unit(9, 0b000010111))
    counts = PolishCounts()
    assert len(_objective_propagator(pat.to_graph(), obj, counts).evals) == 126  # C(9, 4)
    assert counts.stationary_sectors == 0


def mirror_ranks(masks, perm):
    """ranks[x] = the position of perm(masks[x]), read off the oracle's permutation matrix."""
    return np.argmax(permutation_operator(masks, perm), axis=0)


@pytest.mark.parametrize("case", ["random", "zero-edge", "all-zero"])
def test_dense_hops_and_the_bound_average_match_the_reference_eigh(case):
    g = build_square_lattice(3 if case != "all-zero" else 2)
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.2, 2.0, len(g.edges()))
    if case == "zero-edge":
        weights[3] = 0.0
    elif case == "all-zero":
        weights[:] = 0.0
    graph = pattern_from_weights(g, weights).to_graph()
    k = 2
    ref = sector_hamiltonian_reference(graph, k).toarray()
    live = [(a, b, w) for a, b, w in graph.edges if w != 0.0]
    hops = sectors._support_structure(tuple((a, b) for a, b, _ in live), (g.site_count, k))
    dense = hops.dense(np.array([w for *_, w in live]))
    assert dense.dtype == ref.dtype and dense.tobytes() == ref.tobytes()
    evals, vecs = np.linalg.eigh(ref)
    masks, _ = sector_matrix(g.site_count, graph.edges, k)
    ranks = mirror_ranks(masks, symmetry_perm(g.rows, g.cols, "rotation_pi"))
    prop = _objective_propagator(graph, rotation_objective(g, k))
    assert prop.evals.tobytes() == evals.tobytes()
    assert prop.weights.tobytes() == (vecs[ranks, :] * vecs).tobytes()


def test_a_state_across_a_stationary_and_a_moving_sector():
    # 0.8 v + 0.6 |site 1>: v an eigenvector of sector 4, the basis state in sector 1
    pat, masks, _, _, _, vecs, i = rotation_eigenpair(3, 4)
    graph = pat.to_graph()
    state = SparseState(9, np.append(masks, 0b10), np.append(0.8 * vecs[:, i], 0.6))
    obj = single_state_objective(pat.geometry, state)
    counts = PolishCounts()
    prop = _objective_propagator(graph, obj, counts)
    # the per-sector path: reference CSR, one product for the stationary test, else eigh
    perm = symmetry_perm(3, 3, "rotation_pi")
    tol = KRYLOV_BREAKDOWN * np.mean([abs(w) for *_, w in graph.edges])
    lams, ws = [], []
    for k, amps in ((1, {0b10: 0.6}), (4, dict(zip(masks, 0.8 * vecs[:, i])))):
        H = sector_hamiltonian_reference(graph, k)
        basis, _ = sector_matrix(9, graph.edges, k)
        psi = np.array([amps.get(m, 0.0) for m in basis], dtype=complex)
        tau = permutation_operator(basis, perm) @ psi
        u = psi / np.linalg.norm(psi)
        h = H @ u
        energy = np.vdot(u, h).real
        if np.linalg.norm(h - energy * u) <= tol:
            lams.append([energy])
            ws.append([np.vdot(tau, psi)])
            continue
        evals, V = np.linalg.eigh(H.toarray())
        lams.append(evals)
        ws.append(np.conj(V.T @ tau) * (V.T @ psi))
    assert counts.stationary_sectors == 1 and len(prop.evals) == 9 + 1
    assert prop.evals.tobytes() == np.concatenate(lams).tobytes()
    assert prop.weights.tobytes() == np.concatenate(ws).tobytes()
    # the value and time the unbound per-evaluation path reported
    assert evaluate_objective(pat, obj) == (0.9747508463096187, 20.67111184011148)


def test_a_sector_average_search_builds_no_csr(monkeypatch):
    built = []
    csr = sectors.sp.csr_matrix

    def counting(*args, **kwargs):
        built.append(args)
        return csr(*args, **kwargs)

    monkeypatch.setattr(sectors.sp, "csr_matrix", counting)
    report, runs = preset_chain4(n_restarts=1, max_iters=1)
    assert sum(r.evaluations for r in runs) > 0
    assert built == []


def test_probe_2x2_rows_match_the_sector_oracle():
    res = probe_2x2(n_ratios=5, n_times=64)
    lo, hi = COUPLING_BOX
    perm = symmetry_perm(2, 2, "rotation_pi")
    for r, (ratio, value, t) in zip(np.exp(np.linspace(math.log(lo), math.log(hi), 5)), res.rows):
        # vertical couplings pinned to 1, horizontal ones at the ratio
        edges = [(0, 2, 1.0), (1, 3, 1.0), (0, 1, r), (2, 3, r)]
        ts = 8 * math.pi / ((2 + 2 * r) / 4) * np.arange(1, 65) / 64
        worst = np.ones(64)
        for k in (1, 2, 3):
            masks, H = sector_matrix(4, edges, k)
            P = permutation_operator(masks, perm)
            for j, s in enumerate(ts):
                mirrored = (P * scipy.linalg.expm(-1j * s * H.toarray())).sum(axis=0)
                worst[j] = min(worst[j], np.abs(mirrored).min())
        j = int(np.argmax(worst))
        assert ratio == pytest.approx(r, rel=1e-12)
        assert value == pytest.approx(worst[j], abs=1e-12)
        assert t == pytest.approx(ts[j], rel=1e-12)

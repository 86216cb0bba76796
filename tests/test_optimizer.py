import math
import warnings

import numpy as np
import pytest

from spinmirror.chains import chain_pattern, christandl_chain
from spinmirror.lattice import (
    build_chain,
    build_square_lattice,
    check_symmetry,
    pattern_from_weights,
    random_symmetric_pattern,
    symmetry_map,
    uniform_pattern,
)
from spinmirror.optimizer import (
    COUPLING_BOX,
    TIME_GRID_POINTS,
    Objective,
    OptimizationRun,
    PolishCounts,
    _golden_max,
    _newton_max,
    _objective_propagator,
    evaluate_objective,
    optimize,
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
    # the R_x-constrained 3x3 witness objective reads about 1e-14: a mirrored
    # overlap that is zero up to rounding, with no maximum to polish
    g = build_square_lattice(3)
    group = (symmetry_map(g, "main_diagonal"), symmetry_map(g, "anti_diagonal"))
    psi = build_witness(WitnessSpec(3, diagonal_basis_state(3, "100")))
    obj = single_state_objective(g, psi)
    counts = PolishCounts()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, _ = evaluate_objective(random_symmetric_pattern(g, group, seed), obj, counts)
    assert np.isfinite(v) and v < 1e-12
    assert counts == PolishCounts(kept_incumbent=1)


def _golden_polished(pattern, objective):
    """evaluate_objective's grid and refinements, then a golden-section polish."""
    prop = _objective_propagator(pattern.to_graph(), objective)

    def values(ts):
        return np.abs(np.atleast_2d(prop.amplitudes(ts))).mean(axis=0)

    t1 = 8 * math.pi / float(np.mean(np.abs(pattern.edge_weights())))
    ts = np.linspace(0.0, t1, TIME_GRID_POINTS)
    vals = values(ts)
    best_t, best_v = float(ts[np.argmax(vals)]), float(vals.max())
    width = t1 / (TIME_GRID_POINTS - 1)
    for _ in range(3):
        local = np.linspace(max(0.0, best_t - width), min(t1, best_t + width), 21)
        lv = values(local)
        if lv.max() > best_v:
            best_v, best_t = float(lv.max()), float(local[np.argmax(lv)])
        width /= 10
    lo, hi = max(0.0, best_t - 10 * width), min(t1, best_t + 10 * width)
    gt, gv = _golden_max(lambda t: float(values([t])[0]), lo, hi, 1e-12 * max(1.0, t1))
    return max(gv, best_v)


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
    prop = Propagator(np.array([0.0, 1.0]), np.array([0.5, 0.5], dtype=complex))
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

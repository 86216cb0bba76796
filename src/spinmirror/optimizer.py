"""Symmetry-constrained coupling search for mirroring fidelity.

Patterns are parameterized by one value per edge orbit of the constraint
group, so every evaluated pattern is symmetric by construction. The coupling
search is derivative-free: coordinate descent with a golden-section line search
by default, or Nelder-Mead over the orbit parameters. Each evaluation maximizes
over time on a grid refined three times, then polishes the peak by Newton steps
on closed-form time derivatives of the Propagator. Nothing here proves
anything; reports are numerical evidence only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .chains import christandl_chain
from .lattice import (
    CouplingPattern,
    Geometry,
    SymmetryMap,
    _as_graph,
    _orbit_pattern,
    build_chain,
    build_square_lattice,
    check_symmetry,
    edge_orbits,
    pattern_from_weights,
    symmetry_map,
)
from .sectors import Propagator, SparseState, build_sector_hamiltonian
from .dynamics import mirror_propagator
from .witness import (
    WitnessSpec,
    build_witness,
    diagonal_basis_state,
    witness_subspace_basis,
)

COUPLING_BOX = (0.05, 10.0)
TIME_GRID_POINTS = 400
_GOLDEN = (math.sqrt(5) - 1) / 2
_NEWTON_MAX_ITERS = 64


@dataclass(frozen=True)
class Objective:
    """What to maximize: one state's mirror amplitude, or a sector average.

    sector_average is (1/dim) * sum_x |U_{perm(x),x}|, insensitive to the
    mirroring phases. single_state tracks |<mirror(state)| e^{-iHt} |state>|
    and accepts states that straddle sectors. The time window is not part of
    the objective: evaluate_objective derives it from the pattern.
    """

    kind: str
    mirror: SymmetryMap
    k: int | None = None
    state: SparseState | None = None

    def __post_init__(self):
        if self.kind not in ("single_state", "sector_average"):
            raise ValueError("objective kind must be single_state or sector_average")
        if self.kind == "sector_average" and self.k is None:
            raise ValueError("sector_average needs a sector k")
        if self.kind == "single_state" and self.state is None:
            raise ValueError("single_state needs a state")


def _time_horizon(weights) -> float:
    """End of the time window [0, 8 pi / mean |w|] over edge weights; 1 if all are zero."""
    mean = float(np.mean(np.abs(weights))) if len(weights) else 0.0
    t1 = 8 * math.pi / mean if mean > 0 else 1.0
    if not (np.isfinite(t1) and t1 > 0):
        raise ValueError("bad time window")
    return t1


def _objective_propagator(graph, objective: Objective) -> Propagator:
    """The mirror amplitudes an objective reads: U[perm(x), x] for every x of
    a sector, or one overlap <mirror(state)| U |state> over the state's sectors."""
    if objective.kind == "sector_average":
        return mirror_propagator(graph, objective.k, objective.mirror)
    state = objective.state
    if state.site_count != graph.site_count:
        raise ValueError("objective state site count does not match pattern")
    target = state.map_sites(objective.mirror)
    lams, ws = [], []
    tsplit = target.sector_split()
    for k, comp in state.sector_split().items():
        H = build_sector_hamiltonian(graph, k)
        evals, vecs = H.eig()
        psi_k = comp.to_sector_state(H.basis).amplitudes
        # the mirror permutes sites, so the target has exactly the state's sectors
        tau_k = tsplit[k].to_sector_state(H.basis).amplitudes
        lams.append(evals)
        ws.append(np.conj(vecs.T @ tau_k) * (vecs.T @ psi_k))
    return Propagator(
        np.concatenate(lams) if lams else np.zeros(1),
        np.concatenate(ws) if ws else np.zeros(1, np.complex128),
    )


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Deterministic golden-section maximization of f on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


@dataclass
class PolishCounts:
    """What the time polish did, summed over objective evaluations."""

    newton_steps: int = 0
    bisections: int = 0
    kept_incumbent: int = 0


def _mean_modulus(prop: Propagator, t: float) -> tuple[float, float, float] | None:
    """f = mean |a| over the mirrored entries at t, with f' and f''.

    |a|' = Re(conj(a) a') / |a| and |a|'' = (|a'|^2 + Re(conj(a) a'') - |a|'^2) / |a|.
    None where some |a| is 0: the modulus has no derivative there.
    """
    a, da, d2a = (np.atleast_1d(x) for x in prop.derivatives(t))
    m = np.abs(a)
    if not m.all():
        return None
    ca = np.conj(a)
    slope = (ca * da).real / m
    curve = ((da * np.conj(da)).real + (ca * d2a).real - slope * slope) / m
    n = len(m)
    return float(m.sum() / n), float(slope.sum() / n), float(curve.sum() / n)


def _newton_max(
    prop: Propagator, lo: float, hi: float, t: float, tol: float, counts: PolishCounts
) -> tuple[float, float] | None:
    """Safeguarded Newton on f' = 0 inside [lo, hi], started from t.

    f' must change sign between t and the end of the bracket it points to,
    so that side holds a maximum. Each step narrows the bracket by the sign
    of f' and bisects whenever the Newton step would leave it or f'' >= 0.
    Returns (t, f(t)) once the step or the bracket is below tol, or None when
    f' does not change sign or some |a| vanishes.
    """
    here = _mean_modulus(prop, t)
    if here is None:
        return None
    f, g, h = here
    if g == 0:
        return t, f
    far = _mean_modulus(prop, hi if g > 0 else lo)
    if far is None or far[1] * g >= 0:
        return None
    for _ in range(_NEWTON_MAX_ITERS):
        if g > 0:
            lo = t
        else:
            hi = t
        newton = t - g / h if h < 0 else math.nan
        if lo < newton < hi or abs(newton - t) < tol:
            step = newton
            counts.newton_steps += 1
        else:
            step = 0.5 * (lo + hi)
            counts.bisections += 1
        if abs(step - t) < tol or hi - lo < tol:
            break
        here = _mean_modulus(prop, step)
        if here is None:
            return None
        t, (f, g, h) = step, here
        if g == 0:
            break
    return t, f


def evaluate_objective(
    pattern, objective: Objective, counts: PolishCounts | None = None
) -> tuple[float, float]:
    """Best objective value over the time window and its argmax time.

    The window is [0, 8 pi / mean |w|] over the edge weights ([0, 1] if all
    are zero; ValueError if not finite). A grid of TIME_GRID_POINTS over it is
    refined around the incumbent three times at 10x resolution, then polished
    by a safeguarded Newton iteration on the time derivative of the mean
    modulus, from the closed-form derivatives of the Propagator. The grid
    incumbent stands when the polish finds no better point; counts, if given,
    tallies the polish. Deterministic for fixed inputs.
    """
    graph = _as_graph(pattern)
    prop = _objective_propagator(graph, objective)
    counts = PolishCounts() if counts is None else counts

    def values(ts):
        # mean over the mirrored entries; a single-state objective has one
        return np.abs(np.atleast_2d(prop.amplitudes(ts))).mean(axis=0)

    t1 = _time_horizon([w for _, _, w in graph.edges])
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
    lo = max(0.0, best_t - 10 * width)
    hi = min(t1, best_t + 10 * width)
    polished = _newton_max(prop, lo, hi, best_t, 1e-12 * max(1.0, abs(t1)), counts)
    if polished is not None and polished[1] > best_v:
        best_t, best_v = polished
    else:
        counts.kept_incumbent += 1
    return best_v, best_t


@dataclass
class OptimizationRun:
    """Configuration and (after optimize) results of one search."""

    geometry: Geometry
    constraint_group: tuple[SymmetryMap, ...]
    method: str = "coordinate_descent"
    seed: int = 0
    max_iters: int = 40
    initial_pattern: CouplingPattern | None = None
    best_pattern: CouplingPattern | None = None
    best_time: float = 0.0
    best_value: float = -1.0
    trace: list[tuple] = field(default_factory=list)
    evaluations: int = 0
    time_polish: PolishCounts = field(default_factory=PolishCounts)
    wall_clock: float = 0.0
    completed: bool = False


def _orbits_of(run: OptimizationRun) -> list[list[int]]:
    n_edges = len(run.geometry.edges())
    if run.constraint_group:
        return edge_orbits(run.geometry, run.constraint_group)
    return [[i] for i in range(n_edges)]


def _pattern_of(run: OptimizationRun, orbits, params) -> CouplingPattern:
    pat = _orbit_pattern(run.geometry, orbits, params)
    for sym in run.constraint_group:
        if not check_symmetry(pat, sym):
            raise RuntimeError(f"internal error: pattern violates {sym.name}")
    return pat


def optimize(run: OptimizationRun, objective: Objective) -> OptimizationRun:
    """Maximize the objective over orbit parameters inside COUPLING_BOX.

    The best-value trace is non-decreasing, every evaluated pattern respects
    the constraint group, and identical (seed, config) reproduce the run
    exactly. Exhausting max_iters is a normal completion.
    """
    if run.method not in ("coordinate_descent", "nelder_mead_on_free_parameters"):
        raise ValueError(f"unknown method {run.method!r}")
    if run.max_iters < 0:
        raise ValueError(f"--max-iters must be non-negative, got {run.max_iters}")
    started = time.perf_counter()
    orbits = _orbits_of(run)
    lo, hi = COUPLING_BOX
    if run.initial_pattern is not None:
        w = run.initial_pattern.edge_weights()
        params = np.array([w[orbit[0]] for orbit in orbits])
        for orbit in orbits:
            if np.ptp(w[orbit]) > 1e-12:
                raise ValueError("initial pattern is not constant on some orbit")
    else:
        params = np.random.default_rng(run.seed).uniform(lo, hi, size=len(orbits))
    params = np.clip(params, lo, hi)

    def measure(p):
        run.evaluations += 1
        return evaluate_objective(_pattern_of(run, orbits, p), objective, run.time_polish)

    best_v, best_t = measure(params)
    iteration = 0
    run.trace.append((iteration, best_v, best_t, tuple(params)))

    if run.method == "coordinate_descent":
        for _ in range(run.max_iters):
            sweep_gain = 0.0
            for ci in range(len(orbits)):
                def along(x, _ci=ci):
                    trial = params.copy()
                    trial[_ci] = x
                    return measure(trial)[0]

                grid = np.linspace(lo, hi, 13)
                gv = [along(x) for x in grid]
                j = int(np.argmax(gv))
                a = grid[max(0, j - 1)]
                b = grid[min(len(grid) - 1, j + 1)]
                x, v = _golden_max(along, a, b, tol=1e-7 * (hi - lo))
                if gv[j] > v:
                    x, v = float(grid[j]), gv[j]
                if v > best_v:
                    sweep_gain += v - best_v
                    params[ci] = x
                    best_v, best_t = measure(params)
                    iteration += 1
                    run.trace.append((iteration, best_v, best_t, tuple(params)))
            if sweep_gain <= 1e-12:
                break
    else:
        from scipy.optimize import minimize

        def neg(p):
            v, _ = measure(np.clip(p, lo, hi))
            if v > run.trace[-1][1]:
                run.trace.append((len(run.trace), v, 0.0, tuple(np.clip(p, lo, hi))))
            return -v

        res = minimize(
            neg,
            params,
            method="Nelder-Mead",
            bounds=[(lo, hi)] * len(orbits),
            options={"maxiter": max(run.max_iters * 20, 200), "xatol": 1e-7, "fatol": 1e-12},
        )
        cand = np.clip(res.x, lo, hi)
        v, t = measure(cand)
        if v > best_v:
            params, best_v, best_t = cand, v, t
            run.trace.append((len(run.trace), best_v, best_t, tuple(params)))

    run.best_pattern = _pattern_of(run, orbits, params)
    run.best_value, run.best_time = best_v, best_t
    run.wall_clock = time.perf_counter() - started
    run.completed = True
    return run


def optimize_with_restarts(
    geometry: Geometry,
    group: tuple[SymmetryMap, ...],
    objective: Objective,
    seed: int = 0,
    n_restarts: int = 8,
    max_iters: int = 40,
    initial_pattern: CouplingPattern | None = None,
) -> tuple[OptimizationRun, list[OptimizationRun]]:
    """Run coordinate descent from n_restarts seeded starting patterns; return the best."""
    if n_restarts < 1:
        raise ValueError(f"--restarts must be at least 1, got {n_restarts}")
    runs = []
    for r in range(n_restarts):
        run = OptimizationRun(
            geometry=geometry,
            constraint_group=tuple(group),
            seed=seed + r,
            max_iters=max_iters,
            initial_pattern=initial_pattern if r == 0 else None,
        )
        runs.append(optimize(run, objective))
    best = max(runs, key=lambda r: r.best_value)
    return best, runs


def witness_ceiling(pattern: CouplingPattern, objective: Objective) -> float:
    """Time-independent upper bound on the single-state mirror amplitude.

    The witness subspace is frozen by every main-diagonal-symmetric pattern,
    so the component of the initial state inside it contributes a constant
    amplitude while the rest can at best rotate within the complement:
    ceiling = |<tau|psi_w> c| + ||tau - psi_w<psi_w|tau>|| * ||psi0 - c psi_w||
    with c the norm of the witness-subspace projection of psi0 and tau the
    mirrored initial state. Returns 1 (vacuous) when psi0 has no witness
    component.
    """
    if objective.kind != "single_state" or objective.state is None:
        raise ValueError("witness_ceiling applies to single_state objectives")
    g = pattern.geometry
    if g.kind != "square":
        raise ValueError("witness_ceiling requires a square lattice pattern")
    if not check_symmetry(pattern, symmetry_map(g, "main_diagonal")):
        raise ValueError("pattern is not main-diagonal symmetric")
    psi0 = objective.state
    # the witnesses have disjoint supports: the projection is their pieces side by side
    pieces = [w.scaled(w.inner(psi0)) for w in witness_subspace_basis(g.n)]
    proj = SparseState(psi0.site_count, np.concatenate([p.masks for p in pieces]),
                       np.concatenate([p.amps for p in pieces]))
    c = proj.norm()
    if c < 1e-12:
        return 1.0
    psi_w = proj.scaled(1.0 / c)
    tau = psi0.map_sites(objective.mirror)
    term1 = abs(tau.inner(psi_w)) * c
    overlap = psi_w.inner(tau)
    tau_perp = tau.add(psi_w.scaled(-overlap))
    leftover = psi0.add(psi_w.scaled(-c))
    return min(1.0, term1 + tau_perp.norm() * leftover.norm())


# -- presets ------------------------------------------------------------------


@dataclass(frozen=True)
class Probe2x2Result:
    """Exhaustive ratio x time grid over the two rotation orbits of the 2x2."""

    supremum: float
    best_ratio: float
    best_time: float
    n_ratios: int
    n_times: int
    ratio_range: tuple[float, float]
    rows: tuple[tuple[float, float, float], ...] = field(repr=False)


def probe_2x2(n_ratios: int = 200, n_times: int = 2000) -> Probe2x2Result:
    """Grid the 2x2 rotation-symmetric patterns and the time axis.

    The rotation group leaves two edge orbits (the two vertical couplings and
    the two horizontal ones); by scale invariance the vertical value is
    pinned to 1 and only the ratio is scanned, log-spaced across COUPLING_BOX,
    with n_times steps up to 8 pi / mean |w|. The figure of merit at each
    (ratio, t) is the worst mirrored modulus over all 16 basis states. The
    observed supremum is numerical evidence, not a proof of anything.
    """
    if n_ratios < 2 or n_times < 2:
        raise ValueError(f"--ratios and --times need at least 2 points each (a 2x2 grid), "
                         f"got {n_ratios} and {n_times}")
    g = build_square_lattice(2)
    rot = symmetry_map(g, "rotation_pi")
    orbits = edge_orbits(g, (rot,))
    if len(orbits) != 2:
        raise RuntimeError("unexpected orbit structure on the 2x2 lattice")
    lo, hi = COUPLING_BOX
    ratios = np.exp(np.linspace(math.log(lo), math.log(hi), n_ratios))
    rows = []
    sup, bratio, btime = -1.0, lo, 0.0
    for r in ratios:
        pat = _orbit_pattern(g, orbits, (1.0, float(r)))
        tmax = _time_horizon(pat.edge_weights())
        ts = tmax * np.arange(1, n_times + 1) / n_times
        mins = np.ones(n_times)
        for k in (1, 2, 3):
            amps = mirror_propagator(pat, k, rot).amplitudes(ts)
            mins = np.minimum(mins, np.abs(amps).min(axis=0))
        j = int(np.argmax(mins))
        rows.append((float(r), float(mins[j]), float(ts[j])))
        if mins[j] > sup:
            sup, bratio, btime = float(mins[j]), float(r), float(ts[j])
    return Probe2x2Result(
        supremum=sup,
        best_ratio=bratio,
        best_time=btime,
        n_ratios=n_ratios,
        n_times=n_times,
        ratio_range=COUPLING_BOX,
        rows=tuple(rows),
    )


PRESET_NAMES = ("rx-3x3-witness", "chain-4-pst", "rodot-2x2-probe")


def preset_rx_3x3_witness(seed: int = 0, n_restarts: int = 8, max_iters: int = 8):
    """R_x-constrained 3x3 search for mirroring the witness on diagonal |100>.

    Returns (report dict, runs). The witness component freezes the objective
    at its overlap with the mirrored witness, so every restart should sit at
    (numerical) zero, below the analytic ceiling.
    """
    g = build_square_lattice(3)
    group = (symmetry_map(g, "main_diagonal"), symmetry_map(g, "anti_diagonal"))
    psi0 = build_witness(WitnessSpec(3, diagonal_basis_state(3, "100")))
    objective = Objective(kind="single_state", mirror=symmetry_map(g, "rotation_pi"), state=psi0)
    best, runs = optimize_with_restarts(
        g, group, objective, seed=seed, n_restarts=n_restarts, max_iters=max_iters
    )
    ceiling = witness_ceiling(best.best_pattern, objective)
    report = {
        "preset": "rx-3x3-witness",
        "seed": seed,
        "best_value": best.best_value,
        "best_time": best.best_time,
        "ceiling": ceiling,
        "ceiling_respected": bool(best.best_value <= ceiling + 1e-9),
        "restarts": [
            {
                "seed": r.seed,
                "best_value": r.best_value,
                "best_time": r.best_time,
                "evaluations": r.evaluations,
            }
            for r in runs
        ],
    }
    return report, runs


def preset_chain4(seed: int = 0, n_restarts: int = 1, max_iters: int = 40):
    """Unconstrained 4-chain search seeded near the engineered couplings.

    Coordinate descent stalls in the curved valley around the optimum (about
    1e-8 short), so each restart is polished by a Nelder-Mead stage started
    from the descent endpoint.
    """
    g = build_chain(4)
    base = np.asarray(christandl_chain(4).couplings)
    jitter = np.random.default_rng(seed).uniform(-0.05, 0.05, size=3)
    initial = pattern_from_weights(g, np.clip(base + jitter, *COUPLING_BOX))
    objective = Objective(kind="sector_average", mirror=symmetry_map(g, "vertical_axis"), k=1)
    _, coarse = optimize_with_restarts(
        g, (), objective, seed=seed, n_restarts=n_restarts,
        max_iters=max_iters, initial_pattern=initial,
    )
    runs = []
    for cd in coarse:
        polish = OptimizationRun(
            geometry=g,
            constraint_group=(),
            method="nelder_mead_on_free_parameters",
            seed=cd.seed,
            max_iters=max_iters,
            initial_pattern=cd.best_pattern,
        )
        runs.extend([cd, optimize(polish, objective)])
    best = max(runs, key=lambda r: r.best_value)
    report = {
        "preset": "chain-4-pst",
        "seed": seed,
        "best_value": best.best_value,
        "best_time": best.best_time,
        "best_couplings": [float(v) for v in best.best_pattern.chain_couplings],
        "restarts": [
            {"seed": r.seed, "best_value": r.best_value, "best_time": r.best_time}
            for r in runs
        ],
    }
    return report, runs

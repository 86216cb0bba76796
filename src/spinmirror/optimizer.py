"""Symmetry-constrained coupling search for mirroring fidelity.

Patterns are parameterized by one value per edge orbit of the constraint
group, so every evaluated pattern is symmetric by construction. A search
(coordinate descent with golden-section line searches, or Nelder-Mead) binds
its objective to the topology once; each evaluation fills the weights into
the cached sector hops, runs one eigh per sector and maximizes over time on
a grid refined three times, then by Newton steps on the Propagator's
closed-form time derivatives. A stationary sector of a single-state
objective is one spectral point. Reports are numerical evidence, not proofs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .chains import christandl_chain
from .lattice import (
    CouplingPattern,
    ExchangeGraph,
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
from .sectors import (Propagator, SectorBasis, SparseState, _check_block_memory, _live_edges,
                      _readonly, _support_structure)
from .dynamics import _breakdown, _mirror_spectrum, _stationary_energy, permuted_ranks
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
    mean = float(np.abs(weights).sum()) / len(weights) if len(weights) else 0.0
    t1 = 8 * math.pi / mean if mean > 0 else 1.0
    if not (np.isfinite(t1) and t1 > 0):
        raise ValueError("bad time window")
    return t1


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
    """What the time polish did, summed over objective evaluations.

    stationary_sectors counts the sectors of single-state objectives that
    one spectral point answered (see _BoundObjective.propagator). It is neither a
    constructor parameter nor part of equality, which compares the polish.
    """

    newton_steps: int = 0
    bisections: int = 0
    kept_incumbent: int = 0
    stationary_sectors: int = field(default=0, init=False, compare=False)


def _mean_modulus(prop: Propagator, t: float) -> tuple[float, float, float] | None:
    """f = mean |a| over the mirrored entries at t, with f' and f''.

    |a|' = Re(conj(a) a') / |a| and |a|'' = (|a'|^2 + Re(conj(a) a'') - |a|'^2) / |a|.
    None where some |a| is 0: the modulus has no derivative there.
    """
    a, da, d2a = prop.derivatives(t)
    m = np.abs(a)
    if not np.logical_and.reduce(m):
        return None
    ca = np.conj(a)
    slope = (ca * da).real / m
    curve = ((da * np.conj(da)).real + (ca * d2a).real - slope * slope) / m
    total, n = np.add.reduce, len(m)  # m.sum(), without the method's wrapper
    return float(total(m) / n), float(total(slope) / n), float(total(curve) / n)


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


class _BoundObjective:
    """An Objective bound to one graph's live edges, those of nonzero weight:
    all that does not depend on their values, built once per search. That is
    the sector hops, mirror ranks and dense scatter index of a sector average
    (its block passes the memory check here), or for each sector of a single
    state its hops, psi_k, tau_k, psi_k / ||psi_k|| and <tau_k|psi_k>. evaluate
    scales with the couplings: (cH, t / c) gives the value of (H, t) wherever
    the spectrum neither under- nor overflows.
    """

    def __init__(self, graph: ExchangeGraph, objective: Objective):
        weights = _edge_weights(graph)
        self.live = None if weights.all() else np.flatnonzero(weights)
        self.objective, endpoints, m = objective, _live_edges(graph)[0], graph.site_count
        if objective.kind == "sector_average":
            self.hops = _support_structure(endpoints, (m, objective.k))
            self.ranks = permuted_ranks(SectorBasis(m, objective.k, self.hops.grown),
                                        objective.mirror)
            n = len(self.ranks)
            _check_block_memory(n)
            # where each hop lands in the flat dense block, as in _Hops.dense
            self.scatter = self.hops.targets * np.int64(n) + self.hops.cols
            return
        state = objective.state
        if state.site_count != m:
            raise ValueError("objective state site count does not match pattern")
        tsplit = state.map_sites(objective.mirror).sector_split()
        self.pieces = []
        for k, comp in state.sector_split().items():
            hops = _support_structure(endpoints, (m, k))
            psi = comp.to_sector_state(SectorBasis(m, k, hops.grown)).amplitudes
            # the mirror permutes sites, so the target has exactly the state's sectors
            tau = tsplit[k].to_sector_state(SectorBasis(m, k, hops.grown)).amplitudes
            nrm = np.linalg.norm(psi)
            self.pieces.append((hops, psi, tau, psi / nrm if nrm > 0 else None, np.vdot(tau, psi)))

    def propagator(self, weights: np.ndarray, counts: PolishCounts | None = None) -> Propagator:
        """The mirror amplitudes the objective reads at the weights of every edge,
        one row each (a single state has one). A sector whose residual r = H_k u -
        <u|H_k u> u has ||r|| <= KRYLOV_BREAKDOWN mean nonzero |w| is one spectral
        point, off by at most 8 pi KRYLOV_BREAKDOWN ||psi_k|| ||tau_k|| over the time
        window at any coupling scale; counts, if given, tallies such sectors."""
        live = weights if self.live is None else weights[self.live]
        if self.objective.kind == "sector_average":
            n = len(self.ranks)
            dense = np.zeros(n * n)
            dense[self.scatter] = np.take(2.0 * live, self.hops.edges)
            return _mirror_spectrum(dense.reshape(n, n), self.ranks)
        tol = _breakdown(live)
        lams, ws = [], []
        for hops, psi, tau, u, overlap in self.pieces:
            if u is not None:
                energy = _stationary_energy(hops, live, u, tol)
                if energy is not None:
                    lams.append([energy])
                    ws.append([overlap])
                    if counts is not None:
                        counts.stationary_sectors += 1
                    continue
            evals, vecs = np.linalg.eigh(hops.dense(live))
            lams.append(evals)
            ws.append(np.conj(vecs.T @ tau) * (vecs.T @ psi))
        return Propagator(np.concatenate(lams) if lams else np.zeros(1),
                          np.concatenate(ws)[None] if ws else np.zeros((1, 1), np.complex128))

    def evaluate(self, weights: np.ndarray, counts: PolishCounts) -> tuple[float, float]:
        """evaluate_objective at the weights of every edge, in graph order.

        Times are read in units of 2^q, the least power of two above the window's
        end t1: energies times 2^q and times over 2^q give the same products, so
        every modulus keeps its bits at any coupling scale, and the polish stops
        within 1e-12 t1.
        """
        prop = self.propagator(weights, counts)
        if (prop.evals == prop.evals[0]).all():
            # one energy: every |a(t)| is |a(0)|, so the window's first time stands
            counts.kept_incumbent += 1
            return float(prop.mean_moduli(np.zeros(1))[0]), 0.0
        t1 = _time_horizon(weights)
        unit = math.ldexp(1.0, math.frexp(t1)[1])
        prop, t1 = Propagator(prop.evals * unit, prop.weights), t1 / unit
        # np.linspace(a, b, n) is arange(n) * ((b - a) / (n - 1)) + a, ending on b
        width = t1 / (TIME_GRID_POINTS - 1)
        ts = self.grid * width
        ts[-1] = t1
        vals = prop.mean_moduli(ts)
        i = int(vals.argmax())
        best_t, best_v = float(ts[i]), float(vals[i])
        for _ in range(3):
            a, b = max(0.0, best_t - width), min(t1, best_t + width)
            local = self.refinement * ((b - a) / 20) + a
            local[-1] = b
            lv = prop.mean_moduli(local)
            j = int(lv.argmax())
            if lv[j] > best_v:
                best_v, best_t = float(lv[j]), float(local[j])
            width /= 10
        lo, hi = max(0.0, best_t - 10 * width), min(t1, best_t + 10 * width)
        polished = _newton_max(prop, lo, hi, best_t, 1e-12 * t1, counts)
        if polished is not None and polished[1] > best_v:
            best_t, best_v = polished
        else:
            counts.kept_incumbent += 1
        return best_v, best_t * unit

    # the aranges of the time grid and of each refinement, read only
    grid, refinement = _readonly(np.arange(float(TIME_GRID_POINTS)), np.arange(21.0))


def _edge_weights(graph: ExchangeGraph) -> np.ndarray:
    return np.array([w for *_, w in graph.edges], dtype=float)


def _objective_propagator(graph, objective: Objective, counts: PolishCounts | None = None):
    """_BoundObjective.propagator of a graph at its own weights."""
    return _BoundObjective(graph, objective).propagator(_edge_weights(graph), counts)


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
    tallies the polish and the stationary sectors. A single-state objective
    reads each sector whose piece of the state H maps onto a multiple of
    itself, to within the Lanczos breakdown residual in units of the mean
    coupling, as one spectral point and diagonalizes no such sector. When all
    its points share one energy, every modulus is constant in time: the value
    is read at t = 0, the grid point t = 0 stands, and counts tallies it as
    kept. The maximization reads times in units of a power of two near the
    window's end, so scaling every coupling by c returns the same value, to
    rounding, at t / c with the same polish steps (a 4-chain sector average, for
    c from 1e-200 to 1e200). Deterministic for fixed inputs.
    """
    graph = _as_graph(pattern)
    return _BoundObjective(graph, objective).evaluate(
        _edge_weights(graph), PolishCounts() if counts is None else counts)


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
    evaluation_seconds: float = field(default=0.0, init=False)  # summed inside evaluations
    time_polish: PolishCounts = field(default_factory=PolishCounts)
    wall_clock: float = 0.0
    completed: bool = False


def _orbits_of(run: OptimizationRun) -> list[list[int]]:
    if run.constraint_group:
        return edge_orbits(run.geometry, run.constraint_group)
    return [[i] for i in range(len(run.geometry.edges()))]


def optimize(run: OptimizationRun, objective: Objective) -> OptimizationRun:
    """Maximize the objective over orbit parameters inside COUPLING_BOX.

    Trace rows (iteration, value, time, params) are copied from the point's
    evaluation, never repeated; their values never fall and the last row is the
    result. Identical (seed, config) reproduce the run; max_iters may run out.
    """
    if run.method not in ("coordinate_descent", "nelder_mead_on_free_parameters"):
        raise ValueError(f"unknown method {run.method!r}")
    if run.max_iters < 0:
        raise ValueError(f"--max-iters must be non-negative, got {run.max_iters}")
    if run.initial_pattern is not None and run.initial_pattern.geometry != run.geometry:
        raise ValueError(f"initial pattern is not on the search geometry {run.geometry}")
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
    # every point in the box has all edges live; edge_of[i] is the orbit of edge i
    bound = _BoundObjective(_orbit_pattern(run.geometry, orbits, params).to_graph(), objective)
    edge_of = _orbit_pattern(run.geometry, orbits, range(len(orbits))).edge_weights().astype(int)
    times = {}  # the argmax time of every point measured, keyed by its params

    def measure(p) -> float:
        run.evaluations += 1
        begun = time.perf_counter()
        value, times[tuple(p)] = bound.evaluate(np.take(p, edge_of), run.time_polish)
        run.evaluation_seconds += time.perf_counter() - begun
        return value

    def accept(p, value: float) -> None:
        run.trace.append((len(run.trace), value, times[tuple(p)], tuple(p)))

    accept(params, measure(params))

    if run.method == "coordinate_descent":
        for _ in range(run.max_iters):
            before = run.trace[-1][1]
            for ci in range(len(orbits)):
                def along(x, _ci=ci):
                    trial = params.copy()
                    trial[_ci] = x
                    return measure(trial)

                grid = np.linspace(lo, hi, 13)
                gv = [along(x) for x in grid]
                j = int(np.argmax(gv))
                a = grid[max(0, j - 1)]
                b = grid[min(len(grid) - 1, j + 1)]
                x, v = _golden_max(along, a, b, tol=1e-7 * (hi - lo))
                if gv[j] > v:
                    x, v = float(grid[j]), gv[j]
                if v > run.trace[-1][1]:
                    params[ci] = x
                    accept(params, v)
            if run.trace[-1][1] - before <= 1e-12:
                break
    else:
        from scipy.optimize import minimize

        def neg(p):
            p = np.clip(p, lo, hi)
            v = measure(p)
            if v > run.trace[-1][1]:
                accept(p, v)
            return -v

        minimize(neg, params, method="Nelder-Mead", bounds=[(lo, hi)] * len(orbits),
                 options={"maxiter": max(run.max_iters * 20, 200), "xatol": 1e-7, "fatol": 1e-12})

    _, run.best_value, run.best_time, best = run.trace[-1]
    run.best_pattern = _orbit_pattern(run.geometry, orbits, best)
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
    graph = _orbit_pattern(g, orbits, (1.0, lo)).to_graph()
    sectors = [_BoundObjective(graph, Objective("sector_average", rot, k)) for k in (1, 2, 3)]
    edge_of = _orbit_pattern(g, orbits, (0, 1)).edge_weights().astype(int)
    rows = []
    sup, bratio, btime = -1.0, lo, 0.0
    for r in ratios:
        weights = np.take((1.0, float(r)), edge_of)
        tmax = _time_horizon(weights)
        ts = tmax * np.arange(1, n_times + 1) / n_times
        mins = np.ones(n_times)
        for bound in sectors:
            amps = bound.propagator(weights).amplitudes(ts)
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

    Returns (report dict, runs). The witness is stationary under every
    pattern of the group, so each evaluation reads it as one spectral point
    whose weight, its overlap with the mirrored witness, is exactly zero:
    every restart sits at 0, below the analytic ceiling.
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
        "ceiling_respected": bool(best.best_value <= ceiling),
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

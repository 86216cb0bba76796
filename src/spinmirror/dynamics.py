"""Exact time evolution, mirroring reports, phase fits, spectrum classification.

Every evolution is a residual-controlled Lanczos approximation of exp(-iHt),
which builds one Krylov space per substep and shortens a rejected step on
that same space. The Lanczos core works on plain complex arrays; a residual of
at most KRYLOV_BREAKDOWN times the mean coupling ends a Krylov space at any
scale. evolve runs it on a sector's CSR at every dimension. A SparseState
(evolve_sparse, evolve_state) evolves on the smallest structure that answers
it: a stationary state, told by one product over its support's cached hops,
only takes its phase; a one-sector state whose sector lies within one Krylov
space's hops of it goes through evolve on its cached sector; any other runs
through sectors._HopOperator, on a mask index that grows to its hop closure.
apply_hamiltonian and the operator share _Hops.apply: H x as one CSR product
over the hops in hop order by target. Every cached structure is in sectors.
Curves of fixed propagator entries over a time grid diagonalize once and go
through sectors.Propagator: one product per curve, not one eigh per point.
transfer_fidelity is the one single-excitation propagator: the only code that
builds the M x M block, for transfer scans and chains.measured_transfer_modulus.
Mirroring reports and spectrum classification share one split of a sector over
the irreps of G, the reflections that commute with H and hold the mirror, each
block scattered from the cached hops; a report solves a large block by one eigh
of its sublattice coupling's Gram matrix and forms only G's representatives' columns.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .lattice import (SYMMETRY_NAMES, CouplingPattern, SymmetryMap, _as_graph, check_symmetry,
                      symmetry_map)
from .sectors import (
    Propagator,
    SectorBasis,
    SectorHamiltonian,
    SectorState,
    SparseState,
    _HopOperator,
    _check_block_memory,
    _live_edges,
    _orbit_map,
    _rank_structure,
    _site_distances,
    _sublattice,
    _support_structure,
    build_sector_hamiltonian,
    from_sector_state,
    popcount,
)

KRYLOV_DIM = 30
KRYLOV_TOL = 1e-10
KRYLOV_BREAKDOWN = 1e-13  # a residual this small, per unit of mean coupling, ends a Krylov space


def apply_hamiltonian(graph, psi: SparseState) -> SparseState:
    """Exact sparse application of H: each edge hops one excitation, weight 2w.

    Popcounts are preserved, and the support only grows to hop-connected
    bitmasks (exact zero amplitudes are dropped by canonicalization). The
    weight-free hops of psi's support come from a bounded cache keyed on
    (endpoints of the nonzero edges, support masks), so a support seen under
    other weights of the same topology is not sorted again. Targets hit more
    than once sum in hop order, as SparseState merges them.
    """
    graph = _as_graph(graph)
    if graph.site_count != psi.site_count:
        raise ValueError("graph and state have different site counts")
    endpoints, weights = _live_edges(graph)
    hops = _support_structure(endpoints, psi.masks.tobytes())
    return SparseState(psi.site_count, hops.grown, hops.apply(psi.amps, weights))


# -- Krylov propagation -------------------------------------------------------


def _breakdown(weights) -> float:
    """KRYLOV_BREAKDOWN in units of the mean |w| of the nonzero weights, 0 for none."""
    live = np.abs(weights)[np.abs(weights) > 0]
    return KRYLOV_BREAKDOWN * (float(np.mean(live)) if len(live) else 0.0)


def _stationary_energy(hops, weights, u, breakdown):
    """<u|H u> if ||H u - <u|H u> u|| <= breakdown, else None, from one
    hops.apply of u, a vector over the hops' index. The weights are divided
    by 2^e, the power of two that brings breakdown into [1/2, 1), so the
    residual's squares neither underflow nor overflow at any coupling scale;
    a power of two keeps every bit."""
    mantissa, e = math.frexp(breakdown)
    hu = hops.apply(u, np.ldexp(weights, -e))
    energy = np.vdot(u, hu[hops.index_pos]).real
    hu[hops.index_pos] -= energy * u
    return np.ldexp(energy, e) if np.linalg.norm(hu) <= mantissa else None


def _krylov_space(matvec, v, lift, breakdown, s):
    """The Lanczos space of H s and a unit vector v, s a power of two: (V, evals, U, beta).

    The rows of V are the Lanczos vectors times s, so a product by H of a row is
    one by H s of its vector, and s leaves every other step through a scalar or
    a projection's coefficients: exact, and no pass over a vector. U diag(evals)
    U^T is the tridiagonal T that H s becomes on them, and beta is the norm of
    the residual past the last vector, or 0 once it is <= breakdown. matvec may
    return a vector over a grown index; lift then carries the stored vectors onto it.
    """
    # np.zeros leaves untouched rows unmapped, so unused capacity costs no memory
    V = np.zeros((KRYLOV_DIM, len(v)), np.complex128)
    V[0] = v * s
    alphas, betas = [], []
    for j in range(KRYLOV_DIM):
        w = matvec(V[j])
        if len(w) != V.shape[1]:
            V = lift(V, j + 1)
        alpha = np.vdot(V[j], w).real / s
        w -= alpha / s * V[j]
        if j > 0:
            w -= betas[j - 1] / s * V[j - 1]
        # full reorthogonalization keeps the small tridiagonal trustworthy;
        # V.conj() @ w is taken as conj(V @ conj(w)) to conjugate one row only
        basis = V[: j + 1]
        w -= basis.T @ (np.conj(basis @ np.conj(w)) / s / s)
        alphas.append(alpha)
        beta = np.linalg.norm(w)
        if beta <= breakdown:
            beta = 0.0
            break
        betas.append(beta)
        if j + 1 < KRYLOV_DIM:
            V[j + 1] = w / (beta / s)
    j = len(alphas)
    off = betas[: j - 1]
    evals, U = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
    return V[:j], evals, U, beta


def _krylov_expm(matvec, v, t, breakdown, lift=None):
    """Adaptive-substep Lanczos propagation of exp(-iHt) v to a 2-norm error <= KRYLOV_TOL.

    Each substep builds one Lanczos space from the current vector and takes
    the first column of exp(-i tau T) on it. The space does not depend on the
    step length, so a tau whose error estimate beta |[exp(-i tau T)]_(m,1)| tau
    exceeds its share of the tolerance is halved on the same space: a rejected
    step length costs no matvec. A halved tau carries over to later substeps.
    The spaces are of H s, s = 2^-e the power of two that brings the breakdown
    into [1/2, 1), with t times 2^e: exact, and no norm under- or overflows.
    """
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0 or t == 0.0:
        return v.copy()
    e = max(math.frexp(breakdown)[1], -1022)  # s stays finite at couplings below 1e-295
    breakdown, s = math.ldexp(breakdown, -e), math.ldexp(1.0, -e)
    current = v / norm_v
    t = remaining = tau = math.ldexp(t, e)
    while abs(remaining) > 0:
        V, evals, U, beta = _krylov_space(matvec, current, lift, breakdown, s)
        first_column = Propagator(evals, U * U[0].conj())
        if abs(tau) > abs(remaining):
            tau = remaining
        small = first_column.amplitudes(tau)
        while beta * abs(small[-1]) * abs(t) > KRYLOV_TOL and abs(tau) > 1e-12 * abs(t):
            tau = tau / 2
            small = first_column.amplitudes(tau)
        remaining -= tau
        current = small / s @ V
        del V  # one space at a time: the next is built without this one held
        current /= np.linalg.norm(current)
    current *= norm_v
    return current


def evolve(H: SectorHamiltonian, psi: SectorState, t: float) -> SectorState:
    """exp(-iHt) psi as a new array, by Lanczos on H's CSR with residual-controlled
    substeps targeting a 2-norm error <= 1e-10; norm-preserving within 1e-12.

    Every live edge carries 2 C(M-2, k-1) entries of a sector's H, so the
    mean |entry| / 2 that scales its breakdown is the mean live coupling.
    """
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")
    if (H.dim, H.basis.site_count, H.basis.k) != (psi.basis.dim, psi.basis.site_count, psi.basis.k):
        raise ValueError("Hamiltonian and state live on different bases")
    return _evolve(H, psi, t, _breakdown(H.mat.data / 2))


def _evolve(H: SectorHamiltonian, psi: SectorState, t: float, breakdown: float) -> SectorState:
    """evolve past its checks, under a breakdown the caller may hold already."""
    return SectorState(psi.basis, _krylov_expm(lambda x: H.mat @ x, psi.amplitudes, t, breakdown))


def evolve_sparse(graph, psi: SparseState, t: float) -> SparseState:
    """Lanczos evolution of a SparseState to a 2-norm error <= 1e-10, on the
    smallest structure that answers it.

    One product H u, u = psi/||psi||, over the cached hops of psi's support
    (those verify_zero_energy reads) comes first. If ||H u - <u|H u> u|| is at
    most KRYLOV_BREAKDOWN times the mean live coupling, psi is stationary: the
    result is exp(-iEt) psi on its own support, and no sector is enumerated.
    A state on one sector within KRYLOV_DIM hops of all of it (where a first
    Krylov space would grow an index to the whole sector) goes through evolve
    on its cached sector; any other evolves on a mask index grown by each
    product by H to its closure. Exact zeros are dropped.
    """
    return _evolve_sparse(graph, psi, t)


def evolve_state(graph, psi: SparseState, t: float) -> SparseState:
    """exp(-iHt) psi on any sectors: evolve_sparse's body, traced under its own name."""
    return _evolve_sparse(graph, psi, t)


def _evolve_sparse(graph, psi: SparseState, t: float) -> SparseState:
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")
    graph = _as_graph(graph)
    if graph.site_count != psi.site_count:
        raise ValueError("graph and state have different site counts")
    norm = psi.norm()
    if norm == 0.0 or t == 0.0:
        return SparseState(psi.site_count, psi.masks, psi.amps)
    endpoints, weights = _live_edges(graph)
    breakdown = _breakdown(weights)
    hops = _support_structure(endpoints, psi.masks.tobytes())
    energy = _stationary_energy(hops, weights, psi.amps / norm, breakdown)
    if energy is not None:
        return psi.scaled(np.exp(-1j * energy * t))
    ks = popcount(psi.masks)  # psi is not stationary, so some edge is live
    if ks.min() == ks.max() and _sector_radius(endpoints, psi) <= KRYLOV_DIM:
        H = build_sector_hamiltonian(graph, int(ks[0]))
        return from_sector_state(_evolve(H, psi.to_sector_state(H.basis), t, breakdown))
    op = _HopOperator(graph, psi.masks)
    amps = _krylov_expm(op.matvec, psi.amps, t, breakdown, op.lift)
    return SparseState(psi.site_count, op.masks, amps)


def _sector_radius(endpoints, psi: SparseState) -> float:
    """A bound on the hops from psi's first mask to any mask of its sector, inf
    if the live edges leave sites apart. An excitation reaches an empty site d
    hops away in d hops, so a mask that trades j sites for j others is at most
    their summed distances to any one site c away: the j farthest of each side."""
    m, mask = psi.site_count, int(psi.masks[0])
    dist = _site_distances(m, endpoints)
    occupied = (mask >> np.arange(m)) & 1 == 1
    j = min(mask.bit_count(), m - mask.bit_count())
    # for each c, the j largest distances to an occupied and to an empty site
    far = [-np.sort(-dist[:, side], axis=1)[:, :j].sum(axis=1) for side in (occupied, ~occupied)]
    return float((far[0] + far[1]).min())


# -- fidelities and reports ---------------------------------------------------


def _flat_site(pattern_or_graph, site, site_count: int) -> int:
    if isinstance(site, (int, np.integer)):
        if not 0 <= site < site_count:
            raise ValueError(f"flat site {site} outside 0..{site_count - 1}")
        return int(site)
    if isinstance(pattern_or_graph, CouplingPattern):
        return pattern_or_graph.geometry.flat(*site)
    raise ValueError("(i, j) site addressing needs a CouplingPattern, not a bare graph")


def transfer_fidelity(pattern, source, target, t):
    """|<target| exp(-iH t) |source>| in the single-excitation sector.

    A scalar t gives a float; an array of times gives moduli of its shape.
    The sector's M x M H, H[p, q] = 2w on each live edge (p, q), is built
    from the edges by flat site, with no bitmasks, so any site count works.
    """
    if not np.isfinite(t).all():
        raise ValueError("evolution time must be finite")
    graph = _as_graph(pattern)
    m = graph.site_count
    a = _flat_site(pattern, source, m)
    b = _flat_site(pattern, target, m)
    endpoints, weights = _live_edges(graph)
    _check_block_memory(m)
    h = np.zeros((m, m))
    p, q = np.array(endpoints, dtype=int).reshape(-1, 2).T
    h[p, q] = h[q, p] = 2 * weights
    evals, vecs = np.linalg.eigh(h)
    mods = np.abs(Propagator(evals, vecs[b, :] * vecs[a, :]).amplitudes(t))
    return float(mods) if mods.ndim == 0 else mods


def permuted_ranks(basis: SectorBasis, sym: SymmetryMap) -> np.ndarray:
    """rank(perm(mask)) for every mask in the basis, in rank order (read-only).

    A basis holds the whole sector, so the ranks depend only on (M, k, perm);
    they come from a bounded cache keyed on those three.
    """
    if sym.site_count != basis.site_count:
        raise ValueError("symmetry map acts on a different site count")
    return _rank_structure(basis.site_count, basis.k, tuple(sym.perm))


def _mirror_spectrum(dense: np.ndarray, ranks: np.ndarray) -> Propagator:
    """U[perm(x), x] over a closed index from one eigh of its dense H; ranks[x] is perm(x)."""
    evals, vecs = np.linalg.eigh(dense)
    return Propagator(evals, vecs[ranks, :] * vecs)


def mirror_propagator(pattern, k: int, sym: SymmetryMap) -> Propagator:
    """U[perm(x), x] of exp(-iH_k t) for every sector basis state x, in rank order."""
    graph = _as_graph(pattern)
    endpoints, weights = _live_edges(graph)
    hops = _support_structure(endpoints, (graph.site_count, k))
    ranks = permuted_ranks(SectorBasis(graph.site_count, k, hops.grown), sym)
    return _mirror_spectrum(hops.dense(weights), ranks)


# -- the irrep split ------------------------------------------------------------

_Split = namedtuple("_Split", "hops weights orbits side group")


def _irrep_split(pattern, k: int, sym: SymmetryMap) -> _Split:
    """The split that mirroring_report describes: the cached sector hops, the live
    weights, the _orbit_map of G, each state's side if every block is graded
    (else None) and the names of the reflections that generate G."""
    graph = _as_graph(pattern)
    site_count, P = graph.site_count, tuple(sym.perm)
    endpoints, weights = _live_edges(graph)
    hops = _support_structure(endpoints, (site_count, k))
    colour = _sublattice(site_count, endpoints)
    side = None if colour is None else popcount(hops.grown & colour) & 1
    exact = check_symmetry(graph, sym, tol=0.0) and all(P[p] == x for x, p in enumerate(P))
    orbits, group = _orbit_map(site_count, k, [P] if exact else []), (sym.name,) * exact
    geometry = getattr(pattern, "geometry", None)  # g is tried on the axis reflections first
    for name in reversed(SYMMETRY_NAMES) if exact and geometry is not None else ():
        if name.endswith("diagonal") and geometry.rows != geometry.cols:
            continue
        g = symmetry_map(geometry, name).perm
        if (g in (P, tuple(range(site_count))) or any(g[p] != P[q] for p, q in zip(P, g))
                or not check_symmetry(graph, SymmetryMap(name, g), tol=0.0)):
            continue
        four = _orbit_map(site_count, k, [P, g])
        if ((side is None or np.array_equal(side[four.ranks[2]], side))
                and four.kept.sum(axis=1).min() > _GRADED_FLOOR):
            orbits, group = four, (sym.name, name)
        break
    graded = side is not None and all(np.array_equal(side[r], side) for r in orbits.ranks)
    return _Split(hops, weights, orbits, side if graded else None, group)


def _blocks(split: _Split, graded: bool):
    """(block, side) of each irrep in character order, scattered from the hops: a
    graded block above _GRADED_FLOOR as its coupling from even to odd rows, with
    the side of each row, and any other dense, with side None. Each entry comes
    from the representative row of the larger orbit (the lower rank if of one
    size): B[r, s] = sqrt(|O_r| / |O_s|) sum over z in O_s of chi(h_z) H[r, z]."""
    o, t, c = split.orbits, split.hops.targets, split.hops.cols
    keep = (o.rep[t] == t) & ((o.size[t] > o.size[c]) | (o.size[t] == o.size[c]) & (t <= o.rep[c]))
    t, c = t[keep], c[keep]
    fill = np.take(2.0 * split.weights, split.hops.edges[keep]) * np.sqrt(o.size[t] / o.size[c])
    for chars, kept in zip(o.chars, o.kept):
        pos, inside, d = np.cumsum(kept) - 1, kept[o.row[t]] & kept[o.row[c]], int(kept.sum())
        a, b = pos[o.row[t[inside]]], pos[o.row[c[inside]]]
        vals = chars[o.elem[c[inside]]] * fill[inside]
        if graded and split.side is not None and d > _GRADED_FLOOR:
            side = split.side[o.order[kept]]
            e = d - int(side.sum())
            _check_block_memory(d, e)
            at = np.where(side == 0, np.cumsum(side == 0), np.cumsum(side == 1)) - 1
            a, b = np.where(side[a] == 0, a, b), np.where(side[a] == 0, b, a)  # even row, odd row
            yield np.bincount(at[a] * (d - e) + at[b], vals, e * (d - e)).reshape(e, -1), side
        else:
            _check_block_memory(d)
            off = a != b  # mirrored below the diagonal: the same terms in the same order
            key = np.concatenate([a * d + b, (b * d + a)[off]])
            yield np.bincount(key, np.concatenate([vals, vals[off]]), d * d).reshape(d, d), None


@dataclass(frozen=True)
class MirroringReport:
    """Per-basis-state diagnostics of U = exp(-iH_k t) against a permutation.

    backend is "parity-blocks", with block_dims the irrep blocks of G in character
    order ((P = +1, P = -1) for G = {1, P}), or "full-sector", with block_dims
    (dim,); group names the reflections that generate G: (P, g), (P,), or ().
    """

    k: int
    t: float
    sym_name: str
    min_modulus: float
    max_offtarget: float
    moduli: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)
    basis: SectorBasis = field(repr=False)
    backend: str
    block_dims: tuple[int, ...]
    block_solvers: tuple[str, ...]  # per block: "gram" of its sublattice coupling, or "eigh"
    group: tuple[str, ...]


_BLOCK_CHUNK = 256  # block columns of U formed per pair of real products
_GRADED_FLOOR = 48  # graded blocks above this take the Gram solve, which beats eigh from 24 up


def _eigh_solve(block, t):
    """columns(cols) of exp(-iBt) for a dense real symmetric block B, from one eigh."""
    evals, vecs = np.linalg.eigh(block)
    cos, sin = np.cos(evals * t)[:, None], np.sin(evals * t)[:, None]
    return lambda cols: vecs @ (cos * vecs[cols].T) - 1j * (vecs @ (sin * vecs[cols].T))


def _graded_solve(coupling, side, t):
    """columns(cols) of exp(-iBt) for a real symmetric block B that only couples
    side 0 to side 1, from one eigh of M M^T = V diag(s^2) V^T, M the coupling
    from the smaller side. With X = M^T V, cos(Bt) is V cos(st) V^T there and
    1 + X h X^T on the larger side, h = (cos st - 1) / s^2, and sin(Bt) is V g X^T
    between them, g = sin(st) / s; all are entire in s^2, so a kernel needs no
    case. M is scaled by the power of two that brings its largest entry into
    [1/2, 1) and t by its inverse: exact, and M M^T cannot overflow or underflow."""
    small = int(coupling.shape[0] > coupling.shape[1])  # the side with fewer rows
    e = math.frexp(float(np.abs(coupling).max(initial=0.0)))[1]
    t, M = math.ldexp(t, e), np.ldexp(coupling.T if small else coupling, -e)
    lam, V = np.linalg.eigh(M @ M.T)
    factor = np.empty((len(side), len(lam)))  # V and X held once, as views into it
    factor[: len(lam)] = V
    V, X = factor[: len(lam)], np.matmul(M.T, V, out=factor[len(lam):])
    small_rows, large_rows = np.flatnonzero(side == small), np.flatnonzero(side != small)
    row = np.argsort(np.argsort(side != small, kind="stable"))  # each block row's row of factor
    s = np.sqrt(np.maximum(lam, 0.0))[:, None]
    g, h = t * np.sinc(s * t / np.pi), -0.5 * (t * np.sinc(s * t / (2 * np.pi))) ** 2
    cos = h * s * s  # cos st - 1 = -2 sin^2(st / 2)

    def columns(cols):  # two real products, one per side
        F, on_small = factor[row[cols]].T, side[cols] == small
        out = np.empty((len(side), len(cols)), np.complex128)
        out[small_rows] = (V @ (np.where(on_small, cos, g) * F)) * np.where(on_small, 1, -1j)
        out[large_rows] = (X @ (np.where(on_small, g, h) * F)) * np.where(on_small, -1j, 1)
        out[cols, np.arange(len(cols))] += 1.0
        return out

    return columns


def mirroring_report(pattern, k: int, sym: SymmetryMap, t: float) -> MirroringReport:
    """Moduli and phases of the mirror-permutation entries of exp(-iH_k t).

    phases[x] is the unit-modulus direction of U[perm(x), x]. The k=0 sector
    evolves trivially (H has no diagonal part), so amplitudes are already
    gauged relative to the vacuum. Perfect mirroring up to phases means
    min_modulus approaches 1.

    The sector splits over the irreps chi of G, a group of reflections that
    contains the mirror P and commutes with H to the bit. P commutes when it is
    an involution that maps every live edge onto one of equal strength:
    G = {1, P} ("parity-blocks"), else G = {1} ("full-sector"). Only the first
    reflection g of a pattern's geometry (axis ones first) that commutes with P
    and H is tried: G takes g and gP if g keeps every state's side (below) and
    its four blocks are above _GRADED_FLOOR, else stays {1, P}, even where a
    later reflection would pass (the diagonals of the 4x4 product at odd k).
    An orbit O_r under G (r its least rank) spans sum over z in O_r of
    chi(h_z)|z>/sqrt|O_r| (h_z maps r to z) in each irrep trivial on its
    stabilizer. As U[hy, hx] = U[y, x] for h in G,
    only the representatives' columns of the blocks are formed, a chunk at a
    time: U[hs, r] = sum over chi of chi(h) U_chi[s, r] / sqrt(|O_s| |O_r|)
    gives every target and off-target entry; no complex n x n U is built.
    A hop crosses an edge, so under a 2-colouring of the live edges whose sides
    (the parity of a state's excitations on colour 1) all of G keeps, each
    block is [[0, C], [C^T, 0]]; above _GRADED_FLOOR one eigh of the Gram matrix
    of C on its smaller side solves it, as cos(Bt) and sin(Bt) / B are functions
    of B^2. Otherwise (an odd cycle, a P that flips some state's side, a small
    block) one eigh of the block does. A block whose estimated peak memory
    exceeds what the OS reports as available raises ValueError first.
    """
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")
    split = _irrep_split(pattern, k, sym)
    o, basis = split.orbits, SectorBasis(sym.site_count, k, split.hops.grown)
    solves, solvers = zip(*[(_eigh_solve(block, t), "eigh") if side is None else
                            (_graded_solve(block, side, t), "gram")
                            for block, side in _blocks(split, True)])
    pos, rows = np.cumsum(o.kept, axis=1) - 1, [np.flatnonzero(kept) for kept in o.kept]
    rows = [slice(len(r)) if len(r) and r[-1] == len(r) - 1 else r for r in rows]  # leading rows
    image = permuted_ranks(basis, sym)[o.order]  # P r for each representative r
    mrow, melem = o.row[image], o.elem[image]  # its orbit's row; the element onto it
    hit = o.ranks[:, o.order[mrow]] == image  # the elements that map that row onto P r
    sizes, target, max_off = o.size[o.order].astype(float), np.empty(len(image), complex), 0.0
    # one stabilizer per range, so the same blocks keep every column of a chunk
    bounds = [0, *(np.flatnonzero(np.diff(o.kept, axis=1).any(axis=0)) + 1), len(o.order)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        keep, norm = np.flatnonzero(o.kept[:, lo]), np.sqrt(sizes * sizes[lo])[:, None]
        for start in range(lo, hi, _BLOCK_CHUNK):
            cols = np.arange(start, min(start + _BLOCK_CHUNK, hi))
            j, us = np.arange(len(cols)), [solves[c](pos[c][cols]) for c in keep]
            for h in range(len(o.ranks)):  # amp[s, j] = sum of chi(h) U_chi[s, r_j]
                amp = us[0] if h == len(o.ranks) - 1 else us[0].copy()  # = U[hs, r_j] norm[s]
                for c, u in zip(keep[1:], us[1:]):  # a + (-u) is a - u to the bit
                    amp[rows[c]] += u if o.chars[c, h] > 0 else -u
                own = melem[cols] == h
                target[cols[own]] = amp[mrow[cols[own]], j[own]] / norm[mrow[cols[own]], 0]
                mag = np.abs(amp) / norm
                mag[mrow[cols[hit[h, cols]]], j[hit[h, cols]]] = 0.0
                max_off = max(max_off, float(mag.max()))
            del us, amp, mag  # freed before the next chunk's columns are formed
    moduli = np.abs(target[o.row])
    return MirroringReport(
        k=k, t=t, sym_name=sym.name, min_modulus=float(moduli.min()), max_offtarget=max_off,
        moduli=moduli, phases=target[o.row] / np.where(moduli > 0, moduli, 1.0), basis=basis,
        backend="parity-blocks" if split.group else "full-sector", group=split.group,
        block_dims=tuple(int(d) for d in o.kept.sum(axis=1)), block_solvers=solvers,
    )


@dataclass(frozen=True)
class PhaseFit:
    """Result of fitting phase(x) = g * s^(pairs in x) over one sector."""

    global_phase: complex
    pair_phase_sign: int
    residual: float
    ok: bool


def phase_network_fit(phases: np.ndarray, basis: SectorBasis) -> PhaseFit:
    """Fit the mirrored phases to a sector constant times a pairwise sign.

    phases are MirroringReport.phases, one per basis state in rank order.

    Within a single sector every basis state has the same number of
    excitation pairs, C(k,2), so the two signs fit equally well and only the
    product g*s^C(k,2) is identifiable; the fermionic sign s = -1 is reported
    by convention and g absorbs the rest. residual is the largest deviation
    of any phase from the fitted model; ok requires residual <= 1e-8.
    """
    phases = np.asarray(phases, dtype=np.complex128)
    if phases.shape != (basis.dim,):
        raise ValueError("need one phase per sector basis state")
    s = -1
    pairs = basis.k * (basis.k - 1) // 2
    model_sign = float(s**pairs)
    centered = phases * model_sign  # s^pairs is +-1, so this inverts it
    mean = centered.mean()
    if abs(mean) < 1e-12:
        # phases point in all directions: no constant fits
        return PhaseFit(global_phase=1.0 + 0j, pair_phase_sign=s, residual=2.0, ok=False)
    g = mean / abs(mean)
    residual = float(np.abs(phases - g * model_sign).max())
    return PhaseFit(global_phase=complex(g), pair_phase_sign=s, residual=residual, ok=residual <= 1e-8)


# -- spectrum classification --------------------------------------------------


@dataclass(frozen=True)
class SpectrumGroup:
    """A degeneracy group of eigenvalues with its symmetry content."""

    eigenvalue: float
    multiplicity: int
    label: str  # "+1", "-1", or "mixed"
    vector_symmetries: tuple[int, ...]
    max_symmetry_defect: float


def classify_spectrum(
    pattern, k: int, sym: SymmetryMap, degeneracy_tol: float | None = None
) -> list[SpectrumGroup]:
    """Group the eigenvalues of H_k, sector k of pattern (a CouplingPattern or an
    ExchangeGraph), and label each group by its symmetry eigenvalues.

    Requires the permutation to commute with H (raises otherwise). Eigenvalues
    are grouped within degeneracy_tol, default 1e-8 times the spectral range
    (0 means 1e-12). A group is "mixed" when it contains both +1 and -1
    eigenvectors of the permutation; degenerate mixed groups are the mirroring
    obstructions. When P H P = H to the bit, the merged spectra of the irrep
    blocks of mirroring_report, each labelled chi(P), give the labels, with
    defect 0.0; a permutation that commutes only within 1e-12 is diagonalized
    within each group of the full sector's H, with the measured defect.
    vector_symmetries lists -1 first.
    """
    if degeneracy_tol is not None and not (math.isfinite(degeneracy_tol) and degeneracy_tol >= 0):
        raise ValueError(f"--degeneracy-tol must be finite and non-negative, got {degeneracy_tol}")
    split = _irrep_split(pattern, k, sym)
    if exact := bool(split.group):  # the block spectra labelled chi(P), -1 first
        spectra = sorted(zip(split.orbits.chars[:, 1], (np.linalg.eigvalsh(block)
                                                        for block, _ in _blocks(split, False))),
                         key=lambda s: s[0])
        merged = np.concatenate([e for _, e in spectra])
        order = np.argsort(merged, kind="stable")
        evals, signs = merged[order], np.concatenate([np.full(len(e), x) for x, e in spectra])[order]
    else:
        H = build_sector_hamiltonian(pattern, k)
        perm_rows = permuted_ranks(H.basis, sym)
        hscale = max(1.0, float(np.abs(H.mat.data).max()) if H.mat.nnz else 0.0)
        if abs(H.mat[perm_rows][:, perm_rows] - H.mat).max() > 1e-12 * hscale:
            raise ValueError("symmetry does not commute with the Hamiltonian")
        evals, vecs = H.eig()
        inverse = np.argsort(perm_rows)  # (P v)[i] = v[inverse[i]]
    tol = degeneracy_tol if degeneracy_tol is not None else 1e-8 * float(evals[-1] - evals[0])
    if tol <= 0:
        tol = 1e-12
    out = []
    for g in np.split(np.arange(len(evals)), np.flatnonzero(np.diff(evals) > tol) + 1):
        if exact:
            labels, defect = sorted(signs[g].tolist()), 0.0
        else:
            B = vecs[:, g]
            M = B.T @ B[inverse]
            mu, W = np.linalg.eigh((M + M.T) / 2)
            rotated = B @ W
            labels = [1 if m > 0 else -1 for m in mu]
            defect = float(np.linalg.norm(rotated[inverse] - rotated * labels, axis=0).max())
        out.append(
            SpectrumGroup(
                eigenvalue=float(np.mean(evals[g])),
                multiplicity=len(g),
                label="mixed" if len(set(labels)) > 1 else f"{labels[0]:+d}",
                vector_symmetries=tuple(labels),
                max_symmetry_defect=defect,
            )
        )
    return out


def has_degenerate_mixed_group(groups: list[SpectrumGroup]) -> bool:
    """True when some degenerate eigenvalue carries both symmetry labels."""
    return any(g.multiplicity >= 2 and g.label == "mixed" for g in groups)

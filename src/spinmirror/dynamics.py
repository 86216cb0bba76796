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
Mirroring reports and spectrum classification share one mirror-parity split
into P = +1 and P = -1 blocks; a sector that does not commute is one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import CouplingPattern, SymmetryMap, _as_graph
from .sectors import (
    Propagator,
    SectorBasis,
    SectorHamiltonian,
    SectorState,
    SparseState,
    _HopOperator,
    _check_block_memory,
    _live_edges,
    _rank_structure,
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
    hops.apply of u, a vector over the hops' index."""
    hu = hops.apply(u, weights)
    energy = np.vdot(u, hu[hops.index_pos]).real
    hu[hops.index_pos] -= energy * u
    return energy if np.linalg.norm(hu) <= breakdown else None


def _krylov_space(matvec, v, lift, breakdown):
    """The Lanczos space of H and a unit vector v: (V, evals, U, beta).

    The rows of V are the Lanczos vectors, U diag(evals) U^T is the
    tridiagonal T that H becomes on them, and beta is the norm of the residual
    past the last vector, or 0 once it is <= breakdown. matvec may return a
    vector over a grown index; lift then carries the stored vectors onto it.
    """
    # np.zeros leaves untouched rows unmapped, so unused capacity costs no memory
    V = np.zeros((KRYLOV_DIM, len(v)), np.complex128)
    V[0] = v
    alphas, betas = [], []
    for j in range(KRYLOV_DIM):
        w = matvec(V[j])
        if len(w) != V.shape[1]:
            V = lift(V, j + 1)
        alpha = np.vdot(V[j], w).real
        w -= alpha * V[j]
        if j > 0:
            w -= betas[j - 1] * V[j - 1]
        # full reorthogonalization keeps the small tridiagonal trustworthy;
        # V.conj() @ w is taken as conj(V @ conj(w)) to conjugate one row only
        basis = V[: j + 1]
        w -= basis.T @ np.conj(basis @ np.conj(w))
        alphas.append(alpha)
        beta = np.linalg.norm(w)
        if beta <= breakdown:
            beta = 0.0
            break
        betas.append(beta)
        if j + 1 < KRYLOV_DIM:
            V[j + 1] = w / beta
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
    """
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0 or t == 0.0:
        return v.copy()
    current = v / norm_v
    remaining = tau = t
    while abs(remaining) > 0:
        V, evals, U, beta = _krylov_space(matvec, current, lift, breakdown)
        first_column = Propagator(evals, U * U[0].conj())
        if abs(tau) > abs(remaining):
            tau = remaining
        small = first_column.amplitudes(tau)
        while beta * abs(small[-1]) * abs(t) > KRYLOV_TOL and abs(tau) > 1e-12 * abs(t):
            tau = tau / 2
            small = first_column.amplitudes(tau)
        remaining -= tau
        current = small @ V
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
    amps = _krylov_expm(lambda x: H.mat @ x, psi.amplitudes, t, _breakdown(H.mat.data / 2))
    return SectorState(psi.basis, amps)


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
        return from_sector_state(evolve(H, psi.to_sector_state(H.basis), t))
    op = _HopOperator(graph, psi.masks)
    amps = _krylov_expm(op.matvec, psi.amps, t, breakdown, op.lift)
    return SparseState(psi.site_count, op.masks, amps)


def _sector_radius(endpoints, psi: SparseState) -> float:
    """A bound on the hops from psi's first mask to any mask of its sector, inf
    if the live edges leave sites apart. An excitation reaches an empty site d
    hops away in d hops, so a mask that trades j sites for j others is at most
    their summed distances to any one site c away: the j farthest of each side."""
    m, mask = psi.site_count, int(psi.masks[0])
    a, b = np.transpose(endpoints)
    dist = np.full((m, m), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[a, b] = dist[b, a] = 1.0
    for c in range(m):  # Floyd-Warshall
        dist = np.minimum(dist, dist[:, c, None] + dist[c])
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
    """
    graph = _as_graph(pattern)
    a = _flat_site(pattern, source, graph.site_count)
    b = _flat_site(pattern, target, graph.site_count)
    # k=1 masks are 1<<p in ascending p, so flat site == rank
    evals, vecs = build_sector_hamiltonian(graph, 1).eig()
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


def _mirror_spectrum(hops, weights, ranks: np.ndarray) -> Propagator:
    """U[perm(x), x] over a closed index from one eigh of its dense H; ranks[x] is perm(x)."""
    evals, vecs = np.linalg.eigh(hops.dense(weights))
    return Propagator(evals, vecs[ranks, :] * vecs)


def mirror_propagator(pattern, k: int, sym: SymmetryMap) -> Propagator:
    """U[perm(x), x] of exp(-iH_k t) for every sector basis state x, in rank order."""
    graph = _as_graph(pattern)
    endpoints, weights = _live_edges(graph)
    hops = _support_structure(endpoints, (graph.site_count, k))
    ranks = permuted_ranks(SectorBasis(graph.site_count, k, hops.grown), sym)
    return _mirror_spectrum(hops, weights, ranks)


# -- the mirror-parity split ---------------------------------------------------

def _parity_split(H: SectorHamiltonian, sym: SymmetryMap):
    """(perm_rows, exact): the mirror P on H's basis; exact if P^2 = 1 and P H P = H to the bit."""
    perm_rows = permuted_ranks(H.basis, sym)
    exact = (np.array_equal(perm_rows[perm_rows], np.arange(H.dim))
             and (H.mat[perm_rows][:, perm_rows] != H.mat).nnz == 0)
    return perm_rows, exact


def _parity_blocks(H: SectorHamiltonian, perm_rows, solve):
    """(solve(H+), solve(H-)) for the P = +1 and P = -1 blocks of H.

    P must be an involution that commutes with H exactly. Each pair a < Pa
    gives (|a> +- |Pa>)/sqrt(2) and each fixed point f gives |f> in the +
    block, so H+ = [[H[a,a] + H[a,Pa], sqrt2 H[a,f]], [sqrt2 H[f,a], H[f,f]]]
    and H- = H[a,a] - H[a,Pa], pairs first in ascending a, then fixed points.
    """
    x = np.arange(H.dim)
    a, f = x[x < perm_rows], x[x == perm_rows]
    s2 = math.sqrt(2.0)
    Ha, Hf = H.mat[a], H.mat[f]
    # each dense block lives only as long as its own solve call
    _check_block_memory(len(a) + len(f))
    plus = solve(np.block([
        [(Ha[:, a] + Ha[:, perm_rows[a]]).toarray(), s2 * Ha[:, f].toarray()],
        [s2 * Hf[:, a].toarray(), Hf[:, f].toarray()],
    ]))
    _check_block_memory(len(a))
    return plus, solve((Ha[:, a] - Ha[:, perm_rows[a]]).toarray())


@dataclass(frozen=True)
class MirroringReport:
    """Per-basis-state diagnostics of U = exp(-iH_k t) against a permutation.

    backend is "parity-blocks", with block_dims the (P = +1, P = -1) block
    dimensions, or "full-sector", with block_dims (dim,).
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


_BLOCK_CHUNK = 256  # block columns of U formed per pair of real products


def _block_columns(vecs, cos, sin, cols):
    """Columns cols of V exp(-iEt) V^T from two real products."""
    W = vecs[cols].T
    return vecs @ (cos[:, None] * W) - 1j * (vecs @ (sin[:, None] * W))


def mirroring_report(pattern, k: int, sym: SymmetryMap, t: float) -> MirroringReport:
    """Moduli and phases of the mirror-permutation entries of exp(-iH_k t).

    phases[x] is the unit-modulus direction of U[perm(x), x]. The k=0 sector
    evolves trivially (H has no diagonal part), so amplitudes are already
    gauged relative to the vacuum. Perfect mirroring up to phases means
    min_modulus approaches 1.

    When sym is an involution with P H_k P = H_k exactly, the sector splits
    into its P = +1 and P = -1 blocks ("parity-blocks"). Over the pairs,
    U[a,a] = U[Pa,Pa] = (U+ + U-)/2 and U[Pa,a] = U[a,Pa] = (U+ - U-)/2;
    U[a,f] = U[Pa,f] = U+[a,f]/sqrt2 and U[f,f'] = U+[f,f']. Otherwise the
    split is taken under the identity ("full-sector"): one + block of fixed
    points whose targets sit in rows P x. Each block is diagonalized once and
    U+- are formed a column chunk at a time; no complex n x n U is ever built.
    A block whose estimated peak memory exceeds what the OS reports as
    available raises ValueError before it is formed.
    """
    if not np.isfinite(t):
        raise ValueError("evolution time must be finite")

    def solve(block):  # (V, cos Et, sin Et) of a block V diag(E) V^T
        evals, vecs = np.linalg.eigh(block)
        return vecs, np.cos(evals * t), np.sin(evals * t)

    H = build_sector_hamiltonian(pattern, k)
    perm_rows, exact = _parity_split(H, sym)
    x = np.arange(H.dim)
    split = perm_rows if exact else x
    a, f = x[x < split], x[x == split]
    m, q = len(a), len(f)
    s2 = math.sqrt(2.0)
    plus, minus = _parity_blocks(H, split, solve)
    target = np.empty(H.dim, dtype=np.complex128)
    max_off = 0.0
    for start in range(0, m, _BLOCK_CHUNK):
        cols = np.arange(start, min(start + _BLOCK_CHUNK, m))
        diag = np.arange(len(cols))
        up, um = _block_columns(*plus, cols), _block_columns(*minus, cols)
        cross = (up[:m] - um) / 2
        target[a[cols]] = target[perm_rows[a[cols]]] = cross[cols, diag]
        cross[cols, diag] = 0.0
        max_off = max(
            max_off,
            float(np.abs(up[:m] + um).max()) / 2,
            float(np.abs(cross).max()),
            float(np.abs(up[m:]).max(initial=0.0)) / s2,
        )
    rows = m + np.searchsorted(f, perm_rows[f])  # + block row of each fixed point's mirror
    for start in range(m, m + q, _BLOCK_CHUNK):
        cols = np.arange(start, min(start + _BLOCK_CHUNK, m + q))
        diag = np.arange(len(cols))
        up = _block_columns(*plus, cols)
        target[f[cols - m]] = up[rows[cols - m], diag]
        up[rows[cols - m], diag] = 0.0
        max_off = max(
            max_off,
            float(np.abs(up[:m]).max(initial=0.0)) / s2,
            float(np.abs(up[m:]).max()),
        )
    moduli = np.abs(target)
    safe = np.where(moduli > 0, moduli, 1.0)
    phases = target / safe
    return MirroringReport(
        k=k,
        t=t,
        sym_name=sym.name,
        min_modulus=float(moduli.min()),
        max_offtarget=max_off,
        moduli=moduli,
        phases=phases,
        basis=H.basis,
        backend="parity-blocks" if exact else "full-sector",
        block_dims=(m + q, m) if exact else (H.dim,),
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
    H: SectorHamiltonian, sym: SymmetryMap, degeneracy_tol: float | None = None
) -> list[SpectrumGroup]:
    """Group eigenvalues and label each group by its symmetry eigenvalues.

    Requires the permutation to commute with H (raises otherwise). Eigenvalues
    are grouped within degeneracy_tol, default 1e-8 times the spectral range
    (0 means 1e-12). A group is "mixed" when it contains both +1 and -1
    eigenvectors of the permutation; degenerate mixed groups are the mirroring
    obstructions. When P H P = H exactly, the merged spectra of the parity
    blocks H+ (+1) and H- (-1) give the labels, with defect 0.0; a permutation
    that commutes only within 1e-12 is diagonalized within each group of H,
    with the measured defect. vector_symmetries lists -1 first.
    """
    if degeneracy_tol is not None and not (math.isfinite(degeneracy_tol) and degeneracy_tol >= 0):
        raise ValueError(f"--degeneracy-tol must be finite and non-negative, got {degeneracy_tol}")
    perm_rows, exact = _parity_split(H, sym)
    if exact:
        plus, minus = _parity_blocks(H, perm_rows, np.linalg.eigvalsh)
        merged = np.concatenate([minus, plus])
        order = np.argsort(merged, kind="stable")
        evals, signs = merged[order], np.where(order < len(minus), -1, 1)
    else:
        hscale = max(1.0, float(np.abs(H.mat.data).max()) if H.mat.nnz else 0.0)
        if abs(H.mat[perm_rows][:, perm_rows] - H.mat).max() > 1e-12 * hscale:
            raise ValueError("symmetry does not commute with the Hamiltonian")
        evals, vecs = H.eig()
        inverse = np.argsort(perm_rows)  # (P v)[i] = v[inverse[i]]
    tol = degeneracy_tol if degeneracy_tol is not None else 1e-8 * float(evals[-1] - evals[0])
    if tol <= 0:
        tol = 1e-12
    out = []
    for g in np.split(np.arange(H.dim), np.flatnonzero(np.diff(evals) > tol) + 1):
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

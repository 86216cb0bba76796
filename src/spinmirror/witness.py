"""Zero-energy witness states and impossibility certificates.

The witness places an arbitrary state on the main diagonal of an N x N
lattice and fills each straddling pair {(i,j), (j,i)} with a two-site
entangled state whose sign alternates with the distance from the diagonal.
Every exchange Hamiltonian that is symmetric under the main-diagonal
reflection annihilates it, so the witness never moves; any initial state with
a witness component therefore cannot be mirrored perfectly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .lattice import (
    CouplingPattern,
    ExchangeGraph,
    SymmetryMap,
    _as_graph,
    build_square_lattice,
    check_symmetry,
    manhattan_distance,
    symmetry_map,
)
from .sectors import SparseState, _live_edges, _support_structure, permute_masks

RESIDUAL_IMPOSSIBLE = 1e-10
OVERLAP_IMPOSSIBLE = 1 - 1e-6


def pair_sign(distance: int) -> int:
    """Sign of the pair state at |i-j| = distance: -1 odd, +1 even."""
    return -1 if distance % 2 else +1


def phi_pair(sign: int) -> SparseState:
    """(|01> + sign|10>)/sqrt(2) on two sites.

    The first site (bit 0) is the one above the diagonal and reads as the
    left qubit of the ket string, so |01> is the mask with bit 1 set.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    r = 1 / math.sqrt(2)
    return SparseState.from_dict(2, {0b10: r, 0b01: sign * r})


@dataclass(frozen=True)
class WitnessSpec:
    """Lattice side and the state carried by the N diagonal sites."""

    n: int
    diagonal_state: SparseState

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("lattice side must be positive")
        if self.n * self.n > 63:
            raise ValueError(f"lattice side {self.n} needs {self.n * self.n} sites; "
                             "bitmask states hold at most 63")
        if self.diagonal_state.site_count != self.n:
            raise ValueError("diagonal state must live on n sites")


def build_witness(spec: WitnessSpec) -> SparseState:
    """Tensor the diagonal state with the alternating pair states.

    Support size is (diagonal support) * 2^(N(N-1)/2); the result is
    normalized whenever the diagonal state is (enforced within 1e-12). The
    products are formed on raw arrays in one pass, diagonal first and then
    the pairs in (i, j) order, each amplitude multiplied left to right, and
    canonicalized once.
    """
    if abs(spec.diagonal_state.norm() - 1.0) > 1e-12:
        raise ValueError("diagonal state must be normalized")
    n = spec.n
    g = build_square_lattice(n)
    diag_sites = [g.flat(d, d) for d in range(1, n + 1)]
    masks = permute_masks(spec.diagonal_state.masks, diag_sites)
    amps = spec.diagonal_state.amps
    r = 1 / math.sqrt(2)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # the pair's canonical order: the site above the diagonal has the lower bit
            pair_masks = np.array([1 << g.flat(i, j), 1 << g.flat(j, i)], dtype=np.int64)
            pair_amps = np.array([pair_sign(j - i) * r, r], dtype=np.complex128)
            masks = (masks[:, None] | pair_masks[None, :]).ravel()
            amps = (amps[:, None] * pair_amps[None, :]).ravel()
    return SparseState(n * n, masks, amps)


def verify_zero_energy(graph, witness: SparseState) -> float:
    """||H w|| / (||w|| * max(1, sum|edge strengths|)); 0 up to rounding when
    the graph is main-diagonal symmetric."""
    graph = _as_graph(graph)
    wnorm = witness.norm()
    if wnorm == 0.0:
        return 0.0
    if graph.site_count != witness.site_count:
        raise ValueError("graph and state have different site counts")
    endpoints, weights = _live_edges(graph)
    hv = _support_structure(endpoints, witness.masks.tobytes()).apply(witness.amps, weights)
    return float(np.linalg.norm(hv[hv != 0])) / (wnorm * max(1.0, graph.total_strength()))


def verify_odd_distance(graph: ExchangeGraph, witness: SparseState) -> float:
    """verify_zero_energy with the long-range preconditions enforced.

    Every edge must span an odd Manhattan distance and the strengths must be
    main-diagonal symmetric; violations raise instead of computing a number.
    """
    graph = _as_graph(graph)
    n = math.isqrt(graph.site_count)
    if n * n != graph.site_count:
        raise ValueError("graph does not cover a square lattice")
    g = build_square_lattice(n)
    for a, b, _ in graph.edges:
        d = manhattan_distance(g, a, b)
        if d % 2 == 0:
            raise ValueError(
                f"edge ({a},{b}) between sites {g.coords(a)} and {g.coords(b)} "
                f"spans even Manhattan distance {d}"
            )
    if not check_symmetry(graph, symmetry_map(g, "main_diagonal")):
        raise ValueError("graph strengths are not main-diagonal symmetric")
    return verify_zero_energy(graph, witness)


@dataclass(frozen=True)
class Certificate:
    """Archival record of one impossibility check."""

    pattern_hash: str
    residual: float
    initial_target_overlap: float
    conclusion: str  # "impossible" or "inconclusive"
    reason: str | None
    r_cross_symmetric: bool


def impossibility_certificate(
    pattern: CouplingPattern, diag_initial: SparseState, mirror: SymmetryMap
) -> Certificate:
    """Bound mirroring of the witness built on diag_initial.

    The witness is stationary for any main-diagonal-symmetric pattern, so the
    overlap with its mirror image bounds the transfer amplitude at every
    time. Overlap 0 with a tiny residual certifies that mirroring the witness
    is impossible; a symmetric diagonal state leaves the certificate blind
    (overlap 1, inconclusive).
    """
    if mirror.name != "rotation_pi":
        raise ValueError("certificates are issued for the rotation_pi mirror only")
    g = pattern.geometry
    if g.kind != "square":
        raise ValueError("certificates require a square lattice pattern")
    spec = WitnessSpec(g.n, diag_initial)
    w = build_witness(spec)
    residual = verify_zero_energy(pattern, w)
    target = w.map_sites(mirror)
    overlap = abs(target.inner(w))
    main = symmetry_map(g, "main_diagonal")
    anti = symmetry_map(g, "anti_diagonal")
    symmetric = check_symmetry(pattern, main)
    reason = None
    if not symmetric:
        conclusion = "inconclusive"
        reason = "pattern lacks main-diagonal symmetry, witness need not be stationary"
    elif residual > RESIDUAL_IMPOSSIBLE:
        conclusion = "inconclusive"
        reason = "witness residual above threshold"
    elif overlap >= OVERLAP_IMPOSSIBLE:
        conclusion = "inconclusive"
        reason = "witness does not separate the initial state from its mirror image"
    else:
        conclusion = "impossible"
    return Certificate(
        pattern_hash=jsonio.pattern_digest(pattern),
        residual=residual,
        initial_target_overlap=overlap,
        conclusion=conclusion,
        reason=reason,
        r_cross_symmetric=symmetric and check_symmetry(pattern, anti),
    )


def certificate_to_obj(cert: Certificate) -> dict:
    from . import __version__

    return dict(dataclasses.asdict(cert), schema_version=jsonio.SCHEMA_VERSION,
                tool_version=__version__)


def diagonal_basis_state(n: int, bits: str) -> SparseState:
    """Diagonal basis ket from a string like '100' (site (1,1) excited)."""
    if len(bits) != n or any(c not in "01" for c in bits):
        raise ValueError(f"need a length-{n} string of 0s and 1s")
    mask = sum(1 << d for d, c in enumerate(bits) if c == "1")
    return SparseState.unit(n, mask)


def witness_subspace_basis(n: int) -> list[SparseState]:
    """Orthonormal witnesses for every diagonal basis state, by diagonal mask."""
    out = []
    for mask in range(1 << n):
        diag = SparseState.unit(n, mask)
        out.append(build_witness(WitnessSpec(n, diag)))
    return out

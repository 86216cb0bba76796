"""Independent constructions the tests cross-check against.

The Pauli oracles work on the full 2^M-dimensional space with explicit tensor
products; the uniform-chain amplitude is a closed form; the sector propagator
enumerates its basis with itertools and exponentiates with scipy; the
spectrum classifier projects a dense mirror permutation onto each degeneracy
group of the full sector; the lattice mirrors map each (i, j) by its
coordinate formula. None shares code with the package internals; the
references of the replaced per-call hop path at the end of this file say what
they share. Site p occupies bit p of the basis index (least significant bit
first), the same labeling the package uses.
"""

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

SX = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
SY = sp.csr_matrix(np.array([[0.0, -1.0j], [1.0j, 0.0]]))
I2 = sp.identity(2, format="csr")


def kron_ops(ops):
    """Tensor product with ops[0] on the least significant qubit."""
    out = None
    for op in reversed(ops):
        out = op if out is None else sp.kron(out, op, format="csr")
    return out


def pauli_term(site_count, a, b, op):
    ops = [I2] * site_count
    ops[a] = op
    ops[b] = op
    return kron_ops(ops)


def pauli_hamiltonian(site_count, edges, xx=True, yy=True):
    """H = sum over edges of w * (X_a X_b + Y_a Y_b), optionally one part only."""
    dim = 2**site_count
    H = sp.csr_matrix((dim, dim), dtype=np.complex128)
    for a, b, w in edges:
        if xx:
            H = H + w * pauli_term(site_count, a, b, SX)
        if yy:
            H = H + w * pauli_term(site_count, a, b, SY)
    return H


def sector_masks(site_count, k):
    return np.array(
        [m for m in range(2**site_count) if bin(m).count("1") == k], dtype=np.int64
    )


def restrict_to_sector(H, site_count, k):
    """Rows and columns of the weight-k bitmasks, in ascending mask order."""
    idx = sector_masks(site_count, k)
    return H[np.ix_(idx, idx)]


def dense_vector(state):
    """SparseState -> full 2^M complex vector."""
    v = np.zeros(2**state.site_count, dtype=np.complex128)
    v[state.masks] = state.amps
    return v


def pair_vector(site_count, p, q, sign):
    """(|p excited> + sign |q excited>)/sqrt(2) embedded in 2^M dims.

    Annihilation results are insensitive to which endpoint carries the sign
    (swapping p and q changes at most a global sign).
    """
    v = np.zeros(2**site_count, dtype=np.complex128)
    v[1 << p] = 1 / np.sqrt(2)
    v[1 << q] = sign / np.sqrt(2)
    return v


def uniform_chain_amplitude(n, ts):
    """<n| exp(-iHt) |1> for the unit-coupling chain of n sites, in closed form.

    The single-excitation block is tridiagonal with off-diagonals 2, so its
    eigenvalues are 4 cos(pi j/(n+1)) with eigenvectors
    sqrt(2/(n+1)) sin(pi j k/(n+1)), j, k = 1..n. Returns one complex amplitude
    per entry of ts.
    """
    theta = np.pi * np.arange(1, n + 1) / (n + 1)
    weights = 2 / (n + 1) * np.sin(theta) * np.sin(n * theta)
    return weights @ np.exp(-4j * np.outer(np.cos(theta), np.asarray(ts)))


def sector_matrix(site_count, edges, k):
    """(masks, H) of the weight-k sector, built straight off the edge list.

    The basis is every k-subset of sites from itertools.combinations,
    ascending as masks; H hops one excitation across an edge (a, b, w) with
    matrix element 2w.
    """
    masks = sorted(sum(1 << p for p in c) for c in itertools.combinations(range(site_count), k))
    index = {m: i for i, m in enumerate(masks)}
    rows, cols, vals = [], [], []
    for i, m in enumerate(masks):
        for a, b, w in edges:
            if (m >> a & 1) != (m >> b & 1):
                rows.append(index[m ^ (1 << a) ^ (1 << b)])
                cols.append(i)
                vals.append(2.0 * w)
    H = sp.csr_matrix((vals, (rows, cols)), shape=(len(masks), len(masks)))
    return masks, H


def sector_propagation(site_count, edges, k, amplitudes, t):
    """exp(-iHt) of a weight-k state given as {mask: amplitude}.

    Reaches sectors far past the Pauli oracle: H comes from sector_matrix and
    expm_multiply applies the exponential. Returns (masks, amplitudes over
    them).
    """
    masks, H = sector_matrix(site_count, edges, k)
    index = {m: i for i, m in enumerate(masks)}
    v = np.zeros(len(masks), dtype=np.complex128)
    for m, amp in amplitudes.items():
        v[index[m]] = amp
    return np.array(masks, dtype=np.int64), expm_multiply(-1j * t * H, v)


def permutation_operator(masks, perm):
    """Dense P with P[perm(m), m] = 1 over the ascending masks, perm acting on bits."""
    index = {m: i for i, m in enumerate(masks)}
    P = np.zeros((len(masks), len(masks)))
    for i, m in enumerate(masks):
        image = sum(1 << perm[p] for p in range(len(perm)) if m >> p & 1)
        P[index[image], i] = 1.0
    return P


def symmetry_perm(rows, cols, name):
    """A lattice mirror's site permutation, from the image of each 1-based (i, j)."""
    image = {
        "main_diagonal": lambda i, j: (j, i),
        "anti_diagonal": lambda i, j: (cols + 1 - j, rows + 1 - i),
        "rotation_pi": lambda i, j: (rows + 1 - i, cols + 1 - j),
        "vertical_axis": lambda i, j: (i, cols + 1 - j),
        "horizontal_axis": lambda i, j: (rows + 1 - i, j),
    }[name]
    perm = [None] * (rows * cols)
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            a, b = image(i, j)
            perm[(i - 1) * cols + (j - 1)] = (a - 1) * cols + (b - 1)
    return tuple(perm)


def classify_groups(site_count, edges, k, perm, tol=None):
    """(mean eigenvalue, multiplicity, symmetry labels) of every degeneracy group.

    Diagonalizes the full sector, groups neighbouring eigenvalues within tol
    (default 1e-8 times the spectral range; 0 means 1e-12), then diagonalizes
    the dense P projected onto each group; labels are the signs of its
    eigenvalues in ascending order.
    """
    masks, H = sector_matrix(site_count, edges, k)
    P = permutation_operator(masks, perm)
    evals, vecs = np.linalg.eigh(H.toarray())
    if tol is None:
        tol = 1e-8 * (evals[-1] - evals[0])
    tol = tol if tol > 0 else 1e-12
    groups = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[i - 1] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    out = []
    for g in groups:
        B = vecs[:, g]
        M = B.T @ P @ B
        mu = np.linalg.eigvalsh((M + M.T) / 2)
        out.append((float(np.mean(evals[g])), len(g), tuple(1 if m > 0 else -1 for m in mu)))
    return out


# -- the per-call hop path that the cached hop structures replaced ------------
#
# Kept verbatim as the byte-for-byte reference for apply_hamiltonian,
# evolve_sparse and build_sector_hamiltonian; each route of evolve_sparse has
# its own reference below. Unlike the oracles above, these reuse the package's
# SparseState canonicalization and Krylov loop, which the replaced path called
# too, so a comparison isolates the hop layer.


def hops_reference(graph, masks):
    """Every nonzero hop out of masks: (source position, target mask, 2w)."""
    rows, flipped, weights = [], [], []
    for a, b, w in graph.edges:
        if w == 0.0:
            continue
        mov = np.nonzero(((masks >> a) & 1) != ((masks >> b) & 1))[0]
        rows.append(mov)
        flipped.append(masks[mov] ^ np.int64((1 << a) | (1 << b)))
        weights.append(np.full(len(mov), 2.0 * w))
    if not rows:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    return np.concatenate(rows), np.concatenate(flipped), np.concatenate(weights)


def sort_runs_reference(masks):
    """One stable sort of masks: (order, distinct masks ascending, run)."""
    order = np.argsort(masks, kind="stable")
    ordered = masks[order]
    starts = np.ones(len(ordered), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    return order, ordered[starts], np.cumsum(starts) - 1


def sector_hamiltonian_reference(graph, k):
    """The CSR matrix of H_k as the per-call hop path assembled it."""
    masks = np.array(
        sorted(sum(1 << p for p in c) for c in itertools.combinations(range(graph.site_count), k)),
        dtype=np.int64,
    )
    dim = len(masks)
    rows, flipped, weights = hops_reference(graph, masks)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    cols = np.searchsorted(masks, flipped)
    mat = sp.csr_matrix((weights[order], cols[order], indptr), shape=(dim, dim))
    mat.sort_indices()
    return mat


def apply_hamiltonian_reference(graph, psi):
    """H psi as the per-call hop path formed it: one SparseState over the hops."""
    from spinmirror.sectors import SparseState

    rows, flipped, weights = hops_reference(graph, psi.masks)
    return SparseState(psi.site_count, flipped, psi.amps[rows] * weights)


class HopOperatorReference:
    """The growing-index operator as it was, re-sorting every growth step."""

    def __init__(self, graph, masks):
        self.graph = graph
        self.masks = masks
        self._index_pos = None
        self._csr = None

    def matvec(self, x):
        if self._csr is not None:
            return self._csr @ x
        n = len(self.masks)
        rows, flipped, weights = hops_reference(self.graph, self.masks)
        order, grown, run = sort_runs_reference(np.concatenate([self.masks, flipped]))
        pos = np.empty_like(run)
        pos[order] = run
        if len(grown) == n:
            self._csr = sp.csr_matrix((weights, (pos[n:], rows)), shape=(n, n))
            return self._csr @ x
        self._index_pos, self.masks = pos[:n], grown
        src = x[rows] * weights
        return np.bincount(pos[n:], src.real, len(grown)) + 1j * np.bincount(
            pos[n:], src.imag, len(grown)
        )

    def lift(self, V, rows):
        out = np.zeros((len(V), len(self.masks)), np.complex128)
        out[:rows, self._index_pos] = V[:rows]
        return out


def breakdown_reference(graph):
    """KRYLOV_BREAKDOWN times the mean |w| of the nonzero edges (0 for none)."""
    from spinmirror.dynamics import KRYLOV_BREAKDOWN

    live = [abs(w) for *_, w in graph.edges if w != 0.0]
    return KRYLOV_BREAKDOWN * (float(np.mean(live)) if live else 0.0)


def evolve_sparse_reference(graph, psi, t):
    """evolve_sparse's growing-index route driven by HopOperatorReference."""
    from spinmirror.dynamics import _krylov_expm
    from spinmirror.sectors import SparseState

    op = HopOperatorReference(graph, psi.masks)
    amps = _krylov_expm(op.matvec, psi.amps, t, breakdown_reference(graph), op.lift)
    return SparseState(psi.site_count, op.masks, amps)


def evolve_stationary_reference(graph, psi, t):
    """evolve_sparse's stationary route: exp(-iEt) psi, with E = <u|H u> for
    u = psi / ||psi|| from HopOperatorReference's first product."""
    from spinmirror.sectors import SparseState

    op = HopOperatorReference(graph, psi.masks)
    u = psi.amps / np.linalg.norm(psi.amps)
    hu = op.matvec(u)
    own = slice(None) if op._index_pos is None else op._index_pos  # None: a closed support
    energy = np.vdot(u, hu[own]).real
    return SparseState(psi.site_count, psi.masks, psi.amps * np.exp(-1j * energy * t))


def evolve_one_sector_reference(graph, psi, t):
    """evolve_sparse's one-sector route: the Krylov loop on the reference CSR
    of psi's sector, over its itertools masks."""
    from spinmirror.dynamics import _krylov_expm
    from spinmirror.sectors import SparseState

    k = bin(int(psi.masks[0])).count("1")
    masks = np.array(sorted(sum(1 << p for p in c)
                            for c in itertools.combinations(range(graph.site_count), k)),
                     dtype=np.int64)
    mat = sector_hamiltonian_reference(graph, k)
    v = np.zeros(len(masks), np.complex128)
    v[np.searchsorted(masks, psi.masks)] = psi.amps
    amps = _krylov_expm(lambda x: mat @ x, v, t, breakdown_reference(graph))
    return SparseState(psi.site_count, masks, amps)

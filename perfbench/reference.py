"""Independent oracles for the benchmark's correctness checks.

Nothing here imports spinmirror. Sector bases come from
itertools.combinations, propagators from scipy's expm and expm_multiply, so a
defect in the package's basis enumeration, Hamiltonian assembly or time
evolution cannot hide in its own reference.

Conventions match the package: H = sum_edges w (XX + YY) hops one excitation
with matrix element 2w, site p is bit p, lattice sites are row-major.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply


def christandl_couplings(n: int) -> np.ndarray:
    """c_m = sqrt(m (n - m)) / 2 for m = 1..n-1; perfect transfer at t = pi/2."""
    m = np.arange(1, n)
    return np.sqrt(m * (n - m)) / 2


def lattice_edges(J: np.ndarray, K: np.ndarray) -> list[tuple[int, int, float]]:
    """Edges of a rows x cols lattice: J[i, j] vertical, K[i, j] horizontal."""
    rows, cols = K.shape[0], J.shape[1]
    edges = []
    for i in range(rows - 1):
        for j in range(cols):
            edges.append((i * cols + j, (i + 1) * cols + j, float(J[i, j])))
    for i in range(rows):
        for j in range(cols - 1):
            edges.append((i * cols + j, i * cols + j + 1, float(K[i, j])))
    return edges


def product_lattice(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(J, K) of the square lattice whose rows and columns are engineered chains."""
    c = christandl_couplings(n)
    return np.repeat(c[:, None], n, axis=1), np.repeat(c[None, :], n, axis=0)


def chain_edges(couplings) -> list[tuple[int, int, float]]:
    return [(m, m + 1, float(c)) for m, c in enumerate(couplings)]


def sector_masks(sites: int, k: int) -> np.ndarray:
    masks = [sum(1 << p for p in combo) for combo in itertools.combinations(range(sites), k)]
    return np.array(sorted(masks), dtype=np.int64)


def sector_matrix(masks: np.ndarray, edges) -> sp.csr_matrix:
    """Sparse H restricted to the basis `masks` (which must be closed under hops)."""
    rows, cols, vals = [], [], []
    for a, b, w in edges:
        moves = np.flatnonzero(((masks >> a) ^ (masks >> b)) & 1)
        hopped = masks[moves] ^ ((1 << a) | (1 << b))
        found = np.searchsorted(masks, hopped)
        if not np.array_equal(masks[np.minimum(found, len(masks) - 1)], hopped):
            raise ValueError("basis is not closed under the edge hops")
        rows.append(moves)
        cols.append(found)
        vals.append(np.full(len(moves), 2.0 * w))
    dim = len(masks)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )


def reverse_sites(mask: int, sites: int) -> int:
    """Image of a mask under p -> sites-1-p: the chain reversal, and the
    rotation by pi of a row-major rectangular lattice."""
    return sum(1 << (sites - 1 - p) for p in range(sites) if mask >> p & 1)


def propagate(H: sp.csr_matrix, columns, t: float) -> np.ndarray:
    """exp(-iHt) applied to the unit vectors `columns`, one output column each."""
    E = np.zeros((H.shape[0], len(columns)), dtype=np.complex128)
    E[list(columns), range(len(columns))] = 1.0
    return expm_multiply(-1j * t * H.astype(np.complex128), E)


def mirror_entries(masks, edges, sites: int, t: float, columns) -> tuple[np.ndarray, float]:
    """U[mirror(x), x] for sampled ranks x, and the largest other |U| entry
    of those columns."""
    U = propagate(sector_matrix(masks, edges), columns, t)
    target_rows = [int(np.searchsorted(masks, reverse_sites(int(masks[x]), sites))) for x in columns]
    targets = U[target_rows, range(len(columns))]
    off = np.abs(U)
    off[target_rows, range(len(columns))] = 0.0
    return targets, float(off.max())


def single_excitation_moduli(edges, sites: int, source: int, target: int, ts) -> np.ndarray:
    """|<target| exp(-iHt) |source>| in the one-excitation sector, by dense expm."""
    h = np.zeros((sites, sites))
    for a, b, w in edges:
        h[a, b] = h[b, a] = 2.0 * w
    return np.array([abs(scipy.linalg.expm(-1j * t * h)[target, source]) for t in ts])


def apply_hamiltonian(edges, masks: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H psi for psi given as (masks, amplitudes), merged by mask."""
    out_m, out_a = [], []
    for a, b, w in edges:
        moves = ((masks >> a) ^ (masks >> b)) & 1 == 1
        out_m.append(masks[moves] ^ ((1 << a) | (1 << b)))
        out_a.append(amps[moves] * (2.0 * w))
    return merge(np.concatenate(out_m), np.concatenate(out_a))


def merge(masks: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uniq, inverse = np.unique(masks, return_inverse=True)
    total = np.zeros(len(uniq), dtype=np.complex128)
    np.add.at(total, inverse, amps)
    return uniq, total


def distance(m1, a1, m2, a2) -> float:
    """2-norm of the difference of two (masks, amplitudes) states."""
    masks, amps = merge(np.concatenate([m1, m2]), np.concatenate([a1, -np.asarray(a2)]))
    return float(np.linalg.norm(amps))


def witness_support_size(n: int, diagonal_support: int) -> int:
    """Diagonal support times the 2^(n(n-1)/2) pair configurations."""
    return diagonal_support * 2 ** math.comb(n, 2)

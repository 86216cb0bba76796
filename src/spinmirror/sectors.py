"""Excitation-number sectors: basis enumeration, sparse Hamiltonians, states.

Occupation bitmasks use bit p for flat site p; the vacuum is mask 0. The
exchange Hamiltonian never changes a mask's popcount, so each weight-k sector
evolves independently. One hop rule, _hops_out, gives the weight-free hops of
any sorted mask index (_hop_structure), laid out by target in hop order, and
a whole sector is a support that no hop leaves. _Hops.apply computes H x on
an index as one CSR product over that layout; on a closed index
_Hops.matrix assembles H's CSR and _Hops.dense its dense array.
build_sector_hamiltonian, dynamics.apply_hamiltonian, dynamics.evolve_sparse
and _HopOperator (its growing index) share them. Two
functools.lru_cache caches of HOP_CACHE_SIZE entries keep the hops of
supports and sectors (a sector too big for memory is refused before its masks
are enumerated) and the rank maps of dynamics.permuted_ranks; each call fills
in 2w. A Propagator evaluates fixed entries of exp(-iHt) over whole time grids.
"""

from __future__ import annotations

import contextlib
import functools
import math
import resource
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .lattice import ExchangeGraph, _as_graph

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def popcount(masks: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit population count."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)
    x = masks.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> np.uint64(56)).astype(np.int64)


def permute_masks(masks: np.ndarray, targets) -> np.ndarray:
    """Move bit p of every mask to bit targets[p]; bits past len(targets) are dropped."""
    out = np.zeros_like(masks)
    for bit, target in enumerate(targets):
        out |= ((masks >> bit) & 1) << np.int64(target)
    return out


def _sort_runs(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One stable sort of masks: (order, distinct masks ascending, run).

    run[i] is the position in the distinct masks of masks[order[i]], read off
    the flags that mark where each run of equal sorted masks starts, so no
    second sort or binary search is needed.
    """
    order = np.argsort(masks, kind="stable")
    ordered = masks[order]
    starts = np.ones(len(ordered), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    return order, ordered[starts], np.cumsum(starts) - 1


@dataclass(frozen=True)
class SectorBasis:
    """All weight-k bitmasks on M sites, in ascending numeric order."""

    site_count: int
    k: int
    masks: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.masks)

    def rank(self, mask: int) -> int:
        i = int(np.searchsorted(self.masks, mask))
        if i >= self.dim or self.masks[i] != mask:
            raise ValueError(f"mask {mask:#x} not in sector (M={self.site_count}, k={self.k})")
        return i

    def unrank(self, index: int) -> int:
        if not 0 <= index < self.dim:
            raise ValueError("index out of range")
        return int(self.masks[index])


def enumerate_sector_basis(site_count: int, k: int) -> SectorBasis:
    """Combinadic enumeration via Gosper's hack: next higher weight-k integer."""
    if not 0 <= k <= site_count:
        raise ValueError(f"need 0 <= k <= M, got k={k}, M={site_count}")
    if site_count > 63:
        raise ValueError("bitmask representation limited to 63 sites")
    dim = math.comb(site_count, k)
    masks = np.empty(dim, dtype=np.int64)
    v = (1 << k) - 1
    for i in range(dim):
        masks[i] = v
        if i + 1 < dim:
            c = v & -v
            r = v + c
            v = r | (((v ^ r) >> 2) // c)
    masks.setflags(write=False)
    return SectorBasis(site_count, k, masks)


@dataclass(frozen=True)
class SectorHamiltonian:
    """One sector's basis and the sparse real symmetric exchange Hamiltonian on it."""

    basis: SectorBasis
    mat: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self.basis.dim

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (eigenvalues, eigenvectors), formed on every call; ValueError past memory."""
        _check_block_memory(self.dim)
        return np.linalg.eigh(self.mat.toarray())


@dataclass(frozen=True)
class Propagator:
    """Fixed entries of exp(-iHt) as weights @ exp(-i evals t), one per leading index."""

    evals: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def amplitudes(self, ts) -> np.ndarray:
        """Every entry at every time, shaped weights.shape[:-1] + np.shape(ts)."""
        ts = np.asarray(ts, dtype=float)
        amps = self.weights @ np.exp(-1j * np.outer(self.evals, ts))
        return amps.reshape(self.weights.shape[:-1] + ts.shape)

    def derivatives(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """a(t), a'(t) and a''(t) for every entry at one time, from one exp(-i evals t)."""
        e = np.exp(-1j * self.evals * t)
        return (
            self.weights @ e,
            self.weights @ (-1j * self.evals * e),
            self.weights @ (-(self.evals**2) * e),
        )


# entries each structure cache keeps, least recently used evicted first. A loop
# that runs witness checks beside coupling searches (the sparse-sweep benchmark)
# puts 16 keys in the support cache per pass (7 supports, 9 whole sectors) and
# 3 in the rank cache; the bound keeps all of them.
HOP_CACHE_SIZE = 32


def _live_edges(graph: ExchangeGraph) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """(endpoints, weights) of the nonzero edges, in graph order."""
    live = [(a, b, w) for a, b, w in graph.edges if w != 0.0]
    return tuple((a, b) for a, b, _ in live), np.array([w for *_, w in live], dtype=float)


def _sublattice(site_count: int, endpoints) -> int | None:
    """The mask of one side of a 2-colouring of the live edges, None on an odd
    cycle; the lowest site of each connected piece is on the other side."""
    neighbours = [[] for _ in range(site_count)]
    for a, b in endpoints:
        neighbours[a].append(b)
        neighbours[b].append(a)
    colour = [-1] * site_count
    for root in range(site_count):
        todo = [root] if colour[root] < 0 else []
        colour[root] = max(colour[root], 0)
        while todo:
            p = todo.pop()
            for q in neighbours[p]:
                if colour[q] == colour[p]:
                    return None
                if colour[q] < 0:
                    colour[q] = 1 - colour[p]
                    todo.append(q)
    return sum(1 << p for p in range(site_count) if colour[p] == 1)


def _readonly(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class _Hops:
    """Every hop out of a sorted mask index across the live edges, without weights.

    grown is index | hop targets, ascending; index_pos are the index's own
    positions in it. The hops are laid out by target: entries indptr[t] to
    indptr[t + 1] land on grown[t], in hop order (by live edge in edge order,
    then by source), and entry i moves an excitation out of index[cols[i]]
    along live edge edges[i].
    """

    grown: np.ndarray
    index_pos: np.ndarray
    indptr: np.ndarray
    cols: np.ndarray
    edges: np.ndarray

    @property
    def targets(self) -> np.ndarray:
        """The target position in grown of every entry."""
        return np.repeat(np.arange(len(self.grown), dtype=self.cols.dtype), np.diff(self.indptr))

    @functools.cached_property
    def distinct(self) -> bool:
        """True when no two hops land on the same mask."""
        return bool(np.diff(self.indptr).max(initial=0) <= 1)

    @functools.cached_property
    def csr_order(self) -> np.ndarray:
        """The entries by target, then source: on a closed index, where H is
        symmetric, the layout in this order is the CSR of H.
        """
        keys = self.targets * np.int64(len(self.grown)) + self.cols  # distinct: any sort will do
        return _readonly(np.argsort(keys).astype(self.cols.dtype))[0]

    def matrix(self, weights: np.ndarray) -> sp.csr_matrix:
        """H as a CSR matrix over an index closed under hops, which owns its arrays."""
        order, n = self.csr_order, len(self.grown)
        mat = sp.csr_matrix((np.take(2.0 * weights, self.edges[order]), self.cols[order],
                             self.indptr.copy()), shape=(n, n))
        mat.has_sorted_indices = True
        return mat

    def dense(self, weights: np.ndarray) -> np.ndarray:
        """matrix(weights).toarray(), as no two hops share a (target, source) pair;
        ValueError past memory."""
        _check_block_memory(len(self.grown))
        out = np.zeros((len(self.grown),) * 2)
        out[self.targets, self.cols] = np.take(2.0 * weights, self.edges)
        return out

    def apply(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """H x over grown, for x over the index; targets hit more than once sum in hop order.

        The sums are one CSR product, grown x index, on the (real, imag) columns
        of x: each row starts from +0.0 and adds in hop order. When no two hops
        share a target, each takes its product directly, so a negative-zero
        part survives.
        """
        fill = np.take(2.0 * weights, self.edges)
        if self.distinct:
            out = np.zeros(len(self.grown), np.complex128)
            out[self.targets] = x[self.cols] * fill
            return out
        hop = sp.csr_matrix((fill, self.cols, self.indptr), shape=(len(self.grown), len(x)))
        return (hop @ x.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


def _hops_out(endpoints, masks: np.ndarray):
    """The hop rule: (source rows, hops per live edge, landed masks) out of masks."""
    rows, landed = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for a, b in endpoints:
        mov = np.flatnonzero(((masks >> a) & 1) != ((masks >> b) & 1))
        rows.append(mov)
        landed.append(masks[mov] ^ np.int64((1 << a) | (1 << b)))
    counts = np.array([len(r) for r in rows[1:]], dtype=np.int64)
    return np.concatenate(rows), counts, np.concatenate(landed)


def _index_dtype(size: int):
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


def _proc_bytes(path: str, key: str) -> int:
    with open(path) as f:
        return next(int(ln.split()[1]) * 1024 for ln in f if ln.startswith(key))


def _available_bytes() -> int | None:
    """MemAvailable as the OS reports it, or what the address-space limit
    (ulimit -v) leaves if that is less; None where neither is reported.
    """
    found = []
    with contextlib.suppress(OSError, StopIteration):
        found.append(_proc_bytes("/proc/meminfo", "MemAvailable:"))
    cap = resource.getrlimit(resource.RLIMIT_AS)[0]
    if cap != resource.RLIM_INFINITY:
        with contextlib.suppress(OSError, StopIteration):
            found.append(cap - _proc_bytes("/proc/self/status", "VmSize:"))
    return min(found, default=None)


# Peak bytes of a dense d x d block over what was held before it, per 8 d^2: the
# block, eigh's copy, workspace and output, and the column chunks. Single-block
# reports measured 5.23 at d = 1820 and 5.08 at d = 4368 (OpenBLAS, one thread).
# A graded block, charged 9.2 x 8 e o, holds its e x o coupling, the SVD's copy,
# workspace (about 4 min(e, o)^2) and factors, their stacked copy and the column
# chunks: single-block reports measured 9.13 at d = 1820 and 8.82 at d = 4368.
_BLOCK_PEAK_FACTOR = 5.3
# Estimates up to this many bytes skip the memory probe, which costs about as much
# as the eigh of a dim-4 block; 64 KiB covers dense blocks up to dimension 39.
_PROBE_FLOOR = 64 * 1024


def _check_memory(need: int, what: str) -> None:
    """ValueError when need bytes, the estimated peak of what, exceed available memory."""
    available = _available_bytes() if need > _PROBE_FLOOR else None
    if available is not None and need > available:
        raise ValueError(f"{what} about {need} bytes at peak; "
                         f"{available} bytes of memory are available")


def _check_block_memory(d: int, even: int | None = None) -> None:
    """Raise before forming a dense d x d block, or the even x (d - even) coupling
    of a graded one, whose estimated peak does not fit."""
    need = _BLOCK_PEAK_FACTOR * 8 * d * d if even is None else 9.2 * 8 * even * (d - even)
    _check_memory(int(need), f"a {'dense' if even is None else 'graded'} block of dimension {d} needs")


def _check_hop_memory(size: int, edges: int) -> None:
    """Raise before building the hops of size masks across edges live edges, past memory."""
    # peak RSS over what was held before, per (mask, live edge), one BLAS thread,
    # over the build and the first apply or matrix: 17-21 and 31.5 bytes for the
    # n = 5 and 6 uniform witnesses (1024 and 32,768 masks), 17.0-17.6 for the
    # uniform 5x5 lattice at k = 4. The peak is the sort, not the layout after it
    _check_memory(32 * size * edges, f"the hops of {size} masks across {edges} edges need")


def _hop_structure(endpoints, masks: np.ndarray) -> _Hops:
    """Build the hops of a strictly ascending mask index by one stable sort.

    Raises ValueError first when its estimated peak does not fit in memory.
    """
    _check_hop_memory(len(masks), len(endpoints))
    rows, counts, landed = _hops_out(endpoints, masks)
    order, grown, run = _sort_runs(np.concatenate([masks, landed]))
    idx, n = _index_dtype(len(run)), len(masks)
    hop = order >= n  # the stable sort keeps hop order within each target
    by_target = order[hop] - n
    indptr = np.zeros(len(grown) + 1, idx)
    np.cumsum(np.bincount(run[hop], minlength=len(grown)), out=indptr[1:])
    edges = np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(len(counts))), counts)
    return _Hops(*_readonly(grown, run[~hop].astype(idx), indptr,
                            rows.astype(idx)[by_target], edges[by_target]))


@functools.lru_cache(maxsize=HOP_CACHE_SIZE)
def _support_structure(endpoints, support) -> _Hops:
    """_hop_structure of a support: the bytes of its int64 masks, or (M, k) for a sector."""
    if isinstance(support, tuple):
        site_count, k = support
        if 0 <= k <= site_count <= 63:  # checked before enumerating, which refuses the rest
            _check_hop_memory(math.comb(site_count, k), len(endpoints))
        return _hop_structure(endpoints, enumerate_sector_basis(site_count, k).masks)
    return _hop_structure(endpoints, np.frombuffer(support, dtype=np.int64))


def build_sector_hamiltonian(graph, k: int) -> SectorHamiltonian:
    """Assemble H_k: off-diagonal 2w between masks differing by one hop.

    XX+YY has no diagonal part in the occupation basis, so the diagonal is 0.
    Zero-strength edges store nothing. A sector is a support no hop leaves:
    its hops come from the support cache under the key (site count, k), and
    _Hops.matrix fills in fresh data on every call. graph may be an
    ExchangeGraph or a CouplingPattern; H keeps only its basis and matrix.
    """
    graph = _as_graph(graph)
    endpoints, weights = _live_edges(graph)
    hops = _support_structure(endpoints, (graph.site_count, k))
    return SectorHamiltonian(SectorBasis(graph.site_count, k, hops.grown), hops.matrix(weights))


@functools.lru_cache(maxsize=HOP_CACHE_SIZE)
def _rank_structure(site_count: int, k: int, perm: tuple[int, ...]) -> np.ndarray:
    """rank(perm(mask)) for every mask of the weight-k sector, in rank order."""
    masks = enumerate_sector_basis(site_count, k).masks
    new = permute_masks(masks, perm)
    rows = np.searchsorted(masks, new)
    if np.any(rows >= len(masks)) or np.any(masks[rows] != new):
        raise ValueError("permutation does not preserve the sector")
    return _readonly(rows)[0]


_Orbits = namedtuple("_Orbits", "ranks rep elem size order row chars kept")


def _orbit_map(site_count: int, k: int, generators) -> _Orbits:
    """The weight-k sector under the group that commuting involutions generate, its
    elements e, p, q, qp, ...: ranks[h, x] = rank(h(x)); the least rank rep[x] of
    x's orbit, elem[x] = h with h(x) = rep[x] (and h(rep[x]) = x), the orbit's size;
    order, the representatives by stabilizer (free first), then rank; row[x], x's
    orbit's place in order; chars[c, h] = +-1, powers of [[1, 1], [1, -1]]; kept[c, i]:
    irrep c maps the stabilizer of order[i] to 1, so its block keeps that orbit."""
    ranks, chars = np.arange(math.comb(site_count, k))[None], np.ones((1, 1), np.int64)
    for perm in generators:
        ranks = np.concatenate([ranks, _rank_structure(site_count, k, tuple(perm))[ranks]])
        chars = np.kron([[1, 1], [1, -1]], chars)
    fixed = ranks == ranks[0]
    rep, size = ranks.min(axis=0), len(ranks) // fixed.sum(axis=0)
    reps = np.flatnonzero(rep == ranks[0])
    stabilizer = (1 << np.arange(len(ranks))) @ fixed[:, reps]  # the identity's bit alone: free
    by = np.argsort(stabilizer, kind="stable")
    order, row = reps[by], np.argsort(by)[np.searchsorted(reps, rep)]
    kept = ((chars[:, :, None] == 1) | ~fixed[None, :, order]).all(axis=1)
    return _Orbits(ranks, rep, ranks.argmin(axis=0), size, order, row, chars, kept)


class _HopOperator:
    """H on vectors over a sorted mask index that grows to its hop closure.

    matvec takes a vector over the current index and returns H x over
    index | hops(index), which then becomes the current index: the first
    step's hops come from the support cache, later ones are built uncached,
    and both go through _Hops.apply. Once the index is closed under hops, its
    _Hops.matrix CSR serves every later matvec. lift carries the stored Krylov
    vectors from the previous index onto the current one, never more than one
    growth step behind since a space is never rebuilt.
    """

    def __init__(self, graph: ExchangeGraph, masks: np.ndarray):
        self.endpoints, self.weights = _live_edges(graph)
        self.masks = masks
        self._index_pos = None  # the previous index's positions in the current one
        self._csr = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self._csr is not None:
            return self._csr @ x
        if self._index_pos is None:
            hops = _support_structure(self.endpoints, self.masks.tobytes())
        else:
            hops = _hop_structure(self.endpoints, self.masks)
        if len(hops.grown) == len(self.masks):
            self._csr = hops.matrix(self.weights)
            return self._csr @ x
        self._index_pos, self.masks = hops.index_pos, hops.grown
        return hops.apply(x, self.weights)

    def lift(self, V: np.ndarray, rows: int) -> np.ndarray:
        """V's first rows, held over the previous index, over the current one; same capacity."""
        out = np.zeros((len(V), len(self.masks)), np.complex128)
        out[:rows, self._index_pos] = V[:rows]
        return out


@dataclass(frozen=True)
class SectorState:
    """Complex amplitude vector over one sector basis."""

    basis: SectorBasis
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.basis.dim,):
            raise ValueError(f"amplitude vector must have length {self.basis.dim}")
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def basis_state(basis: SectorBasis, mask: int) -> SectorState:
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[basis.rank(mask)] = 1.0
    return SectorState(basis, amps)


@dataclass(frozen=True)
class SparseState:
    """Amplitudes keyed by occupation bitmask; may straddle several sectors.

    Canonical form: masks ascending, duplicates merged, exact zeros dropped.
    Input whose masks are already strictly ascending skips the sort, so
    scaling or slicing a canonical state costs one pass over it.
    """

    site_count: int
    masks: np.ndarray = field(repr=False)
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 0 < self.site_count <= 63:
            raise ValueError("bitmask representation limited to 1..63 sites")
        masks = np.asarray(self.masks, dtype=np.int64)
        amps = np.asarray(self.amps, dtype=np.complex128)
        if masks.shape != amps.shape or masks.ndim != 1:
            raise ValueError("masks and amps must be 1-d arrays of equal length")
        if len(masks) and (masks.min() < 0 or masks.max() >> self.site_count):
            raise ValueError("mask outside the site range")
        if np.all(masks[1:] > masks[:-1]):
            masks, amps = masks.copy(), amps.copy()
        else:
            order, uniq, run = _sort_runs(masks)
            amps = amps[order]
            if len(uniq) != len(masks):
                # add.at sums each run in input order, so merged values do not
                # depend on how the runs were found
                merged = np.zeros(len(uniq), dtype=np.complex128)
                np.add.at(merged, run, amps)
                amps = merged
            masks = uniq
        keep = amps != 0
        if not keep.all():
            masks, amps = masks[keep], amps[keep]
        masks.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def from_dict(cls, site_count: int, amplitudes: Mapping[int, complex]) -> "SparseState":
        return cls(
            site_count,
            np.fromiter(amplitudes.keys(), dtype=np.int64, count=len(amplitudes)),
            np.fromiter(
                (complex(v) for v in amplitudes.values()),
                dtype=np.complex128,
                count=len(amplitudes),
            ),
        )

    @classmethod
    def unit(cls, site_count: int, mask: int) -> "SparseState":
        return cls(site_count, np.array([mask], dtype=np.int64), np.ones(1, np.complex128))

    def amplitude(self, mask: int) -> complex:
        i = np.searchsorted(self.masks, mask)
        if i < len(self.masks) and self.masks[i] == mask:
            return complex(self.amps[i])
        return 0j

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def scaled(self, factor: complex) -> "SparseState":
        return SparseState(self.site_count, self.masks, self.amps * factor)

    def add(self, other: "SparseState") -> "SparseState":
        if other.site_count != self.site_count:
            raise ValueError("site count mismatch")
        return SparseState(
            self.site_count,
            np.concatenate([self.masks, other.masks]),
            np.concatenate([self.amps, other.amps]),
        )

    def inner(self, other: "SparseState") -> complex:
        """<self|other> over the common support."""
        if other.site_count != self.site_count:
            raise ValueError("site count mismatch")
        i = np.searchsorted(self.masks, other.masks)
        valid = i < len(self.masks)
        valid[valid] &= self.masks[i[valid]] == other.masks[valid]
        return complex(np.sum(np.conj(self.amps[i[valid]]) * other.amps[valid]))

    def map_sites(self, perm) -> "SparseState":
        """Relabel sites by a permutation (SymmetryMap or index sequence)."""
        p = perm.perm if hasattr(perm, "perm") else perm
        if len(p) != self.site_count:
            raise ValueError("permutation length must equal site_count")
        return SparseState(self.site_count, permute_masks(self.masks, p), self.amps)

    def tensor(self, other: "SparseState") -> "SparseState":
        """Product state; the two supports must occupy disjoint sites."""
        if other.site_count != self.site_count:
            raise ValueError("site count mismatch")
        m = (self.masks[:, None] | other.masks[None, :]).ravel()
        if np.any((self.masks[:, None] & other.masks[None, :]).ravel()):
            raise ValueError("tensor factors overlap on some site")
        a = (self.amps[:, None] * other.amps[None, :]).ravel()
        return SparseState(self.site_count, m, a)

    def sector_split(self) -> dict[int, "SparseState"]:
        """Group the support by excitation number."""
        ks = popcount(self.masks)
        return {
            int(k): SparseState(self.site_count, self.masks[ks == k], self.amps[ks == k])
            for k in np.unique(ks)
        }

    def to_sector_state(self, basis: SectorBasis) -> SectorState:
        """Dense view in one sector; support outside the sector is an error."""
        if basis.site_count != self.site_count:
            raise ValueError("site count mismatch")
        amps = np.zeros(basis.dim, dtype=np.complex128)
        idx = np.searchsorted(basis.masks, self.masks)
        if np.any(idx >= basis.dim) or np.any(basis.masks[idx] != self.masks):
            raise ValueError("state has support outside the target sector")
        amps[idx] = self.amps
        return SectorState(basis, amps)


def from_sector_state(state: SectorState) -> SparseState:
    return SparseState(state.basis.site_count, state.basis.masks, state.amplitudes)

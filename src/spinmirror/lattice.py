"""Lattice geometries, coupling patterns, exchange graphs, and symmetry maps.

Sites are addressed 1-based as (row i, col j) and by a flat 0-based index
site = (i-1)*cols + (j-1), row-major. Both addressings appear in the public
API; bitmask positions elsewhere in the package always use the flat index.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

SYMMETRY_NAMES = (
    "main_diagonal",
    "anti_diagonal",
    "rotation_pi",
    "vertical_axis",
    "horizontal_axis",
)


@dataclass(frozen=True)
class Geometry:
    """A chain, an N x N square lattice, or a rows x cols rectangular lattice."""

    kind: str
    rows: int
    cols: int

    def __post_init__(self):
        if self.kind not in ("chain", "square", "rect"):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("geometry must have at least one site per axis")
        if self.kind == "chain" and self.rows != 1:
            raise ValueError("chain geometry must have a single row")
        if self.kind == "square" and self.rows != self.cols:
            raise ValueError("square geometry requires rows == cols")

    @property
    def n(self) -> int:
        """Chain length or square side. Undefined for proper rectangles."""
        if self.kind == "rect" and self.rows != self.cols:
            raise ValueError("n is ambiguous for a non-square rectangle")
        return self.cols

    @property
    def site_count(self) -> int:
        return self.rows * self.cols

    def flat(self, i: int, j: int) -> int:
        """Flat 0-based site index for 1-based (i, j)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise ValueError(f"site ({i},{j}) outside {self.rows}x{self.cols} lattice")
        return (i - 1) * self.cols + (j - 1)

    def coords(self, site: int) -> tuple[int, int]:
        """Inverse of flat()."""
        if not (0 <= site < self.site_count):
            raise ValueError(f"flat site {site} out of range")
        i, j = divmod(site, self.cols)
        return i + 1, j + 1

    def edges(self) -> list[tuple[int, int]]:
        """Nearest-neighbour edges (a, b) with a < b, vertical block first."""
        out = []
        for i in range(1, self.rows):
            for j in range(1, self.cols + 1):
                out.append((self.flat(i, j), self.flat(i + 1, j)))
        for i in range(1, self.rows + 1):
            for j in range(1, self.cols):
                out.append((self.flat(i, j), self.flat(i, j + 1)))
        return out


def build_chain(n: int) -> Geometry:
    if n < 1:
        raise ValueError("chain length must be positive")
    return Geometry("chain", 1, n)


def build_square_lattice(n: int) -> Geometry:
    if n < 1:
        raise ValueError("lattice side must be positive")
    return Geometry("square", n, n)


def build_rect_lattice(rows: int, cols: int) -> Geometry:
    if rows < 1 or cols < 1:
        raise ValueError("lattice sides must be positive")
    return Geometry("rect", rows, cols)


def manhattan_distance(geometry: Geometry, a, b) -> int:
    """|di| + |dj| between two sites, given flat or (i, j) addresses."""
    ia, ja = geometry.coords(a) if isinstance(a, (int, np.integer)) else a
    ib, jb = geometry.coords(b) if isinstance(b, (int, np.integer)) else b
    geometry.flat(ia, ja)
    geometry.flat(ib, jb)
    return abs(ia - ib) + abs(ja - jb)


@dataclass(frozen=True)
class ExchangeGraph:
    """Weighted exchange graph: sites 0..site_count-1, edges (a, b, strength)."""

    site_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen = set()
        for a, b, w in self.edges:
            if not (0 <= a < b < self.site_count):
                raise ValueError(f"bad edge ({a},{b}): need 0 <= a < b < {self.site_count}")
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            if not np.isfinite(w):
                raise ValueError(f"non-finite strength on edge ({a},{b})")
            seen.add((a, b))

    def weight_map(self) -> dict[tuple[int, int], float]:
        return {(a, b): w for a, b, w in self.edges}

    def total_strength(self) -> float:
        return float(sum(abs(w) for _, _, w in self.edges))


@dataclass(frozen=True)
class CouplingPattern:
    """Couplings on the nearest-neighbour edges of a geometry.

    J[i-1, j-1] is the vertical edge (i,j)-(i+1,j); K[i-1, j-1] the horizontal
    edge (i,j)-(i,j+1). A chain stores its n-1 couplings as the single K row.
    """

    geometry: Geometry
    J: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = self.geometry
        J = np.asarray(self.J, dtype=float).reshape(max(g.rows - 1, 0), g.cols)
        K = np.asarray(self.K, dtype=float).reshape(g.rows, max(g.cols - 1, 0))
        if not (np.all(np.isfinite(J)) and np.all(np.isfinite(K))):
            raise ValueError("coupling strengths must be finite")
        J.setflags(write=False)
        K.setflags(write=False)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "K", K)

    @property
    def chain_couplings(self) -> np.ndarray:
        if self.geometry.kind != "chain":
            raise ValueError("chain_couplings defined only for chain geometry")
        return self.K[0]

    def edge_weights(self) -> np.ndarray:
        """Weights in the canonical edge order of Geometry.edges()."""
        return np.concatenate([self.J.ravel(), self.K.ravel()])

    def to_graph(self) -> ExchangeGraph:
        weights = self.edge_weights()
        edges = tuple(
            (a, b, float(w)) for (a, b), w in zip(self.geometry.edges(), weights)
        )
        return ExchangeGraph(self.geometry.site_count, edges)


def uniform_pattern(geometry: Geometry, strength: float = 1.0) -> CouplingPattern:
    return CouplingPattern(
        geometry,
        np.full((max(geometry.rows - 1, 0), geometry.cols), strength),
        np.full((geometry.rows, max(geometry.cols - 1, 0)), strength),
    )


def pattern_from_weights(geometry: Geometry, weights: Sequence[float]) -> CouplingPattern:
    """Inverse of CouplingPattern.edge_weights()."""
    w = np.asarray(weights, dtype=float)
    nj = (geometry.rows - 1) * geometry.cols
    nk = geometry.rows * (geometry.cols - 1)
    if w.shape != (nj + nk,):
        raise ValueError(f"expected {nj + nk} weights, got {w.shape}")
    return CouplingPattern(
        geometry,
        w[:nj].reshape(max(geometry.rows - 1, 0), geometry.cols),
        w[nj:].reshape(geometry.rows, max(geometry.cols - 1, 0)),
    )


def pattern_from_graph(graph: ExchangeGraph, geometry: Geometry) -> CouplingPattern:
    """Rebuild a pattern from a graph whose edges are all nearest-neighbour.

    Edges absent from the graph become 0-strength couplings.
    """
    if graph.site_count != geometry.site_count:
        raise ValueError("site count mismatch")
    slots = {e: i for i, e in enumerate(geometry.edges())}
    weights = np.zeros(len(slots))
    for a, b, w in graph.edges:
        if (a, b) not in slots:
            raise ValueError(f"edge ({a},{b}) is not nearest-neighbour on this geometry")
        weights[slots[(a, b)]] = w
    return pattern_from_weights(geometry, weights)


# -- symmetries ---------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryMap:
    """A site permutation implementing a lattice symmetry."""

    name: str
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm must be a bijection on 0..M-1")

    @property
    def site_count(self) -> int:
        return len(self.perm)

    def __call__(self, site: int) -> int:
        return self.perm[site]

    def compose(self, other: "SymmetryMap") -> "SymmetryMap":
        """self after other (self.perm[other.perm[x]])."""
        if len(self.perm) != len(other.perm):
            raise ValueError("size mismatch")
        return SymmetryMap(
            f"{self.name}*{other.name}",
            tuple(self.perm[p] for p in other.perm),
        )


def symmetry_map(geometry: Geometry, name: str) -> SymmetryMap:
    """One of main_diagonal, anti_diagonal, rotation_pi, vertical_axis, horizontal_axis.

    Each is read off the site grid [[flat(i, j)]]: main_diagonal transposes
    it, rotation_pi reverses both axes, vertical_axis and horizontal_axis one,
    and anti_diagonal transposes the rotated grid. The diagonal reflections
    require a square geometry. For a chain, vertical_axis (and rotation_pi) is
    the site-reversal map.
    """
    if name not in SYMMETRY_NAMES:
        raise ValueError(f"unknown symmetry {name!r}; choose from {SYMMETRY_NAMES}")
    R, C = geometry.rows, geometry.cols
    if name in ("main_diagonal", "anti_diagonal") and R != C:
        raise ValueError(f"{name} requires a square geometry")
    grid = np.arange(geometry.site_count).reshape(R, C)
    image = {
        "main_diagonal": grid.T,
        "anti_diagonal": grid[::-1, ::-1].T,
        "rotation_pi": grid[::-1, ::-1],
        "vertical_axis": grid[:, ::-1],
        "horizontal_axis": grid[::-1, :],
    }[name]
    return SymmetryMap(name, tuple(image.ravel().tolist()))


def group_closure(maps: Iterable[SymmetryMap]) -> list[tuple[int, ...]]:
    """All permutations generated by the given maps, identity included."""
    gens = [m.perm for m in maps]
    if not gens:
        raise ValueError("need at least one symmetry map")
    m = len(gens[0])
    if any(len(g) != m for g in gens):
        raise ValueError("maps act on different site counts")
    ident = tuple(range(m))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(group)


def _as_graph(obj) -> ExchangeGraph:
    return obj.to_graph() if isinstance(obj, CouplingPattern) else obj


def check_symmetry(pattern, sym: SymmetryMap, tol: float = 1e-12) -> bool:
    """True iff every edge's image under sym carries the same strength.

    An edge absent from the graph counts as strength 0, so sparse graphs and
    zero-padded patterns compare consistently.
    """
    graph = _as_graph(pattern)
    if sym.site_count != graph.site_count:
        raise ValueError("symmetry map acts on a different site count")
    weights = graph.weight_map()
    for a, b, w in graph.edges:
        pa, pb = sym(a), sym(b)
        if pa > pb:
            pa, pb = pb, pa
        if abs(weights.get((pa, pb), 0.0) - w) > tol:
            return False
    return True


def edge_orbits(geometry: Geometry, group: Iterable[SymmetryMap]) -> list[list[int]]:
    """Partition of the canonical edge list into orbits under the group closure.

    Orbits are sorted by their smallest edge index; one free parameter per
    orbit fully determines a group-symmetric pattern.
    """
    edges = geometry.edges()
    perms = group_closure(group)
    index = {e: i for i, e in enumerate(edges)}
    seen = set()
    orbits = []
    for start in range(len(edges)):
        if start in seen:
            continue
        orbit = set()
        stack = [edges[start]]
        while stack:
            a, b = stack.pop()
            i = index.get((a, b))
            if i is None:
                raise ValueError(f"edge set not closed under the group at ({a},{b})")
            if i in orbit:
                continue
            orbit.add(i)
            for p in perms:
                pa, pb = p[a], p[b]
                stack.append((pa, pb) if pa < pb else (pb, pa))
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def _orbit_pattern(geometry: Geometry, orbits, values: Iterable[float]) -> CouplingPattern:
    """The pattern carrying the i-th value on every edge of the i-th orbit, filled in orbit order."""
    weights = np.empty(len(geometry.edges()))
    for orbit, v in zip(orbits, values):
        weights[orbit] = v
    return pattern_from_weights(geometry, weights)


def symmetrize_pattern(pattern: CouplingPattern, group: Iterable[SymmetryMap]) -> CouplingPattern:
    """Orbit-average the couplings. Idempotent; fixes symmetric inputs exactly.

    Orbit sizes under the reflection groups here are powers of two, so the
    average of an already-constant orbit is bit-exact.
    """
    weights = pattern.edge_weights()
    orbits = edge_orbits(pattern.geometry, group)
    # each orbit summed left to right
    means = [functools.reduce(operator.add, weights[orbit], 0.0) / len(orbit) for orbit in orbits]
    return _orbit_pattern(pattern.geometry, orbits, means)


def random_symmetric_pattern(
    geometry: Geometry,
    group: Iterable[SymmetryMap],
    seed: int,
    coupling_range: tuple[float, float] = (0.5, 1.5),
) -> CouplingPattern:
    """Deterministic group-symmetric pattern with strengths uniform in [lo, hi).

    Randomness comes from numpy's default PCG64 generator seeded with `seed`;
    one draw per edge orbit, in orbit order.
    """
    lo, hi = coupling_range
    if not lo < hi:
        raise ValueError("coupling range must satisfy lo < hi")
    rng = np.random.default_rng(seed)
    orbits = edge_orbits(geometry, group)
    return _orbit_pattern(geometry, orbits, (rng.uniform(lo, hi) for _ in orbits))

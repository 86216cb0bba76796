"""Coupling constructions with known transfer behaviour.

Convention, used everywhere in this package: the Hamiltonian is
H = sum_edges c * (XX + YY), so a coupling c moves a single excitation with
matrix element 2c. All transfer times below are stated under this convention.
Transfer moduli are read by dynamics.transfer_fidelity on the chain's pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (
    CouplingPattern,
    build_chain,
    build_rect_lattice,
    build_square_lattice,
)
from .dynamics import transfer_fidelity


@dataclass(frozen=True)
class ChainCouplings:
    """A mirror-symmetric chain coupling sequence.

    nominal_transfer_time is the first time at which a single excitation on
    site 1 arrives at site n with unit modulus, or None when no such time
    exists (uniform chains of length >= 4). Each hopping element 2c, and the
    time when given, is finite.
    """

    n: int
    couplings: tuple[float, ...]
    nominal_transfer_time: float | None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("chain needs at least 2 sites")
        if len(self.couplings) != self.n - 1:
            raise ValueError(f"need {self.n - 1} couplings, got {len(self.couplings)}")
        c = self.couplings
        if not all(math.isfinite(2 * x) for x in c):
            raise ValueError(f"hopping elements 2c must be finite, got couplings {c}")
        for m in range(len(c)):
            if abs(c[m] - c[len(c) - 1 - m]) > 1e-12 * max(1.0, abs(c[m])):
                raise ValueError("couplings must be mirror-symmetric: c_m = c_{n-m}")
        t = self.nominal_transfer_time
        if t is not None and not (math.isfinite(t) and t > 0):
            raise ValueError(f"transfer time must be finite and positive, got {t}")


def christandl_chain(n: int, scale: float = 1.0) -> ChainCouplings:
    """Engineered chain c_m = scale*sqrt(m(n-m))/2, m = 1..n-1.

    The single-excitation hopping matrix then has elements scale*sqrt(m(n-m)),
    a linear spectrum with gap 2*scale, and perfect site reversal at
    t = pi/(2*scale). The bundled tests re-derive that time from a hopping
    block they build themselves rather than trusting this docstring.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    couplings = tuple(scale * math.sqrt(m * (n - m)) / 2 for m in range(1, n))
    return ChainCouplings(n, couplings, math.pi / (2 * scale))


def uniform_chain(n: int, strength: float = 1.0) -> ChainCouplings:
    """Homogeneous chain. Perfect transfer exists only for n in {2, 3}.

    n=2 transfers at t = pi/(4*strength) (hopping element 2*strength);
    n=3 at t = pi/(2*sqrt(2)*strength). Longer uniform chains never reach
    unit fidelity, so nominal_transfer_time is None there. They can still
    come arbitrarily close to it over long enough windows when n+1 is a
    prime, twice a prime or a power of two (pretty good transfer, Godsil,
    Kirkland, Severini & Smith 2012), so no fixed margin below 1 holds on
    every window.
    """
    if not (math.isfinite(strength) and strength > 0):
        raise ValueError(f"strength must be finite and positive, got {strength}")
    if n == 2:
        t = math.pi / (4 * strength)
    elif n == 3:
        t = math.pi / (2 * math.sqrt(2) * strength)
    else:
        t = None
    return ChainCouplings(n, (strength,) * (n - 1), t)


def measured_transfer_modulus(chain: ChainCouplings, t):
    """|<n| exp(-iHt) |1>|: transfer_fidelity from the first site to the last
    of chain_pattern(chain). A scalar t gives a float; an array of times gives
    moduli of its shape."""
    return transfer_fidelity(chain_pattern(chain), 0, chain.n - 1, t)


def chain_pattern(chain: ChainCouplings) -> CouplingPattern:
    """The chain as a CouplingPattern on a 1 x n geometry."""
    g = build_chain(chain.n)
    return CouplingPattern(
        g,
        np.zeros((0, g.cols)),
        np.asarray(chain.couplings, dtype=float).reshape(1, -1),
    )


def product_lattice_couplings(
    row_chain: ChainCouplings, col_chain: ChainCouplings
) -> CouplingPattern:
    """Square-lattice pattern whose two axes evolve as independent chains.

    J_{i,j} = row_chain.couplings[i] for every column j, and
    K_{i,j} = col_chain.couplings[j] for every row i. Both chains must have
    the lattice side as their length.
    """
    if row_chain.n != col_chain.n:
        raise ValueError("row and column chains must have equal length")
    n = row_chain.n
    g = build_square_lattice(n)
    J = np.repeat(np.asarray(row_chain.couplings, dtype=float).reshape(-1, 1), n, axis=1)
    K = np.repeat(np.asarray(col_chain.couplings, dtype=float).reshape(1, -1), n, axis=0)
    return CouplingPattern(g, J, K)


def parallel_chain_pattern(chain: ChainCouplings, n_rows: int | None = None) -> CouplingPattern:
    """n_rows independent copies of the chain laid out as lattice rows.

    All vertical couplings are zero; each row carries the chain couplings.
    n_rows defaults to the chain length (a square lattice); other values give
    a rectangular geometry.
    """
    rows = chain.n if n_rows is None else n_rows
    if rows < 1:
        raise ValueError("need at least one row")
    g = build_square_lattice(chain.n) if rows == chain.n else build_rect_lattice(rows, chain.n)
    J = np.zeros((rows - 1, chain.n))
    K = np.repeat(np.asarray(chain.couplings, dtype=float).reshape(1, -1), rows, axis=0)
    return CouplingPattern(g, J, K)

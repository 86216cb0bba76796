"""Simulation and verification toolkit for mirror symmetry in XY exchange models.

Convention used throughout: H = sum over edges of c * (XX + YY), so a coupling
c hops a single excitation with matrix element 2c. Sites are bits of an int64
bitmask, site 0 in the lowest bit; lattices are indexed (i, j) from 1 with
flat index (i-1)*cols + (j-1).
"""

__version__ = "0.1.0"

from .lattice import (
    CouplingPattern,
    ExchangeGraph,
    Geometry,
    SymmetryMap,
    build_chain,
    build_rect_lattice,
    build_square_lattice,
    check_symmetry,
    edge_orbits,
    group_closure,
    manhattan_distance,
    pattern_from_graph,
    pattern_from_weights,
    random_symmetric_pattern,
    symmetrize_pattern,
    symmetry_map,
    uniform_pattern,
)
from .chains import (
    ChainCouplings,
    chain_pattern,
    christandl_chain,
    measured_transfer_modulus,
    parallel_chain_pattern,
    product_lattice_couplings,
    uniform_chain,
)
from .sectors import (
    SectorBasis,
    SectorHamiltonian,
    SectorState,
    SparseState,
    basis_state,
    build_sector_hamiltonian,
    enumerate_sector_basis,
    from_sector_state,
    popcount,
)
from .dynamics import (
    MirroringReport,
    PhaseFit,
    SpectrumGroup,
    apply_hamiltonian,
    classify_spectrum,
    evolve,
    evolve_sparse,
    evolve_state,
    has_degenerate_mixed_group,
    mirroring_report,
    permuted_ranks,
    phase_network_fit,
    transfer_fidelity,
)
from .witness import (
    Certificate,
    WitnessSpec,
    build_witness,
    diagonal_basis_state,
    impossibility_certificate,
    pair_sign,
    phi_pair,
    verify_odd_distance,
    verify_zero_energy,
    witness_subspace_basis,
)
from .optimizer import (
    Objective,
    OptimizationRun,
    PolishCounts,
    Probe2x2Result,
    evaluate_objective,
    optimize,
    optimize_with_restarts,
    probe_2x2,
    witness_ceiling,
)

__all__ = [name for name in dir() if not name.startswith("_")]

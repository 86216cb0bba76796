"""The public API as users meet it: the README example and the parameter names.

A change to a name below is a deliberate API change; CHANGES.md lists it.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

import spinmirror
from spinmirror import cli
from spinmirror.sectors import SectorHamiltonian, SparseState

ROOT = Path(__file__).resolve().parents[1]

# tuple(inspect.signature(obj).parameters) for every callable in spinmirror.__all__
PUBLIC_PARAMETERS = {
    "Certificate": ("pattern_hash", "residual", "initial_target_overlap", "conclusion",
                    "reason", "r_cross_symmetric"),
    "ChainCouplings": ("n", "couplings", "nominal_transfer_time"),
    "CouplingPattern": ("geometry", "J", "K"),
    "ExchangeGraph": ("site_count", "edges"),
    "Geometry": ("kind", "rows", "cols"),
    "MirroringReport": ("k", "t", "sym_name", "min_modulus", "max_offtarget", "moduli",
                        "phases", "basis", "backend", "block_dims", "block_solvers", "group"),
    "Objective": ("kind", "mirror", "k", "state"),
    "OptimizationRun": ("geometry", "constraint_group", "method", "seed", "max_iters",
                        "initial_pattern", "best_pattern", "best_time", "best_value",
                        "trace", "evaluations", "time_polish", "wall_clock", "completed"),
    "PhaseFit": ("global_phase", "pair_phase_sign", "residual", "ok"),
    "PolishCounts": ("newton_steps", "bisections", "kept_incumbent"),
    "Probe2x2Result": ("supremum", "best_ratio", "best_time", "n_ratios", "n_times",
                       "ratio_range", "rows"),
    "SectorBasis": ("site_count", "k", "masks"),
    "SectorHamiltonian": ("basis", "mat"),
    "SectorState": ("basis", "amplitudes"),
    "SparseState": ("site_count", "masks", "amps"),
    "SpectrumGroup": ("eigenvalue", "multiplicity", "label", "vector_symmetries",
                      "max_symmetry_defect"),
    "SymmetryMap": ("name", "perm"),
    "WitnessSpec": ("n", "diagonal_state"),
    "apply_hamiltonian": ("graph", "psi"),
    "basis_state": ("basis", "mask"),
    "build_chain": ("n",),
    "build_rect_lattice": ("rows", "cols"),
    "build_sector_hamiltonian": ("graph", "k"),
    "build_square_lattice": ("n",),
    "build_witness": ("spec",),
    "chain_pattern": ("chain",),
    "check_symmetry": ("pattern", "sym", "tol"),
    "christandl_chain": ("n", "scale"),
    "classify_spectrum": ("pattern", "k", "sym", "degeneracy_tol"),
    "diagonal_basis_state": ("n", "bits"),
    "edge_orbits": ("geometry", "group"),
    "enumerate_sector_basis": ("site_count", "k"),
    "evaluate_objective": ("pattern", "objective", "counts"),
    "evolve": ("H", "psi", "t"),
    "evolve_sparse": ("graph", "psi", "t"),
    "evolve_state": ("graph", "psi", "t"),
    "from_sector_state": ("state",),
    "group_closure": ("maps",),
    "has_degenerate_mixed_group": ("groups",),
    "impossibility_certificate": ("pattern", "diag_initial", "mirror"),
    "manhattan_distance": ("geometry", "a", "b"),
    "measured_transfer_modulus": ("chain", "t"),
    "mirroring_report": ("pattern", "k", "sym", "t"),
    "optimize": ("run", "objective"),
    "optimize_with_restarts": ("geometry", "group", "objective", "seed", "n_restarts",
                               "max_iters", "initial_pattern"),
    "pair_sign": ("distance",),
    "parallel_chain_pattern": ("chain", "n_rows"),
    "pattern_from_graph": ("graph", "geometry"),
    "pattern_from_weights": ("geometry", "weights"),
    "permuted_ranks": ("basis", "sym"),
    "phase_network_fit": ("phases", "basis"),
    "phi_pair": ("sign",),
    "popcount": ("masks",),
    "probe_2x2": ("n_ratios", "n_times"),
    "product_lattice_couplings": ("row_chain", "col_chain"),
    "random_symmetric_pattern": ("geometry", "group", "seed", "coupling_range"),
    "symmetrize_pattern": ("pattern", "group"),
    "symmetry_map": ("geometry", "name"),
    "transfer_fidelity": ("pattern", "source", "target", "t"),
    "uniform_chain": ("n", "strength"),
    "uniform_pattern": ("geometry", "strength"),
    "verify_odd_distance": ("graph", "witness"),
    "verify_zero_energy": ("graph", "witness"),
    "witness_ceiling": ("pattern", "objective"),
    "witness_subspace_basis": ("n",),
}


def test_public_parameter_names_are_pinned():
    # names only: annotation text differs between Python versions
    found = {
        name: tuple(inspect.signature(obj).parameters)
        for name in spinmirror.__all__
        if callable(obj := getattr(spinmirror, name))
    }
    assert found == PUBLIC_PARAMETERS


def test_readme_library_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quickstart", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    assert "import" in block and "assert" in block
    exec(compile(block, "README.md", "exec"), {})


def test_benchmark_traced_names_are_distinct_public_functions():
    """Every per-function metric in BENCHMARK.json names a function the tracer wraps.

    perfbench's tracer wraps the public functions each module defines, plus
    two class members. A metric it finds no wrapper for ends a traced run
    with exit 4; an alias would count two names' calls under one.
    """
    members = {
        "sectors.SectorHamiltonian.eig": SectorHamiltonian.eig,
        "sectors.SparseState.init": SparseState.__init__,
    }
    traced = {}
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name, _, kind = metric["name"].rpartition(".")
        if kind not in ("calls", "self_s") or name.startswith("layer."):
            continue  # layer.<module>.self_s sums a whole module
        if name in members:
            traced[name] = members[name]
            continue
        module, _, attr = name.partition(".")
        mod = importlib.import_module(f"spinmirror.{module}")
        fn = getattr(mod, attr, None)
        assert inspect.isfunction(fn) and not attr.startswith("_"), name
        assert fn.__module__ == mod.__name__, f"{name} is defined in {fn.__module__}"
        traced[name] = fn
    assert {"dynamics.evolve_sparse", "dynamics.evolve_state"} <= set(traced)
    assert len({id(fn) for fn in traced.values()}) == len(traced)


@pytest.mark.parametrize(
    "name,argv",
    [
        ("chains.measured_transfer_modulus", ["chain", "--n", "2", "--points", "1"]),
        ("dynamics.transfer_fidelity", ["scan", "--pattern", "christandl-chain", "--n", "2",
                                        "--source", "0", "--target", "1", "--points", "1"]),
    ],
    ids=["chain", "transfer-scan"],
)
def test_benchmark_cli_jobs_reach_their_traced_functions(name, argv, monkeypatch):
    """The benchmark's chain and transfer-scan jobs call the function its metrics name.

    The function is wrapped in every spinmirror namespace that binds it, as
    perfbench's tracer wraps it; a job that no longer reaches it would end a
    traced run with exit 4.
    """
    module, _, attr = name.partition(".")
    original = getattr(importlib.import_module(f"spinmirror.{module}"), attr)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.partition(".")[0] == "spinmirror" and vars(mod).get(attr) is original:
            monkeypatch.setattr(mod, attr, wrapper)
    assert cli.main(argv) == 0
    assert calls

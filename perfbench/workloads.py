"""The benchmark's workloads: seeded inputs, job lists and checks.

Each workload is a fixed list of jobs run by one caller in a closed loop.
``mirror`` is the dense sector reports; ``sparse-sweep`` runs the sparse job
list (witnesses, large-sector evolution) and the sweep job list (many small
spectral problems from the CLI) in one loop, because the sweep jobs alone
moved by 30% between runs on a shared host (README.md). A
job's ``run`` is the timed user action; ``digest`` fingerprints its outputs
and ``check`` compares them with references. Both run outside the timed span.
Expensive references are computed here, during set-up, with the oracles in
``reference.py``, which share no code with the package.

Library calls go through module attributes (``sm.build_witness``,
``cli.main``) at call time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import spinmirror as sm
from spinmirror import cli

import reference as ref

SAMPLED_COLUMNS = 4  # mirror columns recomputed with expm_multiply per job
SAMPLED_ROWS = 8  # curve rows recomputed with expm per job
# witness jobs (one pattern each) per lattice side; with the sweep jobs, these
# counts put a 5x5 witness job, a SparseState-bound one, at the median latency
WITNESS_JOBS = {4: 3, 5: 4}
WITNESSES_PER_JOB = 3
EIG_DIM_MAX = 4096  # the scaling record decomposes no larger sector densely
NOMINAL_T = math.pi / 2  # perfect-transfer time of unit-scale engineered chains


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], list]


@dataclass
class Workload:
    jobs: list[Job]
    # (label, pattern, k) of every sector the jobs touch, for the scaling record
    sectors: list = field(default_factory=list)


def build(name: str, seed: int, outdir: str) -> Workload:
    """Seeded inputs, references and jobs of one workload; outputs go to outdir."""
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    return {"mirror": _mirror, "sparse-sweep": _sparse_sweep}[name](rng, outdir)


# -- job plumbing -------------------------------------------------------------


def _cli_job(name, argv, outdir, check) -> Job:
    """`spinmirror <argv> --out PREFIX`, run in-process; check(doc, rows)."""
    prefix = os.path.join(outdir, name)
    argv = list(argv) + ["--out", prefix]

    def run():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def digest(result):
        h = hashlib.sha256(repr(result).encode())
        for ext in (".json", ".csv"):
            if os.path.exists(prefix + ext):
                with open(prefix + ext, "rb") as f:
                    h.update(f.read())
        return h.hexdigest()

    def checked(result):
        code, _ = result
        if code != 0:
            return [f"exit code {code}"]
        with open(prefix + ".json") as f:
            doc = json.load(f)
        rows = []
        if os.path.exists(prefix + ".csv"):
            with open(prefix + ".csv", newline="") as f:
                rows = list(csv.DictReader(f))
        return check(doc, rows)

    return Job(name, run, digest, checked)


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _require(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# -- mirror: dense sector reports ---------------------------------------------


def _mirror(rng, outdir) -> Workload:
    product = ref.product_lattice(4)
    chain = ref.christandl_couplings(13)
    # a seeded rotation-symmetric 4x4 pattern: rotation by pi flips J and K
    A, B = rng.uniform(0.5, 1.5, (3, 4)), rng.uniform(0.5, 1.5, (4, 3))
    J, K = (A + A[::-1, ::-1]) / 2, (B + B[::-1, ::-1]) / 2
    t_file = float(rng.uniform(1.0, 2.0))
    path = os.path.join(outdir, "rotation-pattern.json")
    with open(path, "w") as f:
        json.dump({"schema_version": "1", "kind": "square", "n": 4,
                   "J": J.tolist(), "K": K.tolist()}, f)

    specs = [
        (f"product-4x4-k{k}", ["--pattern", "christandl-product", "--n", "4", "--k", str(k)],
         16, k, ref.lattice_edges(*product), NOMINAL_T, None)
        for k in (2, 3, 4)
    ]
    specs.append(("chain-13-k6", ["--pattern", "christandl-chain", "--n", "13", "--k", "6"],
                  13, 6, ref.chain_edges(chain), NOMINAL_T, _check_perfect_mirror))
    specs.append(("rotation-4x4-k4", ["--pattern-file", path, "--k", "4", "--t", repr(t_file)],
                  16, 4, ref.lattice_edges(J, K), t_file, None))
    jobs = []
    for name, argv, sites, k, edges, t, extra in specs:
        masks = ref.sector_masks(sites, k)
        columns = np.sort(rng.choice(len(masks), size=SAMPLED_COLUMNS, replace=False))
        targets, offmax = ref.mirror_entries(masks, edges, sites, t, columns)
        check = functools.partial(_check_mirror, masks, columns, targets, offmax, extra)
        jobs.append(_cli_job(name, ["mirror"] + argv, outdir, check))

    c4 = sm.christandl_chain(4)
    prod = sm.product_lattice_couplings(c4, c4)
    sectors = [("product-4x4", prod, k) for k in (2, 3, 4)]
    sectors.append(("chain-13", sm.chain_pattern(sm.christandl_chain(13)), 6))
    sectors.append(("rotation-4x4", sm.CouplingPattern(sm.build_square_lattice(4), J, K), 4))
    return Workload(jobs, sectors)


def _check_mirror(masks, columns, targets, offmax, extra, doc, rows):
    problems = []
    if len(rows) != len(masks):
        return [f"{len(rows)} CSV rows for a sector of dimension {len(masks)}"]
    _require(problems, [int(r["mask"]) for r in rows] == masks.tolist(),
             "CSV masks differ from the ascending sector basis")
    moduli = [float(r["modulus"]) for r in rows]
    _require(problems, doc["min_modulus"] == min(moduli), "min_modulus is not the CSV minimum")
    for x, expected in zip(columns, targets):
        r = rows[x]
        got = float(r["modulus"]) * complex(float(r["phase_re"]), float(r["phase_im"]))
        _require(problems, abs(got - expected) <= 1e-8,
                 f"U[mirror(x), x] at rank {x} is {got}, expm_multiply gives {expected}")
    _require(problems, doc["max_offtarget"] >= offmax - 1e-9,
             f"max_offtarget {doc['max_offtarget']} below a sampled off-target {offmax}")
    if extra is not None:
        problems += extra(doc)
    return problems


def _check_perfect_mirror(doc):
    problems = []
    _require(problems, doc["min_modulus"] >= 1 - 1e-9,
             f"chain mirror modulus {doc['min_modulus']} below 1-1e-9")
    fit = doc["phase_fit"]
    _require(problems, fit["ok"] and fit["residual"] <= 1e-8,
             f"phase fit residual {fit['residual']}")
    return problems


# -- sparse: witnesses and large-sector evolution -----------------------------


def _sparse(rng, outdir) -> Workload:
    jobs = []
    for n, count in WITNESS_JOBS.items():
        g = sm.build_square_lattice(n)
        for i in range(count):
            J = rng.uniform(0.5, 1.5, (n - 1, n))  # K = J^T: main-diagonal symmetric
            diagonals = []
            for _ in range(WITNESSES_PER_JOB):
                v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                diagonals.append(v / np.linalg.norm(v))
            jobs.append(_witness_job(f"witness-{n}x{n}-{i}", g, J, diagonals))
    uniform5 = (np.ones((4, 5)), np.ones((5, 4)))
    sectors = []
    for name, (J, K), k, t in (
        ("product-4x4-k5", ref.product_lattice(4), 5, NOMINAL_T),
        ("product-4x4-k6", ref.product_lattice(4), 6, NOMINAL_T),
        ("uniform-5x5-k4", uniform5, 4, 0.5),
    ):
        pattern = sm.CouplingPattern(sm.build_square_lattice(J.shape[1]), J, K)
        sites = pattern.geometry.site_count
        mask = int(sum(1 << int(p) for p in rng.choice(sites, size=k, replace=False)))
        masks = ref.sector_masks(sites, k)
        H = ref.sector_matrix(masks, ref.lattice_edges(J, K))
        expected = ref.propagate(H, [int(np.searchsorted(masks, mask))], t)[:, 0]
        jobs.append(_evolve_job(name, pattern, k, mask, t, masks, expected))
        sectors.append((name.rsplit("-", 1)[0], pattern, k))
    return Workload(jobs, sectors)


def _witness_job(name, g, J, diagonals) -> Job:
    """Criterion 06 for one pattern: each witness is annihilated and stays put,
    and the certificate for the diagonal state 10...0 reads impossible."""
    n = g.n
    pattern = sm.CouplingPattern(g, J, J.T)
    graph = pattern.to_graph()
    edges = ref.lattice_edges(J, J.T)

    def run():
        witnesses = []
        for amps in diagonals:
            diag = sm.SparseState(n, np.arange(2**n, dtype=np.int64), amps)
            w = sm.build_witness(sm.WitnessSpec(n, diag))
            witnesses.append((w, sm.verify_zero_energy(graph, w), sm.evolve_sparse(graph, w, 1.3)))
        cert = sm.impossibility_certificate(
            pattern, sm.diagonal_basis_state(n, "1" + "0" * (n - 1)),
            sm.symmetry_map(g, "rotation_pi"),
        )
        return witnesses, cert

    def digest(result):
        witnesses, cert = result
        parts = [cert]
        for w, residual, moved in witnesses:
            parts += [w.masks, w.amps, residual, moved.masks, moved.amps]
        return _fingerprint(*parts)

    def check(result):
        witnesses, cert = result
        problems = []
        for w, residual, moved in witnesses:
            _require(problems, len(w.masks) == ref.witness_support_size(n, 2**n),
                     f"witness support {len(w.masks)}")
            _require(problems, abs(np.linalg.norm(w.amps) - 1) <= 1e-12,
                     "witness not normalized")
            _require(problems, residual <= 1e-12, f"witness residual {residual}")
            _, hw = ref.apply_hamiltonian(edges, w.masks, w.amps)
            scale = max(1.0, sum(abs(e[2]) for e in edges))
            _require(problems, np.linalg.norm(hw) / scale <= 1e-12,
                     f"reference residual {np.linalg.norm(hw) / scale}")
            drift = ref.distance(moved.masks, moved.amps, w.masks, w.amps)
            _require(problems, drift <= 1e-9, f"witness moved by {drift} at t=1.3")
        _require(problems, cert.conclusion == "impossible", f"certificate {cert.conclusion}")
        _require(problems, cert.residual <= 1e-12 and cert.initial_target_overlap == 0.0,
                 f"certificate residual {cert.residual}, overlap {cert.initial_target_overlap}")
        return problems

    return Job(name, run, digest, check)


def _evolve_job(name, pattern, k, mask, t, masks, expected) -> Job:
    sites = pattern.geometry.site_count

    def run():
        return sm.evolve_state(pattern, sm.SparseState.unit(sites, mask), t)

    def digest(out):
        return _fingerprint(out.masks, out.amps)

    def check(out):
        problems = []
        norm = float(np.linalg.norm(out.amps))
        _require(problems, abs(norm - 1) <= 1e-9, f"norm {norm}")
        idx = np.searchsorted(masks, out.masks)
        if np.any(idx >= len(masks)) or not np.array_equal(masks[idx], out.masks):
            return problems + ["support outside the sector"]
        vec = np.zeros(len(masks), dtype=np.complex128)
        vec[idx] = out.amps
        err = float(np.linalg.norm(vec - expected))
        _require(problems, err <= 1e-8, f"{err} from expm_multiply")
        H = sm.build_sector_hamiltonian(pattern, k)
        dense = sm.evolve(H, sm.basis_state(H.basis, mask), t).amplitudes
        err = float(np.linalg.norm(vec - dense))
        _require(problems, err <= 1e-8, f"{err} from dense-array evolve")
        return problems

    return Job(name, run, digest, check)


# -- sweep: many small spectral problems --------------------------------------


def _sparse_sweep(rng, outdir) -> Workload:
    sparse, sweep = _sparse(rng, outdir), _sweep(rng, outdir)
    return Workload(sparse.jobs + sweep.jobs, sparse.sectors + sweep.sectors)


def _sweep(rng, outdir) -> Workload:
    source = int(rng.integers(16))
    target = 15 - source  # rotation by pi on the row-major 4x4 lattice
    product_edges = ref.lattice_edges(*ref.product_lattice(4))
    jobs = [
        _cli_job("chain-4-pst", ["optimize", "--preset", "chain-4-pst", "--restarts", "2"],
                 outdir, _check_chain4),
        _cli_job("rx-3x3-witness", ["optimize", "--preset", "rx-3x3-witness", "--restarts", "2"],
                 outdir, _check_rx),
        _cli_job("rodot-2x2-probe", ["optimize", "--preset", "rodot-2x2-probe"], outdir,
                 _check_probe),
        _cli_job("uniform-chain-6",
                 ["chain", "--n", "6", "--chain", "uniform", "--tmax", "200", "--points", "20000"],
                 outdir,
                 functools.partial(_check_curve, rng.integers(2**31), "modulus", "peak_modulus",
                                   ref.chain_edges(np.ones(5)), 6, 0, 5, None)),
        _cli_job("transfer-scan",
                 ["scan", "--pattern", "christandl-product", "--n", "4",
                  "--source", _site_4x4(source), "--target", _site_4x4(target)],
                 outdir,
                 functools.partial(_check_curve, rng.integers(2**31), "fidelity",
                                   "peak_fidelity", product_edges, 16, source, target, 1 - 1e-9)),
    ]
    g3, g2 = sm.build_square_lattice(3), sm.build_square_lattice(2)
    c4 = sm.christandl_chain(4)
    sectors = [
        ("chain-4", sm.chain_pattern(c4), 1),
        ("chain-6-uniform", sm.chain_pattern(sm.uniform_chain(6)), 1),
        ("uniform-3x3", sm.uniform_pattern(g3), 4),
        ("product-4x4", sm.product_lattice_couplings(c4, c4), 1),
    ]
    sectors += [("uniform-2x2", sm.uniform_pattern(g2), k) for k in (1, 2, 3)]
    return Workload(jobs, sectors)


def _site_4x4(flat: int) -> str:
    return f"{flat // 4 + 1},{flat % 4 + 1}"


def _check_chain4(doc, rows):
    problems = []
    _require(problems, doc["best_value"] >= 1 - 1e-8, f"chain-4 best {doc['best_value']}")
    _require(problems, len(rows) > 0, "empty optimizer trace")
    return problems


def _check_rx(doc, rows):
    problems = []
    _require(problems, doc["ceiling_respected"] is True, "witness ceiling not respected")
    _require(problems, doc["best_value"] <= doc["ceiling"] + 1e-9,
             f"best {doc['best_value']} above ceiling {doc['ceiling']}")
    _require(problems, len(doc["restarts"]) == 2, "expected two restarts")
    return problems


def _check_probe(doc, rows):
    problems = []
    _require(problems, 0.31 <= doc["supremum"] <= 0.34, f"probe supremum {doc['supremum']}")
    _require(problems, len(rows) == doc["n_ratios"] == 200, f"{len(rows)} probe rows")
    _require(problems, max(float(r["best_modulus"]) for r in rows) == doc["supremum"],
             "supremum is not the CSV maximum")
    return problems


def _check_curve(seed, column, peak_key, edges, sites, source, target, floor, doc, rows):
    """Peak consistency, an optional peak floor, and sampled rows against expm."""
    problems = []
    values = [float(r[column]) for r in rows]
    _require(problems, len(values) > 0, "empty curve")
    if not values:
        return problems
    _require(problems, doc[peak_key] == max(values), f"{peak_key} is not the CSV maximum")
    if floor is not None:
        _require(problems, doc[peak_key] >= floor, f"{peak_key} {doc[peak_key]} below {floor}")
    picks = np.random.default_rng(seed).choice(len(rows), size=SAMPLED_ROWS, replace=False)
    ts = [float(rows[i]["t"]) for i in picks]
    expected = ref.single_excitation_moduli(edges, sites, source, target, ts)
    for i, want in zip(picks, expected):
        _require(problems, abs(values[i] - want) <= 1e-9,
                 f"row {i}: {values[i]} against expm {want}")
    return problems


# -- scaling record -----------------------------------------------------------


def scaling_record(workload: Workload) -> list[dict]:
    """(dim, nnz, seconds) of build, eig and evolve for each sector touched."""
    out = []
    for label, pattern, k in workload.sectors:
        graph = pattern.to_graph()
        t0 = time.perf_counter()
        H = sm.build_sector_hamiltonian(graph, k)
        t1 = time.perf_counter()
        eig_s = None
        if H.dim <= EIG_DIM_MAX:
            H.eig()
            eig_s = time.perf_counter() - t1
        psi = sm.basis_state(H.basis, int(H.basis.masks[0]))
        t2 = time.perf_counter()
        sm.evolve(H, psi, 1.0)
        out.append({
            "sector": label, "k": k, "dim": H.dim, "nnz": int(H.mat.nnz),
            "build_s": t1 - t0, "eig_s": eig_s, "evolve_s": time.perf_counter() - t2,
        })
    return out

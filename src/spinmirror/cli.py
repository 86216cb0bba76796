"""Command line front end.

Exit codes: 0 for success (an inconclusive certificate is still success),
2 for invalid inputs or configuration, 3 for a numerical check that ran but
missed its required tolerance.

Every command accepts --out PREFIX and then writes PREFIX.json plus, for
tabular results, PREFIX.csv. Both are byte-identical across reruns with the
same arguments; the only timestamped artifact is the PREFIX.meta.json sidecar.
Randomized commands take a single 64-bit --seed feeding numpy's default PCG64
generator, so equal seeds give equal outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__, jsonio
from .chains import (
    chain_pattern,
    christandl_chain,
    measured_transfer_modulus,
    parallel_chain_pattern,
    product_lattice_couplings,
    uniform_chain,
)
from .dynamics import (
    _irrep_split,
    classify_spectrum,
    has_degenerate_mixed_group,
    mirror_propagator,
    mirroring_report,
    phase_network_fit,
    transfer_fidelity,
)
from .lattice import (
    SYMMETRY_NAMES,
    build_square_lattice,
    random_symmetric_pattern,
    symmetry_map,
    uniform_pattern,
)
from .optimizer import (
    PRESET_NAMES,
    preset_chain4,
    preset_rx_3x3_witness,
    probe_2x2,
)
from .witness import (
    WitnessSpec,
    build_witness,
    certificate_to_obj,
    diagonal_basis_state,
    impossibility_certificate,
    verify_odd_distance,
)


class ToleranceError(RuntimeError):
    """A computed quantity missed a tolerance the caller required."""


def _write_outputs(args, obj, csv=None, meta=None):
    """Print the JSON document, and persist it when --out was given.

    The document gets its schema_version here. meta adds run facts (backends,
    timings) to the .meta.json sidecar only, so the .json and .csv outputs
    stay byte-identical across reruns.
    """
    obj = dict(obj, schema_version=jsonio.SCHEMA_VERSION)
    if args.out:
        jsonio.write_json(args.out + ".json", obj)
        if csv is not None:
            header, rows = csv
            jsonio.write_csv(args.out + ".csv", header, rows)
        jsonio.write_meta(args.out + ".meta.json", argv=args.raw_argv, extra=meta)
        print(f"wrote {args.out}.json")
    else:
        sys.stdout.write(jsonio.canonical_dumps(obj))


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _read_flags(args, reads, ignored=(), chosen=""):
    """Fill in the defaults of the flags the chosen input reads.

    reads maps each flag it reads to its default; any flag of ignored that was
    given (is not None) exits 2, naming itself and what the chosen input reads.
    """
    for dest in ignored:
        if getattr(args, dest) is not None:
            which = f", which reads {', '.join(map(_flag, reads))}" if reads else ""
            raise ValueError(f"{_flag(dest)} does not apply to {chosen}{which}")
    for dest, default in reads.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


def _build_chain(args):
    """The chosen chain; the flag that only the other kind reads exits 2."""
    if args.n is None:
        raise ValueError("need --n")
    reads, other = ("scale", "strength") if args.chain == "christandl" else ("strength", "scale")
    _read_flags(args, {reads: 1.0}, (other,), f"--chain {args.chain}")
    build = christandl_chain if args.chain == "christandl" else uniform_chain
    return build(args.n, getattr(args, reads))


def _time_grid(tmax, points):
    """tmax/points, 2*tmax/points, ..., tmax; a bad --tmax or --points exits 2."""
    if points < 1:
        raise ValueError(f"--points must be at least 1, got {points}")
    if not (math.isfinite(tmax) and tmax > 0):
        raise ValueError(f"--tmax must be finite and positive, got {tmax}")
    return np.linspace(0.0, tmax, points + 1)[1:]


def cmd_chain(args):
    chain = _build_chain(args)
    ts = _time_grid(args.tmax, args.points)
    if chain.nominal_transfer_time is not None and chain.nominal_transfer_time <= args.tmax:
        ts = np.unique(np.append(ts, chain.nominal_transfer_time))
    mods = measured_transfer_modulus(chain, ts)
    i = int(np.argmax(mods))
    require = args.require_peak
    if require is None and chain.nominal_transfer_time is not None:
        require = 1 - 1e-10
    obj = {
        "chain": jsonio.chain_to_obj(chain),
        "kind": args.chain,
        "tmax": args.tmax,
        "points": len(ts),
        "peak_modulus": float(mods[i]),
        "peak_time": float(ts[i]),
        "required_peak": require,
        "peak_ok": None if require is None else bool(mods[i] >= require),
    }
    _write_outputs(args, obj, csv=(["t", "modulus"], zip(ts.tolist(), mods.tolist())))
    if require is not None and mods[i] < require:
        raise ToleranceError(
            f"peak transfer modulus {mods[i]:.12f} below required {require}"
        )


_PATTERN_PRESETS = (
    "christandl-chain",
    "uniform-chain",
    "christandl-product",
    "uniform-lattice",
    "parallel-chains",
)


def _resolve_pattern(args):
    """Pattern, its nominal time (or None), and a sensible default mirror."""
    if args.pattern_file:
        _read_flags(args, {}, ("n",), "--pattern-file")
        pat = jsonio.pattern_from_obj(jsonio.read_json(args.pattern_file))
        mirror = "vertical_axis" if pat.geometry.kind == "chain" else "rotation_pi"
        return pat, None, mirror
    name = args.pattern
    if name is None:
        raise ValueError("need --pattern or --pattern-file")
    _read_flags(args, {"n": 4})
    n = args.n
    if name == "christandl-chain":
        c = christandl_chain(n)
        return chain_pattern(c), c.nominal_transfer_time, "vertical_axis"
    if name == "uniform-chain":
        c = uniform_chain(n)
        return chain_pattern(c), c.nominal_transfer_time, "vertical_axis"
    if name == "christandl-product":
        c = christandl_chain(n)
        return product_lattice_couplings(c, c), c.nominal_transfer_time, "rotation_pi"
    if name == "uniform-lattice":
        return uniform_pattern(build_square_lattice(n)), None, "rotation_pi"
    if name == "parallel-chains":
        c = christandl_chain(n)
        return parallel_chain_pattern(c, 2), c.nominal_transfer_time, "vertical_axis"
    raise ValueError(f"unknown pattern preset {name!r}; choose from {_PATTERN_PRESETS}")


def cmd_mirror(args):
    pat, nominal, default_mirror = _resolve_pattern(args)
    _read_flags(args, {"k": 1})
    sym = symmetry_map(pat.geometry, args.mirror or default_mirror)
    t = args.t if args.t is not None else nominal
    if t is None:
        raise ValueError("this pattern has no nominal transfer time; pass --t")
    start = time.perf_counter()
    rep = mirroring_report(pat, args.k, sym, t)
    seconds = time.perf_counter() - start
    fit = phase_network_fit(rep.phases, rep.basis)
    obj = {
        "pattern_hash": jsonio.pattern_digest(pat),
        "k": rep.k,
        "t": rep.t,
        "mirror": rep.sym_name,
        "min_modulus": rep.min_modulus,
        "max_offtarget": rep.max_offtarget,
        "phase_fit": {
            "global_phase_re": fit.global_phase.real,
            "global_phase_im": fit.global_phase.imag,
            "pair_phase_sign": fit.pair_phase_sign,
            "residual": fit.residual,
            "ok": fit.ok,
        },
    }
    rows = zip(range(rep.basis.dim), rep.basis.masks.tolist(), rep.moduli.tolist(),
               rep.phases.real.tolist(), rep.phases.imag.tolist())
    meta = {
        "backend": rep.backend,
        "dim": rep.basis.dim,
        "block_dims": rep.block_dims,
        "block_solvers": rep.block_solvers,
        "group": rep.group,
        "seconds": seconds,
    }
    _write_outputs(
        args, obj, csv=(["rank", "mask", "modulus", "phase_re", "phase_im"], rows), meta=meta
    )
    if args.require_min is not None and rep.min_modulus < args.require_min:
        raise ToleranceError(
            f"min mirrored modulus {rep.min_modulus:.12f} below required {args.require_min}"
        )


def _witness_pattern(args, n, seed):
    g = build_square_lattice(n)
    if args.pattern == "uniform":
        return uniform_pattern(g)
    group = (symmetry_map(g, "main_diagonal"), symmetry_map(g, "anti_diagonal"))
    return random_symmetric_pattern(g, group, seed)


def cmd_witness(args):
    if args.odd_distance:
        _read_flags(args, {"diag": None}, ("n", "pattern", "seed", "seeds"), "--odd-distance")
        graph = jsonio.graph_from_obj(jsonio.read_json(args.odd_distance))
        n = math.isqrt(graph.site_count)
        diag = diagonal_basis_state(n, args.diag or "1" + "0" * (n - 1))
        w = build_witness(WitnessSpec(n, diag))
        residual = verify_odd_distance(graph, w)
        obj = {
            "mode": "odd_distance",
            "sites": graph.site_count,
            "residual": residual,
        }
        _write_outputs(args, obj)
        return
    _read_flags(args, {"n": 3, "pattern": "uniform"})
    if args.pattern == "uniform":
        # one pattern for every seed: a seed flag would only relabel it
        _read_flags(args, {}, ("seed", "seeds"), "--pattern uniform")
    _read_flags(args, {"seed": 0})
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    try:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds is not None else [args.seed]
    except ValueError:
        raise ValueError(f"--seeds must be a comma list of integers, got {args.seeds!r}") from None
    diag_bits = args.diag or "1" + "0" * (n - 1)
    diag = diagonal_basis_state(n, diag_bits)
    mirror = symmetry_map(build_square_lattice(n), "rotation_pi")
    certs = []
    for seed in seeds:
        pat = _witness_pattern(args, n, seed)
        certs.append((seed, impossibility_certificate(pat, diag, mirror)))
    obj = {
        "n": n,
        "diag": diag_bits,
        "pattern": args.pattern,
        "certificates": [
            dict(certificate_to_obj(c), seed=seed) for seed, c in certs
        ],
        "all_impossible": all(c.conclusion == "impossible" for _, c in certs),
    }
    rows = [
        (seed, c.residual, c.initial_target_overlap, c.conclusion)
        for seed, c in certs
    ]
    _write_outputs(
        args, obj, csv=(["seed", "residual", "overlap", "conclusion"], rows)
    )


def cmd_classify(args):
    if args.parallel_chains:
        pat = parallel_chain_pattern(christandl_chain(args.parallel_chains), 2)
    elif args.pattern_file:
        pat = jsonio.pattern_from_obj(jsonio.read_json(args.pattern_file))
    else:
        raise ValueError("need --parallel-chains N or --pattern-file")
    sym = symmetry_map(pat.geometry, args.sym)
    start = time.perf_counter()
    groups = classify_spectrum(pat, args.k, sym, degeneracy_tol=args.degeneracy_tol)
    seconds = time.perf_counter() - start
    dim = sum(g.multiplicity for g in groups)
    obj = {
        "pattern_hash": jsonio.pattern_digest(pat),
        "k": args.k,
        "sym": sym.name,
        "sector_dim": dim,
        "has_degenerate_mixed": has_degenerate_mixed_group(groups),
        "groups": [
            {
                "eigenvalue": g.eigenvalue,
                "multiplicity": g.multiplicity,
                "label": g.label,
                "max_symmetry_defect": g.max_symmetry_defect,
            }
            for g in groups
        ],
    }
    rows = [
        (g.eigenvalue, g.multiplicity, g.label, g.max_symmetry_defect) for g in groups
    ]
    block_dims = [sum(g.vector_symmetries.count(s) for g in groups) for s in (1, -1)]
    _write_outputs(
        args,
        obj,
        csv=(["eigenvalue", "multiplicity", "label", "max_symmetry_defect"], rows),
        meta={"dim": dim, "block_dims": block_dims, "seconds": seconds,
              "group": _irrep_split(pat, args.k, sym).group},
    )


# the flags each preset reads, with their values when not given
_SEARCH_FLAGS = {"seed": 0, "restarts": 8, "max_iters": 8}
_PROBE_FLAGS = {"ratios": 200, "times": 2000}


def cmd_optimize(args):
    preset = args.preset
    if preset is None:
        raise ValueError(f"need --preset; choose from {PRESET_NAMES}")
    probe = preset == "rodot-2x2-probe"
    reads, ignored = (_PROBE_FLAGS, _SEARCH_FLAGS) if probe else (_SEARCH_FLAGS, _PROBE_FLAGS)
    _read_flags(args, reads, ignored, f"preset {preset}")
    if probe:
        res = probe_2x2(n_ratios=args.ratios, n_times=args.times)
        obj = {
            "preset": preset,
            "note": "numerical evidence only, not a proof",
            "supremum": res.supremum,
            "best_ratio": res.best_ratio,
            "best_time": res.best_time,
            "n_ratios": res.n_ratios,
            "n_times": res.n_times,
            "ratio_range": list(res.ratio_range),
        }
        _write_outputs(
            args, obj, csv=(["ratio", "best_modulus", "best_time"], res.rows)
        )
        return
    if preset == "rx-3x3-witness":
        report, runs = preset_rx_3x3_witness(
            seed=args.seed, n_restarts=args.restarts, max_iters=args.max_iters
        )
        failed = not report["ceiling_respected"]
        message = (
            f"best value {report['best_value']:.3e} exceeds witness ceiling "
            f"{report['ceiling']:.3e}"
        )
    else:
        report, runs = preset_chain4(
            seed=args.seed, n_restarts=args.restarts, max_iters=args.max_iters
        )
        failed = report["best_value"] < 1 - 1e-8
        message = f"best mirrored fidelity {report['best_value']:.12f} below 1-1e-8"
    rows = []
    for ri, run in enumerate(runs):
        for (iteration, value, t, params) in run.trace:
            rows.append(
                (ri, iteration, value, t, ";".join(repr(float(p)) for p in params))
            )
    meta = {
        "wall_clock_s": sum(r.wall_clock for r in runs),
        "evaluations": sum(r.evaluations for r in runs),
        "evaluation_seconds": sum(r.evaluation_seconds for r in runs),
        "stationary_sectors": sum(r.time_polish.stationary_sectors for r in runs),
        "time_polish": {
            key: sum(getattr(r.time_polish, key) for r in runs)
            for key in ("newton_steps", "bisections", "kept_incumbent")
        },
    }
    _write_outputs(
        args, report, csv=(["restart", "iteration", "value", "time", "params"], rows), meta=meta
    )
    if failed:
        raise ToleranceError(message)


def _parse_site(text, flag):
    try:
        site = tuple(int(part) for part in text.split(","))
    except ValueError:
        site = ()
    if len(site) not in (1, 2):
        raise ValueError(f"{flag} must be a flat site or i,j, got {text!r}")
    return site if len(site) == 2 else site[0]


def cmd_scan(args):
    pat, nominal, default_mirror = _resolve_pattern(args)
    tmax = args.tmax
    if tmax is None:
        if nominal is None:
            raise ValueError("this pattern has no nominal transfer time; pass --tmax")
        tmax = 2 * nominal
    ts = _time_grid(tmax, args.points)
    if args.source is not None or args.target is not None:
        _read_flags(args, {"source": None, "target": None}, ("k", "mirror"), "a transfer scan")
        if args.source is None or args.target is None:
            raise ValueError("transfer scans need both --source and --target")
        src = _parse_site(args.source, "--source")
        dst = _parse_site(args.target, "--target")
        vals = transfer_fidelity(pat, src, dst, ts)
        i = int(np.argmax(vals))
        obj = {
            "mode": "transfer",
            "pattern_hash": jsonio.pattern_digest(pat),
            "source": str(args.source),
            "target": str(args.target),
            "tmax": tmax,
            "peak_fidelity": float(vals[i]),
            "peak_time": float(ts[i]),
        }
        _write_outputs(args, obj, csv=(["t", "fidelity"], zip(ts.tolist(), vals.tolist())))
        return
    _read_flags(args, {"k": 1})
    sym = symmetry_map(pat.geometry, args.mirror or default_mirror)
    amps = np.abs(mirror_propagator(pat, args.k, sym).amplitudes(ts))
    mins = amps.min(axis=0)
    means = amps.mean(axis=0)
    i = int(np.argmax(mins))
    obj = {
        "mode": "mirror",
        "pattern_hash": jsonio.pattern_digest(pat),
        "k": args.k,
        "mirror": sym.name,
        "tmax": tmax,
        "best_min_modulus": float(mins[i]),
        "best_time": float(ts[i]),
    }
    rows = zip(ts.tolist(), mins.tolist(), means.tolist())
    _write_outputs(args, obj, csv=(["t", "min_modulus", "mean_modulus"], rows))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinmirror",
        description="Mirror dynamics of XY exchange models on chains and square lattices.",
    )
    parser.add_argument("--version", action="version", version=f"spinmirror {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output prefix (writes PREFIX.json/.csv/.meta.json)")
        p.add_argument("--config", help="JSON file of default argument values")
        subparsers[name] = p
        return p

    def add_pattern_flags(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--pattern", choices=_PATTERN_PRESETS)
        source.add_argument("--pattern-file")
        p.add_argument("--n", type=int, help="preset size (default 4; presets only)")
        p.add_argument("--k", type=int, help="excitation number (default 1)")
        p.add_argument("--mirror", choices=SYMMETRY_NAMES)

    p = add("chain", cmd_chain, "scan end-to-end transfer of a coupling sequence")
    p.add_argument("--n", type=int, help="chain length (required)")
    p.add_argument("--chain", choices=("christandl", "uniform"), default="christandl")
    p.add_argument("--scale", type=float, help="christandl chains only (default 1)")
    p.add_argument("--strength", type=float, help="uniform chains only (default 1)")
    p.add_argument("--tmax", type=float, default=50.0)
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--require-peak", type=float, default=None,
                   help="exit 3 unless the peak reaches this (default: 1-1e-10 "
                        "when a nominal transfer time exists)")

    p = add("mirror", cmd_mirror, "mirrored-modulus report for one sector at one time")
    add_pattern_flags(p)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--require-min", type=float, default=None)

    p = add("witness", cmd_witness, "stationary-witness residuals and certificates")
    p.add_argument("--n", type=int, help="lattice side (default 3)")
    p.add_argument("--pattern", choices=("uniform", "random-rx"), help="default uniform")
    p.add_argument("--diag", default=None, help="diagonal bitstring, default 10...0")
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="pattern seed (default 0)")
    seeds.add_argument("--seeds", default=None, help="comma list for a batch of patterns")
    p.add_argument("--odd-distance", default=None,
                   help="graph JSON; verify the witness against long odd-distance edges")

    p = add("classify", cmd_classify, "degeneracy groups labelled by mirror symmetry")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--parallel-chains", type=int, default=None,
                        help="two uncoupled engineered chains of this length")
    source.add_argument("--pattern-file")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--sym", default="vertical_axis", choices=SYMMETRY_NAMES)
    p.add_argument("--degeneracy-tol", type=float, default=None)

    p = add("optimize", cmd_optimize, "preset coupling searches and grid probes")
    p.add_argument("--preset", choices=PRESET_NAMES, help="required")
    p.add_argument("--seed", type=int, help="search seed (default 0; searches only)")
    p.add_argument("--restarts", type=int, help="search restarts (default 8; searches only)")
    p.add_argument("--max-iters", type=int,
                   help="iterations per restart (default 8; searches only)")
    p.add_argument("--ratios", type=int, help="ratio grid size (default 200; probe only)")
    p.add_argument("--times", type=int, help="time grid size (default 2000; probe only)")

    p = add("scan", cmd_scan, "fidelity curves over a time grid")
    add_pattern_flags(p)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=500)
    p.add_argument("--source", default=None, help="flat site or i,j (transfer mode)")
    p.add_argument("--target", default=None, help="flat site or i,j (transfer mode)")

    return parser, subparsers


def _apply_config(parser, subparsers, argv):
    """Parse argv with the --config entries read as flags right after the command.

    Explicit flags come later and win; config values are checked as flags are,
    and a null keeps the default. Keys must name a flag exactly.
    """
    probe = parser.parse_args(argv)
    if not probe.config:
        return probe
    cfg = jsonio.read_json(probe.config)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    flags = {a.dest: a.option_strings[-1] for a in subparsers[probe.command]._actions
             if a.dest not in ("help", "config")}
    tokens = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in flags:
            raise ValueError(f"unknown config key {key!r} for command {probe.command!r}")
        if value is not None:
            tokens.append(f"{flags[dest]}={value}")
    at = argv.index(probe.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        args = _apply_config(parser, subparsers, argv)
        args.raw_argv = ["spinmirror"] + argv
        args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ToleranceError as e:
        print(f"tolerance failure: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

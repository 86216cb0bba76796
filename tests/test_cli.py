import importlib.metadata
import json
import math
import os
import resource
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
import scipy

from spinmirror import __version__, jsonio, sectors
from spinmirror.cli import build_parser, main
from spinmirror.chains import chain_pattern, christandl_chain
from spinmirror.lattice import (
    SYMMETRY_NAMES,
    ExchangeGraph,
    build_rect_lattice,
    build_square_lattice,
    manhattan_distance,
    random_symmetric_pattern,
    symmetry_map,
    uniform_pattern,
)


def run(*argv):
    return main(list(argv))


def test_version_flag_in_process(capsys):
    assert run("--version") == 0
    assert "spinmirror" in capsys.readouterr().out


def test_console_script_runs():
    """The installed entry point, run from this interpreter's scripts directory.

    A bare `spinmirror` from PATH could belong to another install, so the
    script is looked up next to the running interpreter.
    """
    try:
        dist = importlib.metadata.distribution("spinmirror")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("the spinmirror distribution is not installed (pip install -e .)")
    scripts = [
        ep.value
        for ep in dist.entry_points
        if ep.group == "console_scripts" and ep.name == "spinmirror"
    ]
    assert scripts == ["spinmirror.cli:main"]
    scripts_dir = sysconfig.get_path("scripts")
    exe = shutil.which("spinmirror", path=scripts_dir)
    assert exe is not None, f"no spinmirror script in {scripts_dir}"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("spinmirror")
    assert __version__ in proc.stdout, proc.stdout


def test_missing_required_argument_exits_2():
    assert run("chain") == 2


def test_chain_rejects_length_one():
    assert run("chain", "--n", "1") == 2


def test_chain_uniform_two_sites_passes(capsys):
    assert run("chain", "--n", "2", "--chain", "uniform") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["peak_modulus"] >= 1 - 1e-10
    assert doc["peak_time"] == pytest.approx(math.pi / 4, rel=1e-9)
    assert doc["peak_ok"] is True


def test_chain_tolerance_failure_exits_3(capsys):
    code = run("chain", "--n", "4", "--chain", "uniform", "--require-peak", "0.99999999")
    assert code == 3
    doc = json.loads(capsys.readouterr().out)  # report still written before exit
    assert doc["peak_ok"] is False


def test_mirror_needs_a_time_for_uniform_lattice():
    assert run("mirror", "--pattern", "uniform-lattice", "--n", "2") == 2


def test_mirror_needs_a_pattern():
    assert run("mirror") == 2


def test_mirror_missing_pattern_file_exits_2():
    assert run("mirror", "--pattern-file", "/nonexistent/pattern.json") == 2


def test_mirror_product_lattice_outputs(tmp_path):
    prefix = tmp_path / "mir"
    code = run("mirror", "--pattern", "christandl-product", "--n", "3",
               "--k", "1", "--out", str(prefix))
    assert code == 0
    doc = json.loads((tmp_path / "mir.json").read_text())
    assert doc["schema_version"] == "1"
    assert doc["min_modulus"] >= 1 - 1e-9
    assert doc["phase_fit"]["ok"] is True
    lines = (tmp_path / "mir.csv").read_text().splitlines()
    assert lines[0] == "rank,mask,modulus,phase_re,phase_im"
    assert len(lines) == 1 + 9  # k=1 on a 3x3 lattice
    meta = json.loads((tmp_path / "mir.meta.json").read_text())
    assert meta["argv"][0] == "spinmirror"
    assert "timestamp" in meta


MIRROR_KEYS = {"schema_version", "pattern_hash", "k", "t", "mirror", "min_modulus",
               "max_offtarget", "phase_fit"}


@pytest.mark.parametrize("k, t", [("0", None), ("9", None), ("0", "0"), ("9", "0")])
def test_mirror_edge_sectors_on_parity_blocks(tmp_path, k, t):
    # k=0 and k=M are one fixed basis state with an empty - block
    prefix = tmp_path / "edge"
    argv = ["mirror", "--pattern", "christandl-product", "--n", "3", "--k", k]
    assert run(*argv, *(["--t", t] if t else []), "--out", str(prefix)) == 0
    doc = json.loads((tmp_path / "edge.json").read_text())
    assert set(doc) == MIRROR_KEYS
    assert doc["min_modulus"] == 1.0 and doc["max_offtarget"] == 0.0
    meta = json.loads((tmp_path / "edge.meta.json").read_text())
    assert meta["backend"] == "parity-blocks"
    assert meta["dim"] == 1 and meta["block_dims"] == [1, 0]


def test_mirror_at_time_zero_reads_the_identity(capsys):
    # U = 1: every paired state has target 0 and its own diagonal entry 1 off target
    assert run("mirror", "--pattern", "christandl-product", "--n", "3", "--k", "2",
               "--t", "0") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == MIRROR_KEYS
    assert doc["min_modulus"] < 1e-12
    assert abs(doc["max_offtarget"] - 1.0) < 1e-12


def test_mirror_sidecar_names_the_backend(tmp_path):
    prefix = tmp_path / "side"
    assert run("mirror", "--pattern", "christandl-product", "--n", "3", "--k", "2",
               "--out", str(prefix)) == 0
    meta = json.loads((tmp_path / "side.meta.json").read_text())
    assert meta["backend"] == "parity-blocks"
    assert meta["dim"] == 36 and sum(meta["block_dims"]) == 36
    assert meta["seconds"] >= 0
    # a lattice whose couplings break the rotation is one full-sector block
    assert run("mirror", "--pattern-file", asymmetric_3x3_file(tmp_path), "--k", "2",
               "--t", "0.7", "--out", str(prefix)) == 0
    meta = json.loads((tmp_path / "side.meta.json").read_text())
    assert meta["backend"] == "full-sector" and meta["block_dims"] == [36]


@pytest.mark.parametrize("n, k, solvers", [("3", "2", ["eigh", "eigh"]), ("4", "3", ["gram", "gram"])])
def test_mirror_sidecar_names_the_block_solvers(tmp_path, n, k, solvers):
    # the 3x3 blocks sit below the size floor; the 4x4 k=3 blocks of 280 are
    # solved through the sublattice grading
    prefix = tmp_path / "solvers"
    assert run("mirror", "--pattern", "christandl-product", "--n", n, "--k", k,
               "--out", str(prefix)) == 0
    meta = json.loads((tmp_path / "solvers.meta.json").read_text())
    assert meta["block_solvers"] == solvers and len(meta["block_dims"]) == 2


@pytest.mark.parametrize("argv, group", [
    (("mirror", "--pattern", "christandl-product", "--n", "4", "--k", "4"),
     ["rotation_pi", "horizontal_axis"]),
    (("mirror", "--pattern", "christandl-product", "--n", "4", "--k", "3"), ["rotation_pi"]),
    (("mirror", "--pattern-file", "asymmetric", "--k", "2", "--t", "0.7"), []),
    (("classify", "--pattern-file", "rect", "--k", "4", "--sym", "rotation_pi"),
     ["rotation_pi", "horizontal_axis"]),
    (("classify", "--parallel-chains", "4", "--k", "2", "--sym", "vertical_axis"), ["vertical_axis"]),
])
def test_sidecars_name_the_reflection_group(tmp_path, argv, group):
    # the product lattice at odd k, where h flips each state's side, keeps {1, P}
    files = {"asymmetric": asymmetric_3x3_file(tmp_path), "rect": str(tmp_path / "rect.json")}
    rect = build_rect_lattice(3, 4)
    reflections = (symmetry_map(rect, "vertical_axis"), symmetry_map(rect, "horizontal_axis"))
    jsonio.write_json(files["rect"],
                      jsonio.pattern_to_obj(random_symmetric_pattern(rect, reflections, 6)))
    prefix = tmp_path / "group"
    assert run(*(files.get(a, a) for a in argv), "--out", str(prefix)) == 0
    meta = json.loads((tmp_path / "group.meta.json").read_text())
    assert meta["group"] == group
    if argv[0] == "mirror":
        assert len(meta["block_dims"]) == len(meta["block_solvers"]) == max(2 ** len(group), 1)


def test_a_graded_block_is_charged_for_its_coupling(monkeypatch, capsys):
    # the 4x4 product lattice at k=4 has four graded blocks, the largest of 476
    # with a 252 x 224 coupling, charged 8 (2 e o + 5 min(e, o)^2 + 1024 d) bytes
    # (6.81 MB); as a dense eigh block it would be charged 5.3 x 8 x 476^2
    # (9.61 MB), past the 7 MB here
    monkeypatch.setattr(sectors, "_available_bytes", lambda: 7_000_000)
    assert run("mirror", "--pattern", "christandl-product", "--n", "4", "--k", "4") == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["min_modulus"] > 0 and err == ""


def asymmetric_3x3_file(tmp_path):
    pattern = tmp_path / "asym.json"
    pattern.write_text(json.dumps({"schema_version": "1", "kind": "square", "n": 3,
                                   "J": [[1, 2, 3], [4, 5, 6]], "K": [[1, 2], [3, 4], [5, 6]]}))
    return str(pattern)


@pytest.mark.parametrize("shift", [-1, 0])
@pytest.mark.parametrize("source, block", [
    (("--pattern", "christandl-product", "--n", "3"), 66),  # blocks 66 + 60 at k=4
    ("asymmetric", 126),  # one block of 126
])
def test_mirror_refuses_a_block_past_available_memory(tmp_path, monkeypatch, capsys,
                                                      source, block, shift):
    # one byte short of the largest block's estimated peak refuses; exactly it
    # runs. Both blocks are graded: their couplings are 36 x 30 and 66 x 60
    even = {66: 36, 126: 66}[block]
    odd = block - even
    need = 8 * (2 * even * odd + 5 * min(even, odd) ** 2 + 1024 * block)
    monkeypatch.setattr(sectors, "_available_bytes", lambda: need + shift)
    if source == "asymmetric":
        source = ("--pattern-file", asymmetric_3x3_file(tmp_path))
    code = run("mirror", *source, "--k", "4", "--t", "0.7")
    out, err = capsys.readouterr()
    if shift < 0:
        assert code == 2 and out == ""
        assert f"dimension {block} needs about {need} bytes" in err
        assert f"{need - 1} bytes of memory are available" in err
    else:
        assert code == 0
        assert json.loads(out)["min_modulus"] > 0


def nearly_rotation_symmetric_3x3_file(tmp_path):
    # rotation by pi maps J[i, j] to J[1 - i, 2 - j]; one coupling is a bit off
    J, K = [[1.0, 1.5, 0.75], [0.75, 1.5, 1.0]], [[0.5, 1.25], [2.0, 2.0], [1.25, 0.5]]
    J[0][0] = float(np.nextafter(1.0, 2.0))
    pattern = tmp_path / "nearly.json"
    pattern.write_text(json.dumps({"schema_version": "1", "kind": "square", "n": 3,
                                   "J": J, "K": K}))
    return str(pattern)


@pytest.mark.parametrize("command", ["scan", "classify"])
def test_a_dense_sector_past_available_memory_exits_2(tmp_path, monkeypatch, capsys, command):
    # both diagonalize the whole k=4 sector of the 3x3 lattice, dimension 126:
    # scan in mirror mode for its curve, classify because the mirror commutes
    # with H only to within rounding
    need = int(sectors._BLOCK_PEAK_FACTOR * 8 * 126 * 126)
    monkeypatch.setattr(sectors, "_available_bytes", lambda: need - 1)
    if command == "scan":
        argv = ("scan", "--pattern", "uniform-lattice", "--n", "3", "--k", "4",
                "--tmax", "1", "--points", "3")
    else:
        argv = ("classify", "--pattern-file", nearly_rotation_symmetric_3x3_file(tmp_path),
                "--k", "4", "--sym", "rotation_pi")
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"a dense block of dimension 126 needs about {need} bytes at peak" in err
    assert f"{need - 1} bytes of memory are available" in err


def test_mirror_require_min_exits_3(tmp_path):
    code = run("mirror", "--pattern", "uniform-lattice", "--n", "3", "--k", "1",
               "--t", "1.0", "--require-min", "0.999")
    assert code == 3


def test_witness_default_certificate(capsys):
    assert run("witness", "--n", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_impossible"] is True
    assert doc["certificates"][0]["conclusion"] == "impossible"
    assert doc["certificates"][0]["initial_target_overlap"] == 0.0


def test_witness_outputs_reproducible(tmp_path):
    argv = ("witness", "--n", "2", "--pattern", "random-rx", "--seeds", "0,1,2")
    assert run(*argv, "--out", str(tmp_path / "a")) == 0
    assert run(*argv, "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["all_impossible"] is True
    assert len(doc["certificates"]) == 3
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == "seed,residual,overlap,conclusion"
    assert len(lines) == 4


def test_witness_odd_distance_round_trip(tmp_path):
    graph = uniform_pattern(build_square_lattice(3)).to_graph()
    path = tmp_path / "graph.json"
    jsonio.write_json(str(path), jsonio.graph_to_obj(graph))
    assert run("witness", "--odd-distance", str(path)) == 0

    g = build_square_lattice(3)
    bad = ExchangeGraph(9, ((g.flat(1, 1), g.flat(1, 3), 1.0),))
    bad_path = tmp_path / "bad.json"
    jsonio.write_json(str(bad_path), jsonio.graph_to_obj(bad))
    assert run("witness", "--odd-distance", str(bad_path)) == 2


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (("mirror", "--t", "1", "--pattern-file"), {"kind": "square"}, "lacks the key(s) ['n', 'J', 'K']"),
        (("classify", "--k", "1", "--pattern-file"), {"kind": "rect", "rows": 2, "cols": 2},
         "lacks the key(s) ['J', 'K']"),
        (("mirror", "--t", "1", "--pattern-file"), {"n": 3}, "lacks the key(s) ['kind']"),
        (("mirror", "--t", "1", "--pattern-file"), [1, 2], "pattern document must hold a JSON object"),
        (("witness", "--odd-distance"), {"sites": 4}, "graph document lacks the key(s) ['edges']"),
        (("witness", "--odd-distance"), "graph", "graph document must hold a JSON object"),
        (("witness", "--odd-distance"), {"sites": 4, "edges": 5},
         "graph key 'edges' must be a list of [a, b, strength] triples"),
        (("witness", "--odd-distance"), {"sites": 4, "edges": [[0, 1]]},
         "graph key 'edges' must be a list of [a, b, strength] triples"),
        (("witness", "--odd-distance"), {"sites": 4, "edges": [[0, 1.5, 1.0]]},
         "an endpoint in graph key 'edges' must be a JSON integer, got 1.5"),
        (("witness", "--odd-distance"), {"sites": 4, "edges": [[0, 1, "1"]]},
         "a strength in graph key 'edges' must be a JSON number, got '1'"),
        (("witness", "--odd-distance"), {"sites": 4.0, "edges": []},
         "graph key 'sites' must be a JSON integer, got 4.0"),
        (("mirror", "--t", "1", "--pattern-file"), {"kind": "square", "n": None, "J": [], "K": []},
         "pattern key 'n' must be a JSON integer, got None"),
        (("classify", "--k", "1", "--pattern-file"),
         {"kind": "square", "n": 2.7, "J": [[1, 1]], "K": [[1], [1]]},
         "pattern key 'n' must be a JSON integer, got 2.7"),
        (("mirror", "--t", "1", "--pattern-file"), {"kind": "chain", "n": True, "couplings": []},
         "pattern key 'n' must be a JSON integer, got True"),
        (("classify", "--k", "1", "--pattern-file"),
         {"kind": "rect", "rows": 1, "cols": "3", "J": [], "K": [[1, 1]]},
         "pattern key 'cols' must be a JSON integer, got '3'"),
        (("classify", "--k", "1", "--pattern-file"),
         {"kind": "rect", "rows": 2, "cols": 2, "J": [[1, 1]], "K": [[1], [1]], "n": 5},
         "unknown keys in 'rect' pattern document: ['n']"),
        (("mirror", "--t", "1", "--pattern-file"),
         {"kind": "chain", "n": 3, "couplings": [1, 1], "J": []},
         "unknown keys in 'chain' pattern document: ['J']"),
        (("mirror", "--t", "1", "--pattern-file"),
         {"kind": "square", "n": 2, "J": [[1, 1]], "K": [[1], [1]], "rows": 2, "couplings": []},
         "unknown keys in 'square' pattern document: ['couplings', 'rows']"),
    ],
    ids=["square-no-n", "rect-no-couplings", "no-kind", "list", "graph-no-edges", "graph-string",
         "graph-edges-number", "graph-edge-pair", "graph-float-endpoint", "graph-string-strength",
         "graph-float-sites", "square-null-n", "square-float-n", "chain-bool-n",
         "rect-string-cols", "rect-with-n", "chain-with-J", "square-with-rows"],
)
def test_incomplete_pattern_or_graph_document_exits_2_naming_the_key(tmp_path, capsys, command,
                                                                      doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(*command, str(path)) == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""


@pytest.mark.parametrize("flags, flag", [
    (("--n", "0"), "--n"),
    pytest.param(("--n", "2", "--pattern", "random-rx", "--seeds", "1,,2"),
                 "--seeds must be a comma list of integers, got '1,,2'", id="seeds-double-comma"),
    # an empty list is refused, not read as the --seed default
    pytest.param(("--n", "2", "--pattern", "random-rx", "--seeds", ""),
                 "--seeds must be a comma list of integers, got ''", id="seeds-empty"),
    pytest.param(("--n", "2", "--pattern", "random-rx", "--seeds", ","),
                 "--seeds must be a comma list of integers, got ','", id="seeds-comma"),
    # the same refusal at the default n = 3
    pytest.param(("--pattern", "random-rx", "--seeds", "1,,2"),
                 "--seeds must be a comma list of integers, got '1,,2'",
                 id="seeds-double-comma-n3"),
])
def test_witness_bad_side_or_seed_list_exits_2_naming_the_flag(capsys, flags, flag):
    assert run("witness", *flags) == 2
    out, err = capsys.readouterr()
    assert flag in err and out == ""


@pytest.mark.parametrize("flags, flag", [(("--seeds", "1,2"), "--seeds"), (("--seed", "1"), "--seed")])
def test_uniform_witness_refuses_seed_flags(capsys, flags, flag):
    # the uniform pattern reads no seed: a seed would only relabel one certificate
    assert run("witness", "--n", "2", *flags) == 2
    out, err = capsys.readouterr()
    assert f"{flag} does not apply to --pattern uniform" in err and out == ""


def run_under_1gb_cap(*argv):
    """The CLI in a child process under a 1 GB address-space cap."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "spinmirror.cli", *argv],
        capture_output=True, text=True, preexec_fn=cap, timeout=120, env=env,
    )


def test_witness_past_the_site_limit_exits_2_before_allocating():
    # an 8x8 witness would need 2^28-entry products; under a 1 GB address-space
    # cap the check must come first, so a missed check fails here, not the host
    proc = run_under_1gb_cap("witness", "--n", "8")
    assert proc.returncode == 2, proc.stderr
    assert "64 sites" in proc.stderr and "at most 63" in proc.stderr


def test_witness_hops_past_the_address_space_cap_exit_2_before_they_are_built():
    # the 7x7 witness has 2^21 masks and 84 live edges: about 5.6 GB at peak
    proc = run_under_1gb_cap("witness", "--n", "7")
    assert proc.returncode == 2, proc.stderr
    assert "the hops of 2097152 masks across 84 edges need about 5637144576 bytes" in proc.stderr


def test_witness_past_available_memory_exits_2_before_building_hops(monkeypatch, capsys):
    # the 5x5 witness has 1024 masks and 40 live edges: 32 bytes each at peak
    monkeypatch.setattr(sectors, "_available_bytes", lambda: 1000)
    sectors._support_structure.cache_clear()
    assert run("witness", "--n", "5") == 2
    out, err = capsys.readouterr()
    assert "the hops of 1024 masks across 40 edges need about 1310720 bytes at peak" in err
    assert "1000 bytes of memory are available" in err and out == ""
    assert sectors._support_structure.cache_info().currsize == 0


def test_classify_parallel_chains(tmp_path):
    prefix = tmp_path / "cls"
    assert run("classify", "--parallel-chains", "3", "--k", "1", "--out", str(prefix)) == 0
    doc = json.loads((tmp_path / "cls.json").read_text())
    assert doc["sector_dim"] == 6
    assert sum(g["multiplicity"] for g in doc["groups"]) == 6
    assert all(g["label"] in ("+1", "-1", "mixed") for g in doc["groups"])
    assert isinstance(doc["has_degenerate_mixed"], bool)
    lines = (tmp_path / "cls.csv").read_text().splitlines()
    assert len(lines) == 1 + len(doc["groups"])
    meta = json.loads((tmp_path / "cls.meta.json").read_text())
    # the mirror fixes each chain's middle site: 2 pairs + 2 fixed (+1), 2 pairs (-1)
    assert meta["dim"] == 6 and meta["block_dims"] == [4, 2]
    assert meta["seconds"] >= 0


@pytest.mark.parametrize("tol, code", [("nan", 2), ("inf", 2), ("-1", 2), ("0", 0)])
def test_classify_validates_the_degeneracy_tolerance(capsys, tol, code):
    argv = ("classify", "--parallel-chains", "4", "--k", "2", "--degeneracy-tol", tol)
    assert run(*argv) == code
    out, err = capsys.readouterr()
    if code:
        assert "--degeneracy-tol must be finite and non-negative" in err and out == ""
    else:
        # 0 groups only neighbours within 1e-12: the default's 7 groups stay
        doc = json.loads(out)
        assert len(doc["groups"]) == 7 and doc["has_degenerate_mixed"] is True


def test_classify_needs_a_source():
    assert run("classify") == 2


def test_scan_transfer_hits_the_nominal_time(tmp_path):
    prefix = tmp_path / "scan"
    code = run("scan", "--pattern", "christandl-chain", "--n", "4",
               "--source", "1,1", "--target", "1,4", "--points", "500",
               "--out", str(prefix))
    assert code == 0
    doc = json.loads((tmp_path / "scan.json").read_text())
    assert doc["mode"] == "transfer"
    assert doc["peak_fidelity"] >= 1 - 1e-10
    assert doc["peak_time"] == pytest.approx(math.pi / 2, abs=1e-6)
    assert len((tmp_path / "scan.csv").read_text().splitlines()) == 501


def test_scan_mirror_mode(capsys):
    assert run("scan", "--pattern", "christandl-product", "--n", "2",
               "--k", "1", "--points", "200") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "mirror"
    assert doc["best_min_modulus"] >= 1 - 1e-9


@pytest.mark.parametrize("pattern, code", [("christandl-product", 0), ("christandl-chain", 2)])
def test_scan_takes_every_mirror_name(pattern, code, capsys):
    assert run("scan", "--pattern", pattern, "--n", "3", "--mirror", "main_diagonal",
               "--points", "20") == code
    out, err = capsys.readouterr()
    if code:
        assert "requires a square geometry" in err
    else:
        assert json.loads(out)["mirror"] == "main_diagonal"


def test_mirror_choices_are_the_symmetry_names():
    _, subparsers = build_parser()
    for command, dest in (("mirror", "mirror"), ("classify", "sym"), ("scan", "mirror")):
        action = next(a for a in subparsers[command]._actions if a.dest == dest)
        assert tuple(action.choices) == SYMMETRY_NAMES


def test_scan_transfer_takes_a_lattice_past_63_sites(capsys):
    assert run("scan", "--pattern", "uniform-lattice", "--n", "8", "--source", "1,1",
               "--target", "8,8", "--tmax", "10") == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "transfer"


def test_scan_transfer_needs_both_sites():
    assert run("scan", "--pattern", "christandl-chain", "--n", "3", "--source", "1") == 2


def test_scan_uniform_lattice_needs_tmax():
    assert run("scan", "--pattern", "uniform-lattice", "--n", "2", "--k", "1") == 2


@pytest.mark.parametrize("source,target", [("0", "99"), ("-1", "0")])
def test_scan_rejects_flat_sites_outside_the_lattice(source, target, capsys):
    code = run("scan", "--pattern", "christandl-chain", "--n", "5",
               "--source", source, "--target", target)
    assert code == 2
    assert "outside 0..4" in capsys.readouterr().err


@pytest.mark.parametrize("flag,site", [("--source", "a"), ("--source", "1,x"),
                                       ("--source", "1,2,3"), ("--target", "1,2,3")])
def test_scan_names_the_flag_of_a_malformed_site(flag, site, capsys):
    sites = {"--source": "1,1", "--target": "1,5", flag: site}
    code = run("scan", "--pattern", "christandl-chain", "--n", "5",
               "--source", sites["--source"], "--target", sites["--target"])
    assert code == 2
    assert f"{flag} must be a flat site or i,j, got {site!r}" in capsys.readouterr().err


_CHAIN4 = ("chain", "--n", "4")
_SCAN4 = ("scan", "--pattern", "christandl-chain", "--n", "4", "--source", "0", "--target", "3")
_MIRROR3 = ("mirror", "--pattern", "christandl-chain", "--n", "3")


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (_CHAIN4 + ("--points", "0"), 2, "--points"),
        (_CHAIN4 + ("--tmax", "nan"), 2, "--tmax"),
        (_CHAIN4 + ("--tmax", "-5"), 2, "--tmax"),
        (_CHAIN4 + ("--tmax", "0"), 2, "--tmax"),
        (_SCAN4 + ("--points", "0"), 2, "--points"),
        (_SCAN4 + ("--tmax", "inf"), 2, "--tmax"),
        (("scan", "--pattern", "christandl-product", "--n", "2", "--tmax", "nan"), 2, "--tmax"),
        (_MIRROR3 + ("--t", "inf"), 2, "finite"),
        (_MIRROR3 + ("--t", "nan"), 2, "finite"),
        (_MIRROR3 + ("--t", "0"), 0, None),
    ],
)
def test_time_inputs_are_validated(argv, code, message, capsys):
    assert run(*argv) == code
    err = capsys.readouterr().err
    if message is None:
        assert err == ""
    else:
        assert message in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (("--scale", "inf"), "scale must be finite and positive, got inf"),
        (("--scale", "nan"), "scale must be finite and positive, got nan"),
        (("--chain", "uniform", "--strength", "inf"), "strength must be finite and positive, got inf"),
        (("--chain", "uniform", "--strength", "1e308"), "hopping elements 2c must be finite"),
        (("--scale", "1e-320"), "transfer time must be finite and positive, got inf"),
    ],
    ids=["scale-inf", "scale-nan", "strength-inf", "strength-2c-overflows", "scale-subnormal"],
)
def test_chain_refuses_a_chain_without_finite_couplings_and_time(flags, message, capsys):
    assert run("chain", "--n", "6", *flags) == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""


def test_curves_diagonalize_once(monkeypatch):
    """A curve is one eigendecomposition, not one per time point."""
    counts = {"eigh": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    assert run("chain", "--n", "6", "--chain", "uniform", "--tmax", "200",
               "--points", "20000") == 0
    assert counts["eigh"] == 1
    assert run("scan", "--pattern", "christandl-chain", "--n", "5",
               "--source", "1,1", "--target", "1,5") == 0
    assert counts["eigh"] == 2


def test_readme_cli_quickstart_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI quickstart", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("spinmirror ")]
    assert len(lines) == 9
    parser, _ = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


# sha256 of the stdout and of each .json/.csv output of the README examples,
# run in one process with one BLAS thread on the versions below. The k=5
# mirror report, two graded blocks of 2184, takes about 2 s of it.
README_DIGEST_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1", "OpenBLAS": "0.3.31"}
README_DIGESTS = {
    "spinmirror chain --n 8 --chain christandl": {
        "stdout": "a3050e1e60a0d7d94fda1f40bc5821d671de7325900329ded8a8760ece30e926",
    },
    "spinmirror chain --n 6 --chain uniform --tmax 200 --points 20000": {
        "stdout": "12d7b07bd648cb2a7dfe8b5c70ffc956d12665fd36059883f87915639cf2eba2",
    },
    "spinmirror mirror --pattern parallel-chains --n 4 --k 2": {
        "stdout": "b8ca62a1aa3531a6c0a39b0d544c6871ee484b9761ebda94953942ba28934967",
    },
    "spinmirror mirror --pattern christandl-product --n 4 --k 5": {
        "stdout": "32465ab83e7f54340488b18a3f0416873238f98b45d94f0eba974f6d984817b8",
    },
    "spinmirror witness --n 3 --pattern random-rx --seeds 0,1,2,3,4 --out certs": {
        "stdout": "a5a964c87a272f18bd81af8b58c70068fa790aa7daa6547ee324840ddd954235",
        "certs.json": "d9bcdb9751af5133a666ad0b00a7ad4673a3a49633bef9d73e6f4ed79f47b9df",
        "certs.csv": "e764c91727bd9359044bfd4129ad71a70108a4704561623d88d0e2000b305ac5",
    },
    "spinmirror classify --parallel-chains 4 --k 2 --sym vertical_axis": {
        "stdout": "e17f99766b8e2fb52113edd72078562473756f7694149800ae166613f30581c9",
    },
    "spinmirror optimize --preset rx-3x3-witness --out rx3": {
        "stdout": "49844242411459b700fb0e7fdbd6287dff926b6835dc38a5895f2d045176993c",
        "rx3.json": "b8b32685cdeb6a62acd3a16533f2ec96a168e37549c2f5dd24ad479e00202698",
        "rx3.csv": "476e69b0c9892eac12d3f0e1910e7e2a6eb4551c232d0d56992f43b1c281ddc3",
    },
    "spinmirror optimize --preset chain-4-pst --restarts 1 --max-iters 40": {
        "stdout": "05124eafbd0bd27ebd59730502c90843df2b0fd811b9954a8ce71dc481795ab8",
    },
    "spinmirror optimize --preset rodot-2x2-probe --out probe": {
        "stdout": "18489bcee7206dc653857c828272e5ae8be5e07bf11dddae28a1a35209ab0288",
        "probe.json": "d833410cb657d083165af49ce0729b5f0e8bce7f75ffa984f02c6b857246a7c3",
        "probe.csv": "cb5dfd0e1ad7695570b3c97ab8693c7381df2cd52472ca09a52481c8ab72f29f",
    },
    "spinmirror scan --pattern christandl-chain --n 5 --source 1,1 --target 1,5": {
        "stdout": "d71cf0caa4b5e9e2ccaa7be8db641381c7175340f305778763c3049f53cabd24",
    },
}

# runs each README line through cli.main in one process; prints, per line, the
# exit code and the sha256 of its stdout and of each .json/.csv it wrote
README_CHILD = """
import contextlib, hashlib, io, json, shlex, sys
from spinmirror.cli import main

def sha(data):
    return hashlib.sha256(data).hexdigest()

found = {}
for line in json.loads(sys.argv[1]):
    argv, out = shlex.split(line)[1:], io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    found[line] = {"exit": code, "stdout": sha(out.getvalue().encode())}
    if "--out" in argv:
        prefix = argv[argv.index("--out") + 1]
        for name in (prefix + ".json", prefix + ".csv"):
            with open(name, "rb") as f:
                found[line][name] = sha(f.read())
print(json.dumps(found))
"""


def installed_versions():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = {"name": "unknown", "version": "unknown"}
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "OpenBLAS": blas["version"] if "openblas" in blas["name"].lower() else blas["name"]}


def run_child(cwd, lines):
    """README_CHILD's findings for lines, run in cwd; skips on other versions than the digests'."""
    versions = installed_versions()
    differ = [f"{name} {versions[name]} (recorded with {want})"
              for name, want in README_DIGEST_VERSIONS.items()
              if not versions[name].startswith(want)]
    if differ:
        pytest.skip("README digests were recorded on other versions: " + ", ".join(differ))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", README_CHILD, json.dumps(list(lines))],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fast_readme_examples_give_their_recorded_bytes(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = [block.split("```", 1)[0] for block in section.split("```sh")[1:]]
    assert set(README_DIGESTS) <= {line.split("#")[0].strip()
                                   for block in blocks for line in block.splitlines()}
    found = run_child(tmp_path, README_DIGESTS)
    for line, digests in README_DIGESTS.items():
        assert found[line] == {"exit": 0, **digests}, line


# the same digests for commands that read a document (a chain and a rect
# pattern, a seeded odd-distance graph, a config file), as write_file_inputs
# writes them; recorded on README_DIGEST_VERSIONS
FILE_INPUT_DIGESTS = {
    "spinmirror mirror --pattern-file chain.json --k 2 --t 1.5707963267948966 --out chain": {
        "stdout": "42ef2f1a4c9abe9d5b64ba963d6dc5eedabb924e4905724ee3f47ea094fbd34e",
        "chain.json": "dcc7dbfe2b969a347da78576457eb78c8d91c12fed4cd5cccd196f28d3fcf62b",
        "chain.csv": "bc7890251b357a9074b08e3735d865649f78b2b78367307c59d2525d12c88ba3",
    },
    "spinmirror classify --pattern-file rect.json --k 2 --sym vertical_axis --out rect": {
        "stdout": "aa580a67d79d77afad62150101216224151d0bcf756d7f6550d42ff005233b21",
        "rect.json": "43f166746030ba775e5eb6a5b9a51ad0f42b1de7655e5b2f407e071f441faebe",
        "rect.csv": "6779896fb274179deffcccba81cf807878e9cbdefee696899b0049f74881ba38",
    },
    "spinmirror witness --odd-distance graph.json": {
        "stdout": "05d4e013851ee94c40f0cef68688fbeaf69f496af5457260ed9575024efb97e2",
    },
    "spinmirror witness --config config.json --out cfg": {
        "stdout": "5989b56763d09e04eecfd8a4a850e24322fa3baeab5c1ee0fdb51ef9f8895912",
        "cfg.json": "9be2693f624cf8ae6338efd3a3edcc79897eae9e7b4b3e8510744d72f8d5822b",
        "cfg.csv": "b2f2ed6050e68436ee9439a08d0593816d5055ba2fa2e78b362c6c126a04257b",
    },
}


def write_file_inputs(directory):
    jsonio.write_json(str(directory / "chain.json"),
                      jsonio.pattern_to_obj(chain_pattern(christandl_chain(5))))
    (directory / "rect.json").write_text(json.dumps(
        {"kind": "rect", "rows": 2, "cols": 3, "J": [[1.25, 0.5, 1.25]],
         "K": [[0.75, 0.75], [1.5, 1.5]]}))
    # every odd-distance pair of the 3x3 lattice, one seeded strength per
    # main-diagonal orbit
    g = build_square_lattice(3)
    main = symmetry_map(g, "main_diagonal")
    rng = np.random.default_rng(7)
    strengths = {}
    for a in range(9):
        for b in range(a + 1, 9):
            if manhattan_distance(g, a, b) % 2:
                image = tuple(sorted((main(a), main(b))))
                strengths[a, b] = strengths.get(image) or float(rng.uniform(0.2, 2.0))
    graph = ExchangeGraph(9, tuple((a, b, w) for (a, b), w in strengths.items()))
    jsonio.write_json(str(directory / "graph.json"), jsonio.graph_to_obj(graph))
    (directory / "config.json").write_text(json.dumps(
        {"n": 2, "pattern": "random-rx", "seeds": "3,4", "diag": "01"}))


def test_file_inputs_give_their_recorded_bytes(tmp_path):
    write_file_inputs(tmp_path)
    found = run_child(tmp_path, FILE_INPUT_DIGESTS)
    for line, digests in FILE_INPUT_DIGESTS.items():
        assert found[line] == {"exit": 0, **digests}, line


def test_optimize_probe_grid(tmp_path):
    prefix = tmp_path / "probe"
    code = run("optimize", "--preset", "rodot-2x2-probe",
               "--ratios", "4", "--times", "32", "--out", str(prefix))
    assert code == 0
    doc = json.loads((tmp_path / "probe.json").read_text())
    assert doc["note"] == "numerical evidence only, not a proof"
    assert 0 < doc["supremum"] <= 1
    lines = (tmp_path / "probe.csv").read_text().splitlines()
    assert lines[0] == "ratio,best_modulus,best_time"
    assert len(lines) == 5


@pytest.mark.parametrize("preset", ["chain-4-pst", "rx-3x3-witness"])
def test_optimize_sidecar_counts_the_time_polish(tmp_path, preset):
    prefix = tmp_path / "opt"
    argv = ("optimize", "--preset", preset, "--restarts", "1", "--max-iters", "1",
            "--out", str(prefix))
    assert run(*argv) == 0
    meta = json.loads((tmp_path / "opt.meta.json").read_text())
    polish = meta["time_polish"]
    assert sorted(polish) == ["bisections", "kept_incumbent", "newton_steps"]
    assert 0 <= polish["kept_incumbent"] <= meta["evaluations"]
    assert 0 <= meta["evaluation_seconds"] <= meta["wall_clock_s"]
    if preset == "chain-4-pst":
        assert polish["newton_steps"] > 0
    else:
        # the witness objective is exactly 0.0, one spectral point: nothing to polish
        assert polish == {"bisections": 0, "kept_incumbent": meta["evaluations"],
                          "newton_steps": 0}
    first = [(tmp_path / ("opt" + ext)).read_bytes() for ext in (".json", ".csv")]
    assert run(*argv) == 0
    assert [(tmp_path / ("opt" + ext)).read_bytes() for ext in (".json", ".csv")] == first


@pytest.mark.parametrize("preset", ["chain-4-pst", "rx-3x3-witness"])
def test_optimize_sidecar_counts_stationary_sectors(tmp_path, preset):
    # the witness is stationary and lies in one sector: every evaluation reads
    # it as one spectral point; a sector average never does
    prefix = tmp_path / "opt"
    assert run("optimize", "--preset", preset, "--restarts", "1", "--max-iters", "1",
               "--out", str(prefix)) == 0
    meta = json.loads((tmp_path / "opt.meta.json").read_text())
    expected = meta["evaluations"] if preset == "rx-3x3-witness" else 0
    assert meta["evaluations"] > 0 and meta["stationary_sectors"] == expected


@pytest.mark.parametrize("argv, flag", [
    (("--preset", "chain-4-pst", "--restarts", "0"), "--restarts"),
    (("--preset", "rx-3x3-witness", "--restarts", "0"), "--restarts"),
    (("--preset", "chain-4-pst", "--max-iters", "-1"), "--max-iters"),
    (("--preset", "rx-3x3-witness", "--restarts", "1", "--max-iters", "-1"), "--max-iters"),
    (("--preset", "rx-3x3-witness", "--restarts", "1", "--max-iters", "0"), None),
])
def test_optimize_validates_search_sizes(argv, flag, capsys):
    code = run("optimize", *argv)
    out, err = capsys.readouterr()
    if flag is None:
        assert code == 0 and len(json.loads(out)["restarts"]) == 1
    else:
        assert code == 2 and flag in err and out == ""


@pytest.mark.parametrize("argv, flag", [
    (("--preset", "rodot-2x2-probe", "--restarts", "0"), "--restarts"),
    (("--preset", "rodot-2x2-probe", "--max-iters", "3"), "--max-iters"),
    (("--preset", "rodot-2x2-probe", "--seed", "1"), "--seed"),
    (("--preset", "chain-4-pst", "--restarts", "1", "--max-iters", "1", "--ratios", "0"),
     "--ratios"),
    (("--preset", "chain-4-pst", "--restarts", "1", "--max-iters", "1", "--times", "-5"),
     "--times"),
    (("--preset", "rx-3x3-witness", "--ratios", "4"), "--ratios"),
    (("--preset", "rodot-2x2-probe", "--ratios", "1"), "--ratios"),
    (("--preset", "rodot-2x2-probe", "--ratios", "4", "--times", "1"), "--times"),
    (("--preset", "rodot-2x2-probe", "--ratios", "3", "--times", "4"), None),
])
def test_optimize_names_flags_its_preset_ignores_or_refuses(argv, flag, capsys):
    code = run("optimize", *argv)
    out, err = capsys.readouterr()
    if flag is None:
        assert code == 0 and json.loads(out)["n_ratios"] == 3
    else:
        assert code == 2 and flag in err and out == ""


def test_optimize_unknown_preset_rejected():
    assert run("optimize", "--preset", "bogus") == 2


def test_config_supplies_defaults_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "pattern": "uniform"}))
    assert run("witness", "--config", str(cfg)) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3
    assert run("witness", "--config", str(cfg), "--n", "2") == 0
    assert json.loads(capsys.readouterr().out)["n"] == 2


@pytest.mark.parametrize("config, code, expect", [
    ({"n": 2.5}, 2, "argument --n: invalid int value: '2.5'"),
    ({"pattern": "bogus"}, 2, "argument --pattern: invalid choice: 'bogus'"),
    ({"seeds": 5, "pattern": "random-rx"}, 0, {"seeds": [5], "n": 3}),
    ({"n": None, "seed": 4, "pattern": "random-rx"}, 0, {"seeds": [4], "n": 3}),
], ids=["float-n", "bad-choice", "int-seeds", "null-keeps-default"])
def test_config_values_are_parsed_as_flags(tmp_path, capsys, config, code, expect):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run("witness", "--config", str(cfg)) == code
    out, err = capsys.readouterr()
    if code:
        assert expect in err and out == ""
    else:
        doc = json.loads(out)
        assert {"seeds": [c["seed"] for c in doc["certificates"]], "n": doc["n"]} == expect


@pytest.mark.parametrize("config, flags", [
    ({"n": 5}, ("chain", "--n", "5")),
    ({"preset": "chain-4-pst", "restarts": 1, "max_iters": 1},
     ("optimize", "--preset", "chain-4-pst", "--restarts", "1", "--max-iters", "1")),
], ids=["chain-n", "optimize-preset"])
def test_config_supplies_a_required_flag(tmp_path, capsys, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(flags[0], "--config", str(cfg)) == 0
    from_config = capsys.readouterr().out
    assert run(*flags) == 0
    assert capsys.readouterr().out == from_config


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run("witness", "--config", str(cfg)) == 2


@pytest.mark.parametrize("argv, message", [
    (("mirror", "--pattern", "christandl-chain", "--pattern-file", "{doc}", "--k", "2"),
     "argument --pattern-file: not allowed with argument --pattern"),
    (("mirror", "--config", "{config}", "--pattern-file", "{doc}", "--k", "2"),
     "argument --pattern-file: not allowed with argument --pattern"),
    (("scan", "--pattern-file", "{doc}", "--pattern", "christandl-chain", "--tmax", "1"),
     "argument --pattern: not allowed with argument --pattern-file"),
    (("classify", "--parallel-chains", "4", "--pattern-file", "/nonexistent.json", "--k", "2"),
     "argument --pattern-file: not allowed with argument --parallel-chains"),
    (("chain", "--n", "3", "--chain", "uniform", "--scale", "3"),
     "--scale does not apply to --chain uniform, which reads --strength"),
    (("chain", "--n", "3", "--chain", "christandl", "--strength", "2"),
     "--strength does not apply to --chain christandl, which reads --scale"),
    (("mirror", "--pattern-file", "{doc}", "--n", "9", "--k", "2", "--t", "1"),
     "--n does not apply to --pattern-file"),
    (("witness", "--n", "2", "--seed", "3", "--seeds", "1,2"),
     "argument --seeds: not allowed with argument --seed"),
    (("witness", "--odd-distance", "{graph}", "--n", "5", "--pattern", "random-rx",
      "--seeds", "1,2"), "--n does not apply to --odd-distance, which reads --diag"),
    (("scan", "--pattern", "christandl-chain", "--n", "5", "--source", "1,1", "--target", "1,5",
      "--k", "3", "--mirror", "horizontal_axis"),
     "--k does not apply to a transfer scan, which reads --source, --target"),
], ids=["mirror-two-patterns", "mirror-config-and-flag", "scan-two-patterns",
        "classify-two-sources", "uniform-scale", "christandl-strength", "mirror-file-n",
        "witness-seed-and-seeds", "witness-odd-distance-lattice-flags", "scan-transfer-k-mirror"])
def test_a_second_source_for_one_input_exits_2_naming_it(tmp_path, capsys, argv, message):
    doc, config = tmp_path / "chain.json", tmp_path / "config.json"
    graph = tmp_path / "graph.json"
    jsonio.write_json(str(doc), jsonio.pattern_to_obj(chain_pattern(christandl_chain(5))))
    jsonio.write_json(str(graph), jsonio.graph_to_obj(uniform_pattern(build_square_lattice(3))
                                                     .to_graph()))
    config.write_text(json.dumps({"pattern": "christandl-chain"}))
    argv = [a.format(doc=doc, config=config, graph=graph) for a in argv]
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""


def test_chain_pattern_file_reads_as_its_preset(tmp_path, capsys):
    doc = tmp_path / "chain.json"
    chain = christandl_chain(5)
    jsonio.write_json(str(doc), jsonio.pattern_to_obj(chain_pattern(chain)))
    assert run("mirror", "--pattern-file", str(doc), "--k", "2",
               "--t", repr(chain.nominal_transfer_time)) == 0
    from_file = capsys.readouterr().out
    assert run("mirror", "--pattern", "christandl-chain", "--n", "5", "--k", "2") == 0
    assert capsys.readouterr().out == from_file

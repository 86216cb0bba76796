"""Deterministic JSON and CSV serialization.

Floats are written with Python's shortest round-trip repr, so parsing the
emitted text recovers every value bit for bit. All writers sort keys and use
fixed separators, which makes repeated runs byte-identical; timestamps live
only in sidecar .meta.json files.
"""

from __future__ import annotations

import datetime
import hashlib
import json
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .chains import ChainCouplings
from .lattice import (
    CouplingPattern,
    ExchangeGraph,
    build_chain,
    build_rect_lattice,
    build_square_lattice,
)

SCHEMA_VERSION = "1"


def _py(x):
    """Convert numpy scalars and containers to plain Python types."""
    if isinstance(x, (bool, np.bool_)):  # before int: bool subclasses int
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_py(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_py(v) for v in x]
    if isinstance(x, dict):
        return {k: _py(v) for k, v in x.items()}
    return x


def canonical_dumps(obj) -> str:
    return json.dumps(_py(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(canonical_dumps(obj))


def read_json(path):
    with open(path) as f:
        return json.load(f)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_format_cell(v) for v in row) + "\n")


def write_meta(path, argv: Sequence[str], extra: dict | None = None) -> None:
    """Sidecar metadata: the only artifact that carries a timestamp."""
    meta = {
        "tool": f"spinmirror {__version__}",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "argv": list(argv),
    }
    if extra:
        meta.update(_py(extra))
    write_json(path, meta)


# -- domain objects -----------------------------------------------------------


def pattern_to_obj(pattern: CouplingPattern) -> dict:
    g = pattern.geometry
    if g.kind == "chain":
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "chain",
            "n": g.cols,
            "couplings": _py(pattern.chain_couplings),
        }
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": g.kind,
        "J": _py(pattern.J),
        "K": _py(pattern.K),
    }
    if g.kind == "square":
        obj["n"] = g.cols
    else:
        obj["rows"] = g.rows
        obj["cols"] = g.cols
    return obj


def _check_keys(obj, what: str, known: set, required) -> None:
    """Refuse a document that is not a JSON object, or that has an unknown or a missing key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} document must hold a JSON object")
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown keys in {what} document: {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{what} document lacks the key(s) {missing}")


_PATTERN_KEYS = {"chain": ("n", "couplings"), "square": ("n", "J", "K"),
                 "rect": ("rows", "cols", "J", "K")}
_PATTERN_KNOWN = {"schema_version", "kind", "n", "rows", "cols", "J", "K", "couplings"}


def pattern_from_obj(obj: dict) -> CouplingPattern:
    _check_keys(obj, "pattern", _PATTERN_KNOWN, ("kind",))
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _PATTERN_KEYS:
        raise ValueError(f"unknown pattern kind {kind!r}")
    _check_keys(obj, "pattern", _PATTERN_KNOWN, _PATTERN_KEYS[kind])
    if kind == "chain":
        n = int(obj["n"])
        c = np.asarray(obj["couplings"], dtype=float)
        g = build_chain(n)
        return CouplingPattern(g, np.zeros((0, n)), c.reshape(1, -1))
    if kind == "square":
        g = build_square_lattice(int(obj["n"]))
    else:
        g = build_rect_lattice(int(obj["rows"]), int(obj["cols"]))
    return CouplingPattern(g, np.asarray(obj["J"], dtype=float), np.asarray(obj["K"], dtype=float))


def pattern_digest(pattern: CouplingPattern) -> str:
    return sha256_hex(canonical_dumps(pattern_to_obj(pattern)))


def graph_to_obj(graph: ExchangeGraph) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "sites": graph.site_count,
        "edges": [[a, b, float(w)] for a, b, w in graph.edges],
    }


def graph_from_obj(obj: dict) -> ExchangeGraph:
    _check_keys(obj, "graph", {"schema_version", "sites", "edges"}, ("sites", "edges"))
    return ExchangeGraph(
        int(obj["sites"]),
        tuple((int(a), int(b), float(w)) for a, b, w in obj["edges"]),
    )


def chain_to_obj(chain: ChainCouplings) -> dict:
    return {
        "n": chain.n,
        "couplings": _py(list(chain.couplings)),
        "transfer_time": None if chain.nominal_transfer_time is None else float(chain.nominal_transfer_time),
    }

"""Deterministic JSON and CSV serialization.

Floats are written with Python's shortest round-trip repr, so parsing the
emitted text recovers every value bit for bit. All writers sort keys and use
fixed separators, which makes repeated runs byte-identical; timestamps live
only in sidecar .meta.json files. Numpy values reach the encoder's default
hook, which writes their tolist(). The readers want JSON integers for sizes
and edge endpoints and raise a ValueError naming any key they refuse.
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


def _numpy_value(x):
    """The encoder's default hook; np.float64 never comes here, being a float."""
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False,
                      default=_numpy_value) + "\n"


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
        meta.update(extra)
    write_json(path, meta)


# -- domain objects -----------------------------------------------------------


def pattern_to_obj(pattern: CouplingPattern) -> dict:
    g = pattern.geometry
    if g.kind == "chain":
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "chain",
            "n": g.cols,
            "couplings": pattern.chain_couplings.tolist(),
        }
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": g.kind,
        "J": pattern.J.tolist(),
        "K": pattern.K.tolist(),
    }
    if g.kind == "square":
        obj["n"] = g.cols
    else:
        obj["rows"] = g.rows
        obj["cols"] = g.cols
    return obj


def _check_keys(obj, what: str, known: set | None, required) -> None:
    """Refuse a non-object document, a missing key, or an unknown one (unless known is None)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} document must hold a JSON object")
    unknown = set() if known is None else set(obj) - known
    if unknown:
        raise ValueError(f"unknown keys in {what} document: {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{what} document lacks the key(s) {missing}")


_PATTERN_KEYS = {"chain": ("n", "couplings"), "square": ("n", "J", "K"),
                 "rect": ("rows", "cols", "J", "K")}


def _number(value, what: str, kind=(int, float)):
    """value, if it is a JSON number of this kind (never a boolean); else a ValueError naming what."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{what} must be a JSON {noun}, got {value!r}")
    return value


def pattern_from_obj(obj: dict) -> CouplingPattern:
    _check_keys(obj, "pattern", None, ("kind",))
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _PATTERN_KEYS:
        raise ValueError(f"unknown pattern kind {kind!r}")
    _check_keys(obj, f"{kind!r} pattern", {"schema_version", "kind", *_PATTERN_KEYS[kind]},
                _PATTERN_KEYS[kind])
    size = {key: _number(obj[key], f"pattern key {key!r}", int)
            for key in ("n", "rows", "cols") if key in _PATTERN_KEYS[kind]}
    # CouplingPattern casts and shapes the couplings itself
    if kind == "chain":
        return CouplingPattern(build_chain(size["n"]), [], obj["couplings"])
    if kind == "square":
        g = build_square_lattice(size["n"])
    else:
        g = build_rect_lattice(size["rows"], size["cols"])
    return CouplingPattern(g, obj["J"], obj["K"])


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
    edges = obj["edges"]
    if not isinstance(edges, list) or any(not isinstance(e, list) or len(e) != 3 for e in edges):
        raise ValueError("graph key 'edges' must be a list of [a, b, strength] triples")
    endpoint, strength = "an endpoint in graph key 'edges'", "a strength in graph key 'edges'"
    return ExchangeGraph(
        _number(obj["sites"], "graph key 'sites'", int),
        tuple((_number(a, endpoint, int), _number(b, endpoint, int), float(_number(w, strength)))
              for a, b, w in edges),
    )


def chain_to_obj(chain: ChainCouplings) -> dict:
    return {
        "n": chain.n,
        "couplings": list(chain.couplings),
        "transfer_time": None if chain.nominal_transfer_time is None else float(chain.nominal_transfer_time),
    }

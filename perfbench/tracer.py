"""Outside-in tracer for the spinmirror package.

The tracer does not touch the package's source. It wraps every public
function of the traced modules and rebinds the wrapper in every
``spinmirror.*`` namespace that holds the original, because
``from .sectors import build_sector_hamiltonian`` copies the binding into the
importing module. ``SectorHamiltonian.eig`` and ``SparseState.__init__`` are
wrapped on their classes. ``uninstall`` puts every original back.

Each call becomes one span ``(id, parent id, job, name, start, end)`` kept in
memory. A function's self time is its span minus the time spent in traced
children; the wrapper's own bookkeeping is charged to neither, so it shows up
as uncovered time of the pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "spinmirror"
MODULES = ("lattice", "chains", "sectors", "dynamics", "witness", "optimizer", "jsonio", "cli")


class Tracer:
    """Collects spans, call counts, self times and a few counters for one pass."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.job: str | None = None
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._hamiltonian_keys: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        hooks = self._hooks()
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, val in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(val):
                    continue
                if val.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                before, after = hooks.get(name, (None, None))
                wrappers[val] = self._wrap(name, val, before, after)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        sectors = sys.modules[f"{PACKAGE}.sectors"]
        ham, state = sectors.SectorHamiltonian, sectors.SparseState
        self._patch(ham, "eig", self._wrap("sectors.SectorHamiltonian.eig", ham.eig,
                                           self._eig_before, self._eig_after))
        self._patch(state, "__init__", self._wrap("sectors.SparseState.init", state.__init__,
                                                  self._state_before, None))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            note = before(args, kwargs) if before is not None else None
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += (end - start) - frame[1]
                tracer.spans.append((sid, parent, tracer.job, name, start, end))
                if ok and after is not None:
                    after(args, kwargs, result, note)
                if stack:
                    stack[-1][1] += clock() - entered
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _hooks(self):
        return {
            "sectors.build_sector_hamiltonian": (None, self._hamiltonian_after),
            "optimizer.optimize": (None, self._optimize_after),
            "jsonio.write_csv": (None, self._csv_after),
            "jsonio.canonical_dumps": (None, self._dumps_after),
        }

    def _hamiltonian_after(self, args, kwargs, result, note):
        graph = args[0] if args else kwargs["graph"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        edges = getattr(graph, "edges", None)
        if isinstance(edges, tuple):
            key = (graph.site_count, edges, k)
        else:  # a CouplingPattern
            key = (repr(graph.geometry), graph.J.tobytes(), graph.K.tobytes(), k)
        self._hamiltonian_keys.add(key)

    @staticmethod
    def _eig_before(args, kwargs):
        # the decomposition is cached on the object; only a cold call runs eigh
        return getattr(args[0], "_eig", None) is None

    def _eig_after(self, args, kwargs, result, ran):
        if ran:
            self._count("sectors.SectorHamiltonian.eig.dim3_sum", float(args[0].dim) ** 3)

    def _state_before(self, args, kwargs):
        masks = args[2] if len(args) > 2 else kwargs["masks"]
        self._count("sectors.SparseState.init.entries", np.size(masks))

    def _optimize_after(self, args, kwargs, run, note):
        self._count("optimize.improvements", len(run.trace) - 1)
        self._count("optimize.evaluations", run.evaluations)

    def _csv_after(self, args, kwargs, result, note):
        with open(args[0], "rb") as f:
            self._count("jsonio.write_csv.rows", f.read().count(b"\n") - 1)

    def _dumps_after(self, args, kwargs, result, note):
        self._count("jsonio.canonical_dumps.bytes", len(result.encode()))

    # -- results ------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Flat per-layer numbers for one traced pass whose jobs took wall_s."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = float(calls)
            out[f"{name}.self_s"] = self_s
        for short in MODULES:
            out[f"layer.{short}.self_s"] = sum(
                s for n, (_, s) in self.stats.items() if n.startswith(short + ".")
            )
        builds = self.stats.get("sectors.build_sector_hamiltonian", [0])[0]
        out["sectors.build_sector_hamiltonian.distinct_ratio"] = (
            len(self._hamiltonian_keys) / builds if builds else 0.0
        )
        evaluations = self.counters.get("optimize.evaluations", 0.0)
        out["optimizer.optimize.accept_ratio"] = (
            self.counters.get("optimize.improvements", 0.0) / evaluations if evaluations else 0.0
        )
        for key in ("sectors.SectorHamiltonian.eig.dim3_sum", "sectors.SparseState.init.entries",
                    "jsonio.write_csv.rows", "jsonio.canonical_dumps.bytes"):
            out[key] = self.counters.get(key, 0.0)
        covered = sum(s for _, s in self.stats.values())
        out["trace.wall_s"] = wall_s
        out["trace.uncovered_s"] = wall_s - covered
        out["trace.spans"] = float(len(self.spans))
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("id,parent,job,name,start_s,end_s\n")
            for sid, parent, job, name, start, end in self.spans:
                f.write(f"{sid},{parent},{job},{name},{start!r},{end!r}\n")

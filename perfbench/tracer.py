"""Span tracing of poakit from outside the package.

:func:`install` wraps the public entry points of every poakit module and the
cost methods of every ``CostFunction`` class. Function entry points are
patched in each module whose namespace holds them (``poakit.parametric``
imports ``solve_affine_exact``, ``poakit.cli`` imports
``trace_to_completion``, and so on), so calls made inside the package are
seen as well as calls made by the benchmark.

Spans are kept in flat in-memory arrays (name, parent, start, end, error)
and written to one ``.npz`` file when the run ends. The run is single
threaded, so a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# module.function -> attribute name; each is patched wherever it is bound
FUNCTIONS = {
    "network.load_network": "load_network",
    "equilibrium.solve_affine_exact": "solve_affine_exact",
    "equilibrium.solve_equilibrium": "solve_equilibrium",
    "equilibrium.solve_optimum": "solve_optimum",
    "parametric.trace_affine": "trace_affine",
    "parametric.trace_to_completion": "trace_to_completion",
    "poa.compute_poa": "compute_poa",
    "poa.classify_segments": "classify_segments",
    "poa.find_poa_max": "find_poa_max",
    "cli.main": "main",
}
COST_METHODS = ("evaluate", "primitive", "derivative")
# ``op`` spans are opened by the benchmark around each operation
OP = "op"


class Tracer:
    """Flat span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("i")  # index into ``errors``, or -1
        self.errors: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.error.append(-1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, exc: BaseException | None = None) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            kind = type(exc).__name__
            if kind not in self.errors:
                self.errors.append(kind)
            self.error[i] = self.errors.index(kind)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(i, exc)
                raise
            self.close(i)
            return out

        return traced

    def patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "error": np.frombuffer(self.error, dtype=np.int32).copy()}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), errors=np.array(self.errors, dtype=str),
                            **self.arrays())


def install(tracer: Tracer) -> None:
    """Wrap every entry point in FUNCTIONS and every cost method."""
    import poakit
    from poakit import cli, costs, equilibrium, network, parametric, poa

    modules = (poakit, costs, network, equilibrium, parametric, poa, cli)
    for span, attr in FUNCTIONS.items():
        home = getattr(poakit, span.split(".")[0])
        original = getattr(home, attr)
        wrapped = tracer.wrap(span, original)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                tracer.patch(mod, attr, wrapped)

    build = network.PathSet.__dict__["build"].__func__
    tracer.patch(network.PathSet, "build",
                 classmethod(tracer.wrap("network.PathSet.build", build)))

    for cls in _cost_classes(costs.CostFunction):
        for method in COST_METHODS:
            if method in cls.__dict__:
                tracer.patch(cls, method,
                             tracer.wrap(f"costs.{cls.__name__}.{method}", cls.__dict__[method]))


def _cost_classes(base) -> list[type]:
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda c: c.__name__)


class Spans:
    """Read-side view of a finished trace: durations, self times, nesting."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.errors = list(tracer.errors)
        self.name, self.parent, self.error = a["name"], a["parent"], a["error"]
        self.start, self.end = a["start"], a["end"]
        self.dur = self.end - self.start
        # self time: a span's duration less the part its direct children cover
        nested = self.parent >= 0
        covered = np.bincount(self.parent[nested], weights=self.dur[nested],
                              minlength=len(self.dur))
        self.self_time = self.dur - covered

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def matching(self, prefix: str) -> np.ndarray:
        keep = [k for k, n in enumerate(self.names) if n.startswith(prefix)]
        return np.flatnonzero(np.isin(self.name, keep))

    def owner(self, outer: np.ndarray) -> np.ndarray:
        """For every span, the span of ``outer`` that encloses it, or -1.

        ``outer`` must hold spans that do not nest in one another (ops, or
        the passes of one tracer), so at most one of them encloses a span.
        """
        outer = np.asarray(outer, dtype=np.int64)
        if not len(outer):
            return np.full(len(self.name), -1)
        k = np.searchsorted(self.start[outer], self.start, side="right") - 1
        cand = outer[np.maximum(k, 0)]
        inside = (k >= 0) & (self.end <= self.end[cand])
        return np.where(inside, cand, -1)

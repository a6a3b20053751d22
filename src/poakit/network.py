"""Directed networks with one origin-destination pair.

A :class:`Network` is a multigraph of directed edges between named vertices,
with a single origin and destination. Routing happens on simple paths;
:func:`enumerate_paths` lists them in lexicographic edge-id order and
:class:`PathSet` caches the edge-path incidence matrix used by the solvers.
Every enumeration is capped, at ``POA_MAX_PATHS`` when that environment
variable is set, else at ``DEFAULT_PATH_CAP``; only this module reads it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .costs import CostFunction, _checked, _field, cost_from_json, cost_to_json
from .errors import NoPath, PathExplosion

__all__ = [
    "Edge",
    "Network",
    "PathSet",
    "enumerate_paths",
    "load_network",
]

DEFAULT_PATH_CAP = 4096


@dataclass(frozen=True)
class Edge:
    """One directed edge. Ids are unique strings without '|'; self-loops are rejected."""

    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Network:
    """Directed multigraph with a designated origin and destination."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    origin: str
    destination: str

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        for e in self.edges:
            if "|" in e.id:
                raise ValueError(f"edge id {e.id!r} holds '|', which joins the edge ids of a path")
            if e.tail == e.head:
                raise ValueError(f"edge {e.id!r} is a self-loop")
            if e.tail not in vset or e.head not in vset:
                raise ValueError(f"edge {e.id!r} references unknown vertex")
        if self.origin not in vset or self.destination not in vset:
            raise ValueError("origin or destination is not a vertex")
        if self.origin == self.destination:
            raise ValueError("origin and destination must differ")

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def out_edges(self, vertex: str) -> list[Edge]:
        return sorted((e for e in self.edges if e.tail == vertex), key=lambda e: e.id)


def enumerate_paths(net: Network) -> list[tuple[str, ...]]:
    """All simple origin-destination paths as tuples of edge ids.

    Paths come out in lexicographic order of their edge-id sequences. Raises
    :class:`NoPath` when none exists and :class:`PathExplosion` when more
    paths than the cap would be produced. The cap is ``POA_MAX_PATHS`` when
    set (a positive integer, else ``ValueError``), otherwise
    ``DEFAULT_PATH_CAP``.
    """
    raw = os.environ.get("POA_MAX_PATHS", str(DEFAULT_PATH_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"POA_MAX_PATHS must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise ValueError(f"POA_MAX_PATHS must be positive, got {cap}")
    out = {v: net.out_edges(v) for v in net.vertices}
    paths: list[tuple[str, ...]] = []
    # on a stack, so no path is too deep to walk: (edge ids so far, last vertex, vertices seen)
    stack = [((), net.origin, frozenset([net.origin]))]
    while stack:
        trail, vertex, seen = stack.pop()
        if vertex == net.destination:
            if len(paths) >= cap:
                raise PathExplosion(f"more than {cap} origin-destination paths")
            paths.append(trail)
        else:  # pushed in reverse, so the smallest edge id is walked first
            stack += [((*trail, e.id), e.head, seen | {e.head})
                      for e in reversed(out[vertex]) if e.head not in seen]
    if not paths:
        raise NoPath(f"no path from {net.origin!r} to {net.destination!r}")
    return paths


@dataclass(frozen=True)
class PathSet:
    """Paths of a network plus the edge-path incidence matrix.

    ``incidence[e, p]`` is 1 when path p uses edge e; edge rows follow
    ``net.edges`` order, path columns follow lexicographic path order.
    """

    net: Network
    paths: tuple[tuple[str, ...], ...]
    incidence: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def build(cls, net: Network) -> "PathSet":
        paths = tuple(enumerate_paths(net))
        index = {eid: i for i, eid in enumerate(net.edge_ids)}
        Z = np.zeros((len(index), len(paths)))
        for p, path in enumerate(paths):
            for eid in path:
                Z[index[eid], p] = 1.0
        return cls(net=net, paths=paths, incidence=Z)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def n_edges(self) -> int:
        return len(self.net.edges)


def _path_key(path: tuple[str, ...]) -> str:
    """A path's edge ids joined by '|', which no edge id holds, so that it names one path."""
    return "|".join(path)


# -- JSON ---------------------------------------------------------------------


def network_from_json(doc: dict) -> tuple[Network, dict[str, CostFunction]]:
    """Build a network and its edge costs from a JSON document; a missing or ill-typed field
    raises ``ValueError`` naming it and its edge, by id or, when the id is bad, by index."""
    _checked(doc, "the network document", "object")
    edges, costs = [], {}
    for i, e in enumerate(_field(doc, "edges", "objects")):
        eid = None
        try:
            eid = _field(e, "id", "name")
            edges.append(Edge(eid, _field(e, "tail", "name"), _field(e, "head", "name")))
            costs[eid] = cost_from_json(_field(e, "cost", "object"))
        except ValueError as exc:
            where = f"edges[{i}]" if eid is None else f"edge {eid!r}"
            raise ValueError(f"{where}: {exc}") from exc
    return Network(vertices=tuple(_field(doc, "vertices", "names")), edges=tuple(edges),
                   origin=_field(doc, "origin", "name"),
                   destination=_field(doc, "destination", "name")), costs


def network_to_json(net: Network, costs: dict[str, CostFunction]) -> dict:
    return {
        "vertices": list(net.vertices),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "cost": cost_to_json(costs[e.id])}
            for e in net.edges
        ],
        "origin": net.origin,
        "destination": net.destination,
    }


def load_network(path: str) -> tuple[Network, dict[str, CostFunction]]:
    """Read a network JSON file; returns the network and per-edge costs."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return network_from_json(doc)

"""Seeded network instances for the benchmark, as plain JSON documents.

The generator knows nothing of poakit: it writes network files in the format
``poakit.load_network`` reads, and the benchmark hands poakit only those
files. Instances are layered DAGs: the origin, one to three layers of middle
vertices, the destination, and edges only between consecutive layers, so the
path count can range far beyond the 8 paths the test generator reaches.

A run's instances come in two steps:

- *shapes* (graph and costs) are drawn from a pool seed;
- ``relabel`` then renames vertices and edges and shuffles the edge list
  from the run seed. Answers (ratios, breakpoints, costs) are invariant under
  relabelling, but poakit enumerates paths in edge-id order, so the solvers
  see a different path order and take different numeric routes.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np


def load_fixture(root: str, name: str) -> dict:
    with open(os.path.join(root, "fixtures", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _layered_edges(rng: np.random.Generator,
                   widths) -> tuple[list[str], list[tuple[str, str]], int]:
    """Vertices, edges and origin-destination path count of a layered DAG."""
    layers = [["O"]] + [[f"v{i}_{j}" for j in range(w)] for i, w in enumerate(widths)] + [["D"]]
    edges: list[tuple[str, str]] = []
    ways = {"O": 1}
    for cur, nxt in zip(layers[:-1], layers[1:]):
        density = rng.uniform(0.4, 1.0)
        chosen = {(t, h) for t in cur for h in nxt if rng.random() < density}
        # every vertex keeps an edge in and an edge out
        for t in cur:
            if not any(c[0] == t for c in chosen):
                chosen.add((t, nxt[int(rng.integers(len(nxt)))]))
        for h in nxt:
            if not any(c[1] == h for c in chosen):
                chosen.add((cur[int(rng.integers(len(cur)))], h))
        edges.extend(sorted(chosen))
        for h in nxt:
            ways[h] = sum(ways[t] for t, hh in chosen if hh == h)
    return [v for layer in layers for v in layer], edges, ways["D"]


def layered_dag(rng: np.random.Generator, min_paths: int, max_paths: int,
                cost_of) -> dict:
    """A layered DAG with ``min_paths``..``max_paths`` paths; ``cost_of(rng)``
    gives each edge's cost document."""
    for _ in range(10_000):
        n_layers = int(rng.integers(1, 4))
        widths = [int(rng.integers(1, 6)) for _ in range(n_layers)]
        vertices, pairs, n_paths = _layered_edges(rng, widths)
        if min_paths <= n_paths <= max_paths:
            doc = {"vertices": vertices, "origin": "O", "destination": "D",
                   "edges": [{"id": f"e{k:02d}", "tail": t, "head": h}
                             for k, (t, h) in enumerate(pairs)]}
            for e in doc["edges"]:
                e["cost"] = cost_of(rng)
            return doc
    raise RuntimeError(f"no layered DAG with {min_paths}..{max_paths} paths")


def affine_cost(rng: np.random.Generator) -> dict:
    return {"type": "affine", "a": float(rng.uniform(0.2, 2.0)),
            "b": float(rng.uniform(0.0, 6.0))}


def bpr_cost(rng: np.random.Generator) -> dict:
    """Bureau of Public Roads link cost t0 * (1 + 0.15 (x / capacity)^4)."""
    t0 = float(rng.uniform(1.0, 5.0))
    capacity = float(rng.uniform(1.0, 4.0))
    return {"type": "poly", "coeffs": [t0, 0.0, 0.0, 0.0, 0.15 * t0 / capacity ** 4]}


def relabel(doc: dict, rng: np.random.Generator) -> dict:
    """Isomorphic copy with fresh vertex names, edge ids and edge order."""
    inner = [v for v in doc["vertices"] if v not in (doc["origin"], doc["destination"])]
    names = {v: f"n{k}" for k, v in zip(rng.permutation(len(inner)), inner)}
    names[doc["origin"]] = "src"
    names[doc["destination"]] = "dst"
    ids = rng.permutation(len(doc["edges"]))
    edges = [{"id": f"x{ids[k]:03d}", "tail": names[e["tail"]], "head": names[e["head"]],
              "cost": e["cost"]} for k, e in enumerate(doc["edges"])]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    vertices = [names[v] for v in doc["vertices"]]
    return {"vertices": [vertices[k] for k in rng.permutation(len(vertices))],
            "origin": "src", "destination": "dst", "edges": edges}


def fingerprint(doc: dict) -> str:
    """12-hex digest of the canonical document, printed so generator drift shows."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


def write(doc: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path

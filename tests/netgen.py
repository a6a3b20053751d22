"""Random instance generators shared by the test modules.

Layered DAGs for general affine instances, small integer-cost DAGs whose
ties and free routes real draws never give, parallel pairs in series for
the path cap, and relabelled copies of a network; random composition trees
turned into networks for the series-parallel tests, which solve them with
``solve_equilibrium`` and the ``oracles.sp_recursion`` reference.
"""

from __future__ import annotations

import numpy as np

from poakit import Edge, Network, NoPath, enumerate_paths
from poakit.costs import Affine, Polynomial

from oracles import SPLeaf, SPParallel, SPSeries, SPTree


def random_affine_network(rng: np.random.Generator, max_edges: int = 8,
                          max_paths: int = 6, a_range=(0.0, 2.0),
                          b_range=(0.0, 5.0)):
    """A small random DAG with affine costs and at least one route."""
    for _ in range(500):
        n_mid = int(rng.integers(1, 4))
        vertices = ["O"] + [f"m{i}" for i in range(n_mid)] + ["D"]
        order = {v: i for i, v in enumerate(vertices)}
        pairs = [(t, h) for t in vertices for h in vertices if order[t] < order[h]]
        rng.shuffle(pairs)
        n_e = int(rng.integers(2, max_edges + 1))
        edges = tuple(Edge(f"e{k}", t, h) for k, (t, h) in enumerate(pairs[:n_e]))
        try:
            net = Network(tuple(vertices), edges, "O", "D")
            paths = enumerate_paths(net)
        except NoPath:
            continue
        if len(paths) > max_paths:
            continue
        costs = {e.id: Affine(float(rng.uniform(*a_range)), float(rng.uniform(*b_range)))
                 for e in edges}
        return net, costs
    raise RuntimeError("failed to sample a connected instance")


def integer_network(rng: np.random.Generator, degrees=(1,)):
    """A small random DAG with at least one route: 1-3 middle vertices, 2-8
    forward edges, each costing b + a*x^d with a in {0, 1, 2}, b in
    {0, 1, 2, 3} and d drawn from ``degrees``; ``Affine(a, b)`` when d is 1."""
    while True:
        n_mid = int(rng.integers(1, 4))
        vertices = ["O"] + [f"m{i}" for i in range(n_mid)] + ["D"]
        pairs = [(t, h) for i, t in enumerate(vertices) for h in vertices[i + 1:]]
        rng.shuffle(pairs)
        edges = tuple(Edge(f"e{k}", t, h)
                      for k, (t, h) in enumerate(pairs[:int(rng.integers(2, 9))]))
        costs = {}
        for e in edges:
            a, b, d = float(rng.integers(0, 3)), float(rng.integers(0, 4)), int(rng.choice(degrees))
            costs[e.id] = Affine(a, b) if d == 1 else Polynomial((b, *[0.0] * (d - 1), a))
        net = Network(tuple(vertices), edges, "O", "D")
        try:
            enumerate_paths(net)
        except NoPath:
            continue
        return net, costs


def has_free_route(net: Network, costs) -> bool:
    """Whether some origin-destination path costs nothing at every load."""
    free = {eid for eid, c in costs.items()
            if not any((c.a, c.b) if isinstance(c, Affine) else c.coeffs)}
    return any(set(path) <= free for path in enumerate_paths(net))


def pairs_in_series(k: int):
    """k parallel pairs of edges in series, costing x each: 2**k paths."""
    vertices = tuple(f"v{i}" for i in range(k + 1))
    edges = tuple(Edge(f"{side}{i}", f"v{i}", f"v{i + 1}") for i in range(k) for side in "ab")
    return (Network(vertices, edges, "v0", f"v{k}"),
            {e.id: Affine(1.0, 0.0) for e in edges})


def layered_affine_network(rng: np.random.Generator, widths=(3, 3, 3),
                           a_range=(0.1, 2.0), b_range=(0.0, 5.0)):
    """Layered DAG with every edge between consecutive layers present, so
    it has prod(widths) origin-destination paths."""
    layers = [["O"]] + [[f"v{k}_{i}" for i in range(w)] for k, w in enumerate(widths)] + [["D"]]
    edges = tuple(Edge(f"e{t}-{h}", t, h)
                  for tails, heads in zip(layers, layers[1:]) for t in tails for h in heads)
    net = Network(tuple(v for layer in layers for v in layer), edges, "O", "D")
    costs = {e.id: Affine(float(rng.uniform(*a_range)), float(rng.uniform(*b_range)))
             for e in edges}
    return net, costs


def nested(k: int):
    """The paper's nested network nested_k, whose breakpoints number
    2^(k+1) - 2: vertices O = v0, v1 ... v2k, D = v(2k+1); cost x on each
    vi -> v(i+1) with i != k, constant 0 on vk -> v(k+1), and for j = 1 ... k
    constant 10^(k-j) on v(j-1) -> v(2k+1-j) and on vj -> v(2k+2-j). k = 2
    and 3 are the nested2 and nested3 fixtures, edge for edge."""
    names = ["O", *(f"v{i}" for i in range(1, 2 * k + 1)), "D"]
    arcs = {(i, i + 1): Affine(0.0 if i == k else 1.0, 0.0) for i in range(2 * k + 1)}
    for j in range(1, k + 1):
        arcs[j - 1, 2 * k + 1 - j] = arcs[j, 2 * k + 2 - j] = Affine(0.0, float(10 ** (k - j)))
    ids = {(i, h): f"{names[i]}-{names[h]}" for i, h in arcs}
    edges = tuple(Edge(ids[i, h], names[i], names[h]) for i, h in sorted(arcs))
    return (Network(tuple(names), edges, "O", "D"),
            {ids[arc]: cost for arc, cost in arcs.items()})


def relabel(net: Network, costs, rng: np.random.Generator):
    """Isomorphic copy with fresh edge ids in a shuffled edge list. Paths are
    enumerated in edge-id order, so the solvers see the paths reordered."""
    ids = {e.id: f"r{k:03d}" for k, e in zip(rng.permutation(len(net.edges)), net.edges)}
    edges = [Edge(ids[e.id], e.tail, e.head) for e in net.edges]
    edges = tuple(edges[k] for k in rng.permutation(len(edges)))
    return (Network(net.vertices, edges, net.origin, net.destination),
            {ids[eid]: c for eid, c in costs.items()})


def random_sp_tree(rng: np.random.Generator, n_leaves: int) -> SPTree:
    if n_leaves == 1:
        return SPLeaf("")  # ids assigned when the network is built
    k = int(rng.integers(1, n_leaves))
    kind = SPSeries if rng.random() < 0.5 else SPParallel
    return kind(random_sp_tree(rng, k), random_sp_tree(rng, n_leaves - k))


def sp_tree_to_network(tree: SPTree):
    """Realize a composition tree as a network; returns (net, relabeled tree)."""
    vertices = ["O", "D"]
    edges: list[Edge] = []

    def build(t: SPTree, tail: str, head: str) -> SPTree:
        if isinstance(t, SPLeaf):
            eid = f"e{len(edges)}"
            edges.append(Edge(eid, tail, head))
            return SPLeaf(eid)
        if isinstance(t, SPSeries):
            mid = f"v{len(vertices)}"
            vertices.append(mid)
            return SPSeries(build(t.first, tail, mid), build(t.second, mid, head))
        return SPParallel(build(t.first, tail, head), build(t.second, tail, head))

    labeled = build(tree, "O", "D")
    return Network(tuple(vertices), tuple(edges), "O", "D"), labeled


def random_sp_network(rng: np.random.Generator, max_leaves: int = 8,
                      a_range=(0.0, 2.0), b_range=(0.0, 5.0)):
    """Random series-parallel instance: (net, costs, composition tree)."""
    n = int(rng.integers(2, max_leaves + 1))
    net, tree = sp_tree_to_network(random_sp_tree(rng, n))
    costs = {e.id: Affine(float(rng.uniform(*a_range)), float(rng.uniform(*b_range)))
             for e in net.edges}
    return net, costs, tree

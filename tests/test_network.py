"""Network validation, path enumeration, JSON."""

import functools
import json
import operator
import os
import sys

import numpy as np
import pytest

from poakit import (
    Affine,
    Edge,
    Network,
    NoPath,
    PathExplosion,
    PathSet,
    classify_segments,
    compute_poa,
    enumerate_paths,
    find_poa_max,
    load_network,
    solve_affine_exact,
    solve_equilibrium,
    solve_optimum,
    sweep_poa,
    trace_affine,
    trace_to_completion,
    verify_wardrop,
)
from poakit import cli, network
from poakit.network import network_from_json, network_to_json

from netgen import pairs_in_series


def wheatstone() -> Network:
    return Network(
        vertices=("O", "v1", "v2", "D"),
        edges=(
            Edge("e1", "O", "v1"),
            Edge("e2", "O", "v2"),
            Edge("e3", "v1", "v2"),
            Edge("e4", "v1", "D"),
            Edge("e5", "v2", "D"),
        ),
        origin="O",
        destination="D",
    )


def test_validation_rejects_bad_networks():
    with pytest.raises(ValueError):
        Network(("O",), (), "O", "O")
    with pytest.raises(ValueError):
        Network(("O", "D"), (Edge("e", "O", "O"),), "O", "D")
    with pytest.raises(ValueError):
        Network(("O", "D"), (Edge("e", "O", "X"),), "O", "D")
    with pytest.raises(ValueError):
        Network(("O", "D"), (Edge("e", "O", "D"), Edge("e", "O", "D")), "O", "D")
    with pytest.raises(ValueError):
        Network(("O", "O", "D"), (Edge("e", "O", "D"),), "O", "D")
    with pytest.raises(ValueError, match="origin or destination is not a vertex"):
        Network(("O", "D"), (Edge("e", "O", "D"),), "X", "D")


def test_wheatstone_paths_lexicographic():
    paths = enumerate_paths(wheatstone())
    assert paths == [("e1", "e3", "e5"), ("e1", "e4"), ("e2", "e5")]


def test_paths_are_simple():
    # a 2-cycle between internal vertices must not trap the enumeration
    net = Network(
        vertices=("O", "a", "b", "D"),
        edges=(
            Edge("e1", "O", "a"),
            Edge("e2", "a", "b"),
            Edge("e3", "b", "a"),
            Edge("e4", "b", "D"),
        ),
        origin="O",
        destination="D",
    )
    assert enumerate_paths(net) == [("e1", "e2", "e4")]


def test_a_path_longer_than_the_recursion_limit_is_walked():
    n = sys.getrecursionlimit() + 200
    names = ("O", *(f"v{i}" for i in range(1, n)), "D")
    ids = tuple(f"e{i:05d}" for i in range(n))
    net = Network(names, tuple(Edge(e, names[i], names[i + 1]) for i, e in enumerate(ids)),
                  "O", "D")
    assert enumerate_paths(net) == [ids]
    sol = solve_equilibrium(net, {e: Affine(1.0, 0.0) for e in ids}, 1.0)
    assert sol.cost == float(n)


@pytest.mark.parametrize("seed", range(12))
def test_paths_match_a_recursive_walk_in_lexicographic_order(seed):
    # random digraphs with cycles and parallel edges, edge ids shuffled
    rng = np.random.default_rng((48, seed))
    vertices = ("O", "a", "b", "c", "D")
    pairs = [(t, h) for t in vertices for h in vertices if t != h]
    picks = rng.choice(len(pairs), size=int(rng.integers(12, 24)))
    edges = tuple(Edge(f"e{k}", *pairs[i])
                  for k, i in zip(rng.permutation(len(picks)), picks))
    net = Network(vertices, edges, "O", "D")
    want = []

    def walk(vertex, trail, seen):
        if vertex == "D":
            want.append(trail)
            return
        for e in edges:
            if e.tail == vertex and e.head not in seen:
                walk(e.head, (*trail, e.id), seen | {e.head})

    walk("O", (), {"O"})
    if not want:
        with pytest.raises(NoPath):
            enumerate_paths(net)
        return
    assert enumerate_paths(net) == sorted(want)


def test_an_edge_id_holding_a_bar_is_rejected():
    # saved traces key a path by its edge ids joined with '|' (the CLI test reads a file)
    with pytest.raises(ValueError, match=r"edge id 'O\|D' holds '\|'"):
        Network(("O", "D"), (Edge("O|D", "O", "D"),), "O", "D")


def test_no_path_raises():
    net = Network(("O", "D", "x"), (Edge("e", "O", "x"),), "O", "D")
    with pytest.raises(NoPath):
        enumerate_paths(net)


def test_path_cap_enforced():
    # k parallel pairs in series give 2**k paths: 12 pairs sit at the cap, 13 pass it
    assert len(enumerate_paths(pairs_in_series(12)[0])) == network.MAX_PATHS == 4096
    with pytest.raises(PathExplosion, match="more than 4096 origin-destination paths"):
        enumerate_paths(pairs_in_series(13)[0])


def test_every_entry_point_honours_the_path_cap():
    fig1 = load_network(os.path.join(os.path.dirname(__file__), os.pardir,
                                     "fixtures", "fig1.json"))
    sol = solve_equilibrium(*fig1, 5.0)  # verify_wardrop enumerates before it reads this
    net, costs = pairs_in_series(13)
    calls = {
        "solve_equilibrium": lambda: solve_equilibrium(net, costs, 5.0),
        "solve_optimum": lambda: solve_optimum(net, costs, 5.0),
        "solve_affine_exact": lambda: solve_affine_exact(net, costs, 5.0),
        "verify_wardrop": lambda: verify_wardrop(net, costs, sol),
        "trace_affine": lambda: trace_affine(net, costs, 10.0),
        "trace_to_completion": lambda: trace_to_completion(net, costs),
        "compute_poa": lambda: compute_poa(net, costs, 5.0),
        "classify_segments": lambda: classify_segments(net, costs),
        "find_poa_max": lambda: find_poa_max(net, costs),
        "sweep_poa": lambda: sweep_poa(net, costs, 0.5, 5.0, 3),
    }
    for name, call in calls.items():
        with pytest.raises(PathExplosion, match="more than 4096 "):
            call()


def test_incidence_matrix_shape_and_loads():
    ps = PathSet.build(wheatstone())
    assert ps.incidence.shape == (5, 3)
    loads = ps.incidence @ [1.0, 2.0, 3.0]
    # e1 carries paths 0,1; e5 carries paths 0,2
    assert loads.tolist() == [3.0, 3.0, 1.0, 2.0, 4.0]


def test_json_round_trip(tmp_path):
    net = wheatstone()
    costs = {e.id: Affine(1, float(i)) for i, e in enumerate(net.edges)}
    doc = network_to_json(net, costs)
    net2, costs2 = network_from_json(json.loads(json.dumps(doc)))
    assert net2 == net
    assert costs2 == costs

    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    net3, costs3 = load_network(str(path))
    assert net3 == net and costs3 == costs


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        network_from_json({"vertices": ["O", "D"], "edges": [{"id": "e"}],
                           "origin": "O", "destination": "D"})


def test_utf8_round_trip(tmp_path):
    net = Network(vertices=("Ursprung", "Zürich", "D"),
                  edges=(Edge("straße", "Ursprung", "Zürich"), Edge("→D", "Zürich", "D")),
                  origin="Ursprung", destination="D")
    costs = {"straße": Affine(1, 0), "→D": Affine(0, 2)}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_json(net, costs), ensure_ascii=False), encoding="utf-8")
    assert "straße".encode("utf-8") in path.read_bytes()
    net2, costs2 = load_network(str(path))
    assert net2 == net and costs2 == costs


def test_non_finite_cost_names_edge_and_field(tmp_path):
    path = tmp_path / "nan.json"
    # each bad field below once loaded, coerced by float() or iterated as a string
    for bad, field in (('{"type": "affine", "a": NaN, "b": 0}', "a"),
                       ('{"type": "poly", "coeffs": "12"}', "coeffs"),
                       ('{"type": "poly", "coeffs": {"1": 2}}', "coeffs"),
                       ('{"type": "poly", "coeffs": [1, "2"]}', "coeffs"),
                       ('{"type": "affine", "a": "2", "b": 1}', "a"),
                       ('{"type": "affine", "a": 2, "b": true}', "b"),
                       ('{"type": "affine", "a": 1, "b": 1' + "0" * 400 + "}", "b"),
                       ('{"type": "pwl", "x": "01", "y": [1, 2]}', "x"),
                       ('{"type": "pwl", "x": [0, 1], "y": null}', "y")):
        path.write_text(
            '{"vertices": ["O", "D"], "origin": "O", "destination": "D", "edges": ['
            '{"id": "good", "tail": "O", "head": "D", "cost": {"type": "affine", "a": 1, "b": 0}},'
            f'{{"id": "bad", "tail": "O", "head": "D", "cost": {bad}}}]}}',
            encoding="utf-8")
        with pytest.raises(ValueError, match=f"edge 'bad'.*'{field}'"):
            load_network(str(path))
    path.write_text('{"vertices": "OD", "origin": "O", "destination": "D", "edges": ['
                    '{"id": "e", "tail": "O", "head": "D", "cost": {"type": "affine", "a": 1, "b": 0}}]}',
                    encoding="utf-8")
    with pytest.raises(ValueError, match="field 'vertices' must be an array"):
        load_network(str(path))
    assert cli.main(["solve", "--network", str(path), "--demand", "1"]) == 1  # input error


FIG1 = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "fig1.json")
_DELETE = object()


# (path to the field changed in fig1, its new value or _DELETE, the start of the
# error); an empty path replaces the whole document by a list holding it
@pytest.mark.parametrize("where, value, named", [
    (("edges",), {"a": 1}, "field 'edges' must be an array of objects"),
    (("edges",), 3, "field 'edges' must be an array of objects"),
    (("edges",), [1], "field 'edges' must be an array of objects"),
    (("edges", 2, "id"), None, "edges[2]: field 'id' must be a string"),
    (("edges", 2, "id"), [1], "edges[2]: field 'id' must be a string"),
    (("edges", 2, "id"), 7, "edges[2]: field 'id' must be a string"),
    (("edges", 2, "tail"), 1, "edge 'v1-D': field 'tail' must be a string"),
    (("origin",), None, "field 'origin' must be a string"),
    (("vertices", 1), {"name": "v1"}, "field 'vertices' must be an array of strings"),
    (("vertices",), _DELETE, "missing field 'vertices'"),
    (("edges", 2, "cost"), _DELETE, "edge 'v1-D': missing field 'cost'"),
    (("edges", 2, "cost", "a"), _DELETE, "edge 'v1-D': missing field 'a'"),
    (("edges", 2, "cost", "type"), 1, "edge 'v1-D': field 'type' must be a string"),
    ((), None, "the network document must be an object"),
], ids=["edges-object", "edges-number", "edges-holding-a-number", "id-null", "id-array",
        "id-number", "tail-number", "origin-null", "vertex-object", "no-vertices", "no-cost",
        "no-cost-a", "cost-type-number", "document-in-a-list"])
def test_malformed_network_names_its_field(where, value, named, tmp_path, capsys):
    with open(FIG1, encoding="utf-8") as fh:
        doc = json.load(fh)
    if where:
        *outer, last = where
        parent = functools.reduce(operator.getitem, outer, doc)
        if value is _DELETE:
            del parent[last]
        else:
            parent[last] = value
    else:
        doc = [doc]
    with pytest.raises(ValueError) as raised:
        network_from_json(doc)
    assert str(raised.value).startswith(named)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["breakpoints", "--network", str(path)]) == 1
    assert capsys.readouterr() == ("", f"poakit: error: {raised.value}\n")

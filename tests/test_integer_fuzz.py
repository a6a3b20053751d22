"""Seeded integer-cost networks through the command line, in process.

Integer draws tie and give routes that cost nothing, which real draws never
do. Wherever some origin-destination path is free, the whole demand rides it
at zero cost, the equilibrium is optimal and every command must print PoA
exactly 1, under every labelling of the edges; elsewhere an affine PoA lies
in [1, 4/3].
"""

import json
from itertools import count, islice

import numpy as np
import pytest

from poakit import cli
from poakit.network import network_to_json

from netgen import has_free_route, integer_network, relabel

N_FREE = {"affine": 100, "mixed": 40}  # networks with a free route, each relabelled 3 times
N_PRICED = 150                         # affine networks without one
SWEEP = ("--from", "0", "--to", "6", "--samples", "7", "--adaptive", "--format", "json")


def draws(kind, free):
    """Seeded integer networks of one kind, with a free route or without one."""
    degrees = (1,) if kind == "affine" else (1, 2, 4)
    for seed in count():
        net, costs = integer_network(np.random.default_rng((38, len(degrees), seed)), degrees)
        if has_free_route(net, costs) == free:
            yield seed, net, costs


def write(tmp_path, net, costs) -> str:
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_json(net, costs)), encoding="utf-8")
    return str(path)


def poakit(capsys, command, path, *argv):
    """The document ``command`` prints on the network file, which must exit 0."""
    code = cli.main([command, "--network", path, *argv])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), (command, argv, err)
    return json.loads(out)


@pytest.mark.parametrize("kind", sorted(N_FREE))
def test_a_free_route_reads_ratio_one(kind, tmp_path, capsys):
    for seed, net, costs in islice(draws(kind, free=True), N_FREE[kind]):
        for r in range(3):
            path = write(tmp_path, *relabel(net, costs, np.random.default_rng((seed, r))))
            where = (kind, seed, r)
            for mu in ("0.5", "3"):
                assert poakit(capsys, "solve", path, "--demand", mu)["poa"] == 1.0, (*where, mu)
            rows = poakit(capsys, "sweep", path, *SWEEP)["rows"]
            assert {row["poa"] for row in rows} == {1.0}, where
            if kind == "affine":
                mx = poakit(capsys, "analyze", path)["max"]
                assert (mx["value"], mx["grid_value"]) == (1.0, 1.0), where


def test_a_priced_affine_network_stays_in_the_affine_bounds(tmp_path, capsys):
    for seed, net, costs in islice(draws("affine", free=False), N_PRICED):
        path = write(tmp_path, net, costs)
        mx = poakit(capsys, "analyze", path)["max"]
        poa = poakit(capsys, "solve", path, "--demand", "3")["poa"]
        # Pigou's 4/3 is attained here, to the last bit or so
        assert 1.0 <= poa <= mx["value"] + 1e-12 <= 4.0 / 3.0 + 2e-12, seed

"""The brute-force grid oracles themselves, checked against closed forms."""

import math
import os

import numpy as np
import pytest

from poakit import Affine, Edge, Network, load_network
from oracles import GridSolution, TooManyPaths, brute_beckmann, brute_social, reference

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name):
    return load_network(os.path.join(FIXTURES, f"{name}.json"))


def pigou_pair():
    net = Network(("O", "D"), (Edge("flat", "O", "D"), Edge("lin", "O", "D")), "O", "D")
    return net, {"flat": Affine(0, 1), "lin": Affine(1, 0)}


def test_parallel_quad_beckmann_matches_closed_form():
    # equalizing x = 1 + (mu-x)^2 at mu=2 puts (sqrt(5)-1)/2 on the quadratic link
    net, costs = fixture("parallel_quad")
    x2 = (math.sqrt(5) - 1) / 2
    x1 = 2 - x2
    exact = 0.5 * x1 ** 2 + (x2 + x2 ** 3 / 3)
    sol = brute_beckmann(net, costs, 2.0, 1e-3)
    assert sol.objective == pytest.approx(exact, abs=1e-3)


def test_beckmann_vanishes_at_zero_demand():
    net, costs = fixture("parallel_quad")
    assert brute_beckmann(net, costs, 0.0, 1e-3).objective == 0.0
    assert brute_beckmann(net, costs, 1e-9, 1e-3).objective == pytest.approx(0.0, abs=1e-8)


def test_single_path_grid_is_exact():
    net = Network(("O", "D"), (Edge("e", "O", "D"),), "O", "D")
    costs = {"e": Affine(2, 1)}
    sol = brute_beckmann(net, costs, 1.5, 1e-3)
    assert sol.objective == pytest.approx(reference(costs["e"]).primitive(1.5), abs=1e-12)
    assert sol.flows.tolist() == [1.5]


def test_pigou_social_optimum():
    net, costs = pigou_pair()
    sol = brute_social(net, costs, 1.0, 1e-3)
    assert sol.objective == pytest.approx(0.75, abs=1e-3)
    # optimal split puts half the demand on the linear link
    assert sol.flows[1] == pytest.approx(0.5, abs=2e-3)


def test_parallel_quad_social_at_three():
    # optimal loads (2, 1): cost 2*2 + 1*(1+1) = 6
    net, costs = fixture("parallel_quad")
    sol = brute_social(net, costs, 3.0, 1e-3)
    assert sol.objective == pytest.approx(6.0, abs=1e-3)
    assert sol.flows[1] == pytest.approx(1.0, abs=2e-3)


def test_single_edge_social_is_mu_times_cost():
    net = Network(("O", "D"), (Edge("e", "O", "D"),), "O", "D")
    costs = {"e": Affine(1, 2)}
    sol = brute_social(net, costs, 4.0, 1e-3)
    assert sol.objective == pytest.approx(4.0 * reference(costs["e"]).evaluate(4.0), abs=1e-9)


def test_flows_feasible():
    net, costs = fixture("fig1")
    sol = brute_beckmann(net, costs, 1.7, 0.05)
    assert np.all(sol.flows >= 0)
    assert sol.flows.sum() == pytest.approx(1.7, abs=1e-9)
    assert isinstance(sol, GridSolution)


def test_too_many_paths_rejected():
    net, costs = fixture("nested2")  # 5 paths
    with pytest.raises(TooManyPaths):
        brute_beckmann(net, costs, 1.0, 0.1)

"""Equilibrium and optimum solvers against hand-solved instances."""

import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import poakit
from poakit import (Affine, BisectionFailure, Edge, Network, NonConvergence, PathSet,
                    Polynomial, SupportSearchExhausted, compute_poa, load_network)
from poakit import equilibrium, kernel
from poakit.equilibrium import (
    DEFAULT_TOL,
    GRADE_TOL,
    MAX_ITER,
    NEWTON_BAND,
    _builds,
    _cost_list,
    _first_root,
    _grade,
    _min_norm_flows,
    _newton,
    _path_quadratic,
    check_regularity,
    solve_affine_exact,
    solve_equilibrium,
    solve_optimum,
    verify_wardrop,
)
from poakit.kernel import _simplex_qp

from netgen import layered_affine_network, random_affine_network, random_sp_network
from oracles import newton_equilibrium, reference, sp_recursion

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name):
    return load_network(os.path.join(FIXTURES, f"{name}.json"))


def braess_slow_direct():
    """Braess square plus a direct link of cost 2 + x."""
    net = Network(
        ("O", "v1", "v2", "D"),
        (Edge("O-D", "O", "D"), Edge("O-v1", "O", "v1"), Edge("O-v2", "O", "v2"),
         Edge("v1-D", "v1", "D"), Edge("v1-v2", "v1", "v2"), Edge("v2-D", "v2", "D")),
        "O", "D")
    costs = {"O-v1": Affine(1, 0), "O-v2": Affine(0, 1), "v1-v2": Affine(0, 0),
             "v1-D": Affine(0, 1), "v2-D": Affine(1, 0), "O-D": Affine(1, 2)}
    return net, costs


# -- parallel linear/quadratic pair -------------------------------------------


def test_parallel_quad_equilibrium_rows():
    net, costs = fixture("parallel_quad")
    low = solve_equilibrium(net, costs, 0.5)
    assert low.edge_loads == pytest.approx([0.5, 0.0], abs=1e-10)
    assert low.cost == pytest.approx(0.5, abs=1e-10)

    mid = solve_equilibrium(net, costs, 2.0)
    x2 = (math.sqrt(5) - 1) / 2  # solves x2^2 + x2 - 1 = 0
    assert mid.edge_loads == pytest.approx([2 - x2, x2], abs=1e-9)

    high = solve_equilibrium(net, costs, 3.0)
    assert high.edge_loads == pytest.approx([2.0, 1.0], abs=1e-9)
    assert high.cost == pytest.approx(2.0, abs=1e-9)


def test_parallel_quad_optimum_rows():
    net, costs = fixture("parallel_quad")
    opt = solve_optimum(net, costs, 1.0)
    assert opt.edge_loads[1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    opt3 = solve_optimum(net, costs, 3.0)
    assert opt3.edge_loads == pytest.approx([2.0, 1.0], abs=1e-9)
    assert opt3.social_cost == pytest.approx(6.0, abs=1e-9)


# -- nested Braess-Wheatstone fixture ------------------------------------------


def test_nested2_equilibrium_table():
    net, costs = fixture("nested2")
    # paths in lexicographic order:
    #   0: O-v1|v1-D   1: O-v1|..|v2-v3|..   2: O-v1|v1-v2|v2-v4|v4-D
    #   3: O-v1|v1-v3|v3-v4|v4-D             4: O-v4|v4-D
    four = solve_equilibrium(net, costs, 4.0)
    assert four.cost == pytest.approx(11.0, abs=1e-9)
    assert four.path_flows == pytest.approx([0, 0, 2, 2, 0], abs=1e-8)

    six = solve_equilibrium(net, costs, 6.0)
    assert six.cost == pytest.approx(16.0, abs=1e-9)

    fourteen = solve_affine_exact(net, costs, 14.0)
    assert fourteen.cost == pytest.approx(18.0, abs=1e-9)
    assert fourteen.path_flows == pytest.approx([6, 0, 1, 1, 6], abs=1e-8)


def test_exact_and_iterative_agree_on_fixtures():
    for name in ("fig1", "nested2", "nested3", "braess_direct"):
        net, costs = fixture(name)
        for mu in (0.7, 2.3, 5.9):
            a = newton_equilibrium(net, costs, mu)
            b = solve_affine_exact(net, costs, mu)
            assert a.edge_loads == pytest.approx(b.edge_loads, abs=1e-6), (name, mu)
            assert a.cost == pytest.approx(b.cost, abs=1e-8)


# -- non-unique equilibria and the minimum-norm selection -----------------------


def test_braess_direct_min_norm_selection():
    net, costs = fixture("braess_direct")
    sol = solve_affine_exact(net, costs, 3.0)
    assert sol.cost == pytest.approx(2.0, abs=1e-9)
    # equilibria form a line parametrized by the zigzag flow t in [0, 1];
    # squared norm 4t^2 - 2t + 3 is minimal at t = 1/4
    assert sol.path_flows == pytest.approx([1.25, 0.75, 0.25, 0.75], abs=1e-8)
    assert sorted(sol.active_edges) == [
        "O-D", "O-v1", "O-v2", "v1-D", "v1-v2", "v2-D"]

    numeric = newton_equilibrium(net, costs, 3.0)
    assert numeric.path_flows == pytest.approx(sol.path_flows, abs=1e-7)

    # any other point on the equilibrium line has strictly larger norm
    t = 0.8
    other = np.array([1 + t, 1 - t, t, 1 - t])
    rep = verify_wardrop(net, costs, dataclasses.replace(sol, path_flows=other))
    assert rep.ok
    assert np.linalg.norm(sol.path_flows) < np.linalg.norm(other) - 1e-3


def test_min_norm_is_deterministic():
    net, costs = fixture("braess_direct")
    a = solve_equilibrium(net, costs, 2.5)
    b = solve_equilibrium(net, costs, 2.5)
    assert a.path_flows.tolist() == b.path_flows.tolist()


def parallel_links(*costs):
    """Parallel O-D edges e0, e1, ... with the given costs."""
    net = Network(("O", "D"), tuple(Edge(f"e{k}", "O", "D") for k in range(len(costs))), "O", "D")
    return net, {f"e{k}": c for k, c in enumerate(costs)}


def test_poly_costs_of_degree_one_solve_as_affine():
    # braess_direct's costs rewritten as poly [b, a]: the same exact solve and selection
    net, costs = fixture("braess_direct")
    poly = {eid: Polynomial((c.b, c.a)) for eid, c in costs.items()}
    for mu in (0.7, 5.9, 10.0):
        for solve in (solve_equilibrium, solve_optimum):
            want, got = solve(net, costs, mu), solve(net, poly, mu)
            assert got.path_flows.tolist() == want.path_flows.tolist(), (solve.__name__, mu)
            assert got.edge_loads.tolist() == want.edge_loads.tolist()


def test_min_norm_selection_spreads_flow_over_constant_edges():
    # only the quadratic edge's load is shared by every equilibrium; the
    # constant edges split the rest evenly under the minimum-norm rule
    net, costs = parallel_links(Affine(0, 2), Affine(0, 2), Polynomial((0, 0, 1)))
    sol = solve_equilibrium(net, costs, 5.0)
    root2 = math.sqrt(2.0)
    assert sol.path_flows == pytest.approx([(5 - root2) / 2, (5 - root2) / 2, root2], abs=1e-9)
    assert sol.cost == pytest.approx(2.0, abs=1e-12)


def test_constant_and_linear_poly_costs_are_affine():
    net, costs = parallel_links(Polynomial((2.0,)), Polynomial((2.0,)), Polynomial((0.0, 1.0)))
    for solve in (solve_equilibrium, solve_affine_exact):
        assert solve(net, costs, 5.0).path_flows == pytest.approx([1.5, 1.5, 2.0], abs=1e-12)
    assert poakit.trace_affine(net, costs, 10.0).breakpoint_demands == (2.0,)


# -- the active-set kernel ----------------------------------------------------------


def assert_kkt(H, g, C, r, x, nu, free=None, tol=1e-10):
    """Feasibility, multiplier signs and complementarity of a kernel answer."""
    bounded = np.ones(len(x), dtype=bool) if free is None else ~free
    s = H @ x + g - C.T @ nu  # multipliers of x >= 0
    assert np.abs(C @ x - r).max() <= tol * max(1.0, np.abs(r).max())
    assert x[bounded].min(initial=0.0) >= -tol
    assert np.abs(s[~bounded]).max(initial=0.0) <= tol
    assert s[bounded].min(initial=0.0) >= -tol
    assert np.abs(s[bounded] * x[bounded]).max(initial=0.0) <= tol


def braess_quadratic():
    """Path quadratic of braess_direct; paths O-D, O-v1-D, O-v1-v2-D, O-v2-D."""
    net, costs = fixture("braess_direct")
    ps = PathSet.build(net)
    A, d = _path_quadratic(ps.incidence, _cost_list(net, costs))
    return ps, _cost_list(net, costs), A, d


def test_kernel_min_norm_with_dependent_rows():
    # the raw affine min-norm system: six rows of rank three
    _, _, A, d = braess_quadratic()
    t = 0.8
    f = np.array([1 + t, 1 - t, t, 1 - t])  # an equilibrium at demand 3
    C = np.vstack([np.ones((1, 4)), A, d[None, :]])
    assert np.linalg.matrix_rank(C) == 3
    H, g, r = np.eye(4), np.zeros(4), C @ f
    x, nu = _simplex_qp(H, g, C, r, f)
    assert_kkt(H, g, C, r, x, nu)
    assert x == pytest.approx([1.25, 0.75, 0.25, 0.75], abs=1e-10)


def test_kernel_steps_along_a_descending_null_space_direction():
    # braess_direct's singular quadratic with the O-D intercept cut to 1.5:
    # from the uniform start every path is in the working set, and the
    # zero-curvature direction p descends, so the first pivot is unbounded
    _, _, A, d = braess_quadratic()
    g = d.copy()
    g[0] = 1.5
    p = np.array([1.0, -1.0, 1.0, -1.0])
    assert np.all(A @ p == 0) and p.sum() == 0 and g @ p < 0
    C, r = np.ones((1, 4)), np.array([3.0])
    x, nu = _simplex_qp(A, g, C, r, np.full(4, 0.75))
    assert_kkt(A, g, C, r, x, nu)
    assert x == pytest.approx([2.25, 0.0, 0.75, 0.0], abs=1e-10)
    assert nu[0] == pytest.approx(1.5, abs=1e-10)


def test_kernel_with_free_variables():
    # the tracer's direction problem at fig1's first event: the first path
    # carries flow, so its rate is free, and it comes out negative
    H = np.array([[3.0, 2.0, 2.0], [2.0, 2.0, 1.0], [2.0, 1.0, 2.0]])
    free = np.array([True, False, True])
    g, C, r = np.zeros(3), np.ones((1, 3)), np.ones(1)
    x, nu = _simplex_qp(H, g, C, r, np.array([1.0, 0.0, 0.0]), free=free)
    assert_kkt(H, g, C, r, x, nu, free=free)
    assert x == pytest.approx([-1.0, 1.0, 1.0], abs=1e-10)


def test_kernel_pivot_cap(monkeypatch):
    ps, cost_list, A, d = braess_quadratic()
    f = np.array([1.8, 0.2, 0.8, 0.2])  # an equilibrium at demand 3, not min-norm
    assert not np.allclose(_min_norm_flows(ps, cost_list, f, A @ f + d), f)
    monkeypatch.setattr(kernel, "PIVOTS_PER_VARIABLE", 0)
    with pytest.raises(SupportSearchExhausted, match="pivots"):
        _simplex_qp(A, d, np.ones((1, 4)), np.array([3.0]), np.array([3.0, 0, 0, 0]))
    # a capped selection raises rather than passing its input off as selected
    with pytest.raises(SupportSearchExhausted, match="pivots"):
        _min_norm_flows(ps, cost_list, f, A @ f + d)


def test_kernel_falls_back_to_blands_rule_after_a_zero_length_step(monkeypatch):
    # a degenerate QP: x5 sits at zero in the working set after the first
    # pivot and leaves in a zero-length ratio step
    H = np.zeros((6, 6))
    H[2:, 2:] = [[2, -1, 1, -1], [-1, 1, 0, 1], [1, 0, 1, 0], [-1, 1, 0, 1]]
    g = np.array([-1.0, 0.0, 2.0, -3.0, -2.0, 0.0])
    C = np.array([[4.0, 6.0, 5.0, 2.0, 1.0, 3.0]])  # distinct, so C_S names S
    x0 = np.array([0.0, 2.0, 0.0, 0.0, 0.0, 2.0])
    r = C @ x0
    svd, working_sets = np.linalg.svd, []

    def spy(kkt, *args, **kwargs):
        working_sets.append([C[0].tolist().index(c) for c in kkt[-1, :-1]])
        return svd(kkt, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    x, nu = _simplex_qp(H, g, C, r, x0)
    assert_kkt(H, g, C, r, x, nu)
    assert x == pytest.approx([2.8125, 0.0, 0.0, 2.5, 1.75, 0.0], abs=1e-10)
    assert nu[0] == pytest.approx(-0.25, abs=1e-10)
    # x3 enters first, at reduced cost -3 (x0 has -1, x4 -2); after the
    # zero-length step x0 enters, the smallest index, although x2 ties with
    # it at -1 and x4 has -2
    assert working_sets == [[1, 5], [1, 3, 5], [1, 3], [0, 1, 3], [0, 3], [0, 3, 4]]


@pytest.mark.parametrize("answer, message", [
    # the kernel's flows dip below zero by more than the dust
    (lambda x0: np.where(x0 > 0, x0 + 3e-3, -1e-3), "negative path flow -1.000e-03"),
    # all the demand left on the cheapest path at zero load, dearer than the rest at 5
    (lambda x0: x0, "fails the equal-cost test at demand 5.0"),
], ids=["negative-flow", "unequal-costs"])
def test_exact_solve_rejects_a_wrong_kernel_answer(answer, message, monkeypatch):
    net, costs = fixture("fig1")
    monkeypatch.setattr(equilibrium, "_simplex_qp",
                        lambda A, d, C, r, x0: (answer(x0), np.array([0.0])))
    with pytest.raises(SupportSearchExhausted, match=message):
        solve_affine_exact(net, costs, 5.0)


def test_solvers_name_the_edges_without_a_cost():
    net, _ = fixture("fig1")
    with pytest.raises(ValueError, match=r"no cost given for edges \['O-v1'"):
        solve_equilibrium(net, {}, 1.0)


def test_kernel_raises_when_the_working_set_empties():
    # heavy traffic on degree-4 costs: the first Newton step of the optimum
    # empties the kernel's working set while the demand row asks for flow
    net, costs = layered_affine_network(np.random.default_rng(1), widths=(3, 3, 3))
    quartic = {e: Polynomial((c.b, 0.0, 0.0, 0.0, c.a)) for e, c in costs.items()}
    with pytest.raises(SupportSearchExhausted, match="working set emptied"):
        solve_optimum(net, quartic, 20.0)


# -- single edge, zero demand, convergence buff ---------------------------------


def test_single_edge_lambda():
    net = Network(("O", "D"), (Edge("e", "O", "D"),), "O", "D")
    costs = {"e": Affine(2, 3)}
    sol = solve_equilibrium(net, costs, 1.7)
    assert sol.cost == pytest.approx(2 * 1.7 + 3, abs=1e-12)
    assert sol.social_cost == pytest.approx(1.7 * sol.cost, abs=1e-10)


def test_zero_demand_is_free_flow():
    net, costs = fixture("fig1")
    sol = solve_equilibrium(net, costs, 0.0)
    assert sol.beckmann_value == 0.0
    assert sol.edge_loads == pytest.approx(np.zeros(7))
    # the all-load-proportional route costs nothing when empty
    assert sol.cost == pytest.approx(0.0, abs=1e-12)


def test_exhausted_iteration_budget_raises():
    # one Newton step is exact on affine costs; BPR costs
    # t0 (1 + 0.15 (x/capacity)^4) on an 18-path layered DAG take about ten
    rng = np.random.default_rng(0)
    net, _ = layered_affine_network(rng, widths=(3, 3, 2))
    costs = {e.id: Polynomial((t0, 0.0, 0.0, 0.0, 0.15 * t0 / cap ** 4))
             for e in net.edges for t0, cap in [rng.uniform((1.0, 1.0), (5.0, 4.0))]}
    for budget in (0, 2):
        with pytest.raises(NonConvergence,
                           match=rf"after {budget} iterations \(iteration budget exhausted\)"):
            solve_equilibrium(net, costs, 12.0, max_iter=budget)
    assert verify_wardrop(net, costs, solve_equilibrium(net, costs, 12.0)).ok


def flat_quartic():
    """O->m0 costing 1 + x^4, m0->D free and O->D a constant 1: the quartic
    path's cost is flat at zero load."""
    net = Network(("O", "m0", "D"), (Edge("e0", "O", "m0"), Edge("e1", "O", "D"),
                                     Edge("e2", "m0", "D")), "O", "D")
    return net, {"e0": Polynomial((1.0, 0.0, 0.0, 0.0, 1.0)), "e1": Polynomial((1.0,)),
                 "e2": Polynomial((0.0,))}


@pytest.mark.parametrize("mu", [0.5, 2.5, 6.0, 10.0])
def test_newton_ends_inside_the_grade_band(mu):
    # a gap below tol let the flat quartic path carry a little flow above
    # lambda: 1.25e-8 relative at mu 2.5, which the grade refused
    net, costs = flat_quartic()
    ps, cost_list, marginal_list = _builds(net, costs)
    for game, game_costs in (("equilibrium", cost_list), ("marginal-cost", marginal_list)):
        f = _newton(ps, game_costs, mu, DEFAULT_TOL, MAX_ITER)
        (report,) = _grade(ps, game_costs, f[None, :], [mu], game=game)
        used = f > GRADE_TOL * max(1.0, mu)
        assert (report.slacks[used] <= NEWTON_BAND * max(1.0, report.lam)).all()
    point = compute_poa(net, costs, mu)
    assert (point.lam, point.poa) == (1.0, 1.0)


@pytest.mark.parametrize("index", range(33, 38))
def test_stalled_iteration_reports_work_done(index):
    # the marginal costs of the piecewise-linear edges jump at their knots,
    # where the duality gap cannot be certified; the default budget is 10**6.
    # Index 37 (mu 4.5475) cycles unless full steps must not raise the potential.
    net, costs = fixture("wheatstone_pwl")
    mu = float(np.linspace(0.1, 12.0, 100)[index])
    with pytest.raises(NonConvergence, match=r"\(iterations stalled\)") as err:
        solve_optimum(net, costs, mu)
    done = int(re.search(r"after (\d+) iterations", str(err.value)).group(1))
    assert 0 < done < 10


def test_optimum_at_the_knots_of_jumping_marginal_costs():
    # at mu = 4 the optimum puts both piecewise-linear edges exactly on their
    # knot x = 2, where their marginal costs jump from 1 to 81
    net, costs = fixture("wheatstone_pwl")
    sol = solve_optimum(net, costs, 4.0)
    assert sol.social_cost == pytest.approx(12.0, rel=1e-12)
    assert dict(zip(sol.edge_ids, sol.edge_loads))["v1-D"] == pytest.approx(2.0, abs=1e-9)


def test_exact_solver_rejects_non_affine():
    net, costs = fixture("parallel_quad")
    with pytest.raises(ValueError):
        solve_affine_exact(net, costs, 1.0)


# -- verification report ---------------------------------------------------------


def test_verify_accepts_solver_output():
    net, costs = fixture("fig1")
    sol = solve_equilibrium(net, costs, 3.0)
    rep = verify_wardrop(net, costs, sol)
    assert rep.ok
    assert rep.lam == pytest.approx(6.0, abs=1e-9)  # 3 + mu at mu = 3


def test_verify_nested2_table_row():
    net, costs = fixture("nested2")
    sol = solve_affine_exact(net, costs, 14.0)
    table_row = np.array([6.0, 0.0, 1.0, 1.0, 6.0])
    rep = verify_wardrop(net, costs, dataclasses.replace(sol, path_flows=table_row))
    assert rep.ok
    assert rep.lam == pytest.approx(18.0, abs=1e-12)


def test_verify_flags_perturbed_flow():
    net, costs = fixture("parallel_quad")
    sol = solve_equilibrium(net, costs, 3.0)
    bumped = sol.path_flows + np.array([0.1, 0.0])
    rep = verify_wardrop(net, costs, dataclasses.replace(sol, path_flows=bumped))
    assert not rep.ok
    assert rep.violations


@pytest.mark.parametrize("field", ["path_flows", "demand"])
def test_verify_flags_non_finite_flows_and_demand(field):
    # NaN fails every comparison the grade makes, so it is flagged on its own
    net, costs = fixture("parallel_quad")
    sol = solve_equilibrium(net, costs, 3.0)
    nan = np.full(len(sol.paths), np.nan) if field == "path_flows" else math.nan
    rep = verify_wardrop(net, costs, dataclasses.replace(sol, **{field: nan}))
    assert not rep.ok
    assert rep.violations == ("path flows or the demand are not finite",)


def test_verify_flags_negative_flow_beyond_dust():
    net, costs = fixture("fig1")
    sol = solve_equilibrium(net, costs, 0.5)  # one used path
    used = int(np.argmax(sol.path_flows))
    other = (used + 1) % len(sol.paths)
    for shift, ok in ((1e-10, True), (1e-6, False)):  # the dust level is 1e-9
        moved = sol.path_flows.copy()
        moved[used] += shift
        moved[other] -= shift
        rep = verify_wardrop(net, costs, dataclasses.replace(sol, path_flows=moved))
        assert rep.ok is ok, shift
    assert rep.violations[0].startswith(f"path {'|'.join(sol.paths[other])} has negative flow")


# -- regularity -------------------------------------------------------------------


def test_zero_load_active_edge_is_nonregular():
    net, costs = braess_slow_direct()
    sol = solve_affine_exact(net, costs, 1.5)
    # every path costs 2, so the direct link is active but unused
    assert sol.cost == pytest.approx(2.0, abs=1e-9)
    rep = check_regularity(sol)
    assert not rep.regular
    assert rep.witnesses == ("O-D",)

    assert check_regularity(solve_affine_exact(net, costs, 3.0)).regular


def test_regularity_counts_flow_above_the_dust():
    # fig1's breakpoint 1 is not regular; just past it O-v2 carries about
    # 1e-8, which is flow, not dust
    net, costs = fixture("fig1")
    assert check_regularity(solve_equilibrium(net, costs, 1.0)).witnesses == ("O-v2",)
    assert check_regularity(solve_equilibrium(net, costs, 1.0 + 1e-8)).regular


def test_parallel_and_single_edge_regular():
    net, costs = fixture("parallel_quad")
    assert check_regularity(solve_equilibrium(net, costs, 2.0)).regular
    single = Network(("O", "D"), (Edge("e", "O", "D"),), "O", "D")
    assert check_regularity(solve_equilibrium(single, {"e": Affine(1, 1)}, 1.0)).regular


# -- monotone root finding ----------------------------------------------------------


def counted(g):
    """g plus the list of points it was evaluated at."""
    calls = []

    def wrapped(t):
        calls.append(t)
        return g(t)

    return wrapped, calls


def first_root(g, lo, hi, xtol):
    return _first_root(g, lo, g(lo), hi, g(hi), xtol)


def test_first_root_lands_on_a_linear_root_in_one_step():
    g, calls = counted(lambda t: 3.0 * t - 1.0)
    root = first_root(g, 0.0, 1.0, 1e-14)
    assert calls[2] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert len(calls) == 4  # both ends, the root, and the step closing the bracket
    assert abs(root - 1.0 / 3.0) <= 1e-14


def test_first_root_takes_the_left_end_of_a_zero_interval():
    def g(t):
        return min(t - 0.25, 0.0) + max(t - 0.6, 0.0)

    for hi in (1.0, 0.5):  # g(hi) > 0, and g(hi) == 0 inside the interval
        assert abs(first_root(g, 0.0, hi, 1e-13) - 0.25) <= 1e-13


def test_first_root_at_a_kink_of_a_piecewise_linear_g():
    for kink, left, right in ((0.3, 1.0, 10.0), (0.7, 10.0, 1.0)):
        g, calls = counted(lambda t: (left if t < kink else right) * (t - kink))
        root = first_root(g, 0.0, 1.0, 1e-14)
        assert abs(root - kink) <= 1e-14
        assert len(calls) <= 10


def test_first_root_stops_short_of_a_jump_but_never_at_lo():
    # a line search toward a knot where a marginal cost jumps up
    root = first_root(lambda t: 14.5 if t > 0.3 else -305.5, 0.0, 1.0, 1e-14)
    assert 0.3 - 1e-14 <= root <= 0.3
    # g(lo) < 0, so the root lies past lo even when the jump is within xtol of it
    assert 0.0 < first_root(lambda t: 14.5 if t > 0 else -305.5, 0.0, 1.0, 1e-14) <= 1e-14


def test_first_root_is_superlinear_on_smooth_g():
    # bisection needs 47 steps for this bracket and tolerance
    g, calls = counted(lambda t: t ** 3 - 0.3)
    root = first_root(g, 0.0, 1.0, 1e-14)
    assert abs(root - 0.3 ** (1.0 / 3.0)) <= 1e-14
    assert len(calls) <= 16


def test_first_root_takes_muller_steps_on_a_quadratic():
    # both ends, one secant step, Muller's step onto the root, and the step
    # closing the bracket; secant steps alone take 10 evaluations
    g, calls = counted(lambda t: 2.0 * t * t + 3.0 * t - 1.2)
    root = first_root(g, 0.0, 1.0, 1e-14)
    assert abs(root - (math.sqrt(18.6) - 3.0) / 4.0) <= 1e-14
    assert len(calls) <= 5


def test_first_root_ends_on_adjacent_floats_at_zero_xtol():
    # no step fits between lo and hi once they are adjacent floats; the last
    # point with g < 0 is returned
    assert first_root(lambda t: t - 0.3, 0.0, 1.0, 0.0) == 0.29999999999999993


def test_first_root_rejects_nan():
    with pytest.raises(BisectionFailure):
        _first_root(lambda t: math.nan, 0.0, -1.0, 1.0, 1.0, 1e-14)
    with pytest.raises(BisectionFailure):
        _first_root(lambda t: t, 0.0, math.nan, 1.0, 1.0, 1e-14)


@pytest.mark.parametrize("widths, seed, mu", [((3, 3), 25, 8.0), ((2, 3), 23, 8.0),
                                            ((2, 2), 7, 3.0)])
def test_line_searches_end_at_the_rounding_level_of_the_slope(widths, seed, mu, monkeypatch):
    # on these quartic networks a line search's slope reaches rounding level
    # near its root; bracketing on to xtol took 90 to 92 slope evaluations
    evaluations = []

    def counting(g, *args):
        g, calls = counted(g)
        try:
            return _first_root(g, *args)
        finally:
            evaluations.append(len(calls))

    monkeypatch.setattr(equilibrium, "_first_root", counting)
    net, costs = layered_affine_network(np.random.default_rng(seed), widths=widths)
    quartic = {e: Polynomial((c.b, 0.0, 0.0, 0.0, c.a)) for e, c in costs.items()}
    poakit.compute_poa(net, quartic, mu)
    assert evaluations and max(evaluations) <= 10, evaluations


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(poakit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, poakit; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


# -- series-parallel networks ------------------------------------------------------


def test_sp_parallel_splits():
    net = Network(("O", "D"), (Edge("e1", "O", "D"), Edge("e2", "O", "D")), "O", "D")
    lin_const = {"e1": Affine(1, 0), "e2": Affine(0, 1)}

    low = solve_equilibrium(net, lin_const, 0.5)
    assert low.edge_loads == pytest.approx([0.5, 0.0], abs=1e-10)
    assert low.cost == pytest.approx(0.5, abs=1e-10)

    # cheap constant link absorbs everything beyond the crossing at load 1
    high = solve_equilibrium(net, lin_const, 3.0)
    assert high.edge_loads == pytest.approx([1.0, 2.0], abs=1e-9)
    assert high.cost == pytest.approx(1.0, abs=1e-9)

    # with both links affine increasing the split moves with demand
    both_affine = {"e1": Affine(1, 0), "e2": Affine(1, 1)}
    var = solve_equilibrium(net, both_affine, 3.0)
    assert var.edge_loads == pytest.approx([2.0, 1.0], abs=1e-9)
    assert var.cost == pytest.approx(2.0, abs=1e-9)


def test_sp_series_adds_costs():
    net = Network(("O", "m", "D"), (Edge("a", "O", "m"), Edge("b", "m", "D")), "O", "D")
    sol = solve_equilibrium(net, {"a": Affine(1, 0), "b": Affine(1, 0)}, 2.0)
    assert sol.cost == pytest.approx(4.0, abs=1e-12)
    assert sol.path_flows == pytest.approx([2.0])


def test_sp_returns_the_minimum_norm_flows():
    # two parallel pairs in series: every path is an equilibrium route, and
    # the minimum-norm flows spread the demand over all four
    net = Network(("O", "m", "D"), (Edge("a", "O", "m"), Edge("b", "O", "m"),
                                     Edge("c", "m", "D"), Edge("d", "m", "D")), "O", "D")
    costs = {e: Affine(1, 0) for e in "abcd"}
    paths = (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))
    sol = solve_equilibrium(net, costs, 2.0)
    assert sol.paths == paths
    assert sol.path_flows == pytest.approx([0.5] * 4, abs=1e-12)
    empty = solve_equilibrium(net, costs, 0.0)
    assert empty.paths == paths
    assert empty.path_flows.tolist() == [0.0] * 4


def test_sp_matches_general_solver():
    # sp_recursion solves on the composition tree, solve_equilibrium on paths
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        net, affine, tree = random_sp_network(rng, max_leaves=6)
        quartic = {e: Polynomial((c.b, 0.0, 0.0, 0.0, c.a)) for e, c in affine.items()}
        for costs in (affine, quartic):
            for mu in (0.8, 2.7):
                sol = solve_equilibrium(net, costs, mu)
                lam, loads = sp_recursion(tree, costs, mu)
                assert list(sol.edge_ids) == sorted(sol.edge_ids)  # the order of `loads`
                assert sol.cost == pytest.approx(lam, rel=1e-9)
                assert sol.edge_loads == pytest.approx(loads, abs=1e-6)
                # compare Beckmann values: loads may differ across equilibria,
                # the potential may not
                beckmann = sum(float(reference(costs[e]).primitive(x))
                               for e, x in zip(sol.edge_ids, loads))
                assert sol.beckmann_value == pytest.approx(beckmann, rel=1e-8, abs=1e-8)
                rep = verify_wardrop(net, costs, sol)
                assert rep.ok, rep.violations


# -- randomized cross-checks --------------------------------------------------------


def test_random_affine_exact_vs_iterative():
    rng = np.random.default_rng(11)
    for _ in range(8):
        net, costs = random_affine_network(rng)
        for mu in rng.uniform(0.2, 8.0, 2):
            a = newton_equilibrium(net, costs, float(mu))
            b = solve_affine_exact(net, costs, float(mu))
            assert a.edge_loads == pytest.approx(b.edge_loads, abs=1e-6)


def test_exact_solver_beyond_twenty_paths():
    net, costs = layered_affine_network(np.random.default_rng(5), widths=(3, 3, 3))
    assert PathSet.build(net).n_paths == 27
    for mu in (0.5, 4.0, 30.0):
        exact = solve_affine_exact(net, costs, mu)
        iterative = newton_equilibrium(net, costs, mu)
        assert np.abs(exact.edge_loads - iterative.edge_loads).max() <= 1e-8
        assert exact.cost == pytest.approx(iterative.cost, abs=1e-8)
        assert verify_wardrop(net, costs, exact, tol=1e-10).ok


def test_lambda_monotone_in_demand():
    rng = np.random.default_rng(12)
    net, costs = random_affine_network(rng)
    lams = [solve_equilibrium(net, costs, mu).cost for mu in np.linspace(0.1, 6, 12)]
    assert all(a <= b + 1e-8 for a, b in zip(lams, lams[1:]))


def test_social_cost_identity():
    rng = np.random.default_rng(13)
    for _ in range(4):
        net, costs = random_affine_network(rng)
        sol = solve_equilibrium(net, costs, 3.1)
        assert sol.social_cost == pytest.approx(
            sol.demand * sol.cost, rel=1e-8, abs=1e-8)

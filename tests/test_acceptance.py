"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test is one criterion; `pytest -v` gives one pass/fail line per
criterion. Random-instance criteria use fixed seeds so reruns are identical.
"""

import os
import time

import numpy as np
import pytest

from poakit import (
    Affine,
    check_regularity,
    classify_segments,
    compute_poa,
    enumerate_paths,
    find_poa_max,
    load_network,
    solve_equilibrium,
    solve_optimum,
    trace_affine,
    trace_to_completion,
)
from poakit.costs import Polynomial

from netgen import random_affine_network, random_sp_network
from oracles import brute_beckmann, brute_social, segment_coefficients

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name):
    return load_network(os.path.join(FIXTURES, f"{name}.json"))


def test_criterion_01_seven_edge_breakpoints():
    # exactly five structure changes, at integer demands, in under a second
    net, costs = fixture("fig1")
    t0 = time.perf_counter()
    trace = trace_affine(net, costs, 10.0)
    elapsed = time.perf_counter() - t0
    assert len(trace.breakpoints) == 5
    assert np.allclose(trace.breakpoint_demands, [1, 2, 3, 4, 7], atol=1e-6)
    assert elapsed < 1.0, f"trace took {elapsed:.3f}s"


def test_criterion_02_nested_fixture_ratio_curve():
    net, costs = fixture("nested2")
    t0 = time.perf_counter()
    expected = {0.4: 1.0, 1.0: 8 / 7, 1.5: 10 / 9.5, 2.5: 1.0,
                6.0: 384 / 303, 14.0: 18 / 17, 17.0: 188 / 185, 25.0: 1.0}
    points = {mu: compute_poa(net, costs, mu) for mu in expected}
    points[4.0] = compute_poa(net, costs, 4.0)
    elapsed = time.perf_counter() - t0
    for mu, want in expected.items():
        assert points[mu].poa == pytest.approx(want, abs=1e-6), f"mu={mu}"
    for mu, lam in [(4.0, 11.0), (6.0, 16.0), (14.0, 18.0)]:
        assert points[mu].lam == pytest.approx(lam, abs=1e-8)
    assert elapsed < 5.0, f"curve evaluation took {elapsed:.3f}s"


def _random_affine_pairs(seed, n_nets=50, n_demands=5):
    rng = np.random.default_rng(seed)
    for _ in range(n_nets):
        net, costs = random_affine_network(rng)
        for mu in rng.uniform(0.2, 8.0, size=n_demands):
            yield net, costs, float(mu)


def test_criterion_03_optimum_is_half_the_doubled_equilibrium():
    worst = 0.0
    for net, costs, mu in _random_affine_pairs(7):
        opt = solve_optimum(net, costs, mu)
        eq2 = solve_equilibrium(net, costs, 2.0 * mu)
        worst = max(worst, float(np.abs(opt.edge_loads - 0.5 * eq2.edge_loads).max()))
    assert worst <= 1e-6, f"worst edge-load deviation {worst:.2e}"


def test_criterion_04_affine_ratio_within_four_thirds():
    lo, hi = np.inf, -np.inf
    for net, costs, mu in _random_affine_pairs(7):
        poa = compute_poa(net, costs, mu).poa
        lo, hi = min(lo, poa), max(hi, poa)
    assert lo >= 1.0 - 1e-9, f"ratio dipped to {lo}"
    assert hi <= 4.0 / 3.0 + 1e-6, f"ratio rose to {hi}"


def test_criterion_05_potential_derivative_is_the_common_cost():
    rng = np.random.default_rng(11)
    h = 1e-4
    checked = 0
    worst = 0.0
    for k in range(20):
        net, costs = random_affine_network(rng)
        if k % 2:
            # lift half the instances to cubics, keeping them smooth
            costs = {eid: Polynomial((c.b, c.a, float(rng.uniform(0, 0.5)),
                                      float(rng.uniform(0, 0.2))))
                     for eid, c in costs.items()}
        for mu in (0.9, 2.3):
            sol = solve_equilibrium(net, costs, mu)
            if not check_regularity(sol).regular:
                continue
            vp = solve_equilibrium(net, costs, mu + h).beckmann_value
            vm = solve_equilibrium(net, costs, mu - h).beckmann_value
            err = abs((vp - vm) / (2 * h) - sol.cost) / max(1.0, sol.cost)
            worst = max(worst, err)
            checked += 1
    assert checked >= 20, f"only {checked} regular demands sampled"
    assert worst <= 1e-3, f"worst relative derivative error {worst:.2e}"


def test_criterion_06_segment_sign_contracts_on_fixtures():
    starts = {"nested3": 260.0, "nested2": 24.0}
    for name in ("fig1", "nested2", "nested3", "braess_direct"):
        net, costs = fixture(name)
        trace = trace_to_completion(net, costs, mu_start=starts.get(name, 8.0))
        for seg in trace.segments:
            assert seg.alpha >= -1e-9, (name, seg.mu_lo, seg.alpha)
            assert seg.beta >= -1e-9, (name, seg.mu_lo, seg.beta)
            assert seg.gamma <= 1e-9, (name, seg.mu_lo, seg.gamma)
            # recomputation from the flow line must agree and pass its own check
            a, b, g = segment_coefficients(net, costs, seg)
            assert a == pytest.approx(seg.alpha, rel=1e-9, abs=1e-9)
            assert b == pytest.approx(seg.beta, rel=1e-9, abs=1e-9)
            assert g == pytest.approx(seg.gamma, rel=1e-9, abs=1e-9)


@pytest.fixture(scope="module")
def random_curves():
    """50 random affine instances with classified curves, each read off a
    trace completed inside ``classify_segments``."""
    rng = np.random.default_rng(23)
    out = []
    for _ in range(50):
        net, costs = random_affine_network(rng)
        curve = classify_segments(net, costs)  # window 2*(last bp) + 1
        out.append((net, costs, curve))
    return out


def test_criterion_07_grid_never_beats_breakpoint_maximum(random_curves):
    worst = -np.inf
    for net, costs, curve in random_curves:
        mx = find_poa_max(net, costs, curve=curve)  # 1000-sample grid inside
        worst = max(worst, mx.grid_value - mx.value)
    assert worst <= 1e-7, f"grid exceeded anchored maximum by {worst:.2e}"


def test_criterion_08_each_piece_is_unimodal_without_interior_max(random_curves):
    for net, costs, curve in random_curves:
        for p in curve.pieces:
            mus = np.linspace(p.mu_lo, p.mu_hi, 27)[1:]
            vals = np.array([p.value(m) for m in mus])
            signs = [int(np.sign(d)) for d in np.diff(vals) if abs(d) > 1e-11]
            pattern = [signs[0]] if signs else []
            for s in signs[1:]:
                if s != pattern[-1]:
                    pattern.append(s)
            assert len(pattern) <= 2, (p.mu_lo, p.mu_hi, pattern)
            if len(pattern) == 2:
                assert pattern == [-1, 1], (p.mu_lo, p.mu_hi, pattern)


def test_criterion_09_parallel_quadratic_touch_and_rebound():
    net, costs = fixture("parallel_quad")
    assert compute_poa(net, costs, 3.0).poa == pytest.approx(1.0, abs=1e-9)
    mus = np.linspace(3.2, 39.8, 60)
    vals = [compute_poa(net, costs, float(mu)).poa for mu in mus]
    i = int(np.argmax(vals))
    assert 0 < i < len(mus) - 1, "maximum sits at the sample boundary"
    assert vals[i] > vals[i - 1] + 1e-9
    assert vals[i] > vals[i + 1] + 1e-9


def test_criterion_10_piecewise_linear_active_set_recurrence():
    net, costs = fixture("wheatstone_pwl")
    h = {mu: compute_poa(net, costs, mu).active_hash for mu in (1.5, 3.0, 11.0)}
    assert h[3.0] == h[11.0]
    assert h[1.5] != h[3.0]


def test_criterion_11_solver_matches_grid_oracles():
    cases = [("parallel_quad", 2.0, 1e-3), ("braess_direct", 1.5, 5e-3),
             ("fig1", 1.5, 5e-3), ("wheatstone_pwl", 1.5, 5e-3)]
    for name, mu, res in cases:
        net, costs = fixture(name)
        eq = solve_equilibrium(net, costs, mu)
        opt = solve_optimum(net, costs, mu)
        beck = brute_beckmann(net, costs, mu, res).objective
        social = brute_social(net, costs, mu, res).objective
        assert eq.beckmann_value == pytest.approx(beck, abs=5e-3), name
        assert opt.social_cost == pytest.approx(social, abs=5e-3), name


def test_criterion_12_series_parallel_loads_never_retreat():
    rng = np.random.default_rng(19)
    for _ in range(20):
        net, costs, _tree = random_sp_network(rng)
        prev = None
        for mu in np.linspace(0.05, 6.0, 100):
            loads = solve_equilibrium(net, costs, float(mu)).edge_loads
            if prev is not None:
                assert float((prev - loads).max()) <= 1e-8
            prev = loads
        trace = trace_to_completion(net, costs, mu_start=8.0)
        bound = min(len(enumerate_paths(net)), len(net.edges))
        assert len(trace.breakpoints) <= bound

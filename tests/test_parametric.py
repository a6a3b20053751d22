"""Tests for the exact piecewise equilibrium trace on affine networks."""

import importlib.util
import os

import numpy as np
import pytest

from poakit import parametric
from poakit.costs import Affine
from poakit.equilibrium import solve_affine_exact
from poakit.errors import SignViolation, SupportSearchExhausted, TraceFailure
from poakit.equilibrium import _cost_list
from poakit.network import Network, Edge, PathSet, load_network, network_from_json
from poakit.parametric import (
    AffineTrace,
    _trace,
    Breakpoint,
    TraceSegment,
    optimum_breakpoints,
    trace_affine,
    trace_from_json,
    trace_to_completion,
    trace_to_json,
)

from netgen import layered_affine_network, nested, random_affine_network, relabel
from oracles import segment_coefficients, segment_report


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIXTURES = os.path.join(ROOT, "fixtures")


def benchmark_instances():
    """The benchmark's seeded instance generator, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_instances", os.path.join(ROOT, "perfbench", "instances.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tracked(name):
    return load_network(os.path.join(FIXTURES, f"{name}.json"))


_TRACE_CACHE: dict = {}


def full_trace(name):
    """Completed trace of a fixture, computed once per test run."""
    if name not in _TRACE_CACHE:
        net, costs = tracked(name)
        start = {"nested3": 260.0, "nested2": 24.0}.get(name, 8.0)
        _TRACE_CACHE[name] = (net, costs, trace_to_completion(net, costs, mu_start=start))
    return _TRACE_CACHE[name]


# -- the seven-edge fixture: full structure ------------------------------------


class TestSevenEdgeTrace:
    def setup_method(self):
        self.net, self.costs = tracked("fig1")
        self.trace = trace_affine(self.net, self.costs, 10.0)

    def test_breakpoint_demands(self):
        got = self.trace.breakpoint_demands
        assert len(got) == 5
        assert np.allclose(got, [1.0, 2.0, 3.0, 4.0, 7.0], atol=1e-9)

    def test_trace_is_complete(self):
        assert self.trace.complete

    def test_cost_lines(self):
        # lambda(mu) per segment: 3mu, 1+2mu, 3+mu, 1.5+1.5mu, 5.5+0.5mu, (13+2mu)/3
        expect = [(0.0, 3.0), (1.0, 2.0), (3.0, 1.0), (1.5, 1.5),
                  (5.5, 0.5), (13.0 / 3.0, 2.0 / 3.0)]
        assert len(self.trace.segments) == 6
        for seg, (a, b) in zip(self.trace.segments, expect):
            assert seg.alpha == pytest.approx(a, abs=1e-8)
            assert seg.beta == pytest.approx(b, abs=1e-8)

    def test_active_edge_progression(self):
        zig = {"O-v1", "v1-v2", "v2-v3", "v3-D"}
        expect = [
            zig,
            zig | {"O-v2"},
            zig | {"O-v2", "v1-v3"},
            {"O-v1", "O-v2", "v1-v3", "v2-v3", "v3-D"},
            {"O-v1", "O-v2", "v1-D", "v1-v3", "v2-v3", "v3-D"},
            {"O-v1", "O-v2", "v1-D", "v2-v3", "v3-D"},
        ]
        for seg, act in zip(self.trace.segments, expect):
            assert seg.active_edges == frozenset(act), seg.mu_lo

    def test_interior_points_reproduce_the_line(self):
        # two exact solves pin the line; a third demand must sit on it
        seg = self.trace.segment_at(5.0)
        assert (seg.mu_lo, seg.mu_hi) == (pytest.approx(4.0), pytest.approx(7.0))
        for mu in (5.0, 6.0, 6.5):
            sol = solve_affine_exact(self.net, self.costs, mu)
            assert np.abs(sol.path_flows - seg.flows(mu)).max() < 1e-8

    def test_segment_flows_are_wardrop_at_interior_samples(self):
        for seg in self.trace.segments:
            for t in (0.1, 0.3, 0.5, 0.7, 0.9):
                mu = seg.mu_lo + t * (seg.mu_hi - seg.mu_lo)
                assert segment_report(self.net, self.costs, seg, mu).ok, (seg.mu_lo, mu)

    def test_unused_paths_have_zero_line(self):
        # paths priced above lambda on a segment carry identically zero flow
        ps = PathSet.build(self.net)
        cost_list = _cost_list(self.net, self.costs)
        for seg in self.trace.segments:
            mu = 0.5 * (seg.mu_lo + seg.mu_hi)
            x = ps.incidence @ seg.flows(mu)
            ce = cost_list.evaluate(x)
            c_path = ce @ ps.incidence
            lam = c_path.min()
            for p in range(ps.n_paths):
                if c_path[p] > lam + 1e-7:
                    assert abs(seg.w[p]) < 1e-10
                    assert abs(seg.z[p]) < 1e-10

    def test_lambda_continuous_at_breakpoints(self):
        for i, bp in enumerate(self.trace.breakpoints):
            left = self.trace.segments[i].lam(bp.mu)
            right = self.trace.segments[i + 1].lam(bp.mu)
            assert abs(left - right) < 1e-8

    def test_no_active_set_repeats(self):
        seen = [seg.active_edges for seg in self.trace.segments]
        assert len(set(seen)) == len(seen)

    def test_breakpoint_sides_match_segments(self):
        for i, bp in enumerate(self.trace.breakpoints):
            assert bp.active_before == self.trace.segments[i].active_edges
            assert bp.active_after == self.trace.segments[i + 1].active_edges


# -- two-level nested fixture ----------------------------------------------------


class TestNestedTrace:
    def setup_method(self):
        self.net, self.costs = tracked("nested2")
        self.trace = trace_affine(self.net, self.costs, 25.0)

    def test_breakpoints(self):
        assert np.allclose(self.trace.breakpoint_demands,
                           [1.0, 2.0, 6.0, 14.0, 15.0, 20.0], atol=1e-9)

    def test_cost_lines(self):
        expect = [(0.0, 4.0), (2.0, 2.0), (1.0, 2.5), (14.5, 0.25),
                  (18.0, 0.0), (12.0, 0.4), (10.0, 0.5)]
        for seg, (a, b) in zip(self.trace.segments, expect):
            assert seg.alpha == pytest.approx(a, abs=1e-8)
            assert seg.beta == pytest.approx(b, abs=1e-8)

    def test_cost_values(self):
        for mu, lam in [(4.0, 11.0), (6.0, 16.0), (14.0, 18.0), (22.0, 21.0)]:
            assert self.trace.segment_at(mu).lam(mu) == pytest.approx(lam, abs=1e-8)

    def test_equilibrium_social_cost_on_middle_segment(self):
        # on (2, 6] the total cost is mu + 2.5 mu^2; at mu=4 that is 44
        seg = self.trace.segment_at(4.0)
        alpha, beta, _ = segment_coefficients(self.net, self.costs, seg)
        assert alpha * 4.0 + beta * 16.0 == pytest.approx(44.0, abs=1e-8)

    def test_interior_points_reproduce_lines(self):
        for seg in self.trace.segments:
            for t in (0.25, 0.75):
                mu = seg.mu_lo + t * (seg.mu_hi - seg.mu_lo)
                sol = solve_affine_exact(self.net, self.costs, mu)
                assert np.abs(sol.path_flows - seg.flows(mu)).max() < 1e-8


def test_three_level_nested_breakpoints():
    net, costs, trace = full_trace("nested3")
    expect = [1, 2, 6, 14, 15, 20, 60, 140, 149, 150, 162, 186, 191, 200]
    assert len(trace.breakpoints) == len(expect)
    assert np.allclose(trace.breakpoint_demands, expect, atol=1e-7)
    assert trace.complete


# -- the paper's nested family: exponentially many breakpoints -------------------


_NESTED_CACHE: dict = {}


def nested_trace(k):
    """Completed trace of nested_k, computed once per test run."""
    if k not in _NESTED_CACHE:
        _NESTED_CACHE[k] = trace_to_completion(*nested(k))
    return _NESTED_CACHE[k]


@pytest.mark.parametrize("k", range(2, 9))
def test_nested_breakpoints(k):
    trace = nested_trace(k)
    got = np.array(trace.breakpoint_demands)
    assert trace.complete
    assert len(got) == 2 ** (k + 1) - 2
    # the exact breakpoints are integers; the traced ones sit within this many ulps
    whole = np.round(got)
    assert whole.min() >= 1
    assert (np.abs(got - whole) <= 2 ** 15 * np.spacing(whole)).all()
    # each level keeps the breakpoints of the one below and adds as many again
    if k > 2:
        below = nested_trace(k - 1).breakpoint_demands
        np.testing.assert_allclose(got[:len(below)], below, rtol=1e-9, atol=0)
    if k <= 3:
        np.testing.assert_allclose(got, full_trace(f"nested{k}")[2].breakpoint_demands,
                                   rtol=1e-9, atol=0)


# -- small closed-form cases ------------------------------------------------------


def test_single_edge_has_one_segment():
    net = Network(vertices=("O", "D"), edges=(Edge("e", "O", "D"),),
                  origin="O", destination="D")
    trace = trace_affine(net, {"e": Affine(2.0, 3.0)}, 50.0)
    assert trace.breakpoints == ()
    assert trace.complete
    seg, = trace.segments
    assert seg.alpha == pytest.approx(3.0, abs=1e-9)
    assert seg.beta == pytest.approx(2.0, abs=1e-9)
    assert seg.gamma == pytest.approx(0.0, abs=1e-12)


def test_two_parallel_links_constant_alternative():
    # x alongside 1: all flow on the linear link until mu=1, then lambda sticks at 1
    net = Network(vertices=("O", "D"),
                  edges=(Edge("lin", "O", "D"), Edge("con", "O", "D")),
                  origin="O", destination="D")
    costs = {"lin": Affine(1.0, 0.0), "con": Affine(0.0, 1.0)}
    trace = trace_affine(net, costs, 8.0)
    assert np.allclose(trace.breakpoint_demands, [1.0], atol=1e-10)
    first, second = trace.segments
    assert (first.alpha, first.beta) == (pytest.approx(0.0, abs=1e-10),
                                         pytest.approx(1.0, abs=1e-10))
    assert (second.alpha, second.beta) == (pytest.approx(1.0, abs=1e-10),
                                           pytest.approx(0.0, abs=1e-10))
    assert second.gamma == pytest.approx(-0.25, abs=1e-10)


def test_two_parallel_links_offset_alternative():
    # x alongside x+1: past mu=1 the demand splits and lambda = (mu+1)/2
    net = Network(vertices=("O", "D"),
                  edges=(Edge("lin", "O", "D"), Edge("con", "O", "D")),
                  origin="O", destination="D")
    costs = {"lin": Affine(1.0, 0.0), "con": Affine(1.0, 1.0)}
    trace = trace_affine(net, costs, 8.0)
    assert np.allclose(trace.breakpoint_demands, [1.0], atol=1e-10)
    second = trace.segments[1]
    assert second.alpha == pytest.approx(0.5, abs=1e-10)
    assert second.beta == pytest.approx(0.5, abs=1e-10)


def test_braess_selection_kink_is_not_a_breakpoint():
    # equilibria are non-unique past mu=1; the minimum-norm selection bends
    # inside the segment but the active network never changes again
    net, costs = tracked("braess_direct")
    trace = trace_affine(net, costs, 10.0)
    assert np.allclose(trace.breakpoint_demands, [1.0], atol=1e-9)
    seg = trace.segments[1]
    assert seg.alpha == pytest.approx(2.0, abs=1e-8)
    assert seg.beta == pytest.approx(0.0, abs=1e-8)
    # the reported line must be a valid equilibrium across the whole segment,
    # including demands where it disagrees with the minimum-norm selection
    for mu in np.linspace(seg.mu_lo, seg.mu_hi, 9):
        if mu == 0:
            continue
        assert seg.flows(mu).min() >= -1e-9
        assert segment_report(net, costs, seg, mu).ok, mu


def test_braess_segment_lines_are_min_norm_chords():
    # A_SS is singular past mu=1: the equilibria at demand mu are
    # (mu-2+t, 1-t, t, 1-t), and the minimum-norm one has t = 2-mu on
    # [1, 4/3], t = 1-mu/4 on [4/3, 4] and t = 0 beyond. Each segment
    # reports the chord between the minimum-norm equilibria at its ends.
    net, costs = tracked("braess_direct")
    first, second = trace_affine(net, costs, 10.0).segments
    assert first.w == pytest.approx([0, 0, 1, 0], abs=1e-12)
    assert first.z == pytest.approx([0, 0, 0, 0], abs=1e-12)
    assert second.flows(1.0) == pytest.approx([0, 0, 1, 0], abs=1e-12)
    assert second.flows(10.0) == pytest.approx([8, 1, 0, 1], abs=1e-12)
    assert second.w == pytest.approx([8 / 9, 1 / 9, -1 / 9, 1 / 9], abs=1e-12)
    # tracing to completion stops at the first doubling past mu=1
    done = trace_to_completion(net, costs)
    assert done.mu_max == 8.0 and done.complete
    assert done.segments[1].flows(8.0) == pytest.approx([6, 1, 0, 1], abs=1e-12)


def test_min_norm_trace_is_invariant_under_relabelling():
    # 81 paths over 33 edges, so equilibria are far from unique and the
    # minimum-norm selection at each segment end decides the printed flows;
    # that minimum is unique, so reordering the paths must not move it
    net, costs = layered_affine_network(np.random.default_rng(0), widths=(3, 3, 3, 3))
    assert PathSet.build(net).n_paths >= 80

    def segment_ends(net, costs):
        return [(seg.mu_hi, np.sort(seg.flows(seg.mu_hi)))
                for seg in trace_affine(net, costs, 20.0).segments]

    want = segment_ends(net, costs)
    for seed in (1, 2):
        got = segment_ends(*relabel(net, costs, np.random.default_rng(seed)))
        assert len(got) == len(want)
        for (mu, flows), (mu_want, flows_want) in zip(got, want):
            assert mu == pytest.approx(mu_want, rel=1e-12)
            assert np.abs(flows - flows_want).max() <= 1e-12 * max(1.0, mu), (seed, mu)


def test_grown_trace_ends_past_the_last_breakpoint_under_relabelling():
    # 25 paths: after the last breakpoint, 4.935, the tracer meets selection
    # kinks whose demands follow the equilibrium direction the kernel takes
    # at ties, so they move with the path order; a grown trace's range is
    # doubled past the breakpoint alone, so it is the same for every order
    instances = benchmark_instances()
    net, costs = network_from_json(
        instances.layered_dag(np.random.default_rng(5), 15, 90, instances.affine_cost))
    assert PathSet.build(net).n_paths == 25
    for seed in range(6):
        net_r, costs_r = relabel(net, costs, np.random.default_rng(seed))
        for trace in (trace_to_completion(net_r, costs_r),
                      _trace(PathSet.build(net_r), _cost_list(net_r, costs_r), 8.0, grow=True)):
            assert trace.complete
            assert trace.breakpoint_demands[-1] == pytest.approx(4.935466, abs=1e-6), seed
            assert trace.mu_max == 8.0, seed


# -- optimum breakpoints -----------------------------------------------------------


def test_optimum_breakpoints_halve_demands():
    bps = tuple(Breakpoint(m, frozenset({"a"}), frozenset({"a", "b"}))
                for m in (1.0, 2.0, 3.0, 4.0, 7.0))
    got = optimum_breakpoints(bps)
    assert [b.mu for b in got] == [0.5, 1.0, 1.5, 2.0, 3.5]
    assert got[0].active_before == frozenset({"a"})
    assert got[0].active_after == frozenset({"a", "b"})


def test_optimum_breakpoints_empty_and_single():
    assert optimum_breakpoints(()) == ()
    one = (Breakpoint(1.0, frozenset(), frozenset({"e"})),)
    assert [b.mu for b in optimum_breakpoints(one)] == [0.5]


# -- social-cost coefficients and sign contracts -----------------------------------


@pytest.mark.parametrize("name", ["fig1", "nested2", "nested3", "braess_direct"])
def test_sign_contracts_on_every_segment(name):
    net, costs, trace = full_trace(name)
    for seg in trace.segments:
        alpha, beta, gamma = segment_coefficients(net, costs, seg)
        assert alpha >= -1e-9
        assert beta >= -1e-9
        assert gamma <= 1e-9


def test_sign_violation_raised_on_corrupt_segment():
    net, costs = tracked("fig1")
    trace = trace_affine(net, costs, 10.0)
    seg = trace.segments[1]
    bad = TraceSegment(mu_lo=seg.mu_lo, mu_hi=seg.mu_hi, paths=seg.paths,
                       w=-seg.w, z=seg.z, alpha=seg.alpha, beta=seg.beta,
                       gamma=seg.gamma, active_edges=seg.active_edges)
    with pytest.raises(SignViolation):
        segment_coefficients(net, costs, bad)


def test_optimum_social_cost_matches_gamma_formula():
    # optimum cost at mu equals gamma + alpha*mu + beta*mu^2 taken from the
    # segment that contains 2*mu
    from poakit.equilibrium import solve_optimum
    net, costs = tracked("fig1")
    trace = trace_affine(net, costs, 16.0)
    for mu in (0.4, 1.2, 1.7, 2.4, 3.1, 4.9):
        seg = trace.segment_at(2.0 * mu)
        predicted = seg.gamma + seg.alpha * mu + seg.beta * mu * mu
        opt = solve_optimum(net, costs, mu)
        assert opt.social_cost == pytest.approx(predicted, rel=1e-8)


# -- serialization ------------------------------------------------------------------


def test_trace_json_round_trip():
    net, costs = tracked("fig1")
    trace = trace_affine(net, costs, 10.0)
    doc = trace_to_json(trace)
    for seg_doc in doc["segments"]:
        assert set(seg_doc) == {"mu_lo", "mu_hi", "alpha", "beta", "gamma",
                                "active_edges", "w", "z"}
        assert all("|" in k or "-" in k for k in seg_doc["w"])
    back = trace_from_json(doc)
    assert back.breakpoint_demands == trace.breakpoint_demands
    assert back.mu_max == trace.mu_max
    assert back.complete == trace.complete
    for s1, s2 in zip(trace.segments, back.segments):
        assert s1.active_edges == s2.active_edges
        assert np.allclose(s1.w, s2.w)
        assert np.allclose(s1.z, s2.z)


# -- input validation ----------------------------------------------------------------


def test_trace_rejects_nonaffine_costs():
    net, costs = tracked("wheatstone_pwl")
    with pytest.raises(ValueError, match="affine"):
        trace_affine(net, costs, 5.0)


def test_trace_rejects_nonpositive_mu_max():
    net, costs = tracked("fig1")
    with pytest.raises(ValueError):
        trace_affine(net, costs, 0.0)
    with pytest.raises(ValueError):
        trace_affine(net, costs, -2.0)


def test_segment_at_matches_ownership():
    net, costs = tracked("fig1")
    trace = trace_affine(net, costs, 10.0)
    # a breakpoint demand belongs to the segment on its left
    assert trace.segment_at(trace.breakpoints[0].mu) is trace.segments[0]
    assert trace.segment_at(trace.breakpoints[0].mu + 1e-6) is trace.segments[1]
    with pytest.raises(ValueError):
        trace.segment_at(0.0)
    # NaN fails the one comparison too, instead of reading the last segment
    with pytest.raises(ValueError, match="demand must be positive, got nan"):
        trace.segment_at(float("nan"))
    empty = AffineTrace(segments=(), breakpoints=(), mu_max=1.0, complete=False)
    with pytest.raises(ValueError, match="the trace has no segments"):
        empty.segment_at(0.5)


def test_tracer_failures_are_trace_failures(monkeypatch):
    net, costs = tracked("nested3")  # 14 breakpoints
    monkeypatch.setattr(parametric, "MAX_EVENTS", 3)
    with pytest.raises(TraceFailure, match="tracer found no end after 3 events"):
        trace_to_completion(net, costs)
    monkeypatch.undo()

    def exhausted(*args, **kwargs):
        raise SupportSearchExhausted("no pivot left")

    monkeypatch.setattr(parametric, "_simplex_qp", exhausted)
    with pytest.raises(TraceFailure, match="no equilibrium direction past demand 0.0: no pivot"):
        trace_affine(net, costs, 10.0)


# -- randomized structure checks ------------------------------------------------------


def test_random_networks_trace_cleanly():
    rng = np.random.default_rng(21)
    done = 0
    while done < 12:
        net, costs = random_affine_network(rng)
        trace = trace_to_completion(net, costs, mu_start=4.0)
        done += 1
        sets = [seg.active_edges for seg in trace.segments]
        assert len(set(sets)) == len(sets), "active set repeated"
        for i, bp in enumerate(trace.breakpoints):
            left = trace.segments[i].lam(bp.mu)
            right = trace.segments[i + 1].lam(bp.mu)
            assert abs(left - right) <= 1e-8 * max(1.0, abs(left))
        for seg in trace.segments:
            alpha, beta, gamma = segment_coefficients(net, costs, seg)
            for t in (0.2, 0.8):
                mu = seg.mu_lo + t * (seg.mu_hi - seg.mu_lo)
                if mu <= 0:
                    continue
                assert segment_report(net, costs, seg, mu).ok, (seg.mu_lo, mu)

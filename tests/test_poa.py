"""Tests for the demand-indexed inefficiency ratio: points, pieces, maxima, sweeps."""

import hashlib
import math
import os
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import poakit
from poakit import cli, equilibrium, errors, network, parametric, poa
from poakit.costs import Affine, EdgeCosts, Polynomial
from poakit.equilibrium import _builds, solve_affine_exact, solve_equilibrium, solve_optimum
from poakit.errors import CertificateFailure, GridExceedsBreakpointMax
from poakit.network import Network, Edge, PathSet, load_network
from poakit.parametric import trace_affine
from poakit.poa import (
    CSV_HEADER,
    PoAPiece,
    active_set_hash,
    classify_segments,
    compute_poa,
    find_poa_max,
    sweep_csv_text,
    sweep_poa,
    _classify,
    _point,
    _trace_flows,
    poa_ratio,
)

from netgen import layered_affine_network, nested, random_affine_network

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def tracked(name):
    return load_network(os.path.join(FIXTURES, f"{name}.json"))


def quartic(costs):
    """b + a*x^4 in place of each affine a*x + b."""
    return {eid: Polynomial((c.b, 0.0, 0.0, 0.0, c.a)) for eid, c in costs.items()}


def bpr_dag():
    # degree-4 costs, the BPR shape, on an 18-path layered DAG
    net, costs = layered_affine_network(np.random.default_rng(0), widths=(3, 3, 2))
    return net, quartic(costs)


def test_nonaffine_point_pivot_count(monkeypatch):
    # each kernel pivot takes one SVD; entering by the most negative reduced
    # cost, the two Newton solves take 55 pivots here, by Bland's rule 146
    net, costs = layered_affine_network(np.random.default_rng(0), widths=(4, 3, 4))
    assert PathSet.build(net).n_paths == 48
    svd, pivots = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pivots.append(a) or svd(*a, **k))
    compute_poa(net, quartic(costs), 4.0)
    assert len(pivots) <= 55


def pigou_instance():
    # x alongside 1: the textbook worst case for affine costs
    net = Network(vertices=("O", "D"),
                  edges=(Edge("lin", "O", "D"), Edge("con", "O", "D")),
                  origin="O", destination="D")
    return net, {"lin": Affine(1.0, 0.0), "con": Affine(0.0, 1.0)}


def free_edge():
    # one O->D edge costing nothing: every ratio is 0/0, read as 1
    return Network(("O", "D"), (Edge("e", "O", "D"),), "O", "D"), {"e": Affine(0.0, 0.0)}


_CURVE_CACHE: dict = {}


def nested2_curve():
    """nested2 ratio curve over (0, 25], computed once per test run."""
    if "nested2" not in _CURVE_CACHE:
        net, costs = tracked("nested2")
        _CURVE_CACHE["nested2"] = (net, costs, classify_segments(net, costs, 25.0))
    return _CURVE_CACHE["nested2"]


def nested2_ratio_reference(mu):
    """Hand-derived closed form of the nested2 ratio, branch by branch.

    Each branch is the quadratic-over-quadratic from the per-interval cost
    coefficients, reduced by hand; an error in either the trace or the piece
    assembly would show up as a mismatch against these fractions.
    """
    if mu < 0.5:
        return 1.0
    if mu < 1:
        return 8 * mu * mu / (-1 + 4 * mu + 4 * mu * mu)
    if mu < 2:
        return (4 + 4 * mu) / (2 + 5 * mu)
    if mu < 3:
        return 1.0
    if mu < 6:
        return (4 * mu + 10 * mu * mu) / (-81 + 58 * mu + mu * mu)
    if mu < 7:
        return (58 * mu + mu * mu) / (-81 + 58 * mu + mu * mu)
    if mu < 7.5:
        return (58 * mu + mu * mu) / (-130 + 72 * mu)
    if mu < 10:
        return (290 * mu + 5 * mu * mu) / (-200 + 240 * mu + 8 * mu * mu)
    if mu < 14:
        return (58 + mu) / (40 + 2 * mu)
    if mu < 15:
        return 36 / (20 + mu)
    if mu < 20:
        return (120 + 4 * mu) / (100 + 5 * mu)
    return 1.0


class TestPointwiseRatio:
    def test_nested2_exact_values(self):
        net, costs, _ = nested2_curve()
        expected = {
            0.4: Fraction(1),
            1.0: Fraction(8, 7),
            1.5: Fraction(20, 19),
            2.5: Fraction(1),
            6.0: Fraction(384, 303),
            14.0: Fraction(18, 17),
            17.0: Fraction(188, 185),
            25.0: Fraction(1),
        }
        for mu, frac in expected.items():
            pt = compute_poa(net, costs, mu)
            assert pt.poa == pytest.approx(float(frac), abs=1e-9), f"mu={mu}"
            assert pt.sc_eq == pytest.approx(pt.poa * pt.sc_opt, rel=1e-12)

    def test_nested2_common_cost_values(self):
        net, costs, _ = nested2_curve()
        for mu, lam in [(4.0, 11.0), (6.0, 16.0), (14.0, 18.0)]:
            assert compute_poa(net, costs, mu).lam == pytest.approx(lam, abs=1e-8)

    def test_zero_demand_is_ratio_one(self):
        net, costs = tracked("fig1")
        pt = compute_poa(net, costs, 0.0)
        assert pt.poa == 1.0
        assert pt.sc_eq == 0.0
        assert pt.mu == 0.0

    @pytest.mark.parametrize("mu", [0.5, 3.0])
    def test_free_optimum_is_ratio_one(self, mu):
        # three O->D edges costing x, 0 and 1: the optimum costs exactly 0 while the
        # equilibrium's cost is dust near 1e-31, a 0/0 that reads 1
        net = Network(("O", "D"), tuple(Edge(e, "O", "D") for e in ("x", "zero", "one")), "O", "D")
        costs = {"x": Affine(1.0, 0.0), "zero": Affine(0.0, 0.0), "one": Affine(0.0, 1.0)}
        pt = compute_poa(net, costs, mu)
        assert (pt.sc_opt, pt.poa) == (0.0, 1.0)
        assert poa_ratio(pt.sc_eq, 0.0, pt.lam) == poa_ratio(0.0, 0.0, 0.0) == 1.0

    def test_negative_demand_rejected(self):
        net, costs = tracked("fig1")
        with pytest.raises(ValueError, match="nonnegative"):
            compute_poa(net, costs, -1.0)

    def test_fig1_ratio_tails(self):
        net, costs = tracked("fig1")
        # below the first breakpoint a single path carries everything optimally
        assert compute_poa(net, costs, 0.5).poa == pytest.approx(1.0, abs=1e-9)
        # far out the quadratic terms dominate and the ratio decays toward one
        far = compute_poa(net, costs, 100.0).poa
        assert 1.0 - 1e-12 <= far <= 1.0005

    def test_quadratic_costs_use_iterative_route(self):
        # parallel_quad is not affine, so this point exercises the general solver
        net, costs = tracked("parallel_quad")
        assert compute_poa(net, costs, 3.0).poa == pytest.approx(1.0, abs=1e-9)

    def test_piecewise_linear_active_set_hashes(self):
        # the same routes resurface at high demand after a middle regime
        net, costs = tracked("wheatstone_pwl")
        h = {mu: compute_poa(net, costs, mu).active_hash for mu in (1.5, 3.0, 11.0)}
        assert h[3.0] == h[11.0]
        assert h[1.5] != h[3.0]

    def test_active_hash_matches_module_function(self):
        net, costs = tracked("nested2")
        pt = compute_poa(net, costs, 4.0)
        assert pt.active_hash == active_set_hash(pt.active_edges)
        assert pt.active_hash == active_set_hash(sorted(pt.active_edges, reverse=True))
        assert len(pt.active_hash) == 12
        int(pt.active_hash, 16)


class TestCurvePieces:
    def test_nested2_merged_breakpoints(self):
        _, _, curve = nested2_curve()
        assert np.allclose(curve.merged_breakpoints,
                           [0.5, 1, 2, 3, 6, 7, 7.5, 10, 14, 15, 20], atol=1e-9)
        assert np.allclose(curve.eq_breakpoints, [1, 2, 6, 14, 15, 20], atol=1e-9)
        assert np.allclose(curve.opt_breakpoints, [0.5, 1, 3, 7, 7.5, 10], atol=1e-9)

    def test_nested2_piece_formulas_match_reference(self):
        _, _, curve = nested2_curve()
        for mu in np.linspace(0.05, 25.0, 800):
            assert curve.value(mu) == pytest.approx(
                nested2_ratio_reference(mu), abs=1e-9), f"mu={mu}"

    def test_nested2_curve_matches_direct_solves(self):
        net, costs, curve = nested2_curve()
        for mu in (0.3, 0.8, 1.7, 4.0, 6.5, 9.0, 12.0, 18.0, 23.0):
            assert curve.value(mu) == pytest.approx(
                compute_poa(net, costs, mu).poa, abs=1e-9)

    def test_nested2_piece_shapes(self):
        _, _, curve = nested2_curve()
        shapes = [p.shape for p in curve.pieces]
        assert shapes == ["constant", "increasing", "decreasing", "constant",
                          "increasing", "decreasing", "decreasing", "decreasing",
                          "decreasing", "decreasing", "decreasing", "constant"]

    def test_pigou_piece_shapes(self):
        net, costs = pigou_instance()
        curve = classify_segments(net, costs, 3.0)
        assert np.allclose(curve.merged_breakpoints, [0.5, 1.0], atol=1e-9)
        assert [p.shape for p in curve.pieces] == ["constant", "increasing",
                                                   "decreasing"]

    def test_single_edge_is_constant_one(self):
        net = Network(vertices=("O", "D"), edges=(Edge("e", "O", "D"),),
                      origin="O", destination="D")
        costs = {"e": Affine(2.0, 3.0)}
        curve = classify_segments(net, costs, 5.0)
        piece, = curve.pieces
        assert piece.shape == "constant"
        for mu in (0.1, 1.0, 4.9):
            assert curve.value(mu) == pytest.approx(1.0, abs=1e-12)

    def test_coefficient_sign_contracts(self):
        # numerator alpha,beta >= 0 and denominator gamma <= 0 <= delta,eta
        for fixture in ("fig1", "nested2"):
            net, costs = tracked(fixture)
            curve = classify_segments(net, costs, 12.0)
            for p in curve.pieces:
                assert p.num_lin >= -1e-9 * max(1.0, abs(p.num_lin))
                assert p.num_quad >= -1e-9 * max(1.0, abs(p.num_quad))
                assert p.den_const <= 1e-9 * max(1.0, abs(p.den_const))
                assert p.den_lin >= -1e-9 * max(1.0, abs(p.den_lin))
                assert p.den_quad >= -1e-9 * max(1.0, abs(p.den_quad))

    def test_pieces_tile_the_demand_range(self):
        _, _, curve = nested2_curve()
        assert curve.pieces[0].mu_lo == 0.0
        assert curve.pieces[-1].mu_hi == pytest.approx(25.0)
        for left, right in zip(curve.pieces, curve.pieces[1:]):
            assert left.mu_hi == pytest.approx(right.mu_lo, abs=1e-12)

    def test_piece_at_validation(self):
        _, _, curve = nested2_curve()
        with pytest.raises(ValueError, match="positive"):
            curve.piece_at(0.0)
        assert curve.piece_at(0.25).mu_hi == pytest.approx(0.5)
        assert curve.piece_at(0.75).mu_lo == pytest.approx(0.5)
        assert curve.piece_at(25.0) is curve.pieces[-1]
        # past the curve's end the last piece still answers
        assert curve.piece_at(30.0) is curve.pieces[-1]
        for lookup in (curve.piece_at, curve.value):
            with pytest.raises(ValueError, match="demand must be positive, got nan"):
                lookup(math.nan)

    # num_lin, num_quad, den_const, den_lin, den_quad whose slope has the sign
    # of q = -1 - 2*mu + 2*mu^2, negative up to its one positive root
    # (2 + sqrt(12))/4 = 1.366 and positive past it
    ONE_ROOT = (1.0, 1.0, -1.0, 2.0, 0.0)

    @pytest.mark.parametrize("lo, hi, fields, shape", [
        (1.0, 3.0, (1.0, 0.0, 0.0, 1.0, 0.0), "constant"),  # mu / mu
        # q = -1e-11*mu^2 sits inside the 1e-9 band at the midpoint
        (1.0, 3.0, (1.0, 1.0, 0.0, 1.0, 1.0 + 1e-11), "constant"),
        (2.0, 3.0, ONE_ROOT, "increasing"),  # the root lies below the piece
        (2.0, 3.0, (1.0, 1.0, -1.0, 0.0, 1.0), "decreasing"),  # q < 0, no root
        (0.75, 1.25, ONE_ROOT, "decreasing"),  # the root lies above the piece
    ], ids=["zero-slope", "slope-in-band", "increasing", "no-root", "root-above"])
    def test_classify_branches(self, lo, hi, fields, shape):
        assert _classify(lo, hi, *fields) == (shape, None)

    def test_classify_valley_sits_at_the_closed_form_root(self):
        shape, valley = _classify(1.0, 2.0, *self.ONE_ROOT)
        assert shape == "valley"
        assert valley == (2.0 + math.sqrt(12.0)) / 4.0
        piece = PoAPiece(1.0, 2.0, *self.ONE_ROOT)
        assert piece.value(valley) < min(piece.value(valley - 1e-4), piece.value(valley + 1e-4))

    def test_piece_value_guards_nonpositive_denominator(self):
        # a piece reads 1 where its optimum cost is not positive or its common
        # cost num_lin + num_quad*mu is 0, as poa_ratio reads a point
        zero = PoAPiece(mu_lo=0.0, mu_hi=1.0, num_lin=1.0, num_quad=0.0,
                        den_const=0.0, den_lin=0.0, den_quad=0.0)
        assert zero.value(0.5) == 1.0
        dust = replace(zero, num_lin=0.0, den_lin=1e-30)  # 0 over an optimum of dust
        assert dust.value(0.5) == 1.0
        assert replace(zero, den_lin=4.0).value(0.5) == 0.5 / 2.0

    def test_mu_max_validation(self):
        net, costs = pigou_instance()
        with pytest.raises(ValueError, match="positive"):
            classify_segments(net, costs, 0.0)


class TestMaximum:
    def test_pigou_attains_four_thirds(self):
        net, costs = pigou_instance()
        mx = find_poa_max(net, costs)
        assert mx.mu == pytest.approx(1.0, abs=1e-9)
        assert mx.value == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert mx.at_breakpoint
        assert mx.grid_value <= mx.value + 1e-7

    def test_fig1_maximum(self):
        net, costs = tracked("fig1")
        mx = find_poa_max(net, costs)
        assert mx.mu == pytest.approx(4.0, abs=1e-9)
        assert mx.value == pytest.approx(float(Fraction(360, 311)), abs=1e-9)
        assert mx.at_breakpoint

    def test_nested2_maximum(self):
        net, costs = tracked("nested2")
        mx = find_poa_max(net, costs, curve=classify_segments(net, costs, 25.0))
        assert mx.mu == pytest.approx(6.0, abs=1e-9)
        assert mx.value == pytest.approx(float(Fraction(384, 303)), abs=1e-9)
        assert mx.at_breakpoint

    def test_maximum_at_an_optimum_copy_of_an_equilibrium_breakpoint(self):
        # equilibrium breakpoints 2 and 4 up to roundoff; the optimum's copy of 4,
        # halved to 1.999999999999997, sorts ahead of the equilibrium's own
        # 2.000000000000003 and stands for both, and the maximum sits there
        net = Network(("O", "m0", "D"), tuple(Edge(f"p{k}", "O", "m0") for k in range(4))
                      + (Edge("q", "m0", "D"),), "O", "D")
        costs = {"p0": Affine(2.0, 3.0), "p1": Affine(1.0, 3.0), "p2": Affine(1.0, 0.0),
                 "p3": Affine(1.0, 2.0), "q": Affine(1.0, 2.0)}
        curve = classify_segments(net, costs)
        assert curve.eq_breakpoints == (2.000000000000003, 3.999999999999994)
        assert curve.merged_breakpoints == (1.0000000000000016, 1.999999999999997,
                                            3.999999999999994)
        assert curve.merged_at_eq == (False, True, True)
        mx = find_poa_max(net, costs, curve=curve)
        assert (mx.mu, mx.value) == (1.999999999999997, 1.0434782608695643)
        assert mx.at_breakpoint is True

    def test_single_edge_maximum_is_one(self):
        net = Network(vertices=("O", "D"), edges=(Edge("e", "O", "D"),),
                      origin="O", destination="D")
        mx = find_poa_max(net, {"e": Affine(2.0, 3.0)})
        assert mx.value == pytest.approx(1.0, abs=1e-12)

    def test_negative_slack_trips_grid_check(self, monkeypatch):
        # sanity check on the guard itself: an impossible slack must raise
        net, costs = pigou_instance()
        monkeypatch.setattr(poa, "GRID_SLACK", -1.0)
        with pytest.raises(GridExceedsBreakpointMax):
            find_poa_max(net, costs, curve=classify_segments(net, costs, 3.0))

    @pytest.mark.parametrize("name", ("fig1", "nested2", "nested3", "braess_direct", "free-edge"))
    def test_grid_is_the_pointwise_curve(self, name):
        net, costs = free_edge() if name == "free-edge" else tracked(name)
        curve = classify_segments(net, costs)
        mx = find_poa_max(net, costs, curve=curve)
        grid = np.linspace(curve.mu_max / 1000, curve.mu_max, 1000)
        values = [curve.value(mu) for mu in grid]
        gi = int(np.argmax(values))
        assert (mx.grid_mu, mx.grid_value) == (grid[gi], values[gi])

    def test_grid_guards_nonpositive_optimum_cost(self):
        # every demand of one free edge costs nothing, at equilibrium and optimum
        mx = find_poa_max(*free_edge())
        assert (mx.mu, mx.value, mx.grid_mu, mx.grid_value) == (3.0, 1.0, 0.003, 1.0)


class TestSweep:
    def test_rows_match_curve(self):
        net, costs, curve = nested2_curve()
        rows = sweep_poa(net, costs, 0.1, 25.0, 60)
        assert len(rows) == 60
        assert rows[0].mu == pytest.approx(0.1)
        assert rows[-1].mu == pytest.approx(25.0)
        for row in rows:
            assert row.poa == pytest.approx(curve.value(row.mu), abs=1e-9)
            assert row.poa == pytest.approx(nested2_ratio_reference(row.mu), abs=1e-9)

    def test_adaptive_refines_hash_changes(self):
        net, costs = pigou_instance()
        plain = sweep_poa(net, costs, 0.1, 2.0, 8)
        refined = sweep_poa(net, costs, 0.1, 2.0, 8, adaptive=True)
        assert len(refined) > len(plain)
        mus = [r.mu for r in refined]
        assert mus == sorted(mus)
        # refinement clusters samples around the activity change at mu=1
        gaps_near_bp = [b - a for a, b in zip(mus, mus[1:]) if a < 1.0 < b or a <= 1.0 <= b]
        assert min(b - a for a, b in zip(mus, mus[1:])) < (2.0 - 0.1) / 7 / 4

    def test_range_validation(self):
        net, costs = pigou_instance()
        with pytest.raises(ValueError, match="mu_lo"):
            sweep_poa(net, costs, -0.5, 2.0, 10)
        with pytest.raises(ValueError, match="mu_lo"):
            sweep_poa(net, costs, 2.0, 2.0, 10)
        # each end is read by the one checker of numbers a caller hands poakit
        for lo in ("0", True, math.nan):
            with pytest.raises(ValueError, match="mu_lo must be a finite nonnegative number"):
                sweep_poa(net, costs, lo, 2.0, 3)
        for hi in ("2", True, math.inf):
            with pytest.raises(ValueError, match="mu_hi must be a finite positive number"):
                sweep_poa(net, costs, 0.0, hi, 3)
        with pytest.raises(ValueError, match="n_samples"):
            sweep_poa(net, costs, 0.0, 2.0, 1)
        for n in (2.5, math.nan, True, "3"):
            with pytest.raises(ValueError, match="n_samples must be an integer of at least 2"):
                sweep_poa(net, costs, 0.0, 2.0, n)
        assert sweep_poa(net, costs, 0.0, 2.0, np.int64(3)) == sweep_poa(net, costs, 0.0, 2.0, 3)

    def test_csv_format_and_determinism(self):
        net, costs = pigou_instance()
        rows = sweep_poa(net, costs, 0.25, 2.0, 5)
        text = sweep_csv_text(rows)
        assert text == sweep_csv_text(sweep_poa(net, costs, 0.25, 2.0, 5))
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == "mu,lambda,sc_eq,sc_opt,poa,active_set_hash"
        assert len(lines) == 7 and lines[-1] == ""
        for line, row in zip(lines[1:6], rows):
            cells = line.split(",")
            assert len(cells) == 6
            # 17 significant digits survive a float round trip exactly
            assert float(cells[0]) == row.mu
            assert float(cells[4]) == row.poa
            assert cells[5] == row.active_hash


@pytest.mark.parametrize("gap", [1e-6, 1e-7, 3e-8, 1e-8])
def test_every_reader_takes_the_active_set_of_the_breakpoints(gap):
    # parallel edges x + 1 and x + 1 + gap: e2 enters at demand gap, and at
    # gap/2 for the optimum, however small the gap
    net = Network(("O", "D"), (Edge("e1", "O", "D"), Edge("e2", "O", "D")), "O", "D")
    costs = {"e1": Affine(1.0, 1.0), "e2": Affine(1.0, 1.0 + gap)}
    (bp,) = trace_affine(net, costs, 1.0).breakpoints
    assert (bp.active_before, bp.active_after) == ({"e1"}, {"e1", "e2"})
    for scale, active in ((0.5, {"e1"}), (2.0, {"e1", "e2"})):
        mu = scale * bp.mu
        assert solve_equilibrium(net, costs, mu).active_edges == active
        assert compute_poa(net, costs, mu).active_edges == active
        assert sweep_poa(net, costs, 0.0, mu, 2)[-1].active_edges == active
        assert solve_optimum(net, costs, 0.5 * mu).active_edges == active


@pytest.mark.parametrize("k", range(2, 9))
def test_nested_maximum(k):
    # the paper's nested_k peaks at 384/303, at demand 6*10^(k-2)
    mx = find_poa_max(*nested(k))
    assert mx.value == pytest.approx(384 / 303, rel=1e-12, abs=0)
    assert mx.mu == pytest.approx(6 * 10 ** (k - 2), rel=1e-9, abs=0)
    assert mx.at_breakpoint


def test_random_networks_stay_in_affine_bounds():
    rng = np.random.default_rng(33)
    for _ in range(6):
        net, costs = random_affine_network(rng)
        for mu in (0.4, 1.3, 3.7):
            pt = compute_poa(net, costs, mu)
            assert 1.0 - 1e-9 <= pt.poa <= 4.0 / 3.0 + 1e-6


# -- one solver choice, one build per call ------------------------------------------


AFFINE_FIXTURES = ("fig1", "nested2", "nested3", "braess_direct")

# the test refuses _newton, so any iterative solve would raise
AFFINE_ENTRY_POINTS = {
    "solve_equilibrium": lambda net, costs: solve_equilibrium(net, costs, 4.5),
    "solve_optimum": lambda net, costs: solve_optimum(net, costs, 4.5),
    "compute_poa": lambda net, costs: compute_poa(net, costs, 4.5),
    "find_poa_max": lambda net, costs: find_poa_max(net, costs),
    "sweep_poa": lambda net, costs: sweep_poa(net, costs, 0.5, 12.0, 6, adaptive=True),
}


@pytest.mark.parametrize("entry", AFFINE_ENTRY_POINTS)
@pytest.mark.parametrize("name", AFFINE_FIXTURES)
def test_affine_entry_points_run_without_newton_iterations(name, entry, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("iterative solver called on an affine instance")

    monkeypatch.setattr("poakit.equilibrium._newton", refuse)
    net, costs = tracked(name)
    AFFINE_ENTRY_POINTS[entry](net, costs)


@pytest.mark.parametrize("name", AFFINE_FIXTURES)
def test_affine_solvers_are_the_exact_solve(name):
    net, costs = tracked(name)
    m = EdgeCosts(costs).marginal()  # affine costs have affine marginals
    marginal = {eid: Affine(a, b) for eid, a, b in zip(m.ids, m.a.tolist(), m.b.tolist())}
    for mu in (0.7, 5.9):
        for sol, exact in ((solve_equilibrium(net, costs, mu), solve_affine_exact(net, costs, mu)),
                           (solve_optimum(net, costs, mu), solve_affine_exact(net, marginal, mu))):
            assert np.array_equal(sol.path_flows, exact.path_flows)
            assert np.array_equal(sol.edge_loads, exact.edge_loads)
            assert sol.cost == exact.cost
            assert sol.active_edges == exact.active_edges


def test_each_call_builds_its_path_set_once(monkeypatch, tmp_path):
    built = []
    build = PathSet.build.__func__

    def counting(cls, net):
        built.append(net)
        return build(cls, net)

    monkeypatch.setattr(PathSet, "build", classmethod(counting))

    def builds(call):
        built.clear()
        call()
        return len(built)

    net, costs, curve = nested2_curve()
    quad_net, quad_costs = tracked("parallel_quad")
    assert builds(lambda: compute_poa(net, costs, 6.0)) == 1
    assert builds(lambda: compute_poa(quad_net, quad_costs, 2.0)) == 1
    # a given curve carries the build it was traced on, which the maximum grades on
    assert builds(lambda: find_poa_max(net, costs, curve=curve)) == 0
    assert builds(lambda: sweep_poa(net, costs, 0.5, 25.0, 9)) == 1
    assert builds(lambda: sweep_poa(net, costs, 0.5, 25.0, 9, adaptive=True)) == 1
    assert builds(lambda: sweep_poa(quad_net, quad_costs, 0.5, 4.0, 5)) == 1
    # one build for the trace and for grading the candidates read off it
    out = str(tmp_path / "analyze.json")
    path = os.path.join(FIXTURES, "nested3.json")
    assert builds(lambda: cli.main(["analyze", "--network", path, "--output", out])) == 1


NAN, INF = float("nan"), float("inf")

DEMAND_ENTRY_POINTS = {
    "solve_equilibrium": lambda net, costs, v: solve_equilibrium(net, costs, v),
    "solve_optimum": lambda net, costs, v: solve_optimum(net, costs, v),
    "solve_affine_exact": lambda net, costs, v: solve_affine_exact(net, costs, v),
    "compute_poa": lambda net, costs, v: compute_poa(net, costs, v),
    "trace_affine": lambda net, costs, v: trace_affine(net, costs, v),
    "classify_segments": lambda net, costs, v: classify_segments(net, costs, v),
    "find_poa_max": lambda net, costs, v: find_poa_max(
        net, costs, curve=classify_segments(net, costs, v)),
    "sweep_poa mu_lo": lambda net, costs, v: sweep_poa(net, costs, v, 2.0, 3),
    "sweep_poa mu_hi": lambda net, costs, v: sweep_poa(net, costs, 0.5, v, 3),
}


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=str)
@pytest.mark.parametrize("entry", DEMAND_ENTRY_POINTS)
def test_non_finite_demand_rejected(entry, value):
    net, costs = pigou_instance()
    with pytest.raises(ValueError, match=re.escape(str(value))):
        DEMAND_ENTRY_POINTS[entry](net, costs, value)


@pytest.mark.parametrize("value", [-1.0, True, "3"], ids=repr)
@pytest.mark.parametrize("entry", [e for e in DEMAND_ENTRY_POINTS if not e.startswith("sweep")])
def test_a_demand_that_is_no_number_is_rejected(entry, value):
    # windows must be positive, demands nonnegative; each error names its argument
    net, costs = pigou_instance()
    window = entry in ("trace_affine", "classify_segments", "find_poa_max")
    named = "mu_max must be a finite positive" if window else "demand must be a finite nonnegative"
    with pytest.raises(ValueError, match=f"{named} number, got {re.escape(repr(value))}"):
        DEMAND_ENTRY_POINTS[entry](net, costs, value)


@pytest.mark.parametrize("name", ["fig1", "parallel_quad"])
@pytest.mark.parametrize("value", [np.int64(3), np.float64(3), np.int32(3), 3], ids=repr)
def test_numpy_demands_are_read_as_floats(name, value):
    net, costs = tracked(name)

    def bits(pt, sol):
        return ([x.hex() for x in (pt.mu, pt.lam, pt.sc_eq, pt.sc_opt, pt.poa, sol.demand,
                                   sol.cost, sol.social_cost)], sol.path_flows.tobytes())

    want = bits(compute_poa(net, costs, 3.0), solve_equilibrium(net, costs, 3.0))
    assert bits(compute_poa(net, costs, value), solve_equilibrium(net, costs, value)) == want


# -- values read off the trace, graded -----------------------------------------------


def corrupted(trace, k):
    """``trace`` with a quarter of segment k's flow rate moved off its busiest path."""
    seg = trace.segments[k]
    w = seg.w.copy()
    used = int(np.argmax(w))
    w[used] -= 0.25
    w[(used + 1) % len(w)] += 0.25
    segments = list(trace.segments)
    segments[k] = replace(seg, w=w)
    return replace(trace, segments=tuple(segments))


class TestCertificates:
    def test_find_poa_max_grades_its_reads(self):
        net, costs = tracked("fig1")
        curve = classify_segments(net, costs)
        first = curve.merged_breakpoints[0]  # read on the first segment
        with pytest.raises(CertificateFailure,
                           match=rf"equilibrium grade at mu={re.escape(repr(first))}: used path"):
            find_poa_max(net, costs, curve=replace(curve, trace=corrupted(curve.trace, 0)))

    def test_analyze_exits_three_on_a_failed_grade(self, monkeypatch, capsys):
        real = parametric._trace
        monkeypatch.setattr(poa, "_trace", lambda *args, **kwargs: corrupted(real(*args, **kwargs), 0))
        path = os.path.join(FIXTURES, "fig1.json")
        assert cli.main(["analyze", "--network", path]) == 3
        assert "equilibrium grade at mu=" in capsys.readouterr().err

    # the last segment of fig1's trace to 13 starts at 7, so it serves the
    # optimum of every row below and the equilibrium of none
    @pytest.mark.parametrize("k, lo, hi, game", [(0, 0.5, 4.0, "equilibrium"),
                                                 (-1, 4.5, 6.5, "marginal-cost")])
    def test_affine_sweep_grades_its_reads(self, k, lo, hi, game, monkeypatch):
        real = parametric._trace
        monkeypatch.setattr(poa, "_trace", lambda *args, **kwargs: corrupted(real(*args, **kwargs), k))
        net, costs = tracked("fig1")
        with pytest.raises(CertificateFailure, match=rf"{game} grade at mu={lo!r}: used path"):
            sweep_poa(net, costs, lo, hi, 3)


@pytest.mark.parametrize("widths, seed", [((2, 2, 2), 53), ((2, 3, 2), 19), ((2, 2, 3), 6)])
def test_maximum_reads_past_a_complete_trace(widths, seed):
    # several tracer lines make up the last segment of these traces, and the
    # optimum at the window's end is read at twice the window, past the
    # traced range: the line read there must still be an equilibrium
    net, costs = layered_affine_network(np.random.default_rng(seed), widths=widths)
    curve = classify_segments(net, costs)
    assert curve.trace.complete and curve.trace.mu_max < 2.0 * curve.mu_max
    mx = find_poa_max(net, costs, curve=curve)
    assert mx.value == pytest.approx(compute_poa(net, costs, mx.mu).poa, rel=1e-12)


# the full layered DAGs of widths (2,2,2), (2,3,2) and (2,2,3), seeds 0-149,
# on which a chord across the tracer lines of the last segment failed its grade
TRACE_END_CASES = [((2, 2, 2), s) for s in (3, 22, 53, 71, 146, 147)] + [
    ((2, 3, 2), s) for s in (19, 23, 61, 62, 89, 118, 122, 134, 140)] + [
    ((2, 2, 3), s) for s in (6, 11, 25, 34, 46, 93, 141, 146)]


@pytest.mark.parametrize("widths, seed", TRACE_END_CASES)
def test_maximum_agrees_with_a_pointwise_solve(widths, seed):
    net, costs = layered_affine_network(np.random.default_rng(seed), widths=widths)
    mx = find_poa_max(net, costs)
    assert mx.value == pytest.approx(compute_poa(net, costs, mx.mu).poa, rel=1e-12)


def test_trace_reads_make_no_solves(monkeypatch):
    net, costs, curve = nested2_curve()
    calls = {"_flows": 0, "_grade": 0}

    def counting(name):
        original = getattr(poa, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    def refuse(*args, **kwargs):
        raise AssertionError("a minimum-norm selection ran outside the tracer")

    for name in calls:
        monkeypatch.setattr(poa, name, counting(name))
    # PoA values need no selection among equilibria, solved or traced
    monkeypatch.setattr(equilibrium, "_min_norm_flows", refuse)
    with monkeypatch.context() as m:
        m.setattr(parametric, "_min_norm_flows", refuse)  # no trace is made either
        mx = find_poa_max(net, costs, curve=curve)
    # every candidate is graded in one stack per game
    assert calls == {"_flows": 0, "_grade": 2}
    assert mx.mu == pytest.approx(6.0, abs=1e-9)

    for lo, zero_rows in ((0.5, 0), (0.0, 1)):
        calls.update(dict.fromkeys(calls, 0))
        rows = sweep_poa(net, costs, lo, 25.0, 9, adaptive=True)
        assert calls == {"_flows": 2 * zero_rows, "_grade": 2 * len(rows)}

    # solved flows are graded as they are, on Newton and on the exact solve
    for net, costs in (tracked("parallel_quad"), bpr_dag(), tracked("fig1")):
        calls.update(dict.fromkeys(calls, 0))
        compute_poa(net, costs, 2.5)
        assert calls == {"_flows": 2, "_grade": 2}
    for net, costs in (tracked("parallel_quad"), bpr_dag()):
        calls.update(dict.fromkeys(calls, 0))
        rows = sweep_poa(net, costs, 0.0, 6.0, 7)
        assert calls == {"_flows": 2 * len(rows), "_grade": 2 * len(rows)}


def assert_same_point(read, read_hash, solved, where):
    # 1e-12 relative, widened by 1/mu below mu = 1: the direct solve's flows
    # carry absolute errors near 1e-15, so at mu 1.3e-3 on random-13 its
    # sc_eq is 1e-12 off mu*lambda, where the trace read matches it
    widen = 1.0 / min(1.0, solved.mu) if solved.mu > 0 else 1.0
    for field in ("poa", "sc_eq", "sc_opt", "lam"):
        a, b = getattr(read, field), getattr(solved, field)
        assert abs(a - b) <= 1e-12 * widen * max(abs(a), abs(b)), (where, field, a, b)
    assert read_hash == solved.active_hash, where


@pytest.mark.parametrize("name", [*AFFINE_FIXTURES, *(f"random-{k}" for k in range(20))])
def test_trace_reads_match_direct_solves(name):
    # the paper's scaling law as an oracle: the optimum at mu, read as half the
    # equilibrium at 2*mu, against the optimum solved directly at mu
    if name.startswith("random"):
        net, costs = random_affine_network(np.random.default_rng((2019, int(name[7:]))))
    else:
        net, costs = tracked(name)
    curve = classify_segments(net, costs)
    builds = _builds(net, costs)
    demands = list(curve.merged_breakpoints)
    demands += [0.5 * (p.mu_lo + p.mu_hi) for p in curve.pieces]
    for mu in demands:
        read = _point(builds, mu, *_trace_flows(curve.trace, mu))
        assert_same_point(read, read.active_hash, compute_poa(net, costs, mu), f"{name} at {mu!r}")
    sweeps = [(0.0, curve.mu_max, 17, False), (0.0, curve.mu_max, 17, True)]
    if name == "fig1":
        sweeps.append((0.0, 8.0, 9, False))  # rows on the breakpoints 1, 2, 3, 4 and 7
    for lo, hi, n, adaptive in sweeps:
        for row in sweep_poa(net, costs, lo, hi, n, adaptive=adaptive):
            assert_same_point(row, row.active_hash, compute_poa(net, costs, row.mu),
                              f"{name} row {row.mu!r}")


@pytest.mark.parametrize("name", [*AFFINE_FIXTURES, *(f"random-{k}" for k in range(50))])
def test_piece_shapes_match_their_values(name):
    # the ratio at 50 demands inside each piece stays, rises, falls, or falls
    # to the valley demand and rises past it, as the piece's shape says
    if name.startswith("random"):
        net, costs = random_affine_network(np.random.default_rng((2019, int(name[7:]))))
    else:
        net, costs = tracked(name)
    for p in classify_segments(net, costs).pieces:
        mus = np.linspace(p.mu_lo, p.mu_hi, 52)[1:-1]
        values = np.array([p.value(mu) for mu in mus])
        slack = 1e-12 * values.max()
        falls, rises = np.diff(values) <= slack, np.diff(values) >= -slack
        where = (name, p)
        if p.shape == "constant":
            assert np.ptp(values) <= 1e-9 * values.max(), where
        elif p.shape == "increasing":
            assert rises.all() and values[-1] > values[0], where
        elif p.shape == "decreasing":
            assert falls.all() and values[-1] < values[0], where
        else:
            assert p.shape == "valley" and p.mu_lo < p.valley_mu < p.mu_hi, where
            left = int(np.searchsorted(mus, p.valley_mu))
            assert falls[:max(left - 1, 0)].all() and rises[left:].all(), where
            assert p.value(p.valley_mu) <= values.min() + slack, where


# wheatstone_pwl's ranges leave out its optimum's defects on 4.06-6.0
@pytest.mark.parametrize("name, lo, hi, n", [("parallel_quad", 0.5, 12.0, 24),
                                             ("wheatstone_pwl", 0.5, 4.0, 8),
                                             ("wheatstone_pwl", 6.5, 12.0, 12)])
@pytest.mark.parametrize("adaptive", [False, True], ids=["uniform", "adaptive"])
def test_nonaffine_sweep_rows_are_compute_poa_points(name, lo, hi, n, adaptive):
    # each row is solved as compute_poa solves its demand, on one build
    net, costs = tracked(name)
    for row in sweep_poa(net, costs, lo, hi, n, adaptive=adaptive):
        assert row == compute_poa(net, costs, row.mu), (name, row.mu)


def test_retired_names_are_gone():
    # the series-parallel solver and decomposition, the sweep's row record,
    # the second path quadratic with the writer no command used, the
    # segment packager no library code called, the classifier's second
    # sign check, which every traced segment passes first, and the error a
    # free optimum raised before it read 1
    retired = ("NotSP", "SPLeaf", "SPParallel", "SPSeries", "decompose_series_parallel",
               "sp_equilibrium", "SweepRow", "write_sweep_csv", "sp_terminals",
               "segment_social_costs", "dump_network", "incidence", "segment_solution",
               "ClassificationConflict", "NonpositiveOptimum")
    for module in (poakit, network, parametric, errors):
        assert [name for name in retired if hasattr(module, name)] == [], module.__name__


def nonaffine_case(name):
    if name == "tied-constants":
        # two constant edges at one price: the solver leaves their flow on the
        # first, the selection splits it evenly
        net = Network(("O", "m", "D"), (Edge("c1", "O", "m"), Edge("c2", "O", "m"),
                                        Edge("q", "m", "D"), Edge("direct", "O", "D")), "O", "D")
        return net, {"c1": Polynomial((1.0,)), "c2": Polynomial((1.0,)),
                     "q": Polynomial((0.5, 0.0, 0.0, 0.0, 0.2)),
                     "direct": Polynomial((2.0, 0.0, 0.3))}
    if name.startswith("quartic"):
        net, costs = random_affine_network(np.random.default_rng((14, int(name[8:]))))
        return net, quartic(costs)
    return tracked(name)


@pytest.mark.parametrize("name", ["parallel_quad", "wheatstone_pwl", "tied-constants",
                                  *(f"quartic-{k}" for k in range(4))])
def test_poa_values_need_no_selection(name):
    # compute_poa grades the solver's flows as they are, while the public
    # solvers select the minimum-norm equilibrium; lambda, both total costs
    # and the active edge set are the same at every equilibrium
    net, costs = nonaffine_case(name)
    # wheatstone_pwl's optimum stalls or reads above the equilibrium on 4.06-6.0
    demands = (0.3, 1.0, 2.5, 3.9, 6.5, 8.0, 11.0) if name == "wheatstone_pwl" \
        else (0.0, 0.3, 1.0, 2.5, 5.0, 9.0)
    for mu in demands:
        pt = compute_poa(net, costs, mu)
        eq, opt = solve_equilibrium(net, costs, mu), solve_optimum(net, costs, mu)
        want = {"lam": eq.cost, "sc_eq": eq.social_cost, "sc_opt": opt.social_cost,
                "poa": poa_ratio(eq.social_cost, opt.social_cost, eq.cost)}
        for field, b in want.items():
            a = getattr(pt, field)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), (name, mu, field, a, b)
        assert pt.active_hash == active_set_hash(eq.active_edges), (name, mu)


def test_solved_flows_are_graded(monkeypatch, capsys):
    # a wrong solve: a quarter of the busiest path's flow moved onto the
    # dearest other path
    real = poa._flows

    def wrong(ps, cost_list, mu):
        f = real(ps, cost_list, mu).copy()
        costs = cost_list.evaluate(ps.incidence @ f) @ ps.incidence
        p = int(np.argmax(f))
        q = max((i for i in range(ps.n_paths) if i != p), key=lambda i: costs[i])
        f[p], f[q] = 0.75 * f[p], f[q] + 0.25 * f[p]
        return f

    monkeypatch.setattr(poa, "_flows", wrong)
    net, costs = tracked("parallel_quad")
    with pytest.raises(CertificateFailure, match=r"equilibrium grade at mu=2\.0: used path"):
        compute_poa(net, costs, 2.0)
    path = os.path.join(FIXTURES, "parallel_quad.json")
    assert cli.main(["sweep", "--network", path, "--from", "0", "--to", "8",
                     "--samples", "9"]) == 3
    assert "equilibrium grade at mu=1.0" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=errors.NonConvergence,
                   reason="ROADMAP items 36 and 23: Newton stalls on a marginal cost flat at "
                          "zero load, outside NEWTON_BAND with its duality gap met")
def test_newton_certifies_a_marginal_cost_flat_at_zero_load():
    # O->D 4 + 3x^2, O->m0 2, O->m1 3, m1->D 1, m0->m1 x^2, m0->D 4 + x^2
    arcs = (("e0", "O", "D", (4.0, 0.0, 3.0)), ("e1", "O", "m0", (2.0,)),
            ("e2", "O", "m1", (3.0,)), ("e3", "m1", "D", (1.0,)),
            ("e4", "m0", "m1", (0.0, 0.0, 1.0)), ("e5", "m0", "D", (4.0, 0.0, 1.0)))
    net = Network(("O", "m0", "m1", "D"), tuple(Edge(e, t, h) for e, t, h, _ in arcs), "O", "D")
    pt = compute_poa(net, {e: Polynomial(c) for e, _, _, c in arcs}, 10.0)
    # compute_poa returns only graded points; 1.626 is the degree-2 bound
    assert 1.0 <= pt.poa <= 1.626

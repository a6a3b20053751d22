"""Brute-force reference solvers used only by the tests.

Both oracles minimize over an integer lattice on the path-flow simplex
{f >= 0, sum f = mu}. They are deliberately dumb: no gradients, no
exploitation of structure, so solver bugs cannot leak in. Grid size is
resolution**-(paths-1), hence the hard cap at 4 paths.

The Newton routes run the iterative solver on any costs, affine ones
included, which the library solvers would solve exactly; the tests
cross-check the exact solve against them.

:func:`sp_recursion` solves a series-parallel network on its composition
tree, with no path set: series children carry the full throughput and add
their costs, parallel children split it at the first root of their
nondecreasing cost difference. The library solves the realized network on
its paths instead, so the two share no solver code but the root search.

:func:`reference` gives the per-edge formulas of one cost record: value,
primitive, derivative and marginal, one edge per call. The library
evaluates costs only through ``EdgeCosts``; the tests hold that layer to
these formulas bit for bit, and the grid scans and the series-parallel
recursion use them, so they share no evaluator with the library either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from poakit import (Affine, BisectionFailure, CostFunction, NegativeLoad, Network, PathSet,
                    PiecewiseLinear, Polynomial)
from poakit.equilibrium import (DEFAULT_TOL, MAX_ITER, EquilibriumSolution, OptimumSolution,
                                _cost_list, _first_root, _grade, _in_path_order, _min_norm_flows,
                                _newton, _package, _path_quadratic, _social)
from poakit.parametric import _signed_coefficients


class TooManyPaths(Exception):
    """Grid enumeration would be astronomically large."""


@dataclass(frozen=True)
class GridSolution:
    resolution: float
    flows: np.ndarray
    objective: float


def _simplex_batches(k: int, n: int):
    """Integer compositions of k into n parts, yielded as (N, n) arrays."""
    if n == 1:
        yield np.array([[k]], dtype=np.int64)
        return
    if n == 2:
        i = np.arange(k + 1, dtype=np.int64)
        yield np.stack([i, k - i], axis=1)
        return
    if n == 3:
        i = np.arange(k + 1, dtype=np.int64)
        a, b = np.meshgrid(i, i, indexing="ij")
        keep = (a + b) <= k
        a, b = a[keep], b[keep]
        yield np.stack([a, b, k - a - b], axis=1)
        return
    for first in range(k + 1):
        for rest in _simplex_batches(k - first, n - 1):
            block = np.empty((len(rest), n), dtype=np.int64)
            block[:, 0] = first
            block[:, 1:] = rest
            yield block


def _scan(net: Network, costs: dict[str, CostFunction], mu: float,
          resolution: float, objective) -> GridSolution:
    ps = PathSet.build(net)
    if ps.n_paths > 4:
        raise TooManyPaths(f"{ps.n_paths} paths exceed the 4-path grid cap")
    cost_list = [reference(costs[e.id]) for e in net.edges]
    k = int(round(mu / resolution)) if mu > 0 else 0
    k = max(k, 1) if mu > 0 else 0
    step = mu / k if k else 0.0

    best_val = np.inf
    best_f = np.zeros(ps.n_paths)
    for batch in _simplex_batches(k, ps.n_paths):
        flows = batch.astype(float) * step
        loads = flows @ ps.incidence.T
        vals = np.zeros(len(flows))
        for e, c in enumerate(cost_list):
            vals += objective(c, loads[:, e])
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_f = flows[i].copy()
    return GridSolution(resolution=step, flows=best_f, objective=best_val)


def brute_beckmann(net: Network, costs: dict[str, CostFunction], mu: float,
                   resolution: float) -> GridSolution:
    """Grid minimum of the routing potential sum_e integral of c_e."""
    return _scan(net, costs, mu, resolution, lambda c, x: c.primitive(x))


def brute_social(net: Network, costs: dict[str, CostFunction], mu: float,
                 resolution: float) -> GridSolution:
    """Grid minimum of the total travel cost sum_e x_e c_e(x_e)."""
    return _scan(net, costs, mu, resolution, lambda c, x: x * c.evaluate(x))


def cost_lipschitz_bound(costs: dict[str, CostFunction], mu: float) -> float:
    """Bound on every edge cost over loads in [0, mu] (costs are nondecreasing)."""
    return max(float(reference(c).evaluate(mu)) for c in costs.values()) if costs else 0.0


def segment_coefficients(net: Network, costs: dict[str, CostFunction], seg):
    """(alpha, beta, gamma) of a segment's flow line on the network's own path
    quadratic, sign-checked as the tracer checks them (SignViolation)."""
    ps = PathSet.build(net)
    A, d = _path_quadratic(ps.incidence, _cost_list(net, costs))
    w, z = _in_path_order(ps, seg.paths, np.array([seg.w, seg.z]))
    return _signed_coefficients(A, d, w, z, seg.mu_lo, seg.mu_hi)


def segment_report(net: Network, costs: dict[str, CostFunction], seg, mu: float):
    """The grade at ``mu`` of a segment's flow line, matched to the network's
    paths by key; flows below zero by no more than the dust grade as zero."""
    ps = PathSet.build(net)
    f = _in_path_order(ps, seg.paths, seg.flows(mu))
    return _grade(ps, _cost_list(net, costs), f[None, :], [mu])[0]


def _newton_solution(ps: PathSet, cost_list, mu: float) -> EquilibriumSolution:
    f = _newton(ps, cost_list, mu, DEFAULT_TOL, MAX_ITER)
    (report,) = _grade(ps, cost_list, f[None, :], [mu])
    return _package(ps, cost_list, mu, _min_norm_flows(ps, cost_list, f, report.path_costs))


def newton_equilibrium(net: Network, costs: dict[str, CostFunction],
                       mu: float) -> EquilibriumSolution:
    """The iterative route whatever the costs: Newton steps, the minimum-norm
    selection, then packaging, all at the solver defaults."""
    return _newton_solution(PathSet.build(net), _cost_list(net, costs), mu)


def newton_optimum(net: Network, costs: dict[str, CostFunction], mu: float) -> OptimumSolution:
    """:func:`newton_equilibrium` on the marginal costs, priced in the original costs."""
    cost_list = _cost_list(net, costs)
    eq = _newton_solution(PathSet.build(net), cost_list.marginal(), mu)
    social = _social(cost_list, eq.edge_loads)
    return OptimumSolution(**{**vars(eq), "social_cost": social})


# -- reference cost formulas -----------------------------------------------------


def _check_load(x) -> np.ndarray | float:
    if isinstance(x, (int, float, np.floating)):
        if x < 0:
            raise NegativeLoad(f"cost evaluated at negative load {float(x)!r}")
        return float(x)
    arr = np.asarray(x, dtype=float)
    if (arr < 0).any():
        raise NegativeLoad(f"cost evaluated at negative load {arr.min()!r}")
    return arr if arr.ndim else float(arr)


class _AffineFormulas:
    def __init__(self, cost: Affine):
        self.a, self.b = cost.a, cost.b

    def evaluate(self, x):
        x = _check_load(x)
        return self.a * x + self.b

    def primitive(self, x):
        x = _check_load(x)
        return 0.5 * self.a * x * x + self.b * x

    def marginal(self):
        return reference(Affine(2.0 * self.a, self.b))

    def derivative(self, x):
        x = _check_load(x)
        return self.a * np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else self.a


class _PolynomialFormulas:
    def __init__(self, cost: Polynomial):
        self.coeffs = cost.coeffs

    def evaluate(self, x):
        x = _check_load(x)
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def primitive(self, x):
        x = _check_load(x)
        prim = [0.0] + [c / (k + 1) for k, c in enumerate(self.coeffs)]
        return np.polynomial.polynomial.polyval(x, prim)

    def marginal(self):
        # c + x c' scales the degree-k coefficient by (k + 1)
        return reference(Polynomial(tuple((k + 1) * c for k, c in enumerate(self.coeffs))))

    def derivative(self, x):
        x = _check_load(x)
        der = [k * c for k, c in enumerate(self.coeffs)][1:] or [0.0]
        return np.polynomial.polynomial.polyval(x, der)


class _PiecewiseFormulas:
    def __init__(self, cost: PiecewiseLinear):
        self._xs, self._ys, self._cum, self._slopes = cost._xs, cost._ys, cost._cum, cost._slopes

    def evaluate(self, x):
        x = _check_load(x)
        return np.interp(x, self._xs, self._ys)

    def primitive(self, x):
        x = _check_load(x)
        xs, ys, cum = self._xs, self._ys, self._cum
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        # index of the knot at or before each sample (-1: below the first knot)
        idx = np.searchsorted(xs, arr, side="right") - 1
        out = np.empty_like(arr)
        below = idx < 0
        out[below] = ys[0] * arr[below]
        above = idx >= len(xs) - 1
        out[above] = cum[-1] + ys[-1] * (arr[above] - xs[-1])
        mid = ~(below | above)
        i = idx[mid]
        dx = arr[mid] - xs[i]
        out[mid] = cum[i] + ys[i] * dx + 0.5 * self._slopes[i + 1] * dx * dx
        return out if np.ndim(x) else float(out[0])

    def derivative(self, x):
        """Left-hand slope; 0 on the constant extensions."""
        x = _check_load(x)
        # a knot belongs to the segment on its left
        out = self._slopes[np.searchsorted(self._xs, x, side="left")]
        return out if np.ndim(x) else float(out)

    def marginal(self):
        return _PiecewiseMarginal(self)


class _PiecewiseMarginal:
    """Marginal cost c(x) + x*c'(x) of a piecewise-linear cost; its
    primitive is the closed form integral of the marginal, x*c(x)."""

    def __init__(self, base: _PiecewiseFormulas):
        self.base = base

    def evaluate(self, x):
        return self.base.evaluate(x) + np.asarray(x, dtype=float) * self.base.derivative(x)

    def primitive(self, x):
        x_arr = _check_load(x)
        return np.asarray(x_arr, dtype=float) * self.base.evaluate(x)

    def derivative(self, x):
        # d/dx (c + x c') = 2 c' between knots (c'' = 0); undefined at knots.
        return 2.0 * self.base.derivative(x)


def reference(cost: CostFunction):
    """The per-edge formulas of one cost record: ``evaluate``, ``primitive``,
    ``derivative`` at a load or an array of loads, and ``marginal()``, the
    formulas of c + x*c'."""
    formulas = {Affine: _AffineFormulas, Polynomial: _PolynomialFormulas,
                PiecewiseLinear: _PiecewiseFormulas}
    return formulas[type(cost)](cost)


# -- series-parallel recursion ---------------------------------------------------


@dataclass(frozen=True)
class SPLeaf:
    edge_id: str


@dataclass(frozen=True)
class SPSeries:
    first: "SPTree"
    second: "SPTree"


@dataclass(frozen=True)
class SPParallel:
    first: "SPTree"
    second: "SPTree"


SPTree = SPLeaf | SPSeries | SPParallel


def sp_terminals(tree: SPTree) -> list[str]:
    """Edge ids at the leaves, left to right."""
    if isinstance(tree, SPLeaf):
        return [tree.edge_id]
    return sp_terminals(tree.first) + sp_terminals(tree.second)


def _sp_cost(tree: SPTree, costs: dict[str, CostFunction], x: float) -> float:
    """Equilibrium cost of the subnetwork at throughput x."""
    if isinstance(tree, SPLeaf):
        return float(reference(costs[tree.edge_id]).evaluate(x))
    if isinstance(tree, SPSeries):
        return _sp_cost(tree.first, costs, x) + _sp_cost(tree.second, costs, x)
    if x <= 0:
        return min(_sp_cost(tree.first, costs, 0.0),
                   _sp_cost(tree.second, costs, 0.0))
    g = _sp_split(tree, costs, x)
    if g <= 0:
        return _sp_cost(tree.second, costs, x)
    if g >= x:
        return _sp_cost(tree.first, costs, x)
    return min(_sp_cost(tree.first, costs, g), _sp_cost(tree.second, costs, x - g))


def _sp_split(tree: SPParallel, costs: dict[str, CostFunction], x: float) -> float:
    """Load on the first branch: the smallest y where branch costs cross.

    phi(y) = cost1(y) - cost2(x - y) is nondecreasing; the split is
    inf{y in [0, x]: phi(y) >= 0}, or x when phi stays negative.
    """
    if x <= 0:
        return 0.0

    def phi(y):
        return (_sp_cost(tree.first, costs, y)
                - _sp_cost(tree.second, costs, x - y))

    phi_lo, phi_hi = phi(0.0), phi(x)
    if math.isnan(phi_lo) or math.isnan(phi_hi) or phi_lo > phi_hi + 1e-9 * max(1.0, abs(phi_hi)):
        raise BisectionFailure(
            f"branch cost curves not bracketable at throughput {x}")
    if phi_lo >= 0:
        return 0.0
    if phi_hi < 0:
        return float(x)
    return _first_root(phi, 0.0, phi_lo, float(x), phi_hi, 1e-13 * max(1.0, x))


def _sp_loads(tree: SPTree, costs: dict[str, CostFunction], x: float,
              out: dict[str, float]) -> None:
    """Edge loads of the subnetwork at throughput x, written into ``out``."""
    if isinstance(tree, SPLeaf):
        out[tree.edge_id] = x
    elif isinstance(tree, SPSeries):
        _sp_loads(tree.first, costs, x, out)
        _sp_loads(tree.second, costs, x, out)
    else:
        g = _sp_split(tree, costs, x)
        _sp_loads(tree.first, costs, g, out)
        _sp_loads(tree.second, costs, x - g, out)


def sp_recursion(tree: SPTree, costs: dict[str, CostFunction],
                 mu: float) -> tuple[float, np.ndarray]:
    """Equilibrium cost and edge loads, in sorted leaf order, of the
    series-parallel network ``tree`` describes, at demand mu."""
    loads: dict[str, float] = {}
    _sp_loads(tree, costs, mu, loads)
    return _sp_cost(tree, costs, mu), np.array([loads[e] for e in sorted(sp_terminals(tree))])

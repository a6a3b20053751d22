"""Wardrop equilibria and social optima at a fixed demand.

Central objects: the potential function sum_e integral_0^{x_e} c_e whose
minimizers over the path-flow simplex are exactly the equilibria, and the
marginal-cost game whose equilibria are the social optima.

Solvers:

- :func:`solve_equilibrium`  Frank-Wolfe with away steps on the potential,
  followed by an active-support Newton polish and a minimum-norm selection
  among equilibrium path flows.
- :func:`solve_optimum`      the same solver on marginal costs.
- :func:`solve_affine_exact` primal active-set method on the quadratic
  potential of all-affine costs; exact up to linear-solve precision.
- :func:`sp_equilibrium`     recursive solver on a series-parallel
  decomposition, splitting parallel joins by a monotone root search.

All solvers return the minimum-Euclidean-norm path-flow equilibrium so that
outputs are deterministic even when equilibria are non-unique.

One primal active-set kernel, :func:`_simplex_qp`, solves every quadratic
program here: min 1/2 x'Hx + g'x subject to Cx = r and x >= 0. With C = 1'
it is the exact affine solve (H, g the path quadratic) and the tracer's
direction problem past an event; with H = I, g = 0 and C an orthonormal
basis of the equations that fix the equilibrium set, it is the minimum-norm
selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import Affine, CostFunction
from .errors import BisectionFailure, NonConvergence, SupportSearchExhausted
from .network import Network, PathSet, SPLeaf, SPParallel, SPSeries, SPTree

__all__ = [
    "EquilibriumSolution",
    "OptimumSolution",
    "WardropReport",
    "RegularityReport",
    "solve_equilibrium",
    "solve_optimum",
    "solve_affine_exact",
    "verify_wardrop",
    "check_regularity",
    "sp_equilibrium",
]

DEFAULT_TOL = 1e-10
MAX_ITER = 10 ** 6
# active-path identification: c_p <= lambda * (1 + EPS_ACTIVE_REL), or
# c_p <= EPS_ACTIVE_ABS when lambda == 0
EPS_ACTIVE_REL = 1e-7
EPS_ACTIVE_ABS = 1e-9
# the active-set kernel gives up after this many pivots per variable, plus one
PIVOTS_PER_VARIABLE = 50


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equilibrium flows and derived quantities at one demand level."""

    demand: float
    edge_ids: tuple[str, ...]
    paths: tuple[tuple[str, ...], ...]
    path_flows: np.ndarray
    edge_loads: np.ndarray
    edge_costs: np.ndarray
    cost: float  # common cost of used paths
    active_edges: frozenset[str]
    beckmann_value: float
    duality_gap: float
    social_cost: float


@dataclass(frozen=True)
class OptimumSolution(EquilibriumSolution):
    """Social optimum, phrased as an equilibrium of the marginal-cost game.

    ``cost`` is the marginal-cost equilibrium value; ``social_cost`` is the
    minimized total travel cost; ``beckmann_value`` is the potential of the
    marginal-cost game, whose integrand is x*c(x).
    """


def _cost_list(net: Network, costs: dict[str, CostFunction]) -> list[CostFunction]:
    missing = [e.id for e in net.edges if e.id not in costs]
    if missing:
        raise ValueError(f"no cost given for edges {missing}")
    return [costs[e.id] for e in net.edges]


def _is_affine(cost_list) -> bool:
    return all(isinstance(c, Affine) for c in cost_list)


def _edge_costs(cost_list, loads: np.ndarray) -> np.ndarray:
    return np.array([c.evaluate(x) for c, x in zip(cost_list, loads)])


def _beckmann(cost_list, loads: np.ndarray) -> float:
    return float(sum(c.primitive(x) for c, x in zip(cost_list, loads)))


def _social(cost_list, loads: np.ndarray) -> float:
    return float(sum(x * c.evaluate(x) for c, x in zip(cost_list, loads)))


def _wardrop_residual(path_costs: np.ndarray, flows: np.ndarray, mu: float) -> float:
    """Worst violation of the equilibrium conditions, in cost units."""
    lam = float(path_costs.min())
    used = flows > 1e-12 * max(1.0, mu)
    if not used.any():
        return 0.0
    return float((path_costs[used] - lam).max())


def _active_edge_set(ps: PathSet, path_costs: np.ndarray, lam: float) -> frozenset[str]:
    if lam > 0:
        thresh = lam * (1.0 + EPS_ACTIVE_REL)
    else:
        thresh = EPS_ACTIVE_ABS
    active: set[str] = set()
    for p, path in enumerate(ps.paths):
        if path_costs[p] <= thresh:
            active.update(path)
    return frozenset(active)


# -- monotone root finding ----------------------------------------------------


def _first_root(g, lo: float, g_lo: float, hi: float, g_hi: float, xtol: float) -> float:
    """Smallest t in [lo, hi] with g(t) >= 0, to within xtol, for
    nondecreasing g with g_lo = g(lo) < 0 <= g_hi = g(hi).

    Secant steps through the two latest points, bisecting when one would
    leave the bracket or is not under half the step before last (Dekker's
    method with Brent's step test, Brent 1973, ch. 4): superlinear on smooth
    g, exact once two points share a linear piece, and finite. Steps stay
    xtol/2 inside the bracket, so linear g takes two; points with g >= 0
    close it from above, down to the left end of a zero interval. Returns the
    last point found with g < 0, short of any jump in g, or the upper end if
    that point is lo. NaN raises :class:`BisectionFailure`.
    """
    if not g_lo < 0 <= g_hi:
        raise BisectionFailure(f"no sign change to bracket on [{lo!r}, {hi!r}]")
    start = lo
    a, g_a, b, g_b = lo, g_lo, hi, g_hi  # the two latest points, b the newer
    step_prev = step_old = math.inf  # lengths of the last two steps
    while hi - lo > xtol:
        t = math.nan
        if g_b != g_a:
            t = b - g_b * (b - a) / (g_b - g_a)
            if lo <= t <= hi:
                t = min(max(t, lo + 0.5 * xtol), hi - 0.5 * xtol)
        if not (lo < t < hi and abs(t - b) < 0.5 * step_old):
            t = lo + 0.5 * (hi - lo)
            if not lo < t < hi:
                break  # lo and hi are adjacent floats
        step_prev, step_old = abs(t - b), step_prev
        g_t = g(t)
        if math.isnan(g_t):
            raise BisectionFailure(f"NaN at {t!r} while bracketing a root on [{lo!r}, {hi!r}]")
        a, g_a, b, g_b = b, g_b, t, g_t
        if g_t >= 0:
            hi = t
        else:
            lo = t
    return lo if lo > start else hi


# -- Frank-Wolfe with away steps ----------------------------------------------


def _line_search(cost_list, loads, delta, hi):
    """Minimizer of t -> potential(loads + t*delta) on [0, hi]: its slope's first root."""
    if hi <= 0:
        return 0.0

    def dphi(t):
        x = np.maximum(loads + t * delta, 0.0)
        return float(sum(c.evaluate(v) * dv for c, v, dv in zip(cost_list, x, delta)))

    slope_lo, slope_hi = dphi(0.0), dphi(hi)
    if slope_lo >= 0:
        return 0.0
    if slope_hi <= 0:
        return float(hi)
    return _first_root(dphi, 0.0, slope_lo, float(hi), slope_hi, 1e-14 * max(1.0, hi))


def _frank_wolfe(ps: PathSet, cost_list, mu: float, tol: float, max_iter: int,
                 f0: np.ndarray | None = None):
    """Minimize the potential over the path-flow simplex of total mass mu.

    Returns (flows, iterations, relative_gap). Away steps reactivate dropped
    paths and give linear convergence on affine instances. ``f0`` warm-starts
    the iteration; the default start is the cheapest free-flow path vertex.
    """
    Z = ps.incidence
    n = ps.n_paths
    if f0 is None:
        loads0 = np.zeros(ps.n_edges)
        costs0 = _edge_costs(cost_list, loads0)
        start = int(np.argmin(costs0 @ Z))
        f = np.zeros(n)
        f[start] = mu
    else:
        f = f0.copy()

    gap_rel = np.inf
    it = 0
    best_gap = np.inf
    last_improvement = 0
    for it in range(1, max_iter + 1):
        x = Z @ f
        c_edge = _edge_costs(cost_list, x)
        c_path = c_edge @ Z
        best = int(np.argmin(c_path))
        value = _beckmann(cost_list, x)
        gap = float(c_path @ f - mu * c_path[best])
        gap_rel = gap / max(abs(value), 1e-12)
        if gap_rel <= tol or gap <= 1e-15 * max(1.0, mu):
            break
        if gap < best_gap * (1.0 - 1e-3):
            best_gap = gap
            last_improvement = it
        elif it - last_improvement > 512:
            break  # gap has flatlined (nonsmooth costs); polish takes over

        used = np.flatnonzero(f > 1e-14 * mu)
        worst = int(used[np.argmax(c_path[used])])
        toward = mu * c_path[worst] - float(c_path @ f)  # away-step improvement rate
        if toward > gap and f[worst] < mu:
            d = f.copy()
            d[worst] -= mu  # direction f - mu*e_worst
            hi = f[worst] / (mu - f[worst])
        else:
            d = -f.copy()
            d[best] += mu  # direction mu*e_best - f
            hi = 1.0
        t = _line_search(cost_list, x, Z @ d, hi)
        if t <= 0:
            break  # line search stalled; polish takes over
        f = np.maximum(f + t * d, 0.0)
        f *= mu / f.sum()
    return f, it, gap_rel


# -- Newton polish on the active support --------------------------------------


def _polish(ps: PathSet, cost_list, mu: float, f0: np.ndarray, rounds: int = 60):
    """Sharpen a near-equilibrium by solving the equal-cost system on the
    used-path support, with costs linearized at the current loads.

    Exact in one step for affine costs and within a fixed piece for
    piecewise-linear costs; a few iterations for polynomials. Every candidate
    is validated before acceptance, so a failed polish cannot make the
    returned flows worse.
    """
    Z = ps.incidence
    n = ps.n_paths

    def residual(f):
        c_path = _edge_costs(cost_list, Z @ f) @ Z
        return _wardrop_residual(c_path, f, mu)

    best_f = f0
    best_res = residual(f0)
    support = set(np.flatnonzero(f0 > 1e-8 * max(1.0, mu)).tolist())
    f = f0
    for _ in range(rounds):
        S = sorted(support)
        Zs = Z[:, S]
        x = Z @ f
        c0 = _edge_costs(cost_list, x)
        slope = np.array([c.derivative(v) for c, v in zip(cost_list, x)])
        # linear model c(x0) + slope*(x - x0); unknowns (f_S, lam):
        #   Zs^T diag(slope) Zs f_S - lam = Zs^T (slope*x0 - c0),  sum f_S = mu
        m = len(S)
        lhs = np.zeros((m + 1, m + 1))
        lhs[:m, :m] = Zs.T * slope @ Zs
        lhs[:m, m] = -1.0
        lhs[m, :m] = 1.0
        rhs = np.concatenate([Zs.T @ (slope * x - c0), [mu]])
        sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        f_s = sol[:m]
        if f_s.min() < -1e-9 * max(1.0, mu):
            support.discard(S[int(np.argmin(f_s))])
            if not support:
                break
            continue
        cand = np.zeros(n)
        cand[S] = np.maximum(f_s, 0.0)
        cand *= mu / cand.sum()
        res = residual(cand)
        if res < best_res:
            best_f, best_res = cand, res
            f = cand
        # grow the support if an unused path undercuts the common cost
        c_path = _edge_costs(cost_list, Z @ cand) @ Z
        lam = float(c_path[sorted(support)].max())
        entering = [p for p in range(n)
                    if p not in support and c_path[p] < lam - 1e-13 * max(1.0, lam)]
        if res <= 1e-14 * max(1.0, lam) and not entering:
            break
        if entering:
            support.add(min(entering, key=lambda p: c_path[p]))
        elif res >= best_res:
            break
    return best_f


# -- minimum-norm selection ----------------------------------------------------


def _path_quadratic(Z: np.ndarray, cost_list) -> tuple[np.ndarray, np.ndarray]:
    """Path costs A f + d under affine edge costs a*x + b on incidence Z:
    A = Z' diag(a) Z sums slopes over shared edges, d = Z' b sums intercepts."""
    a = np.array([c.a for c in cost_list])
    b = np.array([c.b for c in cost_list])
    return Z.T * a @ Z, Z.T @ b


def _min_norm_flows(ps: PathSet, cost_list, mu: float, f: np.ndarray) -> np.ndarray:
    """Select the minimum-norm path-flow vector among equilibria.

    For all-affine costs the full equilibrium set {A f' = A f, d.f' = d.f}
    is searched; otherwise the loads are held fixed, which preserves every
    edge cost and therefore equilibrium. Both systems have dependent rows,
    so they are reduced once to an orthonormal basis B of their row space
    and the search runs on B f' = B f.
    """
    Z, n = ps.incidence, ps.n_paths
    if _is_affine(cost_list):
        A, d = _path_quadratic(Z, cost_list)
        C = np.vstack([np.ones((1, n)), A, d[None, :]])
    else:
        C = np.vstack([np.ones((1, n)), Z])
    _, sv, Vt = np.linalg.svd(C, full_matrices=False)
    B = Vt[:int((sv > 1e-10 * sv[0]).sum())]
    if len(B) == n:
        return f  # the constraints pin the flows
    try:
        out, _ = _simplex_qp(np.eye(n), np.zeros(n), B, B @ f, f)
    except SupportSearchExhausted:
        return f  # the input is an equilibrium already
    out = np.maximum(out, 0.0)
    # never let the selection degrade the equilibrium itself
    c_out = _edge_costs(cost_list, Z @ out) @ Z
    c_in = _edge_costs(cost_list, Z @ f) @ Z
    if _wardrop_residual(c_out, out, mu) <= _wardrop_residual(c_in, f, mu) + 1e-9:
        return out
    return f


# -- public solvers -------------------------------------------------------------


def _package(ps: PathSet, cost_list, mu: float, f: np.ndarray) -> EquilibriumSolution:
    Z = ps.incidence
    x = Z @ f
    c_edge = _edge_costs(cost_list, x)
    c_path = c_edge @ Z
    lam = float(c_path.min()) if len(c_path) else 0.0
    value = _beckmann(cost_list, x)
    gap = float(c_path @ f - mu * lam)
    return EquilibriumSolution(
        demand=mu,
        edge_ids=ps.net.edge_ids,
        paths=ps.paths,
        path_flows=f,
        edge_loads=x,
        edge_costs=c_edge,
        cost=lam,
        active_edges=_active_edge_set(ps, c_path, lam),
        beckmann_value=value,
        duality_gap=max(gap, 0.0),
        social_cost=_social(cost_list, x),
    )


def solve_equilibrium(net: Network, costs: dict[str, CostFunction], mu: float,
                      tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER,
                      path_cap: int | None = None) -> EquilibriumSolution:
    """Wardrop equilibrium at demand mu >= 0.

    Frank-Wolfe iterations stop once the relative duality gap drops below
    ``tol``; a support polish then sharpens the flows to near machine
    precision, and the minimum-norm equilibrium is returned. Raises
    :class:`NonConvergence` when the gap cannot be certified.
    """
    if mu < 0:
        raise ValueError(f"demand must be nonnegative, got {mu}")
    ps = PathSet.build(net, cap=path_cap)
    cost_list = _cost_list(net, costs)
    if mu == 0:
        return _package(ps, cost_list, 0.0, np.zeros(ps.n_paths))

    # escalation schedule: try the polish alone first (it is exact for affine
    # and within-piece costs), then interleave growing blocks of iterations
    # with fresh polish attempts; the polish draws on the same budget
    remaining = max_iter
    f = None
    chunk = 0
    while True:
        f, it, gap_rel = _frank_wolfe(ps, cost_list, mu, tol, chunk, f0=f)
        remaining -= it
        rounds = min(60, max(remaining, 0))
        if rounds > 0:
            f = _polish(ps, cost_list, mu, f, rounds=rounds)
        probe = _package(ps, cost_list, mu, f)
        probe_rel = probe.duality_gap / max(abs(probe.beckmann_value), 1e-12)
        if probe_rel <= tol or gap_rel <= tol:
            break
        if remaining <= 0 or (chunk > 0 and it < chunk):
            why = "iteration budget exhausted" if remaining <= 0 else "iterations stalled"
            raise NonConvergence(
                f"relative duality gap {min(gap_rel, probe_rel):.3e} above tol "
                f"{tol:.1e} after {max_iter - remaining} iterations ({why})")
        chunk = min(remaining, max(4 * chunk, 32))
    f = _min_norm_flows(ps, cost_list, mu, f)
    return _package(ps, cost_list, mu, f)


def solve_optimum(net: Network, costs: dict[str, CostFunction], mu: float,
                  tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER,
                  path_cap: int | None = None) -> OptimumSolution:
    """Social optimum at demand mu, via equilibrium of the marginal-cost game."""
    marginal = {eid: c.marginal() for eid, c in costs.items()}
    eq = solve_equilibrium(net, marginal, mu, tol=tol, max_iter=max_iter,
                           path_cap=path_cap)
    social = _social(_cost_list(net, costs), eq.edge_loads)
    return OptimumSolution(**{**vars(eq), "social_cost": social})


def _simplex_qp(H: np.ndarray, g: np.ndarray, C: np.ndarray, r: np.ndarray,
                x0: np.ndarray, free: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """min 1/2 x'Hx + g'x subject to Cx = r and x >= 0 off ``free``, from a
    feasible x0.

    Primal active-set method for positive semidefinite H (Nocedal & Wright,
    ch. 16). Each pivot solves the equality-constrained problem on the
    working set S (the variables allowed off zero) through the KKT system
    [H_SS -C_S'; C_S 0], by SVD, so that dependent rows of C_S do no harm.
    Where the system is singular in x, its null space holds zero-curvature
    directions along which the objective is linear; if one of them descends,
    the subproblem is unbounded and a null-space step moves along it to the
    first bound. Entering and leaving variables are picked by Bland's rule
    (smallest index), which rules out cycling through degenerate pivots.
    Returns (x, nu), nu being the multipliers of Cx = r, so that
    Hx + g - C'nu is zero on S and nonnegative off it. Raises
    :class:`SupportSearchExhausted` once PIVOTS_PER_VARIABLE*(n+1) pivots
    pass without an optimum.
    """
    n = len(g)
    bounded = np.ones(n, dtype=bool) if free is None else ~free
    max_pivots = PIVOTS_PER_VARIABLE * (n + 1)
    x = np.array(x0, dtype=float)
    flow_tol = 1e-12 * max(1.0, float(np.abs(x).max(initial=0.0)))
    S = ~bounded | (x > flow_tol)
    x[~S] = 0.0  # dust starts at its bound
    k = len(r)
    for _ in range(max_pivots):
        idx = np.flatnonzero(S)
        m = len(idx)
        kkt = np.zeros((m + k, m + k))
        kkt[:m, :m] = H[np.ix_(idx, idx)]
        kkt[:m, m:] = -C[:, idx].T
        kkt[m:, :m] = C[:, idx]
        U, sv, Vt = np.linalg.svd(kkt)
        rank = int((sv > 1e-10 * sv[0]).sum())
        grad = H @ x + g
        null = Vt[rank:, :m]  # zero-curvature directions (p, 0)
        slope = null @ grad[idx]
        if slope.size and np.abs(slope).max() > 1e-12 * max(1.0, np.abs(grad[idx]).max()):
            p = -(null.T @ slope)  # descends linearly until a bound blocks
        else:
            rhs = np.concatenate([-g[idx], r])
            y = Vt[:rank].T @ ((U[:, :rank].T @ rhs) / sv[:rank])
            full, nu = y[:m], y[m:]
            if full[bounded[idx]].min(initial=0.0) >= -flow_tol:
                x[idx] = full
                s = H @ x + g - C.T @ nu
                entering = np.flatnonzero(~S & (s < -1e-11 * max(1.0, np.abs(nu).max())))
                if not len(entering):
                    return x, nu
                S[entering[0]] = True
                continue
            p = full - x[idx]
        blocking = bounded[idx] & (p < 0)
        if not blocking.any():
            raise SupportSearchExhausted("objective unbounded along a null-space direction")
        ratios = np.full(m, np.inf)
        ratios[blocking] = np.maximum(x[idx][blocking], 0.0) / -p[blocking]
        j = int(np.argmin(ratios))
        x[idx] += ratios[j] * p
        x[idx[j]] = 0.0
        S[idx[j]] = False
    raise SupportSearchExhausted(f"active-set search took over {max_pivots} pivots")


def solve_affine_exact(net: Network, costs: dict[str, CostFunction], mu: float,
                       path_cap: int | None = None) -> EquilibriumSolution:
    """Exact equilibrium for all-affine costs.

    The potential is the quadratic 1/2 f'Af + d'f in path flows, minimized
    over the demand simplex by a primal active-set method that solves the
    equal-cost linear system of each candidate support directly. The answer
    is accepted when used paths share one cost, no unused path is cheaper
    and no flow is negative; otherwise :class:`SupportSearchExhausted` is
    raised, which signals numerical degeneracy.
    """
    if mu < 0:
        raise ValueError(f"demand must be nonnegative, got {mu}")
    cost_list = _cost_list(net, costs)
    if not _is_affine(cost_list):
        raise ValueError("solve_affine_exact requires every cost to be affine")
    ps = PathSet.build(net, cap=path_cap)
    if mu == 0:
        return _package(ps, cost_list, 0.0, np.zeros(ps.n_paths))

    A, d = _path_quadratic(ps.incidence, cost_list)
    f0 = np.zeros(ps.n_paths)
    f0[np.argmin(d)] = mu  # start on the cheapest path at zero load
    f, nu = _simplex_qp(A, d, np.ones((1, ps.n_paths)), np.array([mu]), f0)
    lam = float(nu[0])
    if f.min() < -1e-9 * max(1.0, mu):
        raise SupportSearchExhausted(f"negative path flow {f.min():.3e} at demand {mu}")
    f = np.maximum(f, 0.0)
    c_path = A @ f + d
    # a true support solution matches to machine precision, so both cost
    # checks can sit far below solver tolerances
    cost_tol = 1e-10 * max(1.0, abs(lam))
    if np.abs(c_path[f > 0] - lam).max() > cost_tol or c_path.min() < lam - cost_tol:
        raise SupportSearchExhausted(
            f"active-set solution fails the equal-cost test at demand {mu}")
    f = _min_norm_flows(ps, cost_list, mu, f)
    return _package(ps, cost_list, mu, f)


# -- verification and regularity ------------------------------------------------


@dataclass(frozen=True)
class WardropReport:
    """Per-path slacks of the equilibrium conditions plus the cost identity."""

    lam: float
    path_costs: np.ndarray
    slacks: np.ndarray  # c_p - lam per path
    violations: tuple[str, ...]
    social_cost: float
    social_identity_error: float  # |SC - mu*lam|
    ok: bool


def verify_wardrop(net: Network, costs: dict[str, CostFunction],
                   sol: EquilibriumSolution, tol: float = 1e-8,
                   path_cap: int | None = None) -> WardropReport:
    """Check the equilibrium conditions of a solution, report-only.

    Used paths must sit within tol of the minimum path cost; no path may be
    cheaper than the reported common cost; total cost must equal mu*lambda.
    """
    ps = PathSet.build(net, cap=path_cap)
    flow_by_path = dict(zip(sol.paths, np.asarray(sol.path_flows, dtype=float)))
    f = np.array([flow_by_path.get(p, 0.0) for p in ps.paths])
    cost_list = _cost_list(net, costs)
    x = ps.incidence @ f
    c_path = _edge_costs(cost_list, x) @ ps.incidence
    lam = float(c_path.min()) if len(c_path) else 0.0
    slacks = c_path - lam
    mu = float(f.sum())
    scale = max(1.0, lam)

    violations: list[str] = []
    if abs(mu - sol.demand) > tol * max(1.0, sol.demand):
        violations.append(
            f"path flows sum to {mu:.12g}, demand is {sol.demand:.12g}")
    for p, path in enumerate(ps.paths):
        if f[p] > tol * max(1.0, mu) and slacks[p] > tol * scale:
            violations.append(
                f"used path {'|'.join(path)} costs {c_path[p]:.12g}, "
                f"common cost is {lam:.12g}")
    social = _social(cost_list, x)
    identity_err = abs(social - mu * lam)
    if identity_err > tol * max(1.0, social):
        violations.append(
            f"total cost {social:.12g} differs from mu*lambda {mu * lam:.12g}")
    return WardropReport(
        lam=lam, path_costs=c_path, slacks=slacks,
        violations=tuple(violations), social_cost=social,
        social_identity_error=identity_err, ok=not violations,
    )


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    witnesses: tuple[str, ...]  # active edges carrying (numerically) zero load


def check_regularity(sol: EquilibriumSolution, eps_flow: float = 1e-7) -> RegularityReport:
    """A demand is regular when every active edge carries positive load.

    ``sol`` must be the minimum-norm equilibrium (as returned by the
    solvers); witnesses are the active edges with load <= eps_flow.
    """
    load = dict(zip(sol.edge_ids, np.asarray(sol.edge_loads, dtype=float)))
    witnesses = tuple(sorted(e for e in sol.active_edges if load[e] <= eps_flow))
    return RegularityReport(regular=not witnesses, witnesses=witnesses)


# -- series-parallel recursion ---------------------------------------------------


def _sp_cost(tree: SPTree, costs: dict[str, CostFunction], x: float) -> float:
    """Equilibrium cost of the subnetwork at throughput x."""
    if isinstance(tree, SPLeaf):
        return float(costs[tree.edge_id].evaluate(x))
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


def _sp_flows(tree: SPTree, costs: dict[str, CostFunction], x: float):
    """Used paths (edge-id tuples) and their flows for the subnetwork."""
    if x <= 0:
        return [], []
    if isinstance(tree, SPLeaf):
        return [(tree.edge_id,)], [x]
    if isinstance(tree, SPParallel):
        g = _sp_split(tree, costs, x)
        p1, f1 = _sp_flows(tree.first, costs, g)
        p2, f2 = _sp_flows(tree.second, costs, x - g)
        return p1 + p2, f1 + f2
    # series: pair the two decompositions greedily (northwest corner)
    p1, f1 = _sp_flows(tree.first, costs, x)
    p2, f2 = _sp_flows(tree.second, costs, x)
    paths, flows = [], []
    i = j = 0
    r1, r2 = list(f1), list(f2)
    while i < len(p1) and j < len(p2):
        m = min(r1[i], r2[j])
        if m > 0:
            paths.append(p1[i] + p2[j])
            flows.append(m)
        r1[i] -= m
        r2[j] -= m
        if r1[i] <= 1e-15 * max(1.0, x):
            i += 1
        if j < len(p2) and r2[j] <= 1e-15 * max(1.0, x):
            j += 1
    return paths, flows


def _sp_active(tree: SPTree, costs: dict[str, CostFunction], x: float,
               out: set[str]) -> None:
    """Edges on minimum-cost routes through an active subnetwork at load x."""
    if isinstance(tree, SPLeaf):
        out.add(tree.edge_id)
        return
    if isinstance(tree, SPSeries):
        _sp_active(tree.first, costs, x, out)
        _sp_active(tree.second, costs, x, out)
        return
    g = _sp_split(tree, costs, x)
    lam = _sp_cost(tree, costs, x)
    tol = EPS_ACTIVE_REL * max(1.0, abs(lam))
    if g > 0 or _sp_cost(tree.first, costs, 0.0) <= lam + tol:
        _sp_active(tree.first, costs, g, out)
    if x - g > 0 or _sp_cost(tree.second, costs, 0.0) <= lam + tol:
        _sp_active(tree.second, costs, x - g, out)


def sp_equilibrium(dec: SPTree, costs: dict[str, CostFunction],
                   mu: float) -> EquilibriumSolution:
    """Equilibrium of a series-parallel network via its composition tree.

    Series children carry the full throughput and add their costs; parallel
    children split it at the first root of their nondecreasing cost
    difference. Edge ids in the solution follow sorted leaf order.
    """
    if mu < 0:
        raise ValueError(f"demand must be nonnegative, got {mu}")
    from .network import sp_terminals

    edge_ids = tuple(sorted(sp_terminals(dec)))
    index = {e: i for i, e in enumerate(edge_ids)}
    cost_list = [costs[e] for e in edge_ids]

    paths, flows = _sp_flows(dec, costs, mu)
    f = np.array(flows) if flows else np.zeros(0)
    loads = np.zeros(len(edge_ids))
    for p, fp in zip(paths, flows):
        for e in p:
            loads[index[e]] += fp
    c_edge = _edge_costs(cost_list, loads)
    lam = _sp_cost(dec, costs, mu)
    social = _social(cost_list, loads)
    active: set[str] = set()
    _sp_active(dec, costs, mu, active)

    return EquilibriumSolution(
        demand=mu,
        edge_ids=edge_ids,
        paths=tuple(tuple(p) for p in paths),
        path_flows=f,
        edge_loads=loads,
        edge_costs=c_edge,
        cost=float(lam),
        active_edges=frozenset(active),
        beckmann_value=_beckmann(cost_list, loads),
        duality_gap=max(float(social - mu * lam), 0.0),
        social_cost=social,
    )

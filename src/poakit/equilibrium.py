"""Wardrop equilibria and social optima at a fixed demand.

Central objects: the potential function sum_e integral_0^{x_e} c_e whose
minimizers over the path-flow simplex are exactly the equilibria, and the
marginal-cost game whose equilibria are the social optima.

Solvers:

- :func:`solve_equilibrium`  exact on all-affine costs, else projected
  Newton steps on the potential (one call each of :mod:`poakit.kernel` on
  its second-order model); then a minimum-norm selection among equilibrium
  path flows, over the active paths.
- :func:`solve_optimum`      the same on marginal costs, priced in the
  original costs.
- :func:`solve_affine_exact` the same, for all-affine costs only.

All solvers return the minimum-Euclidean-norm path-flow equilibrium, so
printed path flows are deterministic even when equilibria are non-unique.
Every reader of active paths, here, in the tracer, the PoA and ``verify``,
applies one rule, :func:`_active`: flow above the dust, or a cost at lambda.
The selection runs only for path flows that get printed: PoA values, the
affine analytics and the breakpoints are read off the flows of
:func:`_flows` or of the tracer as they are (see :mod:`poakit.poa`), since
no cost depends on the choice of equilibrium. :func:`_grade` alone reads
loads, costs, lambda and total cost off a stack of flow vectors, with one
cost evaluation; every solution returned is read off the grade of its own
flows, and a failed grade raises :class:`CertificateFailure`.

Every solve reads its costs through one :class:`~poakit.costs.EdgeCosts` in
edge order: each load vector is evaluated, integrated or differentiated in
one call, not edge by edge. Each public call builds it and the path set
once for :func:`_flows`, the one place that picks the exact solve or Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostFunction, EdgeCosts, _checked
from .errors import BisectionFailure, CertificateFailure, NonConvergence, SupportSearchExhausted
from .kernel import _rank, _simplex_qp
from .network import Network, PathSet, _path_key

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
]

DEFAULT_TOL = 1e-10
GRADE_TOL = 1e-8  # relative band of a graded used path over the cheapest path
NEWTON_BAND = 0.1 * GRADE_TOL  # relative band of Newton's used paths, a tenth of the grade's
MAX_ITER = 10 ** 6


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


def _cost_list(net: Network, costs: dict[str, CostFunction]) -> EdgeCosts:
    missing = [e.id for e in net.edges if e.id not in costs]
    if missing:
        raise ValueError(f"no cost given for edges {missing}")
    return EdgeCosts({e.id: costs[e.id] for e in net.edges})


def _is_affine(cost_list: EdgeCosts) -> bool:
    return bool(cost_list.affine.all())


def _game(cost_list: EdgeCosts) -> str:
    """The game whose costs ``cost_list`` holds, as its errors name it."""
    return "marginal-cost" if cost_list.is_marginal else "equilibrium"


# Edge sums run left to right over Python floats (``sum``), not pairwise as
# ``np.sum`` does: the summation order fixes the last bits of every answer.

def _beckmann(cost_list: EdgeCosts, loads: np.ndarray) -> float:
    return float(sum(cost_list.primitive(loads).tolist()))


def _social(cost_list: EdgeCosts, loads: np.ndarray) -> float:
    return float(sum((loads * cost_list.evaluate(loads)).tolist()))


def _sums(rows: np.ndarray) -> list[float]:
    """Each row of a matrix summed as :func:`_social` sums its terms."""
    return [sum(row) for row in rows.tolist()]


def _dust(mu: float) -> float:
    """Flow at demand mu that is roundoff, not routing."""
    return 1e-9 * max(1.0, mu)


def _active(path_costs: np.ndarray, flows: np.ndarray, mu: float) -> np.ndarray:
    """Mask of the active paths at demand mu: flow above the dust, or a cost
    within 1e-9*max(1, |lambda|) of lambda, the least path cost. Exact flows
    use only tied paths; the flow term keeps a Newton solution's used paths."""
    lam = float(path_costs.min())
    return (flows > _dust(mu)) | (path_costs <= lam + 1e-9 * max(1.0, abs(lam)))


def _active_edge_set(ps: PathSet, path_costs: np.ndarray, flows: np.ndarray,
                     mu: float) -> frozenset[str]:
    """The edges of the :func:`_active` paths."""
    return frozenset(e for p in _active(path_costs, flows, mu).nonzero()[0] for e in ps.paths[p])


# -- monotone root finding ----------------------------------------------------


def _muller(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float) -> float:
    """Root nearest x2 of the quadratic through three points with distinct
    abscissae (Muller's step, in Newton's divided differences), NaN if it
    has none."""
    d01, d12 = (y1 - y0) / (x1 - x0), (y2 - y1) / (x2 - x1)
    curv = (d12 - d01) / (x2 - x0)
    w = d12 + curv * (x2 - x1)  # the quadratic's slope at x2
    disc = w * w - 4.0 * curv * y2
    if not disc >= 0:
        return math.nan
    den = w + math.copysign(math.sqrt(disc), w)
    return x2 - 2.0 * y2 / den if den else math.nan


def _first_root(g, lo: float, g_lo: float, hi: float, g_hi: float, xtol: float) -> float:
    """Smallest t in [lo, hi] with g(t) >= 0, to within xtol, for
    nondecreasing g with g_lo = g(lo) < 0 <= g_hi = g(hi).

    Secant steps through the two latest points, bisecting when one would
    leave the bracket or is not under half the step before last (Dekker's
    method with Brent's step test, Brent 1973, ch. 4): superlinear on smooth
    g, exact once two points share a linear piece, and finite. Once three
    points are known, Muller's step, the root of the quadratic through them,
    replaces the secant step when it moves the secant point by less than half
    the secant step; it is exact on quadratic g and the same tests apply to
    it. Steps stay xtol/2 inside the bracket, so linear g takes two; points
    with g >= 0 close it from above, down to the left end of a zero
    interval. Returns the last point found with g < 0, short of any jump in
    g, or the upper end if that point is lo. NaN raises
    :class:`BisectionFailure`.
    """
    if not g_lo < 0 <= g_hi:
        raise BisectionFailure(f"no sign change to bracket on [{lo!r}, {hi!r}]")
    start = lo
    a, g_a, b, g_b = lo, g_lo, hi, g_hi  # the two latest points, b the newer
    older = None  # the point before a, once there is one
    step_prev = step_old = math.inf  # lengths of the last two steps
    while hi - lo > xtol:
        t = math.nan
        if g_b != g_a:
            t = b - g_b * (b - a) / (g_b - g_a)
            if older is not None:
                t_muller = _muller(*older, a, g_a, b, g_b)
                if abs(t_muller - t) < 0.5 * abs(t - b):
                    t = t_muller
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
        older, a, g_a, b, g_b = (a, g_a), b, g_b, t, g_t
        if g_t >= 0:
            hi = t
        else:
            lo = t
    return lo if lo > start else hi


# -- Newton steps on the active-set kernel ---------------------------------------


class _FlatSlope(Exception):
    """A line search's slope read zero at the step ``args[0]``."""


def _line_search(cost_list, loads, costs, delta):
    """Minimizer of t -> potential(loads + t*delta) on [0, 1]: its slope's
    first root. ``costs`` are the edge costs at ``loads``, which give the
    slope at 0. A slope sum_e c_e*delta_e no larger than its rounding level
    n*eps*sum_e |c_e*delta_e| counts as zero, and its t is returned."""
    level = len(delta) * np.finfo(float).eps

    def dphi(t, c_edge=None):
        if c_edge is None:
            c_edge = cost_list.evaluate(np.maximum(loads + t * delta, 0.0))
        terms = (c_edge * delta).tolist()
        slope = float(sum(terms))
        if abs(slope) <= level * sum(map(abs, terms)):
            raise _FlatSlope(t)
        return slope

    try:
        slope_lo = dphi(0.0, costs)
        if slope_lo > 0:
            return 0.0
        slope_hi = dphi(1.0)
        if slope_hi < 0:
            return 1.0
        return _first_root(dphi, 0.0, slope_lo, 1.0, slope_hi, 1e-14)
    except _FlatSlope as flat:
        return flat.args[0]


def _newton(ps: PathSet, cost_list, mu: float, tol: float, max_iter: int) -> np.ndarray:
    """Minimize the potential over the path-flow simplex of total mass mu.

    Path-based projected Newton, a sequential QP (Bertsekas & Gafni 1983):
    at flows f the kernel minimizes the potential's second-order model
    1/2 y'Hy + g'y over the simplex, with H = Z' diag(c'(x)) Z and
    g = c_path - H f, and a line search on [0, 1] moves toward y. Starts
    from the cheapest free-flow path vertex and stops, on affine costs too,
    once the relative gap is at most ``tol`` and the used paths cost within
    NEWTON_BAND of lambda, which a small gap does not imply on flat costs.
    Near the optimum rounding can leave the line search short of moving the
    flows; the full step is then taken if it shrinks the gap without raising
    the potential. Raises :class:`NonConvergence` if it does not (stalled),
    or after ``max_iter`` iterations.
    """
    Z = ps.incidence
    ones, total = np.ones((1, ps.n_paths)), np.array([mu])
    f = np.zeros(ps.n_paths)
    f[np.argmin(cost_list.evaluate(np.zeros(ps.n_edges)) @ Z)] = mu

    def evaluate(f):
        x = Z @ f
        c_edge = cost_list.evaluate(x)
        c_path = c_edge @ Z
        value, gap = _beckmann(cost_list, x), float(c_path @ f - mu * c_path.min())
        if not (math.isfinite(value) and math.isfinite(gap)):
            raise ValueError(f"the costs at demand {mu!r} overflow to a non-finite "
                             "potential or duality gap")
        return x, c_edge, c_path, value, gap

    def failure(why):
        return NonConvergence(f"the {_game(cost_list)} game at mu={mu!r}: relative duality gap "
                              f"{gap_rel:.3e} above tol {tol:.1e} after {it} iterations ({why})")

    x, c_edge, c_path, value, gap = evaluate(f)
    it = 0
    while True:
        gap_rel = gap / max(abs(value), 1e-12)
        if gap_rel <= tol or gap <= 1e-15 * max(1.0, mu):
            lam = float(c_path.min())
            if (c_path[f > GRADE_TOL * max(1.0, mu)] <= lam + NEWTON_BAND * max(1.0, lam)).all():
                return f
        if it == max_iter:
            raise failure("iteration budget exhausted")
        it += 1
        H = Z.T * cost_list.derivative(x) @ Z
        y, _ = _simplex_qp(H, c_path - H @ f, ones, total, f)
        d = y - f
        t = _line_search(cost_list, x, c_edge, Z @ d)
        short = t * np.abs(d).max() <= 1e-13 * mu
        step = np.maximum(f + (1.0 if short else t) * d, 0.0)
        step *= mu / step.sum()
        x1, c_edge1, c1, value1, gap1 = evaluate(step)
        # the potential sums nonnegative primitives, so it rounds relative to itself
        if short and not (gap1 < gap and value1 <= value + 1e-12 * abs(value)):
            raise failure("iterations stalled")
        f, x, c_edge, c_path, value, gap = step, x1, c_edge1, c1, value1, gap1


# -- minimum-norm selection ----------------------------------------------------


def _path_quadratic(Z: np.ndarray, cost_list: EdgeCosts) -> tuple[np.ndarray, np.ndarray]:
    """Path costs A f + d under affine edge costs a*x + b on incidence Z:
    A = Z' diag(a) Z sums slopes over shared edges, d = Z' b sums intercepts."""
    return Z.T * cost_list.a @ Z, Z.T @ cost_list.b


def _min_norm_flows(ps: PathSet, cost_list: EdgeCosts, f: np.ndarray,
                    path_costs: np.ndarray) -> np.ndarray:
    """Select the minimum-norm path-flow vector among equilibria, given one
    equilibrium ``f`` and its graded ``path_costs``.

    Edge costs are the same at every equilibrium, so every equilibrium
    routes flow only on the paths T active at ``f`` (see :func:`_active`);
    the search runs over those columns alone. The loads of load-dependent
    edges are held, which keeps every edge cost;
    flow may move between constant edges, and a last row (only when one
    exists) holds their total cost so that none moves onto a dearer path.
    On affine costs that is the equilibrium set {A_TT f' = A_TT f, d_T.f' =
    d_T.f}, since y'A_TT y = sum_e a_e*(Z y)_e^2. The rows are dependent, so
    they are reduced once to an orthonormal basis B of their row space and
    the search runs on B f' = B f. A search that exhausts the kernel raises
    :class:`SupportSearchExhausted`.
    """
    Z = ps.incidence
    T = _active(path_costs, f, float(f.sum())).nonzero()[0]
    Z_T, f_T, n = Z[:, T], f[T], len(T)
    const = cost_list.constant
    held = [(cost_list.b * const) @ Z_T] if const.any() else []
    C = np.vstack([np.ones((1, n)), Z_T[~const], *held])
    _, sv, Vt = np.linalg.svd(C, full_matrices=False)
    B = Vt[:_rank(sv)]
    if len(B) == n:
        return f  # the constraints pin the flows
    out = np.zeros(ps.n_paths)
    out[T] = np.maximum(_simplex_qp(np.eye(n), np.zeros(n), B, B @ f_T, f_T)[0], 0.0)
    return out


# -- public solvers -------------------------------------------------------------


def _package(ps: PathSet, cost_list: EdgeCosts, mu: float, f: np.ndarray) -> EquilibriumSolution:
    """The solution with path flows ``f`` at demand mu, every number but the
    potential and the duality gap read off their grade (see :func:`_grade`);
    a failed grade raises :class:`CertificateFailure` naming the game of
    ``cost_list`` (see :func:`_game`)."""
    (report,) = _grade(ps, cost_list, f[None, :], [mu], game=_game(cost_list))
    x, c_path, lam = report.edge_loads, report.path_costs, report.lam
    return EquilibriumSolution(
        demand=mu,
        edge_ids=ps.net.edge_ids,
        paths=ps.paths,
        path_flows=f,
        edge_loads=x,
        edge_costs=report.edge_costs,
        cost=lam,
        active_edges=_active_edge_set(ps, c_path, f, mu),
        beckmann_value=_beckmann(cost_list, x),
        duality_gap=max(float(c_path @ f - mu * lam), 0.0),
        social_cost=report.social_cost,
    )


def _builds(net: Network, costs: dict[str, CostFunction]):
    """Path set, costs and marginal costs c + x*c', the optimum's game."""
    ps, cost_list = PathSet.build(net), _cost_list(net, costs)
    return ps, cost_list, cost_list.marginal()


def _flows(ps: PathSet, cost_list: EdgeCosts, mu: float, tol: float = DEFAULT_TOL,
           max_iter: int = MAX_ITER) -> np.ndarray:
    """Equilibrium path flows at demand mu >= 0 on a built path set and costs:
    exact if all are affine, else :func:`_newton` under ``tol`` and ``max_iter``."""
    if mu == 0:
        return np.zeros(ps.n_paths)
    if _is_affine(cost_list):
        return _affine_flows(ps, cost_list, mu)
    return _newton(ps, cost_list, mu, tol, max_iter)


def _solve(ps: PathSet, cost_list: EdgeCosts, mu: float, tol: float = DEFAULT_TOL,
           max_iter: int = MAX_ITER) -> EquilibriumSolution:
    """The flows of :func:`_flows`, minimum-norm selected and packaged."""
    f = _flows(ps, cost_list, mu, tol, max_iter)
    if mu == 0:
        return _package(ps, cost_list, 0.0, f)
    (report,) = _grade(ps, cost_list, f[None, :], [mu])
    return _package(ps, cost_list, mu, _min_norm_flows(ps, cost_list, f, report.path_costs))


def solve_equilibrium(net: Network, costs: dict[str, CostFunction], mu: float,
                      tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER) -> EquilibriumSolution:
    """Minimum-norm Wardrop equilibrium at a finite demand mu >= 0, read as a float.

    Exact when every cost is affine. Otherwise Newton steps on the
    active-set kernel (see :func:`_newton`) run from the cheapest free-flow
    path until the relative duality gap is at most ``tol``, at most
    ``max_iter`` of them, and raise :class:`NonConvergence` when the gap
    cannot be certified; ``tol`` and ``max_iter`` apply to that case only.
    """
    mu = _checked(mu, "demand", "nonnegative")
    return _solve(PathSet.build(net), _cost_list(net, costs), mu, tol, max_iter)


def solve_optimum(net: Network, costs: dict[str, CostFunction], mu: float,
                  tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER) -> OptimumSolution:
    """Social optimum at demand mu: the equilibrium of the marginal-cost game,
    priced in the original costs; exact when every cost is affine (so are the
    marginals), otherwise as in :func:`solve_equilibrium`."""
    mu = _checked(mu, "demand", "nonnegative")
    ps, cost_list, marginal_list = _builds(net, costs)
    eq = _solve(ps, marginal_list, mu, tol, max_iter)
    return OptimumSolution(**{**vars(eq), "social_cost": _social(cost_list, eq.edge_loads)})


def _affine_flows(ps: PathSet, cost_list: EdgeCosts, mu: float) -> np.ndarray:
    """Equilibrium path flows at demand mu > 0 for all-affine costs.

    The potential is the quadratic 1/2 f'Af + d'f in path flows, minimized
    over the demand simplex by the active-set kernel, which solves the
    equal-cost linear system of each candidate support directly. The answer
    is accepted when used paths share one cost, no unused path is cheaper
    and no flow is negative, each test failing on NaN; otherwise
    :class:`SupportSearchExhausted` is raised, which signals numerical
    degeneracy. A non-finite flow, cost or lambda (the demand is past what
    the costs hold in a float) raises ``ValueError``, as in :func:`_newton`.
    """
    A, d = _path_quadratic(ps.incidence, cost_list)
    f0 = np.zeros(ps.n_paths)
    f0[np.argmin(d)] = mu  # start on the cheapest path at zero load
    f, nu = _simplex_qp(A, d, np.ones((1, ps.n_paths)), np.array([mu]), f0)
    lam = float(nu[0])
    c_path = A @ np.maximum(f, 0.0) + d
    if not (np.isfinite(f).all() and np.isfinite(c_path).all() and math.isfinite(lam)):
        raise ValueError(f"the costs at demand {mu!r} overflow to a non-finite path flow or cost")
    if not f.min() >= -_dust(mu):
        raise SupportSearchExhausted(f"negative path flow {f.min():.3e} at demand {mu}")
    f = np.maximum(f, 0.0)
    # a true support solution matches to machine precision, so both cost
    # checks can sit far below solver tolerances
    cost_tol = 1e-10 * max(1.0, abs(lam))
    if not (np.abs(c_path[f > 0] - lam).max() <= cost_tol and c_path.min() >= lam - cost_tol):
        raise SupportSearchExhausted(
            f"active-set solution fails the equal-cost test at demand {mu}")
    return f


def solve_affine_exact(net: Network, costs: dict[str, CostFunction],
                       mu: float) -> EquilibriumSolution:
    """Exact equilibrium for all-affine costs (see :func:`_affine_flows`):
    :func:`solve_equilibrium` with a ``ValueError`` for any other cost."""
    mu = _checked(mu, "demand", "nonnegative")
    cost_list = _cost_list(net, costs)
    if not _is_affine(cost_list):
        raise ValueError("solve_affine_exact requires every cost to be affine")
    return _solve(PathSet.build(net), cost_list, mu)


# -- verification and regularity ------------------------------------------------


@dataclass(frozen=True)
class WardropReport:
    """Per-path slacks of the equilibrium conditions plus the cost identity."""

    lam: float
    edge_loads: np.ndarray  # of the flows graded
    edge_costs: np.ndarray
    path_costs: np.ndarray
    slacks: np.ndarray  # c_p - lam per path
    violations: tuple[str, ...]
    social_cost: float
    social_identity_error: float  # |SC - mu*lam|
    ok: bool


def _grade(ps: PathSet, cost_list: EdgeCosts, flows: np.ndarray, demands,
           tol: float = GRADE_TOL, game: str | None = None) -> list[WardropReport]:
    """Grade each row of ``flows`` on a built path set as an equilibrium at
    the matching entry of ``demands``; one report per row. With ``game``
    named, the first failed row raises :class:`CertificateFailure` instead.

    Flows and demand must be finite. No flow may sit below zero by more
    than the dust (see :func:`_dust`), and negative flows are graded as
    zero; flows must sum to the demand, used paths must sit within tol of
    the minimum path cost, and total cost must equal mu*lambda. One cost
    evaluation on the stack of loads, no solve. Each row's loads and path
    costs are the products Z @ f and c @ Z of that row alone, so its
    numbers do not depend on the rows graded with it.
    """
    Z = ps.incidence
    lowest = flows.min(axis=1).tolist()
    F = np.maximum(flows, 0.0) if min(lowest, default=0.0) < 0 else flows
    # stacked matrix-vector products: each row rounds as Z @ f alone does,
    # which one matrix-matrix product would not
    X = (Z @ F[:, :, None])[:, :, 0]
    C = cost_list.evaluate(X)
    P = (C[:, None, :] @ Z)[:, 0, :]
    lam = P.min(axis=1)
    slacks = P - lam[:, None]
    mu = F.sum(axis=1)
    dear = ((F > (tol * np.maximum(1.0, mu))[:, None])
            & (slacks > (tol * np.maximum(1.0, lam))[:, None]))
    reports = []
    for i, (demand, finite, low, mu_i, lam_i, social, any_dear) in enumerate(zip(
            demands, np.isfinite(flows).all(axis=1).tolist(), lowest, mu.tolist(), lam.tolist(),
            _sums(X * C), dear.any(axis=1).tolist())):
        violations: list[str] = []
        if not (finite and math.isfinite(demand)):
            violations.append("path flows or the demand are not finite")
        if low < 0:
            f = flows[i]
            violations += [f"path {_path_key(ps.paths[p])} has negative flow {f[p]:.12g}"
                           for p in (f < -_dust(demand)).nonzero()[0]]
        if abs(mu_i - demand) > tol * max(1.0, demand):
            violations.append(f"path flows sum to {mu_i:.12g}, demand is {demand:.12g}")
        if any_dear:
            violations += [_dear_path(ps.paths[p], P[i, p], lam_i) for p in dear[i].nonzero()[0]]
        identity_err = abs(social - mu_i * lam_i)
        if identity_err > tol * max(1.0, social):
            violations.append(
                f"total cost {social:.12g} differs from mu*lambda {mu_i * lam_i:.12g}")
        if game and violations:
            raise CertificateFailure(f"flows fail the {game} grade at mu={demand!r}: "
                                     + "; ".join(violations))
        reports.append(WardropReport(
            lam=lam_i, edge_loads=X[i], edge_costs=C[i], path_costs=P[i], slacks=slacks[i],
            violations=tuple(violations), social_cost=social,
            social_identity_error=identity_err, ok=not violations,
        ))
    return reports


def _dear_path(path: tuple[str, ...], cost: float, lam: float) -> str:
    return f"used path {_path_key(path)} costs {cost:.12g}, common cost is {lam:.12g}"


def _in_path_order(ps: PathSet, paths, flows) -> np.ndarray:
    """Flows given per path of ``paths`` (the last axis of ``flows``), in
    ``ps.paths`` order; other paths carry none. A path of ``paths`` that
    ``ps`` does not hold, or one listed twice, raises ``ValueError``."""
    column, known = {p: k for k, p in enumerate(paths)}, set(ps.paths)
    for k, p in enumerate(paths):
        if column[p] != k or p not in known:
            why = "listed twice" if column[p] != k else "not a path of the network"
            raise ValueError(f"path {_path_key(p)} is {why}")
    flows = np.asarray(flows, dtype=float)
    padded = np.concatenate([flows, np.zeros(flows.shape[:-1] + (1,))], axis=-1)
    return padded[..., [column.get(p, -1) for p in ps.paths]]


def verify_wardrop(net: Network, costs: dict[str, CostFunction],
                   sol: EquilibriumSolution, tol: float = GRADE_TOL) -> WardropReport:
    """Check the equilibrium conditions of a solution, report-only.

    No path flow may be negative beyond roundoff dust; used paths must sit
    within tol of the minimum path cost; no path may be cheaper than the
    reported common cost; total cost must equal mu*lambda (see :func:`_grade`).
    """
    ps = PathSet.build(net)
    f = _in_path_order(ps, sol.paths, sol.path_flows)
    return _grade(ps, _cost_list(net, costs), f[None, :], [sol.demand], tol)[0]


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    witnesses: tuple[str, ...]  # active edges whose load is dust


def check_regularity(sol: EquilibriumSolution) -> RegularityReport:
    """A demand is regular when every active edge carries flow above the dust
    (see :func:`_active`); ``sol`` must be the minimum-norm equilibrium, as
    the solvers return it. Witnesses are the active edges whose load is dust."""
    load = dict(zip(sol.edge_ids, np.asarray(sol.edge_loads, dtype=float)))
    witnesses = tuple(sorted(e for e in sol.active_edges if load[e] <= _dust(sol.demand)))
    return RegularityReport(regular=not witnesses, witnesses=witnesses)

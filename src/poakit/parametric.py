"""Exact piecewise representation of affine-cost equilibria over demand.

For all-affine costs the equilibrium flow is piecewise affine in the demand:
f(mu) = mu*w + z on maximal intervals where the active edge set is constant,
with common cost lambda(mu) = alpha + beta*mu. :func:`trace_affine` walks
those intervals by pivoting, as in a parametric linear complementarity
problem: on the current support the flow line is exact, the next event
(a used path's flow reaching zero, or an unused path's cost reaching the
common cost) has a closed-form demand, and the support past the event
comes from a small quadratic program on the paths tied at it. The demands
where the active network changes are the breakpoints; the segment algebra
feeds the efficiency analytics downstream.

Optimum-side structure comes for free: the social optimum at demand mu is
half the equilibrium at demand 2*mu, so optimum breakpoints are equilibrium
breakpoints halved and each segment carries the constant ``gamma`` of the
optimum social-cost quadratic gamma + alpha*mu + beta*mu^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import CostFunction
from .errors import SignViolation, SupportSearchExhausted, TraceFailure
from .network import Network, PathSet, incidence
from .equilibrium import (
    EquilibriumSolution,
    _cost_list,
    _is_affine,
    _min_norm_flows,
    _package,
    _path_quadratic,
    _simplex_qp,
)

__all__ = [
    "TraceSegment",
    "Breakpoint",
    "AffineTrace",
    "trace_affine",
    "trace_to_completion",
    "segment_social_costs",
    "segment_solution",
    "optimum_breakpoints",
    "trace_to_json",
    "trace_from_json",
]

SIGN_TOL = 1e-9
MAX_EVENTS = 1000
# an event within this fraction of mu_max is taken to lie at mu_max, so that
# roundoff in its root cannot leave a segment of near-zero length at the end
LIMIT_TOL = 1e-9


@dataclass(frozen=True)
class TraceSegment:
    """One maximal interval (mu_lo, mu_hi] with a constant active network.

    ``mu*w + z`` is an equilibrium path-flow vector for every mu in the
    interval; ``alpha + beta*mu`` is the equilibrium cost; ``gamma`` is the
    constant term of the optimum social cost valid where 2*mu stays inside
    this segment.
    """

    mu_lo: float
    mu_hi: float
    paths: tuple[tuple[str, ...], ...]
    w: np.ndarray
    z: np.ndarray
    alpha: float
    beta: float
    gamma: float
    active_edges: frozenset[str]

    def flows(self, mu: float) -> np.ndarray:
        return mu * self.w + self.z

    def lam(self, mu: float) -> float:
        return self.alpha + self.beta * mu


@dataclass(frozen=True)
class Breakpoint:
    """Demand where the active edge set changes, with the sets on each side."""

    mu: float
    active_before: frozenset[str]
    active_after: frozenset[str]


@dataclass(frozen=True)
class AffineTrace:
    segments: tuple[TraceSegment, ...]
    breakpoints: tuple[Breakpoint, ...]
    mu_max: float
    complete: bool  # True when no further active-set change exists beyond mu_max

    @property
    def breakpoint_demands(self) -> tuple[float, ...]:
        return tuple(b.mu for b in self.breakpoints)

    def segment_at(self, mu: float) -> TraceSegment:
        """Segment owning demand mu; breakpoints belong to the left segment."""
        if mu <= 0:
            raise ValueError(f"demand must be positive, got {mu}")
        for seg in self.segments:
            if mu <= seg.mu_hi or seg is self.segments[-1]:
                return seg
        raise ValueError(f"demand {mu} beyond traced range {self.mu_max}")


# -- segment algebra -----------------------------------------------------------


def _social_coefficients(A, d, w, z) -> tuple[float, float, float]:
    """(alpha, beta, gamma) of the flow line mu*w + z: the equilibrium social
    cost is alpha*mu + beta*mu^2 and the optimum's is gamma + alpha*mu +
    beta*mu^2 while 2*mu stays on the line."""
    alpha = float((A @ z + d) @ w)
    beta = float(A @ w @ w)
    gamma = float(0.25 * (A @ z @ z) + 0.5 * (d @ z))
    return alpha, beta, gamma


def segment_social_costs(seg: TraceSegment, costs: dict[str, CostFunction]):
    """Social-cost coefficients of a segment: (alpha, beta, gamma).

    Equilibrium social cost is alpha*mu + beta*mu^2 on the segment; optimum
    social cost is gamma + alpha*mu + beta*mu^2 while 2*mu stays inside.
    Raises :class:`SignViolation` if alpha or beta is negative or gamma is
    positive beyond tolerance, which signals a mis-traced segment.
    """
    edge_ids = sorted({e for p in seg.paths for e in p})
    A, d = _path_quadratic(incidence(seg.paths, edge_ids), [costs[e] for e in edge_ids])
    alpha, beta, gamma = _social_coefficients(A, d, seg.w, seg.z)
    scale = max(1.0, abs(alpha), abs(beta), abs(gamma))
    if alpha < -SIGN_TOL * scale or beta < -SIGN_TOL * scale or gamma > SIGN_TOL * scale:
        raise SignViolation(
            f"segment ({seg.mu_lo:.6g}, {seg.mu_hi:.6g}] has alpha={alpha:.3e}, "
            f"beta={beta:.3e}, gamma={gamma:.3e}")
    return alpha, beta, gamma


# -- the tracer ----------------------------------------------------------------


def _forward_events(w, z, A, d, mu_ref: float, active_paths) -> list[float]:
    """Demands > mu_ref where the line stops being an equilibrium.

    Two affine event families: a used path's flow reaching zero, and a path
    outside ``active_paths`` whose cost falls to the common cost.
    """
    events: list[float] = []
    # flow hits zero
    for p in range(len(w)):
        if w[p] < -1e-13:
            root = -z[p] / w[p]
            if root > mu_ref:
                events.append(float(root))
    # cost gap of a non-optimal path hits zero
    cost_slope = A @ w
    cost_icept = A @ z + d
    lam_slope = float(w @ cost_slope)
    lam_icept = float(w @ cost_icept)
    for p in range(len(w)):
        if p in active_paths:
            continue
        gs = cost_slope[p] - lam_slope
        gi = cost_icept[p] - lam_icept
        if gs < -1e-13:
            root = -gi / gs
            if root > mu_ref:
                events.append(float(root))
    return sorted(events)


def _optimal_paths(A, d, w, z, mu: float) -> set[int]:
    """Paths whose cost sits at the common cost at demand mu on the line."""
    c = A @ (mu * w + z) + d
    lam = float(c.min())
    tol = 1e-9 * max(1.0, lam)
    return {p for p in range(len(c)) if c[p] <= lam + tol}


def _pivot(A, d, mu_limit: float):
    """Equilibrium flow lines from demand 0 up to the first event at or past
    ``mu_limit`` (to within LIMIT_TOL).

    Returns ``(pieces, complete)``: each piece is ``(lo, w, z)``, the line
    mu*w + z being an equilibrium from ``lo`` up to the next piece's ``lo``;
    ``complete`` is True when no event follows the last piece. At each event
    every path tied at the common cost is resolved at once: paths that still
    carry flow keep a free rate, the others a nonnegative one, and the rates
    w minimizing w'A_TT w over sum(w) = 1 are the derivative of the
    equilibrium just past the event.
    """
    n = len(d)
    pieces = []
    lo = 0.0
    f = np.zeros(n)
    for _ in range(MAX_EVENTS):
        c = A @ f + d
        lam = float(c.min())
        # equilibrium costs here are exact to roundoff, so the tie band sits
        # well below the 1e-9 band that reads active sets off a line
        tie = np.flatnonzero(c <= lam + 1e-10 * max(1.0, abs(lam)))
        f = np.where(f > 1e-12 * max(1.0, lo), f, 0.0)  # clear roundoff dust
        flowing = f[tie] > 0
        m = len(tie)
        start = np.zeros(m)
        start[np.argmax(flowing)] = 1.0  # the first flowing path, else the first
        try:
            rate, _ = _simplex_qp(A[np.ix_(tie, tie)], np.zeros(m), np.ones((1, m)),
                                  np.ones(1), start, free=flowing)
        except SupportSearchExhausted as exc:
            raise TraceFailure(f"no equilibrium direction past demand {lo}: {exc}") from exc
        w = np.zeros(n)
        w[tie] = np.where(flowing, rate, np.maximum(rate, 0.0))
        z = f - lo * w
        pieces.append((lo, w, z))
        events = _forward_events(w, z, A, d, lo, set(tie.tolist()))
        if not events:
            return pieces, True
        if events[0] >= mu_limit * (1.0 - LIMIT_TOL):
            return pieces, False
        lo = events[0]
        f = lo * w + z
    raise TraceFailure(f"tracer found no end after {MAX_EVENTS} events")


def trace_affine(net: Network, costs: dict[str, CostFunction], mu_max: float,
                 path_cap: int | None = None, *, grow: bool = False) -> AffineTrace:
    """Trace the exact equilibrium structure over demands (0, mu_max].

    One pivoting pass from demand 0 (see :func:`_pivot`) yields the exact
    equilibrium lines and the events between them. Events that leave the
    active edge set unchanged are selection kinks (equilibria are non-unique
    there) and stay inside one segment; the others are the breakpoints, each
    belonging to the segment on its left. Each segment reports the chord
    between the minimum-norm equilibria at its two ends, an equilibrium
    across the whole segment. With ``grow`` set, ``mu_max`` is doubled until
    it lies beyond the last event, and the trace is complete.
    """
    if mu_max <= 0:
        raise ValueError(f"mu_max must be positive, got {mu_max}")
    cost_list = _cost_list(net, costs)
    if not _is_affine(cost_list):
        raise ValueError("trace_affine requires every cost to be affine")
    ps = PathSet.build(net, cap=path_cap)
    A, d = _path_quadratic(ps.incidence, cost_list)
    pieces, complete = _pivot(A, d, math.inf if grow else mu_max)
    while grow and pieces[-1][0] >= mu_max * (1.0 - LIMIT_TOL):
        mu_max *= 2.0

    def active(k: int) -> frozenset[str]:
        lo, w, z = pieces[k]
        hi = pieces[k + 1][0] if k + 1 < len(pieces) else mu_max
        return frozenset(e for p in _optimal_paths(A, d, w, z, 0.5 * (lo + hi))
                         for e in ps.paths[p])

    # group the pieces into segments of one active edge set
    groups: list[tuple[int, frozenset[str]]] = []  # (last piece, active set)
    for k in range(len(pieces)):
        act = active(k)
        if groups and groups[-1][1] == act:
            groups[-1] = (k, act)
        else:
            groups.append((k, act))

    segments: list[TraceSegment] = []
    breakpoints: list[Breakpoint] = []
    lo, f_lo = 0.0, np.zeros(ps.n_paths)
    for g, (last, act) in enumerate(groups):
        hi = pieces[last + 1][0] if g + 1 < len(groups) else mu_max
        _, w_end, z_end = pieces[last]
        f_hi = _min_norm_flows(ps, cost_list, hi, np.maximum(hi * w_end + z_end, 0.0))
        w = (f_hi - f_lo) / (hi - lo)
        z = f_lo - lo * w
        alpha, beta, gamma = _social_coefficients(A, d, w, z)
        segments.append(TraceSegment(
            mu_lo=lo, mu_hi=hi, paths=ps.paths, w=w, z=z,
            alpha=alpha, beta=beta, gamma=gamma, active_edges=act))
        if g + 1 < len(groups):
            breakpoints.append(Breakpoint(mu=hi, active_before=act,
                                          active_after=groups[g + 1][1]))
        lo, f_lo = hi, f_hi

    return AffineTrace(segments=tuple(segments), breakpoints=tuple(breakpoints),
                       mu_max=mu_max, complete=complete)


def trace_to_completion(net: Network, costs: dict[str, CostFunction],
                        mu_start: float = 8.0,
                        path_cap: int | None = None) -> AffineTrace:
    """Trace until no event remains; ``mu_max`` is the smallest
    mu_start * 2**k beyond the last event."""
    return trace_affine(net, costs, mu_start, path_cap=path_cap, grow=True)


def segment_solution(net: Network, costs: dict[str, CostFunction],
                     seg: TraceSegment, mu: float,
                     path_cap: int | None = None) -> EquilibriumSolution:
    """Equilibrium at ``mu`` from a segment's flow line, matched to paths by key.

    The line is an equilibrium only on the segment's own demand interval
    (and beyond it for the terminal segment of a complete trace); endpoint
    roundoff dust in the flows is clipped, anything more negative surfaces
    as a cost-evaluation error.
    """
    ps = PathSet.build(net, cap=path_cap)
    by_path = dict(zip(seg.paths, np.asarray(seg.flows(mu), dtype=float)))
    f = np.array([by_path.get(p, 0.0) for p in ps.paths])
    dust = 1e-9 * max(1.0, mu)
    f[(f < 0) & (f >= -dust)] = 0.0
    sol = _package(ps, _cost_list(net, costs), float(mu), f)
    return replace(sol, active_edges=seg.active_edges)


def optimum_breakpoints(breakpoints: tuple[Breakpoint, ...]) -> tuple[Breakpoint, ...]:
    """Breakpoints of the social optimum: equilibrium breakpoints halved.

    The optimum at demand mu is half the equilibrium at 2*mu, so the active
    sets on either side carry over unchanged.
    """
    return tuple(Breakpoint(mu=b.mu / 2.0, active_before=b.active_before,
                            active_after=b.active_after) for b in breakpoints)


# -- serialization ---------------------------------------------------------------


def _path_key(path: tuple[str, ...]) -> str:
    return "|".join(path)


def trace_to_json(trace: AffineTrace) -> dict:
    segments = []
    for seg in trace.segments:
        segments.append({
            "mu_lo": seg.mu_lo,
            "mu_hi": seg.mu_hi,
            "alpha": seg.alpha,
            "beta": seg.beta,
            "gamma": seg.gamma,
            "active_edges": sorted(seg.active_edges),
            "w": {_path_key(p): float(v) for p, v in zip(seg.paths, seg.w)},
            "z": {_path_key(p): float(v) for p, v in zip(seg.paths, seg.z)},
        })
    return {
        "mu_max": trace.mu_max,
        "complete": trace.complete,
        "segments": segments,
        "breakpoints": [
            {"mu": b.mu, "active_before": sorted(b.active_before),
             "active_after": sorted(b.active_after)}
            for b in trace.breakpoints
        ],
    }


def trace_from_json(doc: dict) -> AffineTrace:
    segments = []
    for s in doc["segments"]:
        paths = tuple(tuple(k.split("|")) for k in s["w"])
        segments.append(TraceSegment(
            mu_lo=float(s["mu_lo"]), mu_hi=float(s["mu_hi"]), paths=paths,
            w=np.array([s["w"][_path_key(p)] for p in paths]),
            z=np.array([s["z"][_path_key(p)] for p in paths]),
            alpha=float(s["alpha"]), beta=float(s["beta"]), gamma=float(s["gamma"]),
            active_edges=frozenset(s["active_edges"])))
    breakpoints = tuple(
        Breakpoint(mu=float(b["mu"]), active_before=frozenset(b["active_before"]),
                   active_after=frozenset(b["active_after"]))
        for b in doc["breakpoints"])
    return AffineTrace(segments=tuple(segments), breakpoints=breakpoints,
                       mu_max=float(doc["mu_max"]), complete=bool(doc["complete"]))

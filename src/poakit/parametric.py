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

Each segment is the chord between two equilibria at its ends, itself an
equilibrium on [mu_lo, mu_hi] (loads are affine there) but not in general
past it. The analytics and the breakpoints read :func:`_trace`, whose
chords join the tracer's own equilibria: nothing they report depends on
the choice among equilibria. Only :func:`trace_affine`, whose path flows
get printed, selects the minimum-norm equilibrium at each segment end, and
grades those ends: a failed grade raises :class:`CertificateFailure`.

Optimum-side structure comes for free: the social optimum at demand mu is
half the equilibrium at demand 2*mu, so optimum breakpoints are equilibrium
breakpoints halved and each segment carries the constant ``gamma`` of the
optimum social-cost quadratic gamma + alpha*mu + beta*mu^2.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .costs import CostFunction, EdgeCosts, _checked, _field
from .errors import SignViolation, SupportSearchExhausted, TraceFailure
from .network import Network, PathSet, _path_key
from .equilibrium import (
    _active_edge_set,
    _cost_list,
    _grade,
    _is_affine,
    _min_norm_flows,
    _path_quadratic,
)
from .kernel import _simplex_qp

__all__ = [
    "TraceSegment",
    "Breakpoint",
    "AffineTrace",
    "trace_affine",
    "trace_to_completion",
    "optimum_breakpoints",
    "trace_to_json",
    "trace_from_json",
]

SIGN_TOL = 1e-9
MAX_EVENTS = 1000
# first range of a trace grown to completion
MU_START = 8.0
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
        """Segment owning demand mu > 0 (NaN raises); breakpoints belong to the left one."""
        return _owner(self.segments, mu)


def _owner(parts, mu: float):
    """By bisection, the first of ``parts`` in demand order with mu_hi >= mu > 0, else the last."""
    if not mu > 0:  # NaN too
        raise ValueError(f"demand must be positive, got {mu}")
    if not parts:
        raise ValueError("the trace has no segments")
    return parts[bisect.bisect_left(parts, mu, 0, len(parts) - 1, key=attrgetter("mu_hi"))]


# -- segment algebra -----------------------------------------------------------


def _social_coefficients(A, d, w, z) -> tuple[float, float, float]:
    """(alpha, beta, gamma) of the flow line mu*w + z: the equilibrium social
    cost is alpha*mu + beta*mu^2 and the optimum's is gamma + alpha*mu +
    beta*mu^2 while 2*mu stays on the line."""
    alpha = float((A @ z + d) @ w)
    beta = float(A @ w @ w)
    gamma = float(0.25 * (A @ z @ z) + 0.5 * (d @ z))
    return alpha, beta, gamma


def _signed_coefficients(A, d, w, z, mu_lo: float, mu_hi: float) -> tuple[float, float, float]:
    """:func:`_social_coefficients` of the segment (mu_lo, mu_hi]; alpha or beta
    below 0, or gamma above it, by SIGN_TOL relative raises :class:`SignViolation`."""
    alpha, beta, gamma = _social_coefficients(A, d, w, z)
    scale = max(1.0, abs(alpha), abs(beta), abs(gamma))
    if alpha < -SIGN_TOL * scale or beta < -SIGN_TOL * scale or gamma > SIGN_TOL * scale:
        raise SignViolation(
            f"segment ({mu_lo:.6g}, {mu_hi:.6g}] has alpha={alpha:.3e}, "
            f"beta={beta:.3e}, gamma={gamma:.3e}")
    return alpha, beta, gamma


# -- the tracer ----------------------------------------------------------------


def _forward_events(w, z, A, d, mu_ref: float, tied: np.ndarray) -> list[float]:
    """Demands > mu_ref where the line stops being an equilibrium.

    Two affine event families: a used path's flow reaching zero, and a path
    outside ``tied`` (indices) whose cost falls to the common cost.
    """
    # flow hits zero
    falling = w < -1e-13
    roots = [-z[falling] / w[falling]]
    # cost gap of a non-optimal path hits zero
    cost_slope = A @ w
    cost_icept = A @ z + d
    lam_slope = float(w @ cost_slope)
    lam_icept = float(w @ cost_icept)
    gap_slope = cost_slope - lam_slope
    closing = gap_slope < -1e-13
    closing[tied] = False
    roots.append(-(cost_icept[closing] - lam_icept) / gap_slope[closing])
    events = np.concatenate(roots)
    return sorted(events[events > mu_ref].tolist())


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
        # well below the 1e-9 band of the active-path rule
        tie = np.flatnonzero(c <= lam + 1e-10 * max(1.0, abs(lam)))
        f = np.where(f > 1e-12 * max(1.0, lo), f, 0.0)  # clear roundoff dust
        flowing = f[tie] > 0
        m = len(tie)
        start = np.zeros(m)
        start[np.argmax(flowing)] = 1.0  # the first flowing path, else the first
        try:
            rate, _ = _simplex_qp(A[tie[:, None], tie], np.zeros(m), np.ones((1, m)),
                                  np.ones(1), start, free=flowing)
        except SupportSearchExhausted as exc:
            raise TraceFailure(f"no equilibrium direction past demand {lo}: {exc}") from exc
        w = np.zeros(n)
        w[tie] = np.where(flowing, rate, np.maximum(rate, 0.0))
        z = f - lo * w
        pieces.append((lo, w, z))
        events = _forward_events(w, z, A, d, lo, tie)
        if not events:
            return pieces, True
        if events[0] >= mu_limit * (1.0 - LIMIT_TOL):
            return pieces, False
        lo = events[0]
        f = lo * w + z
    raise TraceFailure(f"tracer found no end after {MAX_EVENTS} events")


def trace_affine(net: Network, costs: dict[str, CostFunction], mu_max: float,
                 *, grow: bool = False) -> AffineTrace:
    """Trace the exact equilibrium structure over demands (0, mu_max].

    One pivoting pass from demand 0 (see :func:`_pivot`) yields the exact
    equilibrium lines and the events between them. Events that leave the
    active edge set unchanged are selection kinks (equilibria are non-unique
    there) and stay inside one segment; the others are the breakpoints, each
    belonging to the segment on its left. Each segment reports the chord
    between the minimum-norm equilibria at its two ends, an equilibrium
    across the whole segment, and its sign-checked social-cost coefficients.
    The selected ends are graded in one stack; a failed grade raises
    :class:`CertificateFailure`. With ``grow`` set, ``mu_max`` is doubled
    until it lies beyond the last breakpoint, and the trace is complete.
    """
    mu_max = _checked(mu_max, "mu_max", "positive")
    ps, cost_list = PathSet.build(net), _cost_list(net, costs)
    A, d, ends, mu_max, complete = _ends(ps, cost_list, mu_max, grow)
    mus, found, acts = zip(*ends)
    chosen = [_min_norm_flows(ps, cost_list, f, report.path_costs)
              for f, report in zip(found, _grade(ps, cost_list, np.array(found), mus))]
    _grade(ps, cost_list, np.array(chosen), mus, game="equilibrium")
    return _chords(ps, A, d, list(zip(mus, chosen, acts)), mu_max, complete)


def _trace(ps: PathSet, cost_list: EdgeCosts, mu_max: float, *, grow: bool) -> AffineTrace:
    """:func:`trace_affine` on a built path set, its segments the chords
    between the tracer's own equilibria at their ends, with no selection."""
    return _chords(ps, *_ends(ps, cost_list, mu_max, grow))


def _ends(ps: PathSet, cost_list: EdgeCosts, mu_max: float, grow: bool):
    """The tracer's equilibria at the right ends of the segments.

    Returns ``(A, d, ends, mu_max, complete)``: the path quadratic, one
    ``(mu, flows, active edges)`` per segment in demand order, the traced
    range (doubled past the last breakpoint with ``grow``: kinks after it
    depend on the kernel's choice at ties) and whether no event follows it.
    Raises ``ValueError`` unless every cost is affine.

    The last segment of a complete trace is also read past mu_max. Where
    several of the tracer's lines make it up, a chord across them leaves
    the equilibria there, so its end is taken on the ray from its first
    equilibrium along the last line's rate: that rate is nonnegative, since
    no event follows it, and moves the loads as the segment does.
    """
    if not _is_affine(cost_list):
        raise ValueError("trace_affine requires every cost to be affine")
    A, d = _path_quadratic(ps.incidence, cost_list)
    pieces, complete = _pivot(A, d, math.inf if grow else mu_max)
    reach = mu_max  # past the last line, whose active set is read inside its range
    while grow and pieces[-1][0] >= reach * (1.0 - LIMIT_TOL):
        reach *= 2.0

    # group the pieces into segments of one active edge set, read at each midpoint
    groups: list[tuple[int, frozenset[str]]] = []  # (last piece, active set)
    for k, (lo, w, z) in enumerate(pieces):
        mid = 0.5 * (lo + (pieces[k + 1][0] if k + 1 < len(pieces) else reach))
        f = mid * w + z
        act = _active_edge_set(ps, A @ f + d, f, mid)
        if groups and groups[-1][1] == act:
            groups.pop()
        groups.append((k, act))
    first = groups[-2][0] + 1 if len(groups) > 1 else 0  # last segment's first line
    while grow and pieces[first][0] >= mu_max * (1.0 - LIMIT_TOL):
        mu_max *= 2.0

    ends = []
    for g, (last, act) in enumerate(groups):
        hi = pieces[last + 1][0] if g + 1 < len(groups) else mu_max
        _, w_end, z_end = pieces[last]
        ends.append((hi, np.maximum(hi * w_end + z_end, 0.0), act))
    if complete and first < len(pieces) - 1:
        lo, f_lo = ends[-2][:2] if len(ends) > 1 else (0.0, np.zeros(ps.n_paths))
        ends[-1] = (mu_max, np.maximum(f_lo + (mu_max - lo) * pieces[-1][1], 0.0), ends[-1][2])
    return A, d, ends, mu_max, complete


def _chords(ps: PathSet, A, d, ends, mu_max: float, complete: bool) -> AffineTrace:
    """The trace whose segments join the zero flow at demand 0 and the
    equilibria of :func:`_ends` in turn."""
    segments: list[TraceSegment] = []
    breakpoints: list[Breakpoint] = []
    lo, f_lo = 0.0, np.zeros(ps.n_paths)
    for g, (hi, f_hi, act) in enumerate(ends):
        w = (f_hi - f_lo) / (hi - lo)
        z = f_lo - lo * w
        alpha, beta, gamma = _signed_coefficients(A, d, w, z, lo, hi)
        segments.append(TraceSegment(
            mu_lo=lo, mu_hi=hi, paths=ps.paths, w=w, z=z,
            alpha=alpha, beta=beta, gamma=gamma, active_edges=act))
        if g + 1 < len(ends):
            breakpoints.append(Breakpoint(mu=hi, active_before=act, active_after=ends[g + 1][2]))
        lo, f_lo = hi, f_hi

    return AffineTrace(segments=tuple(segments), breakpoints=tuple(breakpoints),
                       mu_max=mu_max, complete=complete)


def trace_to_completion(net: Network, costs: dict[str, CostFunction],
                        mu_start: float = MU_START) -> AffineTrace:
    """Trace until no event remains; ``mu_max`` is the smallest
    mu_start * 2**k beyond the last breakpoint."""
    return trace_affine(net, costs, mu_start, grow=True)


def optimum_breakpoints(breakpoints: tuple[Breakpoint, ...]) -> tuple[Breakpoint, ...]:
    """Breakpoints of the social optimum: equilibrium breakpoints halved.

    The optimum at demand mu is half the equilibrium at 2*mu, so the active
    sets on either side carry over unchanged.
    """
    return tuple(Breakpoint(mu=b.mu / 2.0, active_before=b.active_before,
                            active_after=b.active_after) for b in breakpoints)


# -- serialization ---------------------------------------------------------------


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
        "breakpoints": _breakpoint_rows(trace.breakpoints),
    }


def _breakpoint_rows(breakpoints) -> list[dict]:
    return [{"mu": b.mu, "active_before": sorted(b.active_before),
             "active_after": sorted(b.active_after)} for b in breakpoints]


def trace_from_json(doc: dict) -> AffineTrace:
    """The trace a :func:`trace_to_json` document holds, every field checked;
    a segment's ``z`` must name the paths its ``w`` names."""
    _checked(doc, "field 'trace'", "object")
    segments = []
    for s in _field(doc, "segments", "objects"):
        w, z = _field(s, "w", "object"), _field(s, "z", "object")
        if w.keys() != z.keys():
            raise ValueError("field 'z' must name the paths of field 'w'; "
                             f"{sorted(w.keys() ^ z.keys())!r:.60} is in only one of them")
        segments.append(TraceSegment(
            mu_lo=_field(s, "mu_lo"), mu_hi=_field(s, "mu_hi"),
            paths=tuple(tuple(k.split("|")) for k in w),
            w=np.array([_checked(v, "field 'w'") for v in w.values()]),
            z=np.array([_checked(z[k], "field 'z'") for k in w]),
            alpha=_field(s, "alpha"), beta=_field(s, "beta"), gamma=_field(s, "gamma"),
            active_edges=frozenset(_field(s, "active_edges", "names"))))
    breakpoints = tuple(Breakpoint(mu=_field(b, "mu"),
                                   active_before=frozenset(_field(b, "active_before", "names")),
                                   active_after=frozenset(_field(b, "active_after", "names")))
                        for b in _field(doc, "breakpoints", "objects"))
    return AffineTrace(segments=tuple(segments), breakpoints=breakpoints,
                       mu_max=_field(doc, "mu_max"), complete=_field(doc, "complete", "boolean"))


def _document_violations(trace: AffineTrace, ps: PathSet, cost_list: EdgeCosts,
                         tol: float) -> list[str]:
    """How a trace read from a document, its segments on ``ps.paths``, fails
    to be one. Its segments must tile (0, mu_max], each with the ``alpha``,
    ``beta`` and ``gamma`` of its flow line on the one path quadratic of
    ``ps`` (see :func:`_signed_coefficients`, whose :class:`SignViolation`
    passes through) to tol*max(1, |alpha|, |beta|, |gamma|) and, as
    ``active_edges``, those of its flow line at its midpoint (see
    :func:`~poakit.equilibrium._active`). Its breakpoints must be the
    segments' inner boundaries in order, each with the active sets of its
    two segments."""
    segs = trace.segments
    if not segs:
        return ["the trace has no segments"]
    A, d = _path_quadratic(ps.incidence, cost_list)
    violations, lo = [], 0.0
    for seg in segs:
        name = f"segment ({seg.mu_lo:.12g}, {seg.mu_hi:.12g}]"
        if not seg.mu_lo == lo < seg.mu_hi:
            violations.append(f"{name} should be nonempty and start at {lo:.12g}")
        lo = seg.mu_hi
        line = _signed_coefficients(A, d, seg.w, seg.z, seg.mu_lo, seg.mu_hi)
        saved = (seg.alpha, seg.beta, seg.gamma)
        if max(abs(x - y) for x, y in zip(line, saved)) > tol * max(1.0, *map(abs, line)):
            shown = [", ".join(f"{x:.12g}" for x in xs) for xs in (saved, line)]
            violations.append(f"{name} has alpha, beta, gamma = {shown[0]}, "
                              f"its flow line gives {shown[1]}")
        mid = 0.5 * (seg.mu_lo + seg.mu_hi)
        f = seg.flows(mid)
        active = _active_edge_set(ps, A @ f + d, f, mid)
        if active != seg.active_edges:
            violations.append(f"{name} has active_edges {sorted(seg.active_edges)}, the "
                              f"active-path rule reads {sorted(active)} at its midpoint")
    if lo != trace.mu_max:
        violations.append(f"the segments end at {lo:.12g}, mu_max is {trace.mu_max:.12g}")
    bounds = [Breakpoint(a.mu_hi, a.active_edges, b.active_edges) for a, b in zip(segs, segs[1:])]
    for bp, bound in itertools.zip_longest(trace.breakpoints, bounds):
        if bp is None:
            violations.append(f"no breakpoint at the segment boundary mu={bound.mu:.12g}")
        elif bp != bound:
            violations.append(f"breakpoint mu={bp.mu:.12g} is not a segment boundary with "
                              "the active_edges of its two segments")
    return violations

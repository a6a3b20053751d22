"""Efficiency analytics: price-of-anarchy values, curve pieces, extrema, sweeps.

The price of anarchy at demand mu is the ratio of equilibrium social cost to
optimum social cost, read everywhere (points, pieces, the check grid) by
:func:`poa_ratio`, which reads the 0/0 of a free route as 1. For affine
costs both are piecewise quadratics driven by the equilibrium trace: the
numerator's coefficients come from the segment containing mu, the
denominator's from the segment containing 2*mu (the optimum at mu is half
the equilibrium at 2*mu). Between consecutive merged breakpoints the ratio
is a fixed rational function that turns at most once, at a minimum (see
:func:`_classify`), so each piece is constant, increasing, decreasing, or a
valley; a maximum never sits strictly inside a piece, which pins the global
maximum to a breakpoint.

Every value is read off path flows graded before use (:func:`_certify`):
the equilibrium in the original costs, the optimum in the marginal-cost
game, so a wrong solve or a mis-traced segment raises
:class:`CertificateFailure` instead of passing as an answer. Both costs,
lambda and the active edges are the same at every equilibrium, so no
selection among equilibria runs here, in the solves or in the trace (see
:func:`poakit.parametric._trace`). :func:`compute_poa` and non-affine sweep
rows solve both games; on affine costs the curve, the maximum search and
the sweep read mu and 2*mu off one trace on one path set and cost build,
and the maximum search grades all its candidates in one stack per game.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .costs import CostFunction, _checked
from .errors import GridExceedsBreakpointMax
from .network import Network
from .equilibrium import (
    _active_edge_set,
    _builds,
    _flows,
    _grade,
    _is_affine,
    _sums,
)
from .parametric import MU_START, AffineTrace, _owner, _trace, optimum_breakpoints

__all__ = [
    "PoAPoint",
    "PoAPiece",
    "PoACurve",
    "PoAMaximum",
    "compute_poa",
    "poa_ratio",
    "classify_segments",
    "find_poa_max",
    "sweep_poa",
    "sweep_csv_text",
    "active_set_hash",
]

DECLARE_ONE_TOL = 1e-9
N_GRID, GRID_SLACK = 1000, 1e-7  # find_poa_max's check grid: its size, its excess allowed


def active_set_hash(active_edges) -> str:
    """Stable 12-hex digest of an active edge set."""
    joined = "|".join(sorted(active_edges))
    return hashlib.sha1(joined.encode("utf-8")).hexdigest()[:12]


# -- pointwise ratio --------------------------------------------------------------


@dataclass(frozen=True)
class PoAPoint:
    mu: float
    lam: float
    sc_eq: float
    sc_opt: float
    poa: float
    active_edges: frozenset[str]

    @property
    def active_hash(self) -> str:
        return active_set_hash(self.active_edges)


def poa_ratio(sc_eq, sc_opt, lam):
    """sc_eq / sc_opt at an equilibrium of common cost ``lam``: exactly 1.0
    where ``lam`` is 0 or ``sc_opt`` is at most 0, since with nonnegative
    costs the optimum costs nothing exactly when the equilibrium does, and
    where the two agree to ``DECLARE_ONE_TOL`` relative, so equality regions
    test clean; a NaN stays NaN. Elementwise on numpy arrays, in one pass."""
    one = (lam == 0) | (sc_opt <= 0) | (abs(sc_eq - sc_opt) <= DECLARE_ONE_TOL * sc_opt)
    if isinstance(one, np.ndarray):
        return np.divide(sc_eq, sc_opt, out=np.ones_like(sc_opt), where=~one)
    return 1.0 if one else sc_eq / sc_opt


def _certify(builds, mus, f_eq: np.ndarray, f_opt: np.ndarray):
    """Grade equilibrium and optimum path flows, one row per demand in
    ``mus``, in the original and the marginal-cost game, one grade per game.
    A failed grade raises :class:`CertificateFailure` naming its game and
    first failing demand, the equilibrium game's first. Returns the
    equilibrium reports and the optimum total costs, priced in the original
    costs at the optimum loads: all are the same at every equilibrium."""
    ps, cost_list, marginal_list = builds
    eq = _grade(ps, cost_list, f_eq, mus, game="equilibrium")
    opt = _grade(ps, marginal_list, f_opt, mus, game="marginal-cost")
    loads = np.array([report.edge_loads for report in opt])
    return eq, _sums(loads * cost_list.evaluate(loads))


def _point(builds, mu: float, f_eq: np.ndarray, f_opt: np.ndarray) -> PoAPoint:
    """Point at demand mu from equilibrium and optimum path flows, certified
    by :func:`_certify`; lambda, sc_eq and, with ``f_eq``, the active set
    come from the equilibrium grade."""
    (eq,), (sc_opt,) = _certify(builds, [mu], f_eq[None, :], f_opt[None, :])
    return PoAPoint(mu=mu, lam=eq.lam, sc_eq=eq.social_cost, sc_opt=sc_opt,
                    poa=poa_ratio(eq.social_cost, sc_opt, eq.lam),
                    active_edges=_active_edge_set(builds[0], eq.path_costs, f_eq, mu))


def _trace_twice(ps, cost_list, mu: float) -> AffineTrace:
    """The trace out to 2*mu, which the optimum at mu reads; ValueError if 2*mu overflows."""
    if not math.isfinite(2.0 * mu):
        raise ValueError(f"twice the demand {mu!r} overflows the float range")
    return _trace(ps, cost_list, 2.0 * mu, grow=False)


def _trace_flows(trace: AffineTrace, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Equilibrium and optimum flows at mu > 0 read off an affine trace
    covering 2*mu: the segment line at mu and half the line at 2*mu."""
    return trace.segment_at(mu).flows(mu), 0.5 * trace.segment_at(2.0 * mu).flows(2.0 * mu)


def compute_poa(net: Network, costs: dict[str, CostFunction], mu: float) -> PoAPoint:
    """Price of anarchy at a single demand, a finite nonnegative number read as a float.

    One path set and cost build serves the equilibrium and the optimum (the
    equilibrium of the marginal-cost game), each solved once, exactly when
    every cost is affine. Both solves' flows are graded as they are (see
    :func:`_point`), with no selection among equilibria. The ratio follows
    :func:`poa_ratio`.
    """
    mu = _checked(mu, "demand", "nonnegative")
    ps, cost_list, marginal_list = builds = _builds(net, costs)
    return _point(builds, mu, _flows(ps, cost_list, mu), _flows(ps, marginal_list, mu))


# -- curve pieces -----------------------------------------------------------------


@dataclass(frozen=True)
class PoAPiece:
    """The ratio on (mu_lo, mu_hi]: (num_lin*mu + num_quad*mu^2) divided by
    (den_const + den_lin*mu + den_quad*mu^2), with its monotonicity shape.
    :meth:`value` reads it by :func:`poa_ratio`, the equilibrium's common
    cost being num_lin + num_quad*mu. ``analyze`` prints every field."""

    mu_lo: float
    mu_hi: float
    num_lin: float    # alpha of the segment at mu
    num_quad: float   # beta of the segment at mu
    den_const: float  # gamma of the segment at 2*mu
    den_lin: float    # alpha of the segment at 2*mu
    den_quad: float   # beta of the segment at 2*mu
    shape: str | None = None          # constant | increasing | decreasing | valley
    valley_mu: float | None = None    # interior minimizer when shape == "valley"

    def value(self, mu: float) -> float:
        return poa_ratio(self.num_lin * mu + self.num_quad * mu * mu,
                         self.den_const + self.den_lin * mu + self.den_quad * mu * mu,
                         self.num_lin + self.num_quad * mu)


@dataclass(frozen=True)
class PoACurve:
    """Classified pieces on (0, mu_max], the trace they were read from,
    which covers (0, 2*mu_max], and the path set, costs and marginal costs
    it was traced on, which :func:`find_poa_max` grades on."""

    pieces: tuple[PoAPiece, ...]
    eq_breakpoints: tuple[float, ...]
    opt_breakpoints: tuple[float, ...]
    merged_breakpoints: tuple[float, ...]
    merged_at_eq: tuple[bool, ...]  # whether each one's cluster holds an equilibrium breakpoint
    mu_max: float
    trace: AffineTrace
    builds: tuple = field(repr=False, compare=False)

    def piece_at(self, mu: float) -> PoAPiece:
        return _owner(self.pieces, mu)

    def value(self, mu: float) -> float:
        return self.piece_at(mu).value(mu)


def _classify(mu_lo: float, mu_hi: float, num_lin: float, num_quad: float,
              den_const: float, den_lin: float,
              den_quad: float) -> tuple[str, float | None]:
    """Monotonicity shape of the ratio on the piece with these fields of
    :class:`PoAPiece`, and its valley demand (None unless a valley).

    The sign of the derivative matches q(mu) = c0 + c1*mu + c2*mu^2 with
    c0 = num_lin*den_const, c1 = 2*num_quad*den_const,
    c2 = num_quad*den_lin - num_lin*den_quad. The segments' sign contract
    num_lin, num_quad >= 0 >= den_const, checked on every traced segment by
    :func:`~poakit.parametric._signed_coefficients`, makes c0, c1 <= 0: by
    Descartes' rule q then has one positive root at most, only if c2 > 0,
    where it turns from negative to positive, so no piece peaks inside.
    """
    a, b, g, dd, e = num_lin, num_quad, den_const, den_lin, den_quad
    c0, c1, c2 = a * g, 2.0 * b * g, b * dd - a * e
    # term magnitudes, for cancellation-aware zero tests
    s0, s1, s2 = abs(c0), abs(c1), abs(b * dd) + abs(a * e)
    if all(abs(c) <= 1e-12 * max(s, 1e-300) for c, s in ((c0, s0), (c1, s1), (c2, s2))):
        return "constant", None
    pad = 1e-9 * max(1.0, mu_hi)
    lo, hi = mu_lo + pad, mu_hi - pad
    disc = max(c1 * c1 - 4.0 * c2 * c0, 0.0)  # below 0 only if c0 > 0 inside SIGN_TOL
    root = (-c1 + math.sqrt(disc)) / (2.0 * c2) if c2 > 0 else math.inf
    if lo < root < hi:
        return "valley", root
    mid = 0.5 * (lo + hi)
    if abs(c0 + c1 * mid + c2 * mid * mid) <= 1e-9 * max(s0 + s1 * mid + s2 * mid * mid, 1e-300):
        return "constant", None
    return ("increasing" if root <= lo else "decreasing"), None


def classify_segments(net: Network, costs: dict[str, CostFunction],
                      mu_max: float | None = None) -> PoACurve:
    """Piecewise description of the ratio curve on (0, mu_max], classified.

    Needs the equilibrium structure out to 2*mu_max so every denominator
    segment is available; it is traced here, with no selection among
    equilibria, on one path set and cost build. The default ``mu_max`` is
    2*(last breakpoint) + 1, read off a complete trace, whose last segment
    is an equilibrium at every demand past its last breakpoint, so that
    trace covers every breakpoint on both sides. The curve keeps the trace
    it read and that build, for :func:`find_poa_max` to read and grade its
    candidates. Non-affine costs, or a ``mu_max`` not finite and positive or
    whose double overflows, raise ``ValueError``.
    """
    if mu_max is not None:
        mu_max = _checked(mu_max, "mu_max", "positive")
    ps, cost_list, _ = builds = _builds(net, costs)
    if mu_max is None:
        trace = _trace(ps, cost_list, MU_START, grow=True)
        mu_max = 2.0 * (trace.breakpoint_demands[-1] if trace.breakpoints else 1.0) + 1.0
    else:
        trace = _trace_twice(ps, cost_list, mu_max)
    eq_bps = tuple(b for b in trace.breakpoint_demands if b <= mu_max)
    opt_bps = tuple(b.mu for b in optimum_breakpoints(trace.breakpoints) if b.mu <= mu_max)
    merged, at_eq = [], []  # a cluster's first demand; whether it holds an equilibrium one
    for bp, is_eq in sorted([(b, True) for b in eq_bps] + [(b, False) for b in opt_bps]):
        if not merged or bp - merged[-1] > 1e-9 * max(1.0, bp):
            merged.append(bp)
            at_eq.append(False)
        at_eq[-1] |= is_eq
    bounds = [0.0] + merged + ([mu_max] if not merged or merged[-1] < mu_max else [])
    pieces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        num = trace.segment_at(mid)
        den = trace.segment_at(2.0 * mid)
        coefficients = dict(mu_lo=lo, mu_hi=hi, num_lin=num.alpha, num_quad=num.beta,
                            den_const=den.gamma, den_lin=den.alpha, den_quad=den.beta)
        shape, valley_mu = _classify(**coefficients)
        pieces.append(PoAPiece(**coefficients, shape=shape, valley_mu=valley_mu))
    return PoACurve(pieces=tuple(pieces), eq_breakpoints=eq_bps, opt_breakpoints=opt_bps,
                    merged_breakpoints=tuple(merged), merged_at_eq=tuple(at_eq),
                    mu_max=mu_max, trace=trace, builds=builds)


# -- global maximum ----------------------------------------------------------------


@dataclass(frozen=True)
class PoAMaximum:
    """The anchored maximum and its grid cross-check; ``analyze`` prints every field."""

    mu: float
    value: float
    at_breakpoint: bool  # the maximum's merged demand holds an equilibrium breakpoint
    grid_mu: float      # argmax of the verification grid
    grid_value: float


def find_poa_max(net: Network, costs: dict[str, CostFunction],
                 *, curve: PoACurve | None = None) -> PoAMaximum:
    """Global maximum of ``curve`` (default: the whole ratio curve), anchored at breakpoints.

    Every merged breakpoint and the right endpoint are read off the curve's
    trace and graded in both games (see :func:`_certify`), all at once on
    the curve's path set and cost build; a failed grade raises
    :class:`CertificateFailure`.
    A grid of ``N_GRID`` demands over the curve formulas then cross-checks
    that no interior demand beats the anchored maximum; if one does by more
    than ``GRID_SLACK`` the piece structure is inconsistent and
    :class:`GridExceedsBreakpointMax` is raised.
    """
    if curve is None:
        curve = classify_segments(net, costs)
    mu_max = curve.mu_max
    mus = [*curve.merged_breakpoints, mu_max]
    f_eq, f_opt = zip(*(_trace_flows(curve.trace, mu) for mu in mus))
    eq, sc_opt = _certify(curve.builds, mus, np.array(f_eq), np.array(f_opt))
    best_mu, best_val, best_bp = None, -np.inf, False
    for mu, at_eq, eq_report, sc in zip(mus, [*curve.merged_at_eq, False], eq, sc_opt):
        val = poa_ratio(eq_report.social_cost, sc, eq_report.lam)
        if val > best_val + 1e-12 or (at_eq and not best_bp and abs(val - best_val) <= 1e-12):
            best_mu, best_val, best_bp = mu, val, at_eq
    # curve.value at every grid demand in one pass, in the same operation order
    grid = np.linspace(mu_max / N_GRID, mu_max, N_GRID)
    pieces = curve.pieces
    k = np.searchsorted([p.mu_hi for p in pieces[:-1]], grid)  # the last owns the rest
    a, b, g, dd, e = np.array([(p.num_lin, p.num_quad, p.den_const, p.den_lin, p.den_quad)
                               for p in pieces]).T[:, k]
    grid_vals = poa_ratio(a * grid + b * grid * grid, g + dd * grid + e * grid * grid,
                          a + b * grid)
    gi = int(np.argmax(grid_vals))
    if grid_vals[gi] > best_val + GRID_SLACK:
        raise GridExceedsBreakpointMax(
            f"grid value {grid_vals[gi]:.12g} at mu={grid[gi]:.12g} exceeds "
            f"breakpoint maximum {best_val:.12g}")
    return PoAMaximum(mu=float(best_mu), value=float(best_val),
                      at_breakpoint=best_bp, grid_mu=float(grid[gi]),
                      grid_value=float(grid_vals[gi]))


# -- demand sweeps -----------------------------------------------------------------


def sweep_poa(net: Network, costs: dict[str, CostFunction], mu_lo: float,
              mu_hi: float, n_samples: int, adaptive: bool = False) -> tuple[PoAPoint, ...]:
    """Tabulate the ratio over a demand range.

    With ``adaptive`` set, midpoints are inserted wherever neighboring rows
    disagree on the active set, until the spacing falls below a 1e-4
    fraction of the range; this brackets every structural change without a
    fine uniform grid. Every row uses one path set and cost build. On
    all-affine costs one trace out to 2*mu_hi serves every row, each read
    off it as in :func:`find_poa_max` (a row at mu = 0 is the zero flow);
    otherwise each row is solved as in :func:`compute_poa`. Every row's
    flows are graded (see :func:`_point`).
    """
    mu_lo, mu_hi = _checked(mu_lo, "mu_lo", "nonnegative"), _checked(mu_hi, "mu_hi", "positive")
    if not mu_lo < mu_hi:
        raise ValueError(f"need mu_lo < mu_hi, got [{mu_lo}, {mu_hi}]")
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 2):  # bool is below 2
        raise ValueError(f"n_samples must be an integer of at least 2, got {n_samples!r}")
    ps, cost_list, marginal_list = builds = _builds(net, costs)
    trace = _trace_twice(ps, cost_list, mu_hi) if _is_affine(cost_list) else None

    def row(mu):  # a trace has no segment at mu = 0
        if trace is None or mu == 0:
            return _point(builds, mu, _flows(ps, cost_list, mu), _flows(ps, marginal_list, mu))
        return _point(builds, mu, *_trace_flows(trace, mu))

    rows = [row(mu) for mu in np.linspace(mu_lo, mu_hi, n_samples).tolist()]
    if adaptive:
        min_gap, budget = (mu_hi - mu_lo) / 1e4, 10_000
        while budget > 0:
            refined = [rows[0]]
            for left, right in zip(rows[:-1], rows[1:]):
                if (left.active_hash != right.active_hash
                        and right.mu - left.mu >= min_gap and budget > 0):
                    refined.append(row(0.5 * (left.mu + right.mu)))
                    budget -= 1
                refined.append(right)
            if len(refined) == len(rows):
                break
            rows = refined
    return tuple(rows)


CSV_HEADER = "mu,lambda,sc_eq,sc_opt,poa,active_set_hash"


def sweep_csv_text(rows) -> str:
    """Sweep rows as CSV text with 17-significant-digit floats."""
    lines = [CSV_HEADER]
    lines.extend(f"{r.mu:.17g},{r.lam:.17g},{r.sc_eq:.17g},"
                 f"{r.sc_opt:.17g},{r.poa:.17g},{r.active_hash}"
                 for r in rows)
    return "\n".join(lines) + "\n"

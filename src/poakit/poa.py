"""Efficiency analytics: price-of-anarchy values, curve pieces, extrema, sweeps.

The price of anarchy at demand mu is the ratio of equilibrium social cost to
optimum social cost. For affine costs both are piecewise quadratics driven by
the equilibrium trace: the numerator's coefficients come from the segment
containing mu, the denominator's from the segment containing 2*mu (the
optimum at mu is half the equilibrium at 2*mu). Between consecutive merged
breakpoints the ratio is a fixed rational function, so each piece can be
classified as constant, increasing, decreasing, or a valley; a maximum never
sits strictly inside a piece, which pins the global maximum to a breakpoint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .costs import CostFunction
from .errors import ClassificationConflict, GridExceedsBreakpointMax
from .network import Network
from .equilibrium import (_cost_list, _is_affine, _social, solve_affine_exact,
                          solve_equilibrium, solve_optimum)
from .parametric import AffineTrace, trace_affine, trace_to_completion

__all__ = [
    "PoAPoint",
    "PoAPiece",
    "PoACurve",
    "PoAMaximum",
    "SweepRow",
    "compute_poa",
    "classify_segments",
    "find_poa_max",
    "sweep_poa",
    "sweep_csv_text",
    "write_sweep_csv",
    "active_set_hash",
]

DECLARE_ONE_TOL = 1e-9


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


def compute_poa(net: Network, costs: dict[str, CostFunction], mu: float,
                tol: float = DECLARE_ONE_TOL,
                path_cap: int | None = None) -> PoAPoint:
    """Price of anarchy at a single demand.

    Affine instances are solved exactly on both sides (the optimum through
    its marginal-cost game, also affine); anything else runs the iterative
    solver. The ratio is declared exactly 1.0 when the two costs agree to
    ``tol`` relative, so equality regions test clean.
    """
    if mu < 0:
        raise ValueError(f"demand must be nonnegative, got {mu}")
    if mu == 0:
        sol = solve_equilibrium(net, costs, 0.0, path_cap=path_cap)
        return PoAPoint(mu=0.0, lam=sol.cost, sc_eq=0.0, sc_opt=0.0, poa=1.0,
                        active_edges=sol.active_edges)
    cost_list = _cost_list(net, costs)
    if _is_affine(cost_list):
        eq = solve_affine_exact(net, costs, mu, path_cap=path_cap)
        marginal = {e.id: costs[e.id].marginal() for e in net.edges}
        opt_eq = solve_affine_exact(net, marginal, mu, path_cap=path_cap)
        sc_opt = _social(cost_list, opt_eq.edge_loads)
        sc_eq = eq.social_cost
        lam = eq.cost
        active = eq.active_edges
    else:
        eq = solve_equilibrium(net, costs, mu, path_cap=path_cap)
        opt = solve_optimum(net, costs, mu, path_cap=path_cap)
        sc_eq, sc_opt, lam, active = eq.social_cost, opt.social_cost, eq.cost, eq.active_edges
    if abs(sc_eq - sc_opt) <= tol * max(abs(sc_opt), 1e-300):
        poa = 1.0
    else:
        poa = sc_eq / sc_opt
    return PoAPoint(mu=mu, lam=lam, sc_eq=sc_eq, sc_opt=sc_opt, poa=poa,
                    active_edges=active)


# -- curve pieces -----------------------------------------------------------------


@dataclass(frozen=True)
class PoAPiece:
    """The ratio on (mu_lo, mu_hi]: (num_lin*mu + num_quad*mu^2) divided by
    (den_const + den_lin*mu + den_quad*mu^2), with its monotonicity shape."""

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
        num = self.num_lin * mu + self.num_quad * mu * mu
        den = self.den_const + self.den_lin * mu + self.den_quad * mu * mu
        if den <= 0:
            raise ZeroDivisionError(
                f"optimum cost nonpositive at mu={mu} on piece "
                f"({self.mu_lo:.6g}, {self.mu_hi:.6g}]")
        return num / den


@dataclass(frozen=True)
class PoACurve:
    pieces: tuple[PoAPiece, ...]
    eq_breakpoints: tuple[float, ...]
    opt_breakpoints: tuple[float, ...]
    merged_breakpoints: tuple[float, ...]
    mu_max: float

    def piece_at(self, mu: float) -> PoAPiece:
        if mu <= 0:
            raise ValueError(f"demand must be positive, got {mu}")
        for piece in self.pieces:
            if mu <= piece.mu_hi or piece is self.pieces[-1]:
                return piece
        raise ValueError(f"demand {mu} beyond curve range {self.mu_max}")

    def value(self, mu: float) -> float:
        return self.piece_at(mu).value(mu)


def _classify(piece: PoAPiece) -> PoAPiece:
    """Attach the monotonicity shape of the ratio on the piece.

    The sign of the derivative matches q(mu) = c0 + c1*mu + c2*mu^2 with
    c0 = num_lin*den_const, c1 = 2*num_quad*den_const,
    c2 = num_quad*den_lin - num_lin*den_quad. A positive-to-negative sign
    change would be an interior maximum, which the segment algebra rules
    out; seeing one raises :class:`ClassificationConflict`.
    """
    a, b = piece.num_lin, piece.num_quad
    g, dd, e = piece.den_const, piece.den_lin, piece.den_quad
    c0, c1, c2 = a * g, 2.0 * b * g, b * dd - a * e
    # term magnitudes, for cancellation-aware zero tests
    s0 = abs(a) * abs(g)
    s1 = 2.0 * abs(b) * abs(g)
    s2 = abs(b) * abs(dd) + abs(a) * abs(e)
    lo, hi = piece.mu_lo, piece.mu_hi

    def qmag(mu: float) -> float:
        return max(s0 + s1 * mu + s2 * mu * mu, 1e-300)

    def sign_at(mu: float) -> int:
        q = c0 + c1 * mu + c2 * mu * mu
        if abs(q) <= 1e-9 * qmag(mu):
            return 0
        return 1 if q > 0 else -1

    if all(abs(c) <= 1e-12 * max(s, 1e-300) for c, s in ((c0, s0), (c1, s1), (c2, s2))):
        return replace(piece, shape="constant", valley_mu=None)

    # real roots of q strictly inside the piece
    roots = []
    if abs(c2) > 1e-14 * max(s2, 1e-300):
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc > 0:
            r = np.sqrt(disc)
            roots = sorted(((-c1 - r) / (2.0 * c2), (-c1 + r) / (2.0 * c2)))
    elif abs(c1) > 1e-14 * max(s1, 1e-300):
        roots = [-c0 / c1]
    pad = 1e-9 * max(1.0, hi)
    roots = [r for r in roots if lo + pad < r < hi - pad]

    # sign pattern across the root partition
    probes = [lo + pad] + roots + [hi - pad]
    signs = []
    for left, right in zip(probes[:-1], probes[1:]):
        signs.append(sign_at(0.5 * (left + right)))
    signs = [s for s in signs if s != 0]
    for s_prev, s_next in zip(signs[:-1], signs[1:]):
        if s_prev > 0 and s_next < 0:
            raise ClassificationConflict(
                f"interior maximum detected on ({lo:.6g}, {hi:.6g}]")
    if not signs:
        return replace(piece, shape="constant", valley_mu=None)
    if signs[0] < 0 and signs[-1] > 0:
        valley = roots[0] if len(roots) == 1 else _valley_root(c0, c1, c2, roots)
        return replace(piece, shape="valley", valley_mu=float(valley))
    if signs[-1] > 0:
        return replace(piece, shape="increasing", valley_mu=None)
    return replace(piece, shape="decreasing", valley_mu=None)


def _valley_root(c0, c1, c2, roots):
    # the crossing where q goes negative to positive
    for r in roots:
        slope = c1 + 2.0 * c2 * r
        if slope > 0:
            return r
    return roots[0]


def classify_segments(net: Network, costs: dict[str, CostFunction],
                      mu_max: float | None = None,
                      trace: AffineTrace | None = None,
                      path_cap: int | None = None) -> PoACurve:
    """Piecewise description of the ratio curve on (0, mu_max], classified.

    Needs the equilibrium structure out to 2*mu_max so every denominator
    segment is available; pass ``trace`` to reuse one, otherwise it is
    traced here. The default ``mu_max`` is 2*(last breakpoint) + 1, read off
    a complete trace, which covers every breakpoint on both sides.
    """
    if mu_max is None:
        if trace is None or not trace.complete:
            trace = trace_to_completion(net, costs, path_cap=path_cap)
        last = trace.breakpoint_demands[-1] if trace.breakpoints else 1.0
        mu_max = 2.0 * last + 1.0
    if mu_max <= 0:
        raise ValueError(f"mu_max must be positive, got {mu_max}")
    if trace is None or (trace.mu_max < 2.0 * mu_max and not trace.complete):
        trace = trace_affine(net, costs, 2.0 * mu_max, path_cap=path_cap)
    eq_bps = tuple(b for b in trace.breakpoint_demands if b <= mu_max)
    opt_bps = tuple(b / 2.0 for b in trace.breakpoint_demands if b / 2.0 <= mu_max)
    merged: list[float] = []
    for bp in sorted(eq_bps + opt_bps):
        if not merged or bp - merged[-1] > 1e-9 * max(1.0, bp):
            merged.append(bp)
    bounds = [0.0] + merged + ([mu_max] if not merged or merged[-1] < mu_max else [])
    pieces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        num = trace.segment_at(mid)
        den = trace.segment_at(2.0 * mid)
        pieces.append(_classify(PoAPiece(
            mu_lo=lo, mu_hi=hi,
            num_lin=num.alpha, num_quad=num.beta,
            den_const=den.gamma, den_lin=den.alpha, den_quad=den.beta)))
    return PoACurve(pieces=tuple(pieces), eq_breakpoints=eq_bps,
                    opt_breakpoints=opt_bps, merged_breakpoints=tuple(merged),
                    mu_max=mu_max)


# -- global maximum ----------------------------------------------------------------


@dataclass(frozen=True)
class PoAMaximum:
    mu: float
    value: float
    at_breakpoint: bool
    grid_mu: float      # argmax of the verification grid
    grid_value: float


def find_poa_max(net: Network, costs: dict[str, CostFunction],
                 mu_max: float | None = None, n_grid: int = 1000,
                 grid_slack: float = 1e-7,
                 path_cap: int | None = None,
                 curve: PoACurve | None = None) -> PoAMaximum:
    """Global maximum of the ratio curve, anchored at breakpoints.

    Every merged breakpoint and the right endpoint are evaluated by direct
    solves. A dense grid over the curve formulas then cross-checks that no
    interior demand beats the anchored maximum; if one does by more than
    ``grid_slack`` the piece structure is inconsistent and
    :class:`GridExceedsBreakpointMax` is raised.
    """
    if curve is None:
        curve = classify_segments(net, costs, mu_max, path_cap=path_cap)
    mu_max = curve.mu_max
    eq_set = set(curve.eq_breakpoints)
    candidates = [(mu, True) for mu in curve.merged_breakpoints if mu <= mu_max]
    candidates.append((mu_max, False))
    best_mu, best_val, best_bp = None, -np.inf, False
    for mu, is_bp in candidates:
        val = compute_poa(net, costs, mu, path_cap=path_cap).poa
        better = val > best_val + 1e-12
        tie = abs(val - best_val) <= 1e-12
        prefer = (is_bp and mu in eq_set) and not best_bp
        if better or (tie and prefer):
            best_mu, best_val, best_bp = mu, val, is_bp and mu in eq_set
    grid = np.linspace(mu_max / n_grid, mu_max, n_grid)
    grid_vals = np.array([curve.value(mu) for mu in grid])
    gi = int(np.argmax(grid_vals))
    if grid_vals[gi] > best_val + grid_slack:
        raise GridExceedsBreakpointMax(
            f"grid value {grid_vals[gi]:.12g} at mu={grid[gi]:.12g} exceeds "
            f"breakpoint maximum {best_val:.12g}")
    return PoAMaximum(mu=float(best_mu), value=float(best_val),
                      at_breakpoint=best_bp, grid_mu=float(grid[gi]),
                      grid_value=float(grid_vals[gi]))


# -- demand sweeps -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    mu: float
    lam: float
    sc_eq: float
    sc_opt: float
    poa: float
    active_set_hash: str


def _row(net, costs, mu: float, path_cap: int | None = None) -> SweepRow:
    pt = compute_poa(net, costs, mu, path_cap=path_cap)
    return SweepRow(mu=mu, lam=pt.lam, sc_eq=pt.sc_eq, sc_opt=pt.sc_opt,
                    poa=pt.poa, active_set_hash=pt.active_hash)


def sweep_poa(net: Network, costs: dict[str, CostFunction], mu_lo: float,
              mu_hi: float, n_samples: int, adaptive: bool = False,
              path_cap: int | None = None) -> tuple[SweepRow, ...]:
    """Tabulate the ratio over a demand range.

    With ``adaptive`` set, midpoints are inserted wherever neighboring rows
    disagree on the active set, until the spacing falls below a 1e-4
    fraction of the range; this brackets every structural change without a
    fine uniform grid.
    """
    if not (0 <= mu_lo < mu_hi):
        raise ValueError(f"need 0 <= mu_lo < mu_hi, got [{mu_lo}, {mu_hi}]")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rows = [_row(net, costs, mu, path_cap) for mu in np.linspace(mu_lo, mu_hi, n_samples)]
    if adaptive:
        min_gap = (mu_hi - mu_lo) / 1e4
        budget = 10_000
        moved = True
        while moved and budget > 0:
            moved = False
            refined: list[SweepRow] = []
            for left, right in zip(rows[:-1], rows[1:]):
                refined.append(left)
                if (left.active_set_hash != right.active_set_hash
                        and right.mu - left.mu >= min_gap and budget > 0):
                    refined.append(_row(net, costs, 0.5 * (left.mu + right.mu), path_cap))
                    budget -= 1
                    moved = True
            refined.append(rows[-1])
            rows = refined
    return tuple(rows)


CSV_HEADER = "mu,lambda,sc_eq,sc_opt,poa,active_set_hash"


def sweep_csv_text(rows) -> str:
    """Sweep rows as CSV text with 17-significant-digit floats."""
    lines = [CSV_HEADER]
    lines.extend(f"{r.mu:.17g},{r.lam:.17g},{r.sc_eq:.17g},"
                 f"{r.sc_opt:.17g},{r.poa:.17g},{r.active_set_hash}"
                 for r in rows)
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows, path: str) -> None:
    """Write sweep rows as CSV with 17-significant-digit floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sweep_csv_text(rows))

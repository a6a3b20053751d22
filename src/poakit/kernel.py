"""One primal active-set kernel, :func:`_simplex_qp`, solves every quadratic
program of poakit: min 1/2 x'Hx + g'x subject to Cx = r and x >= 0. With
C = 1' it is the exact affine solve (H, g the path quadratic), each Newton
step (H, g the potential's second-order model) and the tracer's direction
problem past an event; with H = I, g = 0 and C an orthonormal basis of the
equations that fix the equilibrium set on the tied paths, it is the
minimum-norm selection. Each pivot is one :func:`_kkt_step`, and
:func:`_rank` is the one rank rule.
"""

from __future__ import annotations

import numpy as np

from .errors import SupportSearchExhausted

# the active-set kernel gives up after this many pivots per variable, plus one
PIVOTS_PER_VARIABLE = 50


def _rank(sv: np.ndarray) -> int:
    """Numerical rank: how many singular values ``sv`` exceed 1e-10 of the largest."""
    return np.count_nonzero(sv > 1e-10 * sv[0])


def _kkt_step(H_SS: np.ndarray, C_S: np.ndarray, g_S: np.ndarray, r: np.ndarray, grad):
    """min 1/2 y'H_SS y + g_S'y subject to C_S y = r on a working set S, by
    SVD of the KKT system [H_SS -C_S'; C_S 0], so that dependent rows of C_S
    do no harm: ``(y, nu)``, nu the multipliers of C_S y = r. Where the
    system is singular in y, its null space holds zero-curvature directions,
    along which the objective is linear; if one descends, the subproblem is
    unbounded and ``(p, None)`` is returned, p such a direction. ``grad()``
    gives the objective's gradient on S, read only for a singular system."""
    m, k = len(g_S), len(r)
    kkt = np.zeros((m + k, m + k))
    kkt[:m, :m] = H_SS
    kkt[:m, m:] = -C_S.T
    kkt[m:, :m] = C_S
    U, sv, Vt = np.linalg.svd(kkt)
    rank = _rank(sv)
    if rank < m + k:  # only a singular system has zero-curvature directions
        g_now = grad()
        null = Vt[rank:, :m]  # zero-curvature directions (p, 0)
        slope = null @ g_now
        if np.abs(slope).max() > 1e-12 * max(1.0, np.abs(g_now).max()):
            return -(null.T @ slope), None  # descends linearly until a bound blocks
    rhs = np.concatenate([-g_S, r])
    y = Vt[:rank].T @ ((U[:, :rank].T @ rhs) / sv[:rank])
    return y[:m], y[m:]


def _simplex_qp(H: np.ndarray, g: np.ndarray, C: np.ndarray, r: np.ndarray,
                x0: np.ndarray, free: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """min 1/2 x'Hx + g'x subject to Cx = r and x >= 0 off ``free``, from a
    feasible x0.

    Primal active-set method for positive semidefinite H (Nocedal & Wright,
    ch. 16). Each pivot solves the equality-constrained problem on the
    working set S (the variables allowed off zero) by :func:`_kkt_step`; a
    descending zero-curvature direction it returns is followed to the first
    bound. The entering variable has the most negative reduced cost
    (Dantzig's pricing, ties to the smallest index); the leaving one is the
    first to block, smallest index on ties. Only a zero-length ratio step
    (one that moves no variable by more than the flow tolerance) leaves the
    objective where it was, so after the first one the call enters by
    Bland's rule (smallest index) instead, which rules out cycling through
    degenerate pivots. Returns (x, nu), nu being the multipliers of
    Cx = r, so that Hx + g - C'nu is zero on S and nonnegative off it.
    Raises :class:`SupportSearchExhausted` once PIVOTS_PER_VARIABLE*(n+1)
    pivots pass without an optimum, or when the working set empties while
    r is not zero.
    """
    n = len(g)
    bounded = np.ones(n, dtype=bool) if free is None else ~free
    max_pivots = PIVOTS_PER_VARIABLE * (n + 1)
    x = np.array(x0, dtype=float)
    flow_tol = 1e-12 * max(1.0, float(np.abs(x).max(initial=0.0)))
    S = ~bounded | (x > flow_tol)
    x[~S] = 0.0  # dust starts at its bound
    bland = False
    for _ in range(max_pivots):
        idx = S.nonzero()[0]
        m = len(idx)
        if not m and r.any():
            raise SupportSearchExhausted("the working set emptied while Cx = r is not zero")
        y, nu = _kkt_step(H[idx[:, None], idx], C[:, idx], g[idx], r, lambda: (H @ x + g)[idx])
        if nu is None:
            p = y  # a descending zero-curvature direction
        elif y[bounded[idx]].min(initial=0.0) >= -flow_tol:
            x[idx] = y
            s = H @ x + g - C.T @ nu
            entering = ~S & (s < -1e-11 * max(1.0, np.abs(nu).max()))
            j = entering.argmax() if bland else np.where(entering, s, np.inf).argmin()
            if not entering[j]:
                return x, nu
            S[j] = True
            continue
        else:
            p = y - x[idx]
        blocking = bounded[idx] & (p < 0)
        if not blocking.any():
            raise SupportSearchExhausted("objective unbounded along a null-space direction")
        ratios = np.full(m, np.inf)
        ratios[blocking] = np.maximum(x[idx][blocking], 0.0) / -p[blocking]
        j = int(np.argmin(ratios))
        bland = bland or ratios[j] * np.abs(p).max() <= flow_tol  # a step of dust
        x[idx] += ratios[j] * p
        x[idx[j]] = 0.0
        S[idx[j]] = False
    raise SupportSearchExhausted(f"active-set search took over {max_pivots} pivots")

"""The active-set kernel alone: one KKT step against exact rational
solutions of the same systems, and whole solves under scaled objectives."""

import os
from fractions import Fraction

import numpy as np
import pytest

from poakit import PathSet, SupportSearchExhausted, load_network
from poakit.equilibrium import _cost_list, _path_quadratic
from poakit.kernel import _kkt_step, _rank, _simplex_qp

from netgen import layered_affine_network

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
EPS = np.finfo(float).eps


def kkt_matrix(H, C) -> np.ndarray:
    return np.block([[H, -C.T], [C, np.zeros((len(C), len(C)))]])


def exact_kkt(H, C, g, r):
    """A solution (y, nu) of [H -C'; C 0] (y, nu) = (-g, r) in rationals, by
    Gauss-Jordan elimination with every free unknown at 0."""
    m, k = len(g), len(r)
    # every float, negated or not, is a rational exactly
    augmented = np.column_stack([kkt_matrix(H, C), np.concatenate([-g, r])])
    rows = [[Fraction(float(v)) for v in row] for row in augmented]
    pivots = []
    for col in range(m + k):
        p = next((i for i in range(len(pivots), m + k) if rows[i][col]), None)
        if p is None:
            continue
        top = len(pivots)
        rows[top], rows[p] = rows[p], rows[top]
        rows[top] = [v / rows[top][col] for v in rows[top]]
        for i in range(m + k):
            if i != top and rows[i][col]:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
    assert not any(row[-1] for row in rows[len(pivots):]), "inconsistent system"
    sol = [Fraction(0)] * (m + k)
    for i, col in enumerate(pivots):
        sol[col] = rows[i][-1]
    return np.array([float(v) for v in sol[:m]]), np.array([float(v) for v in sol[m:]])


def braess():
    """braess_direct's path quadratic (A, d), singular: four paths, two
    load-dependent edges; paths O-D, O-v1-D, O-v1-v2-D, O-v2-D."""
    net, costs = load_network(os.path.join(FIXTURES, "braess_direct.json"))
    ps, cost_list = PathSet.build(net), _cost_list(net, costs)
    A, d = _path_quadratic(ps.incidence, cost_list)
    return ps.incidence[~cost_list.constant], A, d


def systems():
    """name -> (H, C, g, r, unique): ``unique(y, nu)`` lists the parts of a
    solution that every solution of the system shares."""
    H = np.array([[3.0, 2.0, 2.0], [2.0, 2.0, 1.0], [2.0, 1.0, 2.0]])
    Z_loaded, A, d = braess()
    t = 0.8
    f = np.array([1 + t, 1 - t, t, 1 - t])  # an equilibrium at demand 3
    C = np.vstack([np.ones((1, 4)), A, d[None, :]])  # six rows of rank three
    return {
        "nonsingular": (H, np.ones((1, 3)), np.array([1.0, -2.0, 0.5]), np.ones(1),
                        lambda y, nu: np.concatenate([y, nu])),
        # more paths than edges: path flows are not unique, loads and nu are
        "singular-H": (A, np.ones((1, 4)), d, np.array([3.0]),
                       lambda y, nu: np.concatenate([Z_loaded @ y, nu])),
        # one solution y, many nu with the same C'nu
        "dependent-rows": (np.eye(4), C, np.zeros(4), C @ f,
                           lambda y, nu: np.concatenate([y, C.T @ nu])),
    }


def kkt_singular_values(H, C) -> np.ndarray:
    """Singular values of [H -C'; C 0], largest first."""
    return np.linalg.svd(kkt_matrix(H, C), compute_uv=False)


def kkt_condition(H, C) -> float:
    """Condition number of [H -C'; C 0] on its numerical range."""
    sv = kkt_singular_values(H, C)
    return float(sv[0] / sv[_rank(sv) - 1])


def never_read():
    raise AssertionError("the gradient was read for a nonsingular system")


SCALES = {"1": 1.0, "2^-20": 2.0 ** -20, "2^20": 2.0 ** 20, "1e-4": 1e-4, "1e4": 1e4}
# at H scaled by 2^20 the KKT singular values span 1e-12 of the largest, so
# the rank rule 1e-10*sv[0] reads a well-posed system as singular (ROADMAP
# item 19, cause 1); these cases fail until that rule changes
MISREAD = {("nonsingular", "2^20"), ("dependent-rows", "2^20")}
CASES = [pytest.param(name, s, id=f"{name}-{label}", marks=[pytest.mark.xfail(
    strict=True, reason="the rank rule misreads the KKT system at this scale")]
    if (name, label) in MISREAD else [])
    for name in ("nonsingular", "singular-H", "dependent-rows") for label, s in SCALES.items()]


@pytest.mark.parametrize("name, s", CASES)
def test_kkt_step_matches_the_exact_solution(name, s):
    # scaling H and g by s leaves y and scales nu by s
    H, C, g, r, unique = systems()[name]
    grad = never_read if name == "nonsingular" else (lambda: s * g)
    y, nu = _kkt_step(s * H, C, s * g, r, grad)
    assert nu is not None, "a consistent system returned a direction"
    got, want = unique(y, nu / s), unique(*exact_kkt(H, C, g, r))
    tol = 16 * EPS * kkt_condition(s * H, C) * max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= tol


@pytest.mark.parametrize("s", SCALES.values(), ids=SCALES.keys())
def test_kkt_step_returns_a_descending_zero_curvature_direction(s):
    # braess_direct's quadratic with the O-D intercept cut to 1.5 has no
    # solution: p = (1, -1, 1, -1) has A p = 0, sum(p) = 0 and g'p < 0
    _, A, d = braess()
    g = d.copy()
    g[0] = 1.5
    H, C = s * A, np.ones((1, 4))
    p, nu = _kkt_step(H, C, s * g, np.array([3.0]), lambda: s * g)
    assert nu is None
    # a null vector of the SVD is exact to rounding of the whole KKT matrix
    rounding = 16 * EPS * kkt_singular_values(H, C)[0] * np.abs(p).max()
    assert np.abs(H @ p).max() <= rounding
    assert abs(C @ p)[0] <= rounding
    assert (s * g) @ p < 0


def test_kernel_raises_on_an_unbounded_objective():
    # g'p < 0 along p = (1, -1), which H does not curve and no bound stops,
    # since both variables are free
    with pytest.raises(SupportSearchExhausted, match="unbounded along a null-space direction"):
        _simplex_qp(np.zeros((2, 2)), np.array([-1.0, 1.0]), np.ones((1, 2)), np.ones(1),
                    np.array([1.0, 0.0]), free=np.array([True, True]))


def test_rank_counts_singular_values_above_1e_10_of_the_largest():
    assert _rank(np.array([4.0, 1e-9, 5e-10, 4e-10])) == 3
    assert _rank(np.array([1e-300, 1e-311])) == 1
    assert _rank(np.zeros(3)) == 0


def layered_quadratics():
    """Incidence and path quadratic (Z, A, d) of 200 full layered DAGs with
    two layers of 2 or 3 vertices: 4, 6 or 9 paths."""
    out = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        net, costs = layered_affine_network(rng, tuple(int(w) for w in rng.integers(2, 4, 2)))
        ps = PathSet.build(net)
        A, d = _path_quadratic(ps.incidence, _cost_list(net, costs))
        out.append((ps.incidence, A, d))
    return out


def test_kernel_loads_do_not_depend_on_the_scale_of_the_objective():
    # s*A and s*d have the minimizers of A and d; path flows are not unique
    # on these DAGs, edge loads are. At s = 2^20 the rank rule fails (see MISREAD)
    mu = 3.0
    for Z, A, d in layered_quadratics():
        n = len(d)
        f0 = np.zeros(n)
        f0[np.argmin(d)] = mu
        C, r = np.ones((1, n)), np.array([mu])
        loads = Z @ _simplex_qp(A, d, C, r, f0)[0]
        for s in (2.0 ** -20, 1e-6, 1e-4, 2.0 ** -10, 2.0 ** 10, 1e4):
            x, _ = _simplex_qp(s * A, s * d, C, r, f0)
            assert np.abs(Z @ x - loads).max() <= 1e-9 * mu, (n, s)

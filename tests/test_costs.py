"""Cost function behavior: values, primitives, marginals, validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from poakit import Affine, NegativeLoad, PiecewiseLinear, Polynomial, cost_from_json, cost_to_json
from poakit.costs import EdgeCosts


def test_affine_values():
    assert Affine(1, 0)(3) == 3.0
    assert Affine(2, 5)(0) == 5.0
    assert Affine(0, 7)(10) == 7.0


def test_polynomial_values():
    assert Polynomial((1, 0, 1))(2) == 5.0
    assert Polynomial((3,))(100) == 3.0


def test_pwl_values_and_extension():
    c = PiecewiseLinear((0, 2, 2.1), (1, 1, 5))
    assert c(1) == 1.0
    assert c(2) == 1.0
    assert c(3) == 5.0  # constant beyond the last knot
    assert c(2.05) == pytest.approx(3.0)


def test_primitives_match_closed_forms():
    assert Affine(1, 0).primitive(2) == 2.0
    assert Affine(0, 5).primitive(4) == 20.0
    assert Polynomial((1, 0, 1)).primitive(3) == 12.0


def test_primitive_at_zero_is_zero():
    for c in (Affine(2, 3), Polynomial((1, 2, 3)), PiecewiseLinear((0, 1), (2, 4))):
        assert c.primitive(0) == 0.0


def test_pwl_primitive_trapezoid():
    c = PiecewiseLinear((0, 2, 2.1), (1, 1, 5))
    assert c.primitive(2) == pytest.approx(2.0)
    assert c.primitive(2.1) == pytest.approx(2.3)
    assert c.primitive(4) == pytest.approx(2.3 + 5 * 1.9)
    # below the first knot the cost is the constant y[0]
    d = PiecewiseLinear((1, 2), (3, 4))
    assert d.primitive(0.5) == pytest.approx(1.5)


@pytest.mark.parametrize("make, field", [
    (lambda: Affine(float("nan"), 1), "'a'"),
    (lambda: Affine(1, float("inf")), "'b'"),
    (lambda: Polynomial((float("inf"),)), "'coeffs'"),
    (lambda: Polynomial((1.0, float("nan"))), "'coeffs'"),
    (lambda: PiecewiseLinear((0, float("nan")), (1, 2)), "'x'"),
    (lambda: PiecewiseLinear((0, 1), (1, float("-inf"))), "'y'"),
], ids=["affine-a", "affine-b", "poly-inf", "poly-nan", "pwl-x", "pwl-y"])
def test_non_finite_parameters_rejected(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_marginal_affine_doubles_slope():
    assert Affine(1, 0).marginal() == Affine(2, 0)
    assert Affine(0, 7).marginal() == Affine(0, 7)


def test_marginal_polynomial_scales_coefficients():
    assert Polynomial((1, 0, 1)).marginal() == Polynomial((1, 0, 3))


def test_marginal_pwl_evaluates_and_integrates():
    c = PiecewiseLinear((0, 2, 2.1), (1, 1, 5))
    m = c.marginal()
    # flat region: marginal equals the cost
    assert m.evaluate(1) == pytest.approx(1.0)
    assert m.evaluate(3) == pytest.approx(5.0)
    # primitive of c + x c' is x c(x)
    assert m.primitive(3) == pytest.approx(15.0)
    assert m.primitive(0) == 0.0


def test_negative_load_rejected():
    for c in (Affine(1, 1), Polynomial((1, 1)), PiecewiseLinear((0, 1), (0, 1))):
        for x in (-0.5, np.float64(-0.5), np.float32(-0.5), -1):
            with pytest.raises(NegativeLoad, match=r"negative load -(0\.5|1\.0)$"):
                c.evaluate(x)
        with pytest.raises(NegativeLoad):
            c.primitive(np.array([1.0, -1e-9]))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Affine(-1, 0)
    with pytest.raises(ValueError):
        Polynomial((1, -2))
    with pytest.raises(ValueError):
        Polynomial(())
    with pytest.raises(ValueError):
        PiecewiseLinear((0, 0), (1, 2))  # knots not strictly increasing
    with pytest.raises(ValueError):
        PiecewiseLinear((0, 1), (2, 1))  # decreasing cost


def test_vectorized_evaluation():
    x = np.array([0.0, 1.0, 2.5])
    for c in (Affine(2, 1), Polynomial((1, 0, 2)), PiecewiseLinear((0, 1, 2), (0, 1, 3))):
        vals = c.evaluate(x)
        assert vals.shape == x.shape
        assert vals == pytest.approx([c.evaluate(float(v)) for v in x])
        prims = c.primitive(x)
        assert prims == pytest.approx([c.primitive(float(v)) for v in x])


def test_json_round_trip():
    costs = [Affine(1.5, 0.25), Polynomial((1, 0, 2)), PiecewiseLinear((0, 2, 2.1), (1, 1, 5))]
    for c in costs:
        assert cost_from_json(cost_to_json(c)) == c
    with pytest.raises(ValueError):
        cost_from_json({"type": "mystery"})
    with pytest.raises(ValueError):
        cost_from_json([1, 2, 3])


affine_costs = st.builds(Affine, st.floats(0, 10), st.floats(0, 10))
poly_costs = st.builds(
    lambda cs: Polynomial(tuple(cs)),
    st.lists(st.floats(0, 5), min_size=1, max_size=4),
)


@st.composite
def pwl_costs(draw):
    n = draw(st.integers(1, 5))
    xs = np.cumsum(draw(st.lists(st.floats(0.1, 3), min_size=n, max_size=n)))
    ys = np.cumsum(draw(st.lists(st.floats(0, 3), min_size=n, max_size=n)))
    return PiecewiseLinear(tuple(xs - xs[0]), tuple(ys))


any_cost = st.one_of(affine_costs, poly_costs, pwl_costs())


@given(any_cost, st.floats(0, 20), st.floats(0, 20))
def test_costs_are_nondecreasing(c, x1, x2):
    lo, hi = sorted((x1, x2))
    assert c.evaluate(lo) <= c.evaluate(hi) + 1e-12


@given(any_cost, st.floats(1e-3, 20))
def test_primitive_derivative_is_cost(c, x):
    # midpoint finite difference of the primitive recovers the cost away from kinks
    h = 1e-6 * max(1.0, x)
    fd = (c.primitive(x + h) - c.primitive(max(x - h, 0.0))) / (h + min(h, x))
    lo, hi = c.evaluate(max(x - h, 0.0)), c.evaluate(x + h)
    assert min(lo, hi) - 1e-6 <= fd <= max(lo, hi) + 1e-6


@given(any_cost, st.floats(0, 20))
def test_marginal_dominates_cost(c, x):
    # x c'(x) >= 0, so marginal cost can never fall below the cost
    assert c.marginal().evaluate(x) >= c.evaluate(x) - 1e-12


@given(any_cost, st.floats(0, 10), st.floats(0, 10))
def test_primitive_is_convex(c, x1, x2):
    # nondecreasing integrand makes the primitive convex
    mid = 0.5 * (x1 + x2)
    assert c.primitive(mid) <= 0.5 * (c.primitive(x1) + c.primitive(x2)) + 1e-9


# -- the array layer ------------------------------------------------------------

def _bpr(t0, capacity):
    return Polynomial((t0, 0.0, 0.0, 0.0, 0.15 * t0 / capacity ** 4))


MIXED = {"aff": Affine(1.5, 0.25), "flat": Affine(0.0, 7.0), "quad": Polynomial((1, 0, 1)),
         "const": Polynomial((3.0,)), "bpr": _bpr(2.7, 1.3), "cubic": Polynomial((0.5, 2.0, 0.0, 1.25)),
         "pwl": PiecewiseLinear((0, 2, 2.1), (1, 1, 5)), "pwl1": PiecewiseLinear((0.5,), (2.0,)),
         "lin": Polynomial((0.5, 2.0))}


@pytest.mark.parametrize("costs", [
    {k: MIXED[k] for k in ("aff", "flat", "quad", "const", "bpr", "cubic", "lin")},
    {k: MIXED[k] for k in ("pwl", "pwl1")},
    MIXED,
    {k: c.marginal() for k, c in MIXED.items()},
], ids=["affine-poly-bpr", "pwl", "mixed", "marginals"])
@pytest.mark.parametrize("seed", range(3))
def test_edge_costs_match_per_edge_methods_bit_for_bit(costs, seed):
    ec = EdgeCosts(costs)
    rng = np.random.default_rng(seed)
    loads = [rng.uniform(0, 4, len(costs)), rng.exponential(10, len(costs)),
             np.zeros(len(costs)), np.full(len(costs), 2.0)]  # 2.0 sits on a pwl knot
    for x in loads:
        for method in ("evaluate", "primitive", "derivative"):
            got = getattr(ec, method)(x)
            want = [getattr(c, method)(v) for c, v in zip(costs.values(), x)]
            assert got.tolist() == [float(w) for w in want], method


@pytest.mark.parametrize("costs", [
    {k: MIXED[k] for k in ("aff", "flat")},
    {k: MIXED[k] for k in ("quad", "const", "cubic", "lin")},
    {"bpr": MIXED["bpr"], "bpr2": _bpr(1.1, 3.7)},
    {k: MIXED[k] for k in ("pwl", "pwl1")},
    MIXED,
], ids=["affine", "poly", "bpr", "pwl", "mixed"])
def test_marginal_layer_is_the_layer_of_the_marginals(costs):
    got, want = EdgeCosts(costs).marginal(), EdgeCosts({k: c.marginal() for k, c in costs.items()})
    for mask in ("affine", "constant", "a", "b"):
        assert getattr(got, mask).tolist() == getattr(want, mask).tolist(), mask
    rng = np.random.default_rng(7)
    n = len(costs)
    vectors = [rng.uniform(0, 4, n), np.zeros(n), np.full(n, 2.0)]  # 2.0 sits on a pwl knot
    for x in vectors + [np.array(vectors), rng.exponential(10, (5, n))]:
        for method in ("evaluate", "primitive", "derivative"):
            assert getattr(got, method)(x).tolist() == getattr(want, method)(x).tolist(), method


def test_marginal_layer_rejects_an_overflowing_coefficient():
    for cost in (Polynomial((0.0, 1e308)), Affine(1e308, 0.0)):
        with pytest.raises(ValueError, match="must be finite"):
            cost.marginal()
        with pytest.raises(ValueError, match="overflows"):
            EdgeCosts({"e": cost}).marginal()


def test_pwl_derivative_is_the_left_slope():
    c = PiecewiseLinear((0.5, 2.0, 3.5), (1.0, 4.0, 4.75))
    left, right = (4.0 - 1.0) / (2.0 - 0.5), (4.75 - 4.0) / (3.5 - 2.0)
    points = {0.0: 0.0, 0.25: 0.0, 0.5: 0.0,  # below and at the first knot
              1.0: left, 2.0: left, 2.5: right,  # a knot takes the slope on its left
              3.5: right, 4.0: 0.0, 1e9: 0.0}  # at and past the last knot
    assert c.derivative(np.array(list(points))).tolist() == list(points.values())
    for x, slope in points.items():
        assert type(c.derivative(x)) is float and c.derivative(x) == slope
    one_knot = PiecewiseLinear((1.0,), (2.0,))
    assert one_knot.derivative(np.array([0.0, 1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]
    assert one_knot.derivative(1.0) == 0.0


def test_edge_costs_share_the_affine_columns():
    # the shape comes from the coefficients: a poly cost of degree <= 1 is affine
    ec = EdgeCosts(MIXED)
    assert ec.affine.tolist() == [True, True, False, True, False, False, False, False, True]
    assert ec.constant.tolist() == [False, True, False, True] + [False] * 5
    assert ec.a[ec.affine].tolist() == [1.5, 0.0, 0.0, 2.0]
    assert ec.b[ec.affine].tolist() == [0.25, 7.0, 3.0, 0.5]


def test_edge_costs_reject_a_negative_load_by_edge():
    ec = EdgeCosts(MIXED)
    x = np.ones(len(MIXED))
    x[4] = -2.5e-9
    for method in (ec.evaluate, ec.primitive, ec.derivative):
        with pytest.raises(NegativeLoad, match=r"edge 'bpr' evaluated at negative load -2\.5e-09"):
            method(x)


def test_nan_load_passes_through():
    for c in (Affine(1, 1), Polynomial((1, 1)), PiecewiseLinear((0, 1), (0, 1))):
        assert np.isnan(c.evaluate(float("nan")))
    assert np.isnan(EdgeCosts({"q": Polynomial((1, 1))}).evaluate([float("nan")])).all()

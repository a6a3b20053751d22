"""Cost records and their one evaluator, ``EdgeCosts``: values, primitives,
marginals, validation.

The scalar tests and the properties run on one-edge layers, the evaluator
that ships; the layer is held bit for bit to the per-edge reference
formulas of ``oracles.reference``."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import reference
from poakit import Affine, NegativeLoad, PiecewiseLinear, Polynomial, cost_from_json, cost_to_json
from poakit.costs import EdgeCosts


def at(c, x, method="evaluate", marginal=False):
    """``method`` of the one-edge layer of cost c (or of its marginal) at a
    load, or at each load of a vector: a float, or an array shaped like x."""
    layer = EdgeCosts({"e": c})
    layer = layer.marginal() if marginal else layer
    out = getattr(layer, method)(np.asarray(x, dtype=float)[..., None])[..., 0]
    return out if np.ndim(x) else float(out)


def test_affine_values():
    assert at(Affine(1, 0), 3) == 3.0
    assert at(Affine(2, 5), 0) == 5.0
    assert at(Affine(0, 7), 10) == 7.0


def test_polynomial_values():
    assert at(Polynomial((1, 0, 1)), 2) == 5.0
    assert at(Polynomial((3,)), 100) == 3.0


def test_pwl_values_and_extension():
    c = PiecewiseLinear((0, 2, 2.1), (1, 1, 5))
    assert at(c, 1) == 1.0
    assert at(c, 2) == 1.0
    assert at(c, 3) == 5.0  # constant beyond the last knot
    assert at(c, 2.05) == pytest.approx(3.0)


def test_primitives_match_closed_forms():
    assert at(Affine(1, 0), 2, "primitive") == 2.0
    assert at(Affine(0, 5), 4, "primitive") == 20.0
    assert at(Polynomial((1, 0, 1)), 3, "primitive") == 12.0


def test_primitive_at_zero_is_zero():
    for c in (Affine(2, 3), Polynomial((1, 2, 3)), PiecewiseLinear((0, 1), (2, 4))):
        assert at(c, 0, "primitive") == 0.0


def test_pwl_primitive_trapezoid():
    c = PiecewiseLinear((0, 2, 2.1), (1, 1, 5))
    assert at(c, 2, "primitive") == pytest.approx(2.0)
    assert at(c, 2.1, "primitive") == pytest.approx(2.3)
    assert at(c, 4, "primitive") == pytest.approx(2.3 + 5 * 1.9)
    # below the first knot the cost is the constant y[0]
    d = PiecewiseLinear((1, 2), (3, 4))
    assert at(d, 0.5, "primitive") == pytest.approx(1.5)


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


def _same_layer(got: EdgeCosts, want: EdgeCosts, loads) -> None:
    """Two layers with the same masks and columns, and the same bits from
    every method on each load vector or stack of ``loads``."""
    for mask in ("affine", "constant", "a", "b"):
        assert getattr(got, mask).tolist() == getattr(want, mask).tolist(), mask
    for x in loads:
        for method in ("evaluate", "primitive", "derivative"):
            assert getattr(got, method)(x).tolist() == getattr(want, method)(x).tolist(), method


def test_marginal_affine_doubles_slope():
    loads = [np.array([0.0]), np.array([2.5]), np.array([[1.0], [3.0]])]
    _same_layer(EdgeCosts({"e": Affine(1, 0)}).marginal(), EdgeCosts({"e": Affine(2, 0)}), loads)
    _same_layer(EdgeCosts({"e": Affine(0, 7)}).marginal(), EdgeCosts({"e": Affine(0, 7)}), loads)


def test_marginal_polynomial_scales_coefficients():
    _same_layer(EdgeCosts({"e": Polynomial((1, 0, 1))}).marginal(),
                EdgeCosts({"e": Polynomial((1, 0, 3))}),
                [np.array([0.0]), np.array([2.5]), np.array([[1.0], [3.0]])])


def test_marginal_pwl_evaluates_and_integrates():
    c = PiecewiseLinear((0, 2, 2.1), (1, 1, 5))
    # flat region: marginal equals the cost
    assert at(c, 1, marginal=True) == pytest.approx(1.0)
    assert at(c, 3, marginal=True) == pytest.approx(5.0)
    # primitive of c + x c' is x c(x)
    assert at(c, 3, "primitive", marginal=True) == pytest.approx(15.0)
    assert at(c, 0, "primitive", marginal=True) == 0.0


def test_negative_load_rejected():
    for c in (Affine(1, 1), Polynomial((1, 1)), PiecewiseLinear((0, 1), (0, 1))):
        for x in (-0.5, np.float64(-0.5), np.float32(-0.5), -1):
            with pytest.raises(NegativeLoad, match=r"negative load -(0\.5|1\.0)$"):
                at(c, x)
        with pytest.raises(NegativeLoad):
            at(c, np.array([1.0, -1e-9]), "primitive")


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
        vals = at(c, x)
        assert vals.shape == x.shape
        assert vals == pytest.approx([at(c, float(v)) for v in x])
        prims = at(c, x, "primitive")
        assert prims == pytest.approx([at(c, float(v), "primitive") for v in x])


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
    assert at(c, lo) <= at(c, hi) + 1e-12


@given(any_cost, st.floats(1e-3, 20))
def test_primitive_derivative_is_cost(c, x):
    # midpoint finite difference of the primitive recovers the cost away from kinks
    h = 1e-6 * max(1.0, x)
    fd = (at(c, x + h, "primitive") - at(c, max(x - h, 0.0), "primitive")) / (h + min(h, x))
    lo, hi = at(c, max(x - h, 0.0)), at(c, x + h)
    assert min(lo, hi) - 1e-6 <= fd <= max(lo, hi) + 1e-6


@given(any_cost, st.floats(0, 20))
def test_marginal_dominates_cost(c, x):
    # x c'(x) >= 0, so marginal cost can never fall below the cost
    assert at(c, x, marginal=True) >= at(c, x) - 1e-12


@given(any_cost, st.floats(0, 10), st.floats(0, 10))
def test_primitive_is_convex(c, x1, x2):
    # nondecreasing integrand makes the primitive convex
    mid = 0.5 * (x1 + x2)
    assert at(c, mid, "primitive") <= 0.5 * (at(c, x1, "primitive") + at(c, x2, "primitive")) + 1e-9


# -- the array layer ------------------------------------------------------------

def _bpr(t0, capacity):
    return Polynomial((t0, 0.0, 0.0, 0.0, 0.15 * t0 / capacity ** 4))


MIXED = {"aff": Affine(1.5, 0.25), "flat": Affine(0.0, 7.0), "quad": Polynomial((1, 0, 1)),
         "const": Polynomial((3.0,)), "bpr": _bpr(2.7, 1.3), "cubic": Polynomial((0.5, 2.0, 0.0, 1.25)),
         "pwl": PiecewiseLinear((0, 2, 2.1), (1, 1, 5)), "pwl1": PiecewiseLinear((0.5,), (2.0,)),
         "lin": Polynomial((0.5, 2.0))}


@pytest.mark.parametrize("costs, marginal", [
    ({k: MIXED[k] for k in ("aff", "flat", "quad", "const", "bpr", "cubic", "lin")}, False),
    ({k: MIXED[k] for k in ("pwl", "pwl1")}, False),
    (MIXED, False),
    (MIXED, True),
], ids=["affine-poly-bpr", "pwl", "mixed", "marginals"])
@pytest.mark.parametrize("seed", range(3))
def test_edge_costs_match_per_edge_methods_bit_for_bit(costs, marginal, seed):
    ec = EdgeCosts(costs).marginal() if marginal else EdgeCosts(costs)
    refs = [reference(c).marginal() if marginal else reference(c) for c in costs.values()]
    rng = np.random.default_rng(seed)
    loads = [rng.uniform(0, 4, len(costs)), rng.exponential(10, len(costs)),
             np.zeros(len(costs)), np.full(len(costs), 2.0)]  # 2.0 sits on a pwl knot
    for x in loads:
        for method in ("evaluate", "primitive", "derivative"):
            got = getattr(ec, method)(x)
            want = [getattr(r, method)(v) for r, v in zip(refs, x)]
            assert got.tolist() == [float(w) for w in want], method


@pytest.mark.parametrize("costs", [
    {k: MIXED[k] for k in ("aff", "flat")},
    {k: MIXED[k] for k in ("quad", "const", "cubic", "lin")},
    {"bpr": MIXED["bpr"], "bpr2": _bpr(1.1, 3.7)},
    {k: MIXED[k] for k in ("pwl", "pwl1")},
    MIXED,
], ids=["affine", "poly", "bpr", "pwl", "mixed"])
def test_marginal_layer_is_the_layer_of_the_marginals(costs):
    base, got = EdgeCosts(costs), EdgeCosts(costs).marginal()
    # c + x*c' keeps each cost's degree, doubles its slope and keeps its intercept
    for mask in ("affine", "constant", "b"):
        assert getattr(got, mask).tolist() == getattr(base, mask).tolist(), mask
    assert got.a.tolist() == (2.0 * base.a).tolist()
    refs = [reference(c).marginal() for c in costs.values()]
    rng = np.random.default_rng(7)
    n = len(costs)
    vectors = [rng.uniform(0, 4, n), np.zeros(n), np.full(n, 2.0)]  # 2.0 sits on a pwl knot
    for x in vectors + [np.array(vectors), rng.exponential(10, (5, n))]:
        for method in ("evaluate", "primitive", "derivative"):
            want = [[float(getattr(r, method)(v)) for r, v in zip(refs, row)]
                    for row in np.atleast_2d(x)]
            assert getattr(got, method)(x).tolist() == (want if x.ndim == 2 else want[0]), method


def test_pwl_stacks_match_row_by_row_calls_in_both_layers():
    rng = np.random.default_rng(11)
    X = rng.exponential(3, (6, len(MIXED)))
    X[0] = 2.0  # on a pwl knot
    X[1, 6] = 0.0
    for layer in (EdgeCosts(MIXED), EdgeCosts(MIXED).marginal()):
        for method in ("evaluate", "primitive", "derivative"):
            got = getattr(layer, method)(X)
            assert got.tolist() == [getattr(layer, method)(row).tolist() for row in X], method


def test_edge_costs_reject_a_cost_that_is_not_a_record():
    class Square:  # a cost object that evaluates itself
        def evaluate(self, x):
            return x * x

    with pytest.raises(ValueError, match="cost of edge 'sq' is .*Square.*, not an Affine"):
        EdgeCosts({"lin": Affine(1, 0), "sq": Square()})


def test_marginal_layer_rejects_an_overflowing_coefficient():
    for cost in (Polynomial((0.0, 1e308)), Affine(1e308, 0.0)):
        with pytest.raises(ValueError, match="must be finite"):
            reference(cost).marginal()
        with pytest.raises(ValueError, match="overflows"):
            EdgeCosts({"e": cost}).marginal()


def test_pwl_derivative_is_the_left_slope():
    c = PiecewiseLinear((0.5, 2.0, 3.5), (1.0, 4.0, 4.75))
    left, right = (4.0 - 1.0) / (2.0 - 0.5), (4.75 - 4.0) / (3.5 - 2.0)
    points = {0.0: 0.0, 0.25: 0.0, 0.5: 0.0,  # below and at the first knot
              1.0: left, 2.0: left, 2.5: right,  # a knot takes the slope on its left
              3.5: right, 4.0: 0.0, 1e9: 0.0}  # at and past the last knot
    slopes = at(c, np.array(list(points)), "derivative")
    assert slopes.dtype == np.float64 and slopes.tolist() == list(points.values())
    for x, slope in points.items():
        assert at(c, x, "derivative") == slope
    one_knot = PiecewiseLinear((1.0,), (2.0,))
    assert at(one_knot, np.array([0.0, 1.0, 2.0]), "derivative").tolist() == [0.0, 0.0, 0.0]
    assert at(one_knot, 1.0, "derivative") == 0.0


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
        assert np.isnan(at(c, float("nan")))
    assert np.isnan(EdgeCosts({"q": Polynomial((1, 1))}).evaluate([float("nan")])).all()

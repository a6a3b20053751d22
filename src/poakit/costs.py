"""Edge cost functions: affine, polynomial, piecewise-linear records, and
:class:`EdgeCosts`, the one evaluator of them.

Every cost is nonnegative and nondecreasing on loads x >= 0, which keeps the
potential of the routing game convex. :class:`Affine`, :class:`Polynomial`
and :class:`PiecewiseLinear` are records: their fields, the checks that
reject bad ones, and their JSON encoding. They do not evaluate themselves.

:class:`EdgeCosts` holds the costs of one network's edges and evaluates
them on a whole load vector, or a stack of them, per call:

- ``evaluate(x)``     the unit travel costs c(x)
- ``primitive(x)``    the exact integrals of c from 0 to x
- ``derivative(x)``   c'(x), using the left derivative at piecewise kinks
- ``marginal()``      the layer of the marginal costs c(x) + x*c'(x)

Affine and polynomial costs share one zero-padded coefficient matrix,
evaluated by Horner's rule in the steps of ``polynomial.polyval``.
:class:`PiecewiseLinear` keeps its knots, the integral up to each knot and
its left slopes as arrays, so each of its columns is one ``searchsorted``
or ``interp`` over them.

Evaluating any cost at a negative load raises :class:`NegativeLoad`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeLoad

__all__ = [
    "CostFunction",
    "Affine",
    "Polynomial",
    "PiecewiseLinear",
    "EdgeCosts",
    "cost_from_json",
    "cost_to_json",
]


def _finite(kind: str, name: str, values) -> tuple[float, ...]:
    """Coerce a cost field to floats, rejecting NaN and infinities."""
    try:
        out = tuple(float(v) for v in values)
    except OverflowError:
        raise ValueError(f"{kind} cost field {name!r} must be finite, got an integer "
                         "past the float range") from None
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{kind} cost field {name!r} must be finite, got {list(out)}")
    return out


class CostFunction:
    """Base of the three cost records and of :class:`EdgeCosts`; it has no
    methods. It names the type of a network's costs, and tools that find the
    cost evaluator by walking ``CostFunction.__subclasses__()`` (the
    benchmark's span tracer) reach :class:`EdgeCosts` through it."""


@dataclass(frozen=True)
class Affine(CostFunction):
    """c(x) = a*x + b with a, b >= 0."""

    a: float
    b: float

    def __post_init__(self):
        (a,) = _finite("affine", "a", (self.a,))
        (b,) = _finite("affine", "b", (self.b,))
        if a < 0 or b < 0:
            raise ValueError(f"affine cost needs a, b >= 0, got ({a}, {b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class Polynomial(CostFunction):
    """c(x) = sum_k coeffs[k] * x**k with all coefficients >= 0."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = _finite("polynomial", "coeffs", self.coeffs)
        if not coeffs:
            raise ValueError("polynomial cost needs at least one coefficient")
        if any(c < 0 for c in coeffs):
            raise ValueError(f"polynomial cost needs nonnegative coefficients, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class PiecewiseLinear(CostFunction):
    """Continuous piecewise-linear cost on knots (x[i], y[i]).

    Knots must be strictly increasing in x with nondecreasing y; the cost is
    linearly interpolated between knots and constant beyond either end.
    Derivatives use the left-hand slope at knots.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]
    # knots, values, the integral of the cost from 0 up to each knot, and the
    # left slope at each searchsorted position: 0 below the first knot, then
    # each segment's slope, then 0 past the last knot
    _xs: np.ndarray = field(init=False, repr=False, compare=False)
    _ys: np.ndarray = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xs = _finite("piecewise-linear", "x", self.x)
        ys = _finite("piecewise-linear", "y", self.y)
        if len(xs) != len(ys) or len(xs) < 1:
            raise ValueError("piecewise-linear cost needs matching nonempty knot lists")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("piecewise-linear knots must be strictly increasing in x")
        if any(b < a for a, b in zip(ys, ys[1:])):
            raise ValueError("piecewise-linear values must be nondecreasing")
        if xs[0] < 0:
            raise ValueError("piecewise-linear knots must lie at nonnegative loads")
        if ys[0] < 0:
            raise ValueError("piecewise-linear cost must be nonnegative")
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "y", ys)
        cum = [ys[0] * xs[0]]  # constant y[0] below x[0]
        for i in range(len(xs) - 1):
            cum.append(cum[-1] + 0.5 * (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i]))
        xs_arr, ys_arr = np.array(xs), np.array(ys)
        slopes = np.zeros(len(xs) + 1)
        slopes[1:-1] = np.diff(ys_arr) / np.diff(xs_arr)
        for name, value in (("_xs", xs_arr), ("_ys", ys_arr), ("_cum", np.array(cum)),
                            ("_slopes", slopes)):
            object.__setattr__(self, name, value)


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomials at x by Horner's rule, one per column of ``coef`` (row k:
    the degree-k coefficients), in the steps of ``polynomial.polyval``; x holds
    one load per column, or is a stack of such rows."""
    if len(coef) == 1:
        return np.broadcast_to(coef[0], x.shape).copy()
    out = coef[-1] * x
    out += coef[-2]
    for row in coef[-3::-1]:
        out *= x
        out += row
    return out


def _left_slope(c: PiecewiseLinear, x: np.ndarray) -> np.ndarray:
    """Slope of a pwl cost at loads x; a knot belongs to the segment on its left."""
    return c._slopes[np.searchsorted(c._xs, x, side="left")]


def _pwl_integral(c: PiecewiseLinear, x: np.ndarray) -> np.ndarray:
    """Integral of a pwl cost from 0 to each load of x: the integral up to
    the knot at or before it, plus the trapezoid past that knot."""
    xs, ys, cum = c._xs, c._ys, c._cum
    # index of the knot at or before each load (-1: below the first knot)
    idx = np.searchsorted(xs, x, side="right") - 1
    out = np.empty_like(x)
    below = idx < 0
    out[below] = ys[0] * x[below]
    above = idx >= len(xs) - 1
    out[above] = cum[-1] + ys[-1] * (x[above] - xs[-1])
    mid = ~(below | above)
    i = idx[mid]
    dx = x[mid] - xs[i]
    out[mid] = cum[i] + ys[i] * dx + 0.5 * c._slopes[i + 1] * dx * dx
    return out


class EdgeCosts(CostFunction):
    """The costs of a network's edges, in order, evaluated on load vectors:
    the one evaluator of costs.

    Built from a mapping of edge id to cost record; any other cost object
    raises ``ValueError`` naming its edge. Affine (a*x + b, stored as [b, a])
    and polynomial costs fill one zero-padded coefficient matrix;
    ``evaluate``, ``derivative`` and ``primitive`` are Horner passes over it
    and over its derivative and primitive matrices. An :class:`Affine`
    primitive keeps its closed form 0.5*a*x*x + b*x, which Horner would round
    differently. Each piecewise-linear cost is one column, read off its
    record's knot arrays. Each method takes a load vector in edge order, or
    a stack of them, one per row, and checks it once per call. ``affine``
    and ``constant`` mark the costs of degree at most 1 and 0, read off
    their coefficients (pwl costs are neither); ``a`` and ``b`` are the
    slope and intercept columns, meaningful where ``affine`` is set.
    """

    def __init__(self, costs: Mapping[str, CostFunction]):
        pwl = [(j, e, c) for j, (e, c) in enumerate(costs.items())
               if not isinstance(c, (Affine, Polynomial))]
        for _, e, c in pwl:
            if not isinstance(c, PiecewiseLinear):
                raise ValueError(f"cost of edge {e!r} is {c!r}, not an Affine, Polynomial "
                                 "or PiecewiseLinear record")
        rows = [(c.b, c.a) if isinstance(c, Affine) else c.coeffs if isinstance(c, Polynomial)
                else () for c in costs.values()]
        width = max([2, *map(len, rows)])
        flat: list[float] = []
        for row in rows:
            flat += row
            flat += (0.0,) * (width - len(row))
        self._fill(tuple(costs), np.array(flat).reshape(len(rows), width).T,
                   np.array([len(row) > 0 for row in rows], dtype=bool),
                   np.array([isinstance(c, Affine) for c in costs.values()], dtype=bool),
                   [(j, c) for j, _, c in pwl], False)

    def _fill(self, ids, coef, polynomial, closed, pwl, pwl_marginal) -> None:
        k = np.arange(1.0, len(coef) + 1.0)[:, None]
        self.ids = ids
        self._coef = coef
        self._der = coef[1:] * k[:-1]
        self._prim = np.zeros((len(coef) + 1, coef.shape[1]))
        np.divide(coef, k, out=self._prim[1:])
        self._polynomial = polynomial
        self.affine = polynomial & ~coef[2:].any(axis=0)
        self.constant = polynomial & ~coef[1:].any(axis=0)
        self._closed = closed
        self.b, self.a = coef[0], coef[1]
        self._half_a = 0.5 * self.a
        self._pwl = pwl
        self._pwl_marginal = pwl_marginal  # pwl columns hold c + x*c' of their records

    def marginal(self) -> "EdgeCosts":
        """The marginal costs c + x*c' of the same edges: row k of the
        coefficient matrix scaled by k + 1, and each pwl cost c read as
        c + x*c', whose integral is x*c and whose derivative is 2*c' (it
        jumps at interior knots, so no record holds it). A coefficient that
        overflows raises ``ValueError``."""
        if self._pwl_marginal and self._pwl:
            raise NotImplementedError("marginal of a marginal cost is not supported")
        with np.errstate(over="ignore"):
            coef = self._coef * np.arange(1.0, len(self._coef) + 1.0)[:, None]
        if not np.isfinite(coef).all():
            raise ValueError("a marginal cost coefficient (k+1)*c_k overflows the float range")
        out = EdgeCosts.__new__(EdgeCosts)
        out._fill(self.ids, coef, self._polynomial, self._closed, self._pwl, True)
        return out

    def _loads(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.fmin.reduce(x, axis=None, initial=0.0) < 0:  # NaN loads pass
            j = int((x < 0).argmax())
            raise NegativeLoad(f"cost of edge {self.ids[j % x.shape[-1]]!r} evaluated at "
                               f"negative load {float(x.flat[j])!r}")
        return x

    def evaluate(self, x):
        x = self._loads(x)
        out = _horner(self._coef, x)
        for j, c in self._pwl:  # edge j is row j of the transpose
            xj = x.T[j:j + 1]
            value = np.interp(xj, c._xs, c._ys)
            out.T[j:j + 1] = value + xj * _left_slope(c, xj) if self._pwl_marginal else value
        return out

    def primitive(self, x):
        x = self._loads(x)
        out = np.where(self._closed, self._half_a * x * x + self.b * x, _horner(self._prim, x))
        for j, c in self._pwl:
            xj = x.T[j:j + 1]
            out.T[j:j + 1] = (xj * np.interp(xj, c._xs, c._ys) if self._pwl_marginal
                              else _pwl_integral(c, xj))
        return out

    def derivative(self, x):
        x = self._loads(x)
        out = _horner(self._der, x)
        for j, c in self._pwl:
            slope = _left_slope(c, x.T[j:j + 1])
            out.T[j:j + 1] = 2.0 * slope if self._pwl_marginal else slope
        return out


def cost_to_json(cost: CostFunction) -> dict:
    """Encode a cost function as a JSON-ready dict."""
    if isinstance(cost, Affine):
        return {"type": "affine", "a": cost.a, "b": cost.b}
    if isinstance(cost, Polynomial):
        return {"type": "poly", "coeffs": list(cost.coeffs)}
    if isinstance(cost, PiecewiseLinear):
        return {"type": "pwl", "x": list(cost.x), "y": list(cost.y)}
    raise ValueError(f"cost {cost!r} has no JSON encoding")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _field(doc: dict, name: str, array: bool = False):
    """Field ``name`` of a cost document: a JSON number (int or float, not
    bool), or with ``array`` a JSON array of numbers, as a tuple."""
    value = doc[name]
    if not ((isinstance(value, list) and all(map(_is_number, value))) if array
            else _is_number(value)):
        want = "an array of numbers" if array else "a number"
        raise ValueError(f"{doc['type']} cost field {name!r} must be {want}, got {value!r}")
    return tuple(value) if array else value


def cost_from_json(doc: dict) -> CostFunction:
    """Decode a cost function from its JSON dict; a field of the wrong JSON
    type raises ``ValueError`` naming it."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError(f"cost document must be a dict with a 'type' key, got {doc!r}")
    kind = doc["type"]
    if kind == "affine":
        return Affine(_field(doc, "a"), _field(doc, "b"))
    if kind == "poly":
        return Polynomial(_field(doc, "coeffs", array=True))
    if kind == "pwl":
        return PiecewiseLinear(_field(doc, "x", array=True), _field(doc, "y", array=True))
    raise ValueError(f"unknown cost type {kind!r}")

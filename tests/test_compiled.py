"""Compiled expression charts: the three derivative orders and the
Christoffel symbols against sympy and the inverse-metric formula."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from riemannkit import expr, manifold
from riemannkit.errors import DomainFault, SingularMetric
from test_connection import EXPR2, EXPR3


def _sphere(R):
    comp = f"{4.0 * R ** 4!r}/({R * R!r}+x^2+y^2)^2"
    return [[comp, "0"], ["0", comp]]


# metrics of the expression-chart benchmark, and one using every function,
# a general power and a negative integer power (not positive definite; only
# the derivatives matter here)
METRICS = {
    "sphere": (["x", "y"], _sphere(0.7)),
    "paraboloid": (["x", "y"], [["1+4*x^2", "4*x*y"], ["4*x*y", "1+4*y^2"]]),
    "horospherical": (["x", "y", "z"], [["exp(2*z)", "0", "0"], ["0", "exp(2*z)", "0"],
                                        ["0", "0", "1"]]),
    "every_function": (["x", "y"], [
        ["2 + sin(x)*cos(y) - tan(x/4)^2 + log(1 + x*y)",
         "tanh(x - y)/3 + sqrt(x + y^2) * abs(x - 2) - sinh(y)/cosh(x)"],
        ["tanh(x - y)/3 + sqrt(x + y^2) * abs(x - 2) - sinh(y)/cosh(x)",
         "exp(-x*y) + x^y + (1 + y)^-2 - e^(pi*x) / 50"]]),
}


def _evaluator(coords, rows):
    n = len(coords)
    asts = [[expr.parse(rows[i][j], coords) for j in range(n)] for i in range(n)]
    return manifold.ExpressionEvaluator(asts, n)


def _sympy_stack(coords, rows, p):
    syms = sp.symbols(coords, real=True)
    local = dict(zip(coords, syms), e=sp.E)
    n = len(coords)
    g = np.empty((n, n))
    dg = np.empty((n, n, n))
    d2g = np.empty((n, n, n, n))
    at = dict(zip(syms, p))
    for i in range(n):
        for j in range(n):
            f = sp.sympify(rows[i][j].replace("^", "**"), locals=local)
            g[i, j] = float(f.subs(at))
            for k in range(n):
                dg[k, i, j] = float(sp.diff(f, syms[k]).subs(at))
                for l in range(n):
                    d2g[k, l, i, j] = float(sp.diff(f, syms[k], syms[l]).subs(at))
    return g, dg, d2g


@pytest.mark.parametrize("name", sorted(METRICS))
def test_orders_agree_with_each_other_and_sympy(name, rng):
    coords, rows = METRICS[name]
    ev = _evaluator(coords, rows)
    for _ in range(3):
        p = rng.uniform(0.2, 0.9, len(coords))
        g, dg, d2g = ev.stack(p)
        g1, dg1 = ev.first_order(p)
        assert np.array_equal(ev.metric(p), g)
        assert np.array_equal(g1, g) and np.array_equal(dg1, dg)
        assert np.array_equal(d2g, np.swapaxes(d2g, 0, 1))
        want = _sympy_stack(coords, rows, p)
        for got, ref, tol in zip((g, dg, d2g), want, (1e-12, 1e-10, 1e-9)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= tol * max(1.0, np.max(np.abs(ref)))


# (expression, point, lowest derivative order at which it faults)
FAULTS = [
    ("log(x)", [0.0, 1.0], 0),
    ("log(x*y)", [-1.0, 1.0], 0),
    ("sqrt(x)", [-1.0, 1.0], 0),
    ("sqrt(x*y)", [0.0, 1.0], 1),
    ("1/x", [0.0, 1.0], 0),
    ("y/(x - y)", [1.0, 1.0], 0),
    ("x^-2", [0.0, 1.0], 0),
    ("x^0.5", [-1.0, 1.0], 0),
    ("x^(1+1)", [-1.0, 1.0], 0),  # only a literal integer exponent is an integer
    ("y^x", [0.5, 0.0], 0),
]


@pytest.mark.parametrize("source, point, lowest", FAULTS)
def test_domain_faults_at_every_order(source, point, lowest):
    ev = _evaluator(["x", "y"], [[source, "0"], ["0", "1"]])
    p = np.array(point)
    for order, fn in enumerate((ev.metric, ev.first_order, ev.stack)):
        if order < lowest:
            assert np.all(np.isfinite(fn(p)))
            continue
        with pytest.raises(DomainFault):
            fn(p)


def test_literal_integer_powers_accept_any_base():
    ev = _evaluator(["x", "y"], [["x^2 + x^-3", "0"], ["0", "y^3"]])
    g, dg, d2g = ev.stack(np.array([-2.0, -1.0]))
    assert g[0, 0] == 4.0 - 0.125 and g[1, 1] == -1.0
    assert dg[0, 0, 0] == pytest.approx(-4.0 - 3.0 / 16.0)
    assert d2g[1, 1, 1, 1] == pytest.approx(-6.0)


def test_overflow_near_the_pole_raises():
    ev = _evaluator(["x", "y"], _sphere(1.2))
    p = np.array([1e160, 0.0])
    for fn in (ev.metric, ev.first_order, ev.stack):
        with pytest.raises(OverflowError):
            fn(p)


def test_a_negative_power_that_overflows_raises():
    # x^-2 is 1 / x^2: it overflows at x = 1e-157 and raises, as an
    # overflowing ^ does, where the written division 1/x^2 is inf as a float
    with pytest.raises(OverflowError):
        expr.evaluate(expr.parse("x^-2", ["x"]), [1e-157])
    assert expr.evaluate(expr.parse("1/x^2", ["x"]), [1e-157]) == math.inf
    assert expr.evaluate(expr.parse("x^-2", ["x"]), [1e-100]) == 1.0 / 1e-100 ** 2
    ev = _evaluator(["x", "y"], [["1 + x^-2", "0"], ["0", "1"]])
    p = np.array([1e-157, 0.5])
    for fn in (ev.metric, ev.first_order, ev.stack, ev.gamma):
        with pytest.raises(OverflowError):
            fn(p)
    with pytest.raises(OverflowError):
        ev.spray(p.tolist(), [1.0, 1.0])


def test_a_negative_power_whose_derivative_overflows_raises():
    # at x = 1e-103, x^-2 = 1e206 is finite, but d_x x^-2 = -2 x^-3 is not:
    # every order from the first raises, per point and in the batches
    ev = _evaluator(["x", "y"], [["1 + x^-2", "0"], ["0", "1"]])
    p = np.array([1e-103, 0.5])
    assert ev.metric(p)[0, 0] == 1.0 + 1.0 / 1e-103 ** 2
    for fn in (ev.first_order, ev.stack, ev.gamma):
        with pytest.raises(OverflowError, match="negative power overflows"):
            fn(p)
    with pytest.raises(OverflowError, match="negative power overflows"):
        ev.spray(p.tolist(), [1.0, 1.0])
    X = np.tile(p, (manifold.BATCH_ROWS, 1))
    for fn in (ev.stack_batch, ev.gamma_batch):
        with pytest.raises(OverflowError, match="negative power overflows"):
            fn(X)
    with pytest.raises(OverflowError, match="negative power overflows"):
        expr.eval2(expr.parse("x^-2", ["x"]), [1e-103])
    # where it is finite, the derivative is the division it was: -((1/x^2)(2x)) / x^2
    x = 1e-60
    assert ev.first_order(np.array([x, 0.5]))[1][0, 0, 0] == -(1.0 / x ** 2 * (2.0 * x)) / x ** 2



# ---------------------------------------------------------------------------
# The compiled Christoffel symbols
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
BENCHMARK_METRICS = ("sphere", "paraboloid", "horospherical")


def _inverse_gamma(ev, p):
    g, dg = ev.first_order(p)
    return manifold.gamma_from_stack(np.linalg.inv(g), dg)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_gamma_agrees_with_sympy(name, rng):
    coords, rows = METRICS[name]
    ev = _evaluator(coords, rows)
    for _ in range(3):
        p = rng.uniform(0.2, 0.9, len(coords))
        g, dg, _ = _sympy_stack(coords, rows, p)
        want = 0.5 * np.einsum("im,mjk->ijk", np.linalg.inv(g), manifold.koszul(dg))
        got = ev.gamma(p)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["expr2", "expr3", *BENCHMARK_METRICS])
def test_gamma_agrees_with_the_inverse_formula(name):
    # both solves amplify rounding by up to the condition number of g
    if name in BENCHMARK_METRICS:
        coords, rows = METRICS[name]
        doc = {"dim": len(coords), "coords": coords, "metric": rows}
    else:
        doc = {"expr2": EXPR2, "expr3": EXPR3}[name]
    chart = manifold.chart_from_definition(doc)
    ev = chart.evaluator
    for p in chart.sample_points(64, 5):
        want = _inverse_gamma(ev, p)
        got = ev.gamma(p)
        bound = 4 * EPS * np.linalg.cond(ev.metric(p)) * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= bound
        assert np.array_equal(got, np.swapaxes(got, 1, 2))


@pytest.mark.parametrize("source, point, lowest", FAULTS)
def test_gamma_faults_where_first_order_does(source, point, lowest):
    ev = _evaluator(["x", "y"], [[source, "0"], ["0", "1"]])
    p = np.array(point)
    with pytest.raises(DomainFault) as want:
        ev.first_order(p)
    with pytest.raises(DomainFault) as got:
        ev.gamma(p)
    assert str(got.value) == str(want.value)


def test_gamma_overflow_near_the_pole_raises():
    ev = _evaluator(["x", "y"], _sphere(1.2))
    with pytest.raises(OverflowError):
        ev.gamma(np.array([1e160, 0.0]))


def test_gamma_zero_pivot_raises_singular_metric():
    ev = _evaluator(["x", "y"], [["1", "0"], ["0", "x"]])
    p = np.array([0.0, 0.3])
    with pytest.raises(SingularMetric):
        manifold.MetricEvaluator.gamma(ev, p)
    with pytest.raises(SingularMetric, match="metric singular"):
        ev.gamma(p)
    G = ev.gamma(np.array([0.25, 0.3]))
    assert G[1, 0, 1] == G[1, 1, 0] == 2.0 and G[0, 1, 1] == -0.5


def _outcome(fn, p):
    try:
        return fn(p)
    except (DomainFault, SingularMetric) as exc:
        return type(exc)


_COORD = st.one_of(st.just(0.0), st.floats(0.5, 1.0), st.floats(-1.0, -0.5))
_TERMS = st.lists(st.tuples(st.floats(-0.05, 0.05), st.integers(-1, 2),
                            st.integers(-1, 2)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(2.0, 4.0), entries=st.lists(_TERMS, min_size=3, max_size=3),
       x=_COORD, y=_COORD)
def test_gamma_of_perturbed_identity_matches_the_inverse_formula(c, entries, x, y):
    # c I plus Laurent monomials: g stays positive definite where every term
    # is defined, and x^-1 or y^-1 at 0 is a DomainFault either way
    def poly(terms, diagonal):
        parts = [f"{coef!r}*x^{a}*y^{b}" for coef, a, b in terms]
        return " + ".join([repr(c)] * diagonal + parts) or "0"

    g00, g01, g11 = (poly(terms, diag) for terms, diag in zip(entries, (1, 0, 1)))
    ev = _evaluator(["x", "y"], [[g00, g01], [g01, g11]])
    p = np.array([x, y])
    want = _outcome(lambda q: _inverse_gamma(ev, q), p)
    got = _outcome(ev.gamma, p)
    if isinstance(want, type):
        assert got is want
    else:
        bound = 4 * EPS * np.linalg.cond(ev.metric(p)) * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= bound

"""Compiled expression charts: the three derivative orders against sympy."""

import numpy as np
import pytest
import sympy as sp

from riemannkit import expr, manifold
from riemannkit.errors import DomainFault


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


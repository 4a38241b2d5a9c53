"""Parser and dual-number evaluator, cross-checked against sympy."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from riemannkit import expr
from riemannkit.errors import DomainFault, ParseError, UnknownIdentifier

COORDS = ["x", "y"]

# expressions exercised against the sympy oracle; all smooth on the sample box
ORACLE_SOURCES = [
    "x^2 + y^2",
    "sin(x) * cos(y)",
    "exp(x - y) / (1 + x^2)",
    "log(2 + x^2 + y^2)",
    "sqrt(1 + x^2) * tanh(y)",
    "x^3 - 2*x*y + y^4 / 4",
    "cosh(x) + sinh(y) - tan(x/4)",
    "pi * x - e^y",
    "(x + y)^2 / (3 - x)",
    "abs(2 + x) + x^2",
    "-x^-2 + y",
    "2^x",
]


def _sympy_of(source):
    x, y = sp.symbols("x y", real=True)
    return (sp.sympify(source.replace("^", "**"),
                       locals={"e": sp.E, "x": x, "y": y}), (x, y))


def _oracle(source, p):
    f, (x, y) = _sympy_of(source)
    subs = {x: p[0], y: p[1]}
    val = float(f.subs(subs))
    grad = np.array([float(sp.diff(f, s).subs(subs)) for s in (x, y)])
    hess = np.array([[float(sp.diff(f, a, b).subs(subs)) for b in (x, y)]
                     for a in (x, y)])
    return val, grad, hess


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_eval2_matches_sympy(source, rng):
    node = expr.parse(source, COORDS)
    for _ in range(5):
        p = rng.uniform(0.1, 0.9, 2)
        val, grad, hess = _oracle(source, p)
        got = expr.eval2(node, p)
        scale = max(1.0, abs(val))
        assert abs(got.value - val) <= 1e-12 * scale
        assert np.max(np.abs(got.grad - grad)) <= 1e-10 * max(1.0, np.max(np.abs(grad)))
        assert np.max(np.abs(got.hess - hess)) <= 1e-9 * max(1.0, np.max(np.abs(hess)))


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_evaluate_matches_eval2_value(source, rng):
    node = expr.parse(source, COORDS)
    for _ in range(5):
        p = rng.uniform(0.1, 0.9, 2)
        assert expr.evaluate(node, p) == pytest.approx(expr.eval2(node, p).value,
                                                       rel=1e-14, abs=1e-14)


def test_hessian_symmetric(rng):
    node = expr.parse("exp(x*y) + sin(x - y^2)", COORDS)
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, 2)
        h = expr.eval2(node, p).hess
        assert np.max(np.abs(h - h.T)) == 0.0


# -- grammar / round trip ----------------------------------------------------

def test_to_source_round_trip_fixed():
    for source in ORACLE_SOURCES:
        node = expr.parse(source, COORDS)
        again = expr.parse(expr.to_source(node), COORDS)
        p = np.array([0.37, 0.53])
        assert expr.evaluate(node, p) == pytest.approx(expr.evaluate(again, p),
                                                       rel=1e-15, abs=1e-15)


_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=3.0).map(lambda v: expr.Num(round(v, 3))),
    st.sampled_from([expr.Var(0, "x"), expr.Var(1, "y"),
                     expr.Const("pi"), expr.Const("e")]),
)


def _node_strategy():
    return st.recursive(
        _leaf,
        lambda children: st.one_of(
            st.tuples(st.sampled_from("+-*"), children, children)
              .map(lambda t: expr.Bin(t[0], t[1], t[2])),
            children.map(expr.Neg),
            st.tuples(st.sampled_from(["sin", "cos", "tanh", "exp"]), children)
              .map(lambda t: expr.Call(t[0], t[1])),
        ),
        max_leaves=12,
    )


@given(_node_strategy())
@settings(max_examples=120, deadline=None)
def test_to_source_round_trip_random(node):
    text = expr.to_source(node)
    again = expr.parse(text, COORDS)
    p = np.array([0.31, -0.47])
    try:
        want = expr.evaluate(node, p)
    except (DomainFault, OverflowError):
        return
    assert math.isfinite(want)
    assert expr.evaluate(again, p) == pytest.approx(want, rel=1e-13, abs=1e-13)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=80, deadline=None)
def test_precedence_and_right_assoc_power(a, b):
    p = np.array([a, b])
    node = expr.parse("x + y * x - y / 2", COORDS)
    assert expr.evaluate(node, p) == pytest.approx(a + b * a - b / 2,
                                                   rel=1e-13, abs=1e-13)
    # 2^3^2 must parse as 2^(3^2) = 512
    assert expr.evaluate(expr.parse("2^3^2", COORDS), p) == pytest.approx(512.0)
    # unary minus binds looser than ^: -2^2 = -4
    assert expr.evaluate(expr.parse("-2^2", COORDS), p) == -4.0


def test_integer_power_of_negative_base():
    node = expr.parse("x^3", COORDS)
    assert expr.evaluate(node, [-2.0, 0.0]) == -8.0
    d = expr.eval2(node, [-2.0, 0.0])
    assert d.grad[0] == pytest.approx(12.0)
    assert d.hess[0, 0] == pytest.approx(-12.0)


# -- errors ------------------------------------------------------------------

def test_parse_error_location():
    with pytest.raises(ParseError) as ei:
        expr.parse("x + * y", COORDS)
    assert ei.value.line == 1
    assert ei.value.column == 5

    with pytest.raises(ParseError) as ei:
        expr.parse("x +\n y * (", COORDS)
    assert ei.value.line == 2


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        expr.parse("x + z", COORDS)
    with pytest.raises(UnknownIdentifier):
        expr.parse("frob(x)", COORDS)


def test_empty_and_unbalanced():
    with pytest.raises(ParseError):
        expr.parse("   ", COORDS)
    with pytest.raises(ParseError):
        expr.parse("(x + y", COORDS)
    with pytest.raises(ParseError):
        expr.parse("x + y)", COORDS)


def test_domain_faults():
    with pytest.raises(DomainFault):
        expr.evaluate(expr.parse("log(x)", COORDS), [-1.0, 0.0])
    with pytest.raises(DomainFault):
        expr.evaluate(expr.parse("sqrt(x)", COORDS), [-1.0, 0.0])
    with pytest.raises(DomainFault):
        expr.evaluate(expr.parse("1 / x", COORDS), [0.0, 0.0])
    with pytest.raises(DomainFault):
        expr.evaluate(expr.parse("x ^ 0.5", COORDS), [-1.0, 0.0])
    with pytest.raises(DomainFault):
        expr.eval2(expr.parse("sqrt(x)", COORDS), [0.0, 0.0])
    for path in (expr.evaluate, expr.eval2):
        with pytest.raises(DomainFault, match="division by zero"):
            path(expr.parse("x^-2", COORDS), [0.0, 1.0])

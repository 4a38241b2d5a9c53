"""A literal square a ^ 2 is emitted as the product a * a, in the per-point
and the array forms alike: correctly rounded, and raising OverflowError
exactly where the power u ** 2 raised, whose fault it is."""

import math

import numpy as np
import pytest

from riemannkit import expr, manifold
from riemannkit.errors import DomainFault
from test_batch_forms import _assert_batches_fault_as_the_loop, _outcome, _rows, _same
from test_compiled import _evaluator

ROOT = math.sqrt(np.finfo(float).max)  # 1.34e154, where u * u reaches the largest float
EDGE = [ROOT, math.nextafter(ROOT, 0.0), math.nextafter(ROOT, math.inf),
        math.nextafter(math.nextafter(ROOT, math.inf), math.inf), 2.0 * ROOT, 1e200]
EDGE += [-u for u in EDGE] + [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-160, 1e-200, 5e-324]


def _square(u):
    """What the power emitted before did: u ** 2, or its fault."""
    try:
        return u ** 2
    except OverflowError as exc:
        return exc


def _reciprocal(u):
    """What the emitted 1 / u ** 2 of u ^ -2 did: its checks in their order."""
    t = _square(u)
    if isinstance(t, Exception):
        return t
    if t == 0.0:
        return DomainFault("division by zero")
    r = 1.0 / t
    return OverflowError(f"negative power overflows at {np.array([u])}") if abs(r) == math.inf else r


def _same_outcome(got, want):
    if isinstance(want, Exception):
        return type(got) is type(want) and got.args == want.args
    return not isinstance(got, Exception) and (got == want or math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("u", EDGE)
@pytest.mark.parametrize("source, reference", [("x^2", _square), ("x^-2", _reciprocal)])
def test_a_square_faults_where_the_power_did(source, reference, u):
    got = _outcome(expr.evaluate, expr.parse(source, ["x"]), [u])
    assert _same_outcome(got, reference(u))


def test_a_square_is_the_correctly_rounded_product():
    # u ** 2 of the C library may be one ulp off; u * u never is
    U = np.random.default_rng(41).uniform(-3.0, 3.0, 20_000)
    fn = expr.compile_tensor(expr.parse("x^2", ["x"]), 1, 0)
    per_point = np.array([fn(np.array([u])) for u in U])
    assert _same(per_point, U * U)
    assert _same(fn.batch(U[:, None]), U * U)
    assert np.all(np.abs(per_point - U ** 2) <= np.spacing(U * U))


@pytest.mark.parametrize("u", [u for u in EDGE if u != 0.0])
@pytest.mark.parametrize("g00", ["1 + x^2", "1 + x^-2", "2 + exp(-x^2)", "(1 + x^2)^2"])
def test_squares_at_the_edge_fault_alike_in_the_batch_and_the_loop(g00, u):
    # 0 < y < 1 keeps the second coordinate away from every edge
    ev = _evaluator(["x", "y"], [[g00, "0"], ["0", "1 + y^2"]])
    for rows in (manifold.BATCH_ROWS - 1, 2 * manifold.BATCH_ROWS):
        X = _rows(rows)
        X[rows - 3, 0] = u
        _assert_batches_fault_as_the_loop(ev, X)

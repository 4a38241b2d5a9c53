"""The compiled Jacobi operator B(v) = low(v, ., v, .) of expression charts:
its array form bitwise its per-point form, the conformal closed form on the
expression spheres, and the curvature kernel's faults where it has one."""

import numpy as np
import pytest

from riemannkit import manifold, tensor
from riemannkit.errors import DomainFault, SingularMetric
from test_batch_forms import CHARTS, SIZES, _chart, _outcome, _same

EXPRESSION = sorted(name for name in CHARTS
                    if isinstance(_chart(name).evaluator, manifold.ExpressionEvaluator))


def _sphere(n, R):
    """sphere_stereo(n, R) written as an expression chart."""
    coords = [f"x{i}" for i in range(n)]
    comp = f"{4.0 * R ** 4!r}/({R * R!r}+{'+'.join(f'{c}^2' for c in coords)})^2"
    return manifold.chart_from_definition(
        {"dim": n, "coords": coords,
         "metric": [[comp if i == j else "0" for j in range(n)] for i in range(n)]})


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", EXPRESSION)
def test_the_array_form_is_the_per_point_form_bitwise(name, size):
    # where g is positive definite: EXPR3's g is not at every point of its box
    chart = _chart(name)
    ev = chart.evaluator
    X = chart.sample_points(2 * size, 19)
    X = X[np.linalg.eigvalsh(ev.metric_batch(X))[:, 0] > 0.0][:size]
    assert len(X) == size
    V = np.random.default_rng([19, size]).uniform(-1.5, 1.5, (size, chart.dim))
    want = np.array([ev.jacobi(x, v) for x, v in zip(X, V)])
    assert _same(ev._jacobi_rows(X, V), want)
    assert _same(ev.jacobi_batch(X, V), want)
    assert _same(want, want.swapaxes(1, 2))


@pytest.mark.parametrize("n, R", [(2, 1.2), (3, 1.5)])
def test_the_expression_spheres_operator_is_the_closed_form(n, R):
    builtin = manifold.builtin("sphere_stereo", {"n": n, "R": R})
    X = builtin.sample_points(256, 5)
    V = np.random.default_rng(5).standard_normal((256, n))
    want = builtin.evaluator.jacobi_batch(X, V)
    got = _sphere(n, R).evaluator.jacobi_batch(X, V)
    assert np.all(np.max(np.abs(got - want), axis=(1, 2))
                  <= 1e-12 * np.max(np.abs(want), axis=(1, 2)))


def test_jacobi_driving_batch_takes_the_compiled_operator(monkeypatch):
    chart = _sphere(2, 1.2)
    X = chart.sample_points(40, 3)
    V = np.random.default_rng(3).standard_normal((40, 2))
    E = np.tile(np.eye(2), (40, 1, 1))
    monkeypatch.setattr(tensor, "curvature_kernel", None)  # not reached
    B = chart.evaluator.jacobi_batch(X, V)
    assert _same(tensor.jacobi_driving_batch(chart, X, V, E), 0.5 * (B + B.swapaxes(1, 2)))


@pytest.mark.parametrize("rows", [manifold.BATCH_ROWS, tensor._BLOCK])
def test_the_array_form_emits_no_per_point_operator(rows):
    # the batch rule reads the per-point form only where it loops
    ev = _sphere(3, 1.5).evaluator
    X = np.random.default_rng(rows).uniform(-1.0, 1.0, (rows, 3))
    V = np.random.default_rng(rows + 1).standard_normal((rows, 3))
    assert ev.jacobi_batch(X, V) is not None
    assert "jacobi" not in vars(ev)


# a metric and a point where its operator faults: a zero pivot, a negative
# one, a sqrt of a negative number, and a derivative of x^-2 that overflows
FAULTS = [
    ([["x", "0"], ["0", "1"]], [0.0, 0.3], SingularMetric),
    ([["x", "0"], ["0", "1"]], [-0.5, 0.3], SingularMetric),
    ([["1", "0"], ["0", "1 + sqrt(x)"]], [-0.25, 0.3], DomainFault),
    ([["1 + x^-2", "0"], ["0", "1"]], [1e-103, 0.3], OverflowError),
]


@pytest.mark.parametrize("rows", [1, manifold.BATCH_ROWS + 3,
                                  tensor._BLOCK + manifold.BATCH_ROWS + 3])
@pytest.mark.parametrize("metric, point, fault", FAULTS)
def test_where_the_operator_faults_the_kernel_raises(metric, point, fault, rows):
    # jacobi_batch returns None, and jacobi_driving_batch raises what the
    # kernel's batch raises there
    chart = manifold.chart_from_definition({"dim": 2, "coords": ["x", "y"], "metric": metric})
    X = np.tile([0.5, 0.3], (rows, 1))
    X[-1] = point
    V = np.tile([1.0, -0.5], (rows, 1))
    with pytest.raises(fault):
        chart.evaluator.jacobi(X[-1], V[-1])
    assert chart.evaluator.jacobi_batch(X, V) is None
    got = _outcome(tensor.jacobi_driving_batch, chart, X, V, np.tile(np.eye(2), (rows, 1, 1)))
    want = _outcome(tensor.curvature_low_batch, chart, X)
    assert isinstance(got, Exception) and type(got) is type(want) and str(got) == str(want)

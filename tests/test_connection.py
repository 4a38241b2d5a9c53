"""The contracted connection C = Gamma(v, .) that drives every geodesic,
frame and transport right-hand side, checked against contractions of the
full Christoffel symbols."""

import numpy as np
import pytest

from riemannkit import manifold, transport
from riemannkit.errors import DomainFault
from riemannkit.transport import OdeSettings


EXPR2 = {"dim": 2, "coords": ["x", "y"],
         "metric": [["1 + x^2", "x*y/3"], ["x*y/3", "2 + y^2"]]}
EXPR3 = {"dim": 3, "coords": ["x", "y", "z"],
         "metric": [["exp(2*z) + x*y/4", "x/10", "0"],
                    ["x/10", "exp(2*z)", "y/5"],
                    ["0", "y/5", "1 + x^2"]]}
SQRT = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "1 + sqrt(x)"]]}

CHARTS = {
    "euclidean": lambda: manifold.builtin("euclidean", {"n": 3}),
    "sphere2": lambda: manifold.builtin("sphere_stereo", {"n": 2, "R": 1.0}),
    "sphere3": lambda: manifold.builtin("sphere_stereo", {"n": 3, "R": 1.5}),
    "ball3": lambda: manifold.builtin("hyperbolic_ball", {"n": 3}),
    "torus": lambda: manifold.builtin("torus", {"R": 2.0, "r": 1.0}),
    "expr2": lambda: manifold.chart_from_definition(EXPR2),
    "expr3": lambda: manifold.chart_from_definition(EXPR3),
}


def _rays(chart, count, seed=11):
    # a stream apart from sample_points', so that V is not parallel to X
    rng = np.random.default_rng([seed, 1])
    return chart.sample_points(count, seed), rng.uniform(-1.5, 1.5, (count, chart.dim))


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_connection_matches_gamma_contraction(name):
    chart = CHARTS[name]()
    ev = chart.evaluator
    X, V = _rays(chart, 48)
    want = np.array([np.einsum("ijk,j->ik", ev.gamma(x), v) for x, v in zip(X, V)])
    one = np.array([ev.connection(x, v) for x, v in zip(X, V)])
    batch = ev.connection_batch(X, V)
    assert one.shape == batch.shape == (48, chart.dim, chart.dim)
    if isinstance(ev, manifold.ConformalEvaluator):
        # the O(n^2) closed form, not a contraction of gamma
        for got in (one, batch):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
        return
    # the default contracts gamma, row by row as at one point
    assert np.array_equal(batch, one)
    if chart.dim == 2 or name == "euclidean":
        assert np.array_equal(one, want)
    else:
        # einsum and matmul may add the three products in another order
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(one - want) <= 2 * np.finfo(float).eps * scale)


def _einsum_framed_rhs(chart):
    """The framed geodesic right-hand side written on the full symbols, with
    the frame stored as the matrix E whose columns are the frame vectors."""
    n = chart.dim

    def rhs(t, y):
        x, v, E = y[:n], y[n:2 * n], y[2 * n:].reshape(n, n)
        G = chart.evaluator.gamma(x)
        return np.concatenate([v, -np.einsum("ijk,j,k->i", G, v, v),
                               -np.einsum("ijk,j,ka->ia", G, v, E).ravel()])
    return rhs


@pytest.mark.parametrize("method", ["rk4_fixed", "rkf45_adaptive"])
@pytest.mark.parametrize("name", ["sphere2", "sphere3", "ball3", "torus", "expr3"])
def test_framed_geodesic_matches_einsum_reference(name, method):
    chart = CHARTS[name]()
    n = chart.dim
    p = np.array([0.3, 0.2, 0.1])[:n]
    v = np.array([0.5, 1.0, -0.4])[:n]
    v /= manifold.norm(chart, p, v)
    settings = OdeSettings(method=method, step=1e-2, rtol=1e-10, atol=1e-12)
    geo = transport.integrate_geodesic(chart, p, v, 1.5, settings=settings)
    E0 = transport.initial_frame(chart, p, v)
    ts, ys = transport._integrate(_einsum_framed_rhs(chart),
                                  np.concatenate([p, v, E0.ravel()]), 1.5, settings, None)
    frames = ys[:, 2 * n:].reshape(-1, n, n)
    assert len(geo.t) == len(ts)
    if method == "rkf45_adaptive":
        # RKF45's step sizes follow its error estimate, a small difference of
        # O(1) slopes, so rounding-level changes move the grid by ~1e-9;
        # compare where both end, at tmax
        geo_x, geo_frame, x, frames = geo.x[-1:], geo.frame[-1:], ys[-1:, :n], frames[-1:]
    else:
        np.testing.assert_array_equal(geo.t, ts)
        geo_x, geo_frame, x = geo.x, geo.frame, ys[:, :n]
    np.testing.assert_allclose(geo_x, x, rtol=0, atol=1e-13)
    np.testing.assert_allclose(geo_frame, frames, rtol=0, atol=1e-13)
    for i in (0, len(geo.t) // 2, len(geo.t) - 1):
        E, g = geo.frame[i], chart.evaluator.metric(geo.x[i])
        assert np.max(np.abs(E.T @ g @ E - np.eye(n))) <= 1e-8


def test_exp_map_fault_names_parameter_and_point():
    # the metric needs sqrt(x); the ray from x = 0.3 along -e_1 crosses x = 0 at t = 0.3
    chart = manifold.chart_from_definition(SQRT)
    with pytest.raises(DomainFault, match="sqrt of negative argument") as ei:
        transport.exp_map(chart, [0.3, 0.0], [-1.0, 0.0])
    with pytest.raises(DomainFault) as single:
        transport.integrate_geodesic(chart, [0.3, 0.0], [-1.0, 0.0], 1.0)
    exc = ei.value
    assert exc.t_exit == pytest.approx(0.3, abs=1e-3)
    assert exc.t_exit == single.value.t_exit
    assert exc.point[0] < 0.0 and exc.point[1] == 0.0
    np.testing.assert_array_equal(exc.point, single.value.point)


def test_batched_fault_names_the_failing_ray():
    chart = manifold.chart_from_definition(SQRT)
    P = np.array([[0.5, 0.0], [0.3, 0.1], [0.6, -0.2]])
    V = np.array([[0.2, 0.1], [-1.0, 0.0], [0.1, 0.3]])
    with pytest.raises(DomainFault) as ei:
        transport._exp_rays(chart, P, V, OdeSettings(step=1e-2))
    exc = ei.value
    assert 0.29 < exc.t_exit < 0.31
    assert exc.point[0] < 0.0 and exc.point[1] == pytest.approx(0.1)

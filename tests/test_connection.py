"""The contracted connection C = Gamma(v, .) that drives every geodesic,
frame and transport right-hand side, checked against contractions of the
full Christoffel symbols."""

import numpy as np
import pytest

from riemannkit import expr, manifold, transport
from riemannkit.errors import DomainFault, SingularMetric
from riemannkit.transport import OdeSettings
from test_spray import _RKF_A, _RKF_B5, _RKF_C, _rkf45


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
    if isinstance(ev, (manifold.ConformalEvaluator, manifold.ExpressionEvaluator)):
        # solved or written for Gamma(v, .) itself, not a contraction of gamma
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


def test_a_fragment_call_of_four_terms_is_the_contraction_of_gamma():
    # the spray, two named vectors, a unit literal against a name, and a
    # name against a unit literal, in one call on one graph
    ev = CHARTS["expr3"]().evaluator
    x, v, w = (["a0", "a1", "a2"], ["b0", "b1", "b2"], ["c0", "c1", "c2"])
    e0, e1 = ["1.0", "0.0", "0.0"], ["0.0", "1.0", "0.0"]
    terms = [(v, v, ["q0", "q1", "q2"]), (v, w, ["r0", "r1", "r2"]),
             (e0, w, ["s0", "s1", "s2"]), (v, e1, ["u0", "u1", "u2"])]
    lines, env = ev.connection_fragment(x, terms)
    q = ", ".join(name for *_, names in terms for name in names)
    four = expr._define("four", ", ".join(x + v + w), [*lines, f"return [{q}]"], env)
    X, V = _rays(CHARTS["expr3"](), 16)
    W = np.random.default_rng(3).uniform(-1.5, 1.5, V.shape)
    for p, a, b in zip(X, V, W):
        G = ev.gamma(p)
        want = [np.einsum("ijk,j,k->i", G, s, t) for s, t in
                [(a, a), (a, b), (np.eye(3)[0], b), (a, np.eye(3)[1])]]
        got = np.reshape(four(*p, *a, *b), (4, 3))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


def test_a_zero_pivot_faults_alike_in_every_connection_form():
    # g = diag(1, x) is singular at x = 0; every form, per point, in the
    # loop and past the array form's failing check, quotes the point as a list
    ev = manifold.chart_from_definition(
        {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "x"]]}).evaluator
    x, v = np.array([0.0, 0.3]), np.array([1.0, -0.5])
    calls = [lambda: ev.gamma(x), lambda: ev.connection(x, v),
             lambda: ev.spray(x.tolist(), v.tolist())]
    for rows in (1, manifold.BATCH_ROWS + 3):
        X = np.tile([0.5, 0.3], (rows, 1))
        X[-1] = x
        V = np.tile(v, (rows, 1))
        calls += [lambda X=X: ev.gamma_batch(X), lambda X=X, V=V: ev.connection_batch(X, V),
                  lambda X=X, V=V: ev.spray_batch(X, V)]
    for call in calls:
        with pytest.raises(SingularMetric) as info:
            call()
        assert str(info.value) == "metric singular at [0.0, 0.3]"


def test_an_expression_chart_compiles_no_connection_form_until_first_use(monkeypatch):
    built = []

    def compile_gamma(rows, n):
        fragment = compile_gamma.inner(rows, n)

        def counted(*args):
            built.append(args)
            return fragment(*args)
        return counted
    compile_gamma.inner = expr.compile_gamma
    monkeypatch.setattr(expr, "compile_gamma", compile_gamma)
    chart = manifold.chart_from_definition(EXPR3)
    ev = chart.evaluator
    forms = ("spray", "connection", "gamma", "_spray_rows", "_connection_rows", "_gamma_rows")
    assert not built and not set(forms) & set(vars(ev))
    transport.integrate_geodesic(chart, [0.3, 0.2, 0.1], [0.5, 1.0, -0.4], 0.1)
    assert built and "spray" not in vars(ev) and "gamma" not in vars(ev)


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


def _fehlberg_step(rhs, t, y, h):
    """The fifth-order end of one step of the coupled RKF45 of y' = rhs(t, y)."""
    K = np.empty((6, len(y)))
    K[0] = rhs(t, y)
    for s in range(1, 6):
        K[s] = rhs(t + _RKF_C[s] * h, y + h * (_RKF_A[s, :s] @ K[:s]))
    return y + h * (_RKF_B5 @ K)


def _einsum_rkf45_reference(chart, p, v, E0, tmax, settings):
    """(ts, x, frames) of RKF45 on the einsum right-hand side: the accepted
    grid of the (x, v) part alone, then one coupled Fehlberg step of
    (x, v, E) over each accepted step."""
    n = chart.dim
    rhs = _einsum_framed_rhs(chart)
    ts, _ = _rkf45(lambda t, y: rhs(t, np.concatenate([y, E0.ravel()]))[:2 * n],
                   np.concatenate([p, v]), tmax, settings)
    ys = [np.concatenate([p, v, E0.ravel()])]
    for t0, t1 in zip(ts[:-1], ts[1:]):
        ys.append(_fehlberg_step(rhs, t0, ys[-1], t1 - t0))
    ys = np.array(ys)
    return ts, ys[:, :n], ys[:, 2 * n:].reshape(-1, n, n)


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
    if method == "rkf45_adaptive":
        # the accepted grid follows (x, v) alone; the frame is carried over it
        ts, x, frames = _einsum_rkf45_reference(chart, p, v, E0, 1.5, settings)
    else:
        ts = transport._fixed_grid(1.5, settings)
        ys = transport.rk4_path(_einsum_framed_rhs(chart), np.concatenate([p, v, E0.ravel()]), ts)
        x, frames = ys[:, :n], ys[:, 2 * n:].reshape(-1, n, n)
    assert len(geo.t) == len(ts)
    if method == "rkf45_adaptive":
        # RKF45's step sizes follow its error estimate, a small difference of
        # O(1) slopes, so rounding-level changes move the grid by ~1e-9;
        # compare where both end, at tmax
        geo_x, geo_frame, x, frames = geo.x[-1:], geo.frame[-1:], x[-1:], frames[-1:]
    else:
        np.testing.assert_array_equal(geo.t, ts)
        geo_x, geo_frame = geo.x, geo.frame
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

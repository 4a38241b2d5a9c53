"""The batched exponential and what runs on it: evaluator Gamma batches,
exp/log, the direction sweep's start frames, and faults inside the integrator."""

import numpy as np
import pytest

from riemannkit import comparison, manifold, surfrev, tensor, transport
from riemannkit.errors import DomainExit, DomainFault, SingularMetric
from riemannkit.manifold import BATCH_ROWS
from riemannkit.transport import OdeSettings


EXPR = {"dim": 2, "coords": ["x", "y"],
        "metric": [["1 + x^2", "x*y/3"], ["x*y/3", "2 + y^2"]]}
DISK = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
        "domain": "1 - x^2 - y^2"}
SQRT = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "1 + sqrt(x)"]]}


def _charts():
    return {
        "euclidean": manifold.builtin("euclidean", {"n": 3}),
        "sphere2": manifold.builtin("sphere_stereo", {"n": 2, "R": 1.0}),
        "sphere3": manifold.builtin("sphere_stereo", {"n": 3, "R": 0.7}),
        "hyper3": manifold.builtin("hyperbolic_ball", {"n": 3}),
        "torus": manifold.builtin("torus", {"R": 2.0, "r": 1.0}),
        "expr": manifold.chart_from_definition(EXPR),
    }


def _points(chart, count, seed=7):
    return chart.sample_points(count, seed)


# -- Gamma batches -----------------------------------------------------------

@pytest.mark.parametrize("name", ["euclidean", "sphere2", "sphere3", "hyper3", "torus", "expr"])
def test_gamma_batch_matches_pointwise(name):
    chart = _charts()[name]
    ev = chart.evaluator
    X = _points(chart, 64)
    G = ev.gamma_batch(X)
    want = np.array([ev.gamma(x) for x in X])
    assert G.shape == (64,) + (chart.dim,) * 3
    if isinstance(ev, manifold.ConformalEvaluator):
        np.testing.assert_allclose(G, want, rtol=1e-15, atol=1e-15)
    else:
        # Euclidean zeros, and the per-point fallback of the other charts
        assert np.array_equal(G, want)


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "hyper3"])
def test_conformal_metric_is_stack_metric(name):
    ev = _charts()[name].evaluator
    for x in _points(_charts()[name], 32):
        assert np.array_equal(ev.metric(x), ev.stack(x)[0])


# -- the batched exponential -------------------------------------------------

def _rays(chart, count, seed=3):
    rng = np.random.default_rng(seed)
    P = _points(chart, count, seed)
    V = rng.uniform(-0.6, 0.6, (count, chart.dim))
    return P, V


@pytest.mark.parametrize("name", ["sphere2", "hyper3", "torus", "expr"])
def test_exp_rays_match_single_geodesics_rk4(name):
    chart = _charts()[name]
    P, V = _rays(chart, 6)
    settings = OdeSettings(step=1e-2)
    ends = transport._exp_rays(chart, P, V, settings)
    for b in range(len(P)):
        geo = transport.integrate_geodesic(chart, P[b], V[b], 1.0, settings=settings,
                                           with_frame=False)
        np.testing.assert_allclose(ends[b], geo.x[-1], rtol=0, atol=1e-13)
        np.testing.assert_allclose(transport.exp_map(chart, P[b], V[b], settings),
                                   geo.x[-1], rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", ["sphere2", "hyper3", "torus", "expr"])
def test_exp_rays_match_single_geodesics_rkf45(name):
    chart = _charts()[name]
    P, V = _rays(chart, 6)
    settings = OdeSettings(method="rkf45_adaptive", step=0.05)
    ends = transport._exp_rays(chart, P, V, settings)
    for b in range(len(P)):
        geo = transport.integrate_geodesic(chart, P[b], V[b], 1.0, settings=settings,
                                           with_frame=False)
        # a batch of one takes the same steps as the single geodesic
        one = transport._exp_rays(chart, P[b:b + 1], V[b:b + 1], settings)[0]
        np.testing.assert_allclose(one, geo.x[-1], rtol=0, atol=1e-13)
        # a larger batch steps at its worst ray's pace, within the tolerance
        np.testing.assert_allclose(ends[b], geo.x[-1], rtol=0, atol=1e-8)


def _flat_rays_rhs(chart, N):
    """y' = (v, -Gamma(v, v)) of N rays on the flat state (x_1, v_1, x_2, ...)."""
    n = chart.dim

    def rhs(t, y):
        Y = y.reshape(N, 2 * n)
        X, W = Y[:, :n], Y[:, n:]
        out = np.empty((N, 2 * n))
        out[:, :n] = W
        out[:, n:] = -(chart.evaluator.connection_batch(X, W) @ W[:, :, None])[:, :, 0]
        return out.ravel()
    return rhs


@pytest.mark.parametrize("name", ["sphere2", "hyper3", "torus", "expr"])
def test_exp_rays_rk4_is_the_flat_state_rk4_path(name):
    chart = _charts()[name]
    P, V = _rays(chart, 6)
    settings = OdeSettings(step=1e-2)
    ys = transport.rk4_path(_flat_rays_rhs(chart, len(P)), np.hstack([P, V]).ravel(),
                            transport._fixed_grid(1.0, settings))
    want = ys[-1].reshape(len(P), -1)[:, :chart.dim]
    assert np.array_equal(transport._exp_rays(chart, P, V, settings), want)


@pytest.mark.parametrize("name", ["sphere2", "hyper3", "torus", "expr"])
def test_exp_rays_rkf45_is_exp_map_per_ray(name):
    chart = _charts()[name]
    P, V = _rays(chart, 6)
    settings = OdeSettings(method="rkf45_adaptive", step=0.05)
    want = [transport.exp_map(chart, p, v, settings) for p, v in zip(P, V)]
    assert np.array_equal(transport._exp_rays(chart, P, V, settings), want)


@pytest.mark.parametrize("frames", [0, 1, 3])
@pytest.mark.parametrize("rows", [0, 5])
def test_ray_slopes_take_any_number_of_frame_columns(rows, frames):
    rng = np.random.default_rng([rows, frames])
    n = 3
    C = rng.normal(size=(rows, n, n))
    X, V, E = rng.normal(size=(rows, n)), rng.normal(size=(rows, n)), rng.normal(size=(rows, n, frames))
    dY = transport._ray_slopes(C, np.hstack([X, V, E.reshape(rows, n * frames)]), n)
    assert dY.shape == (rows, 2 * n + n * frames)
    assert np.array_equal(dY[:, :n], V)
    assert np.array_equal(dY[:, n:2 * n], -(C @ V[:, :, None])[:, :, 0])
    assert np.array_equal(dY[:, 2 * n:].reshape(rows, n, frames), -(C @ E))


@pytest.mark.parametrize("method", ["rk4_fixed", "rkf45_adaptive"])
@pytest.mark.parametrize("name", ["euclidean", "sphere2", "sphere3", "hyper3", "torus", "expr"])
def test_exp_map_is_the_end_of_the_unframed_geodesic(name, method):
    # one ray has one integrator: exp_map ends where integrate_geodesic does
    chart = _charts()[name]
    P, V = _rays(chart, 3)
    settings = OdeSettings(method=method, step=1e-2)
    for p, v in zip(P, V):
        geo = transport.integrate_geodesic(chart, p, v, 1.0, settings=settings, with_frame=False)
        assert np.array_equal(transport.exp_map(chart, p, v, settings), geo.x[-1])


def test_exp_rays_domain_exit_names_the_ray():
    disk = manifold.chart_from_definition(DISK)
    P = np.zeros((4, 2))
    V = np.array([[0.3, 0.1], [-0.2, 0.4], [0.0, 2.0], [0.5, -0.5]])
    with pytest.raises(DomainExit) as ei:
        transport._exp_rays(disk, P, V, OdeSettings(step=1e-2))
    exc = ei.value
    # only ray 2 reaches the unit circle, at t = 0.5
    assert 0.5 <= exc.t_exit <= 0.52
    assert exc.point[0] == pytest.approx(0.0, abs=1e-12)
    assert exc.point[1] == pytest.approx(2.0 * exc.t_exit, abs=1e-12)


def test_exp_rays_start_outside():
    disk = manifold.chart_from_definition(DISK)
    with pytest.raises(DomainExit):
        transport._exp_rays(disk, [[0.0, 0.0], [1.5, 0.0]], [[0.1, 0.0], [0.1, 0.0]],
                            OdeSettings())


# -- Newton shooting ---------------------------------------------------------

def test_shoot_halves_when_centre_ray_leaves():
    disk = manifold.chart_from_definition(DISK)
    p, q = np.zeros(2), np.array([0.5, 0.0])
    # (3, 0) and (1.5, 0) leave the disk; the halved (0.75, 0) does not
    v = transport._shoot(disk, p, q, np.array([3.0, 0.0]), OdeSettings(step=1e-2))
    np.testing.assert_allclose(v, q, rtol=0, atol=1e-10)


def test_shoot_from_the_domain_edge_converges():
    disk = manifold.chart_from_definition(DISK)
    p = np.zeros(2)
    edge = np.array([1.0 - 5e-7, 0.0])  # inside, but edge + 1e-6 e_1 is not
    # the Jacobian comes from Jacobi fields along the ray, not from nearby rays
    v = transport._shoot(disk, p, np.array([0.5, 0.0]), edge, OdeSettings(step=1e-2))
    np.testing.assert_allclose(v, [0.5, 0.0], rtol=0, atol=1e-10)
    # a centre ray that already hits the target needs no Jacobian
    v = transport._shoot(disk, p, edge, edge.copy(), OdeSettings(step=1e-2))
    assert np.array_equal(v, edge)


# -- normal-coordinate Taylor check on batched stencils ----------------------

def test_normal_taylor_on_non_conformal_chart():
    # off-diagonal g: a transposed stencil Jacobian shows here (about 5e-3)
    rep = tensor.normal_taylor_check(manifold.chart_from_definition(EXPR), [0.2, 0.1])
    assert rep["max_deviation"] <= 1e-4
    assert rep["gamma_origin_max"] <= 1e-5


# -- batched domain masks ----------------------------------------------------

def _domain_cases():
    ball = manifold.builtin("hyperbolic_ball", {"n": 2})
    sphere = manifold.builtin("sphere_stereo", {"n": 2, "R": 1e-6})
    cone = surfrev.surface_of_revolution(surfrev.Profile(f="u", h="u", u_range=(1.0, 2.0),
                                                         arclength=False))
    a, b = cone.profile.u_range
    pad = 1e-12 * (b - a)
    return [(ball, lambda p: float(p @ p) < 1.0),
            (sphere, lambda p: float(p @ p) < 1.0),  # the cap is (1e6 R)^2 = 1
            (cone, lambda p: a + pad < p[0] < b - pad),
            (manifold.chart_from_definition(DISK), lambda p: 1 - p[0]**2 - p[1]**2 > 0)]


@pytest.mark.parametrize("case", range(4))
def test_inside_matches_pointwise_predicate(case):
    chart, pointwise = _domain_cases()[case]
    X = np.random.default_rng(case).uniform(-2.5, 2.5, (400, 2))
    X[::37, 0] = np.nan
    X[5::41, 1] = -np.inf
    want = [bool(np.isfinite(x).all() and pointwise(x)) for x in X]
    assert chart.inside(X).tolist() == want
    assert [chart.contains(x) for x in X] == want
    assert 0 < sum(want) < len(X)


@pytest.mark.parametrize("rows", [BATCH_ROWS - 1, BATCH_ROWS, 2048])
def test_expression_domain_mask_matches_the_loop(rows):
    # from BATCH_ROWS rows on, the predicate's array form on the finite ones
    chart = manifold.chart_from_definition(DISK)
    X = np.random.default_rng(rows).uniform(-1.5, 1.5, (rows, 2))
    X[::7, 0] = np.nan
    X[3::11, 1] = np.inf
    got = chart.inside(X)
    assert got.dtype == bool
    assert got.tolist() == [chart.contains(x) for x in X]
    assert 0 < got.sum() < rows


def test_expression_domain_fault_is_the_loop_fault():
    chart = manifold.chart_from_definition(dict(DISK, domain="log(x + 2) + 1 - y"))
    X = np.random.default_rng(5).uniform(-1.0, 1.0, (2048, 2))
    X[1000, 0] = -2.5
    with pytest.raises(DomainFault) as one:
        chart.contains(X[1000])
    with pytest.raises(DomainFault) as batch:
        chart.inside(X)
    assert str(batch.value) == str(one.value)


def test_sweep_checks_every_ray():
    # a flat chart with a small hole that only rays 2 to 4 of 64 run into
    th = 2.0 * np.pi * 3 / 64
    hole = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
            "domain": f"(x - {0.5 * np.cos(th)})^2 + (y - {0.5 * np.sin(th)})^2 - 0.07^2"}
    chart = manifold.chart_from_definition(hole)
    with pytest.raises(DomainExit) as ei:
        comparison._batched_sphere_sweep(chart, [0.0, 0.0], 1.0, 64, 1e-2)
    angle = np.arctan2(ei.value.point[1], ei.value.point[0])
    assert 2 <= angle / (2.0 * np.pi / 64) <= 4


def test_sweep_fault_carries_its_stage_parameter():
    # the metric needs sqrt(x); from x = 0.0537 the ray along -e_1 reaches
    # x < 0 at the middle stages of the step from t = 0.05
    chart = manifold.chart_from_definition(SQRT)
    with pytest.raises(DomainFault) as ei:
        comparison._batched_sphere_sweep(chart, [0.0537, 0.0], 0.2, 16, 1e-2)
    assert ei.value.t_exit == pytest.approx(0.055)
    assert ei.value.point[0] < 0.0


# -- start frames of the direction sweep -------------------------------------

def _frame_one_by_one(g, B, v):
    """Modified Gram-Schmidt of (v, B[:, 0], B[:, 1], ...), v's column last."""
    n = len(v)
    u = v / np.sqrt(v @ g @ v)
    cols = [u]
    for k in range(n):
        cand = B[:, k]
        for c in cols:
            cand = cand - (c @ g @ cand) * c
        nrm2 = cand @ g @ cand
        if nrm2 > 1e-20:
            cols.append(cand / np.sqrt(nrm2))
        if len(cols) == n:
            break
    return np.column_stack(cols[1:] + [u])


SWEEPS = [("sphere_stereo", {"n": 2}, [0.3, 0.1], 1.0),
          ("sphere_stereo", {"n": 3}, [0.1, 0.2, -0.1], 1.0),
          ("hyperbolic_ball", {"n": 3}, [0.1, 0.0, 0.2], -1.0)]


@pytest.mark.parametrize("name,params,p,K", SWEEPS)
def test_adapted_frames_match_one_by_one(name, params, p, K):
    chart = manifold.builtin(name, params)
    g = chart.evaluator.metric(np.array(p))
    B = transport.orthonormal_frame(g)
    V = comparison._sphere_directions(chart.dim, 200) @ B.T
    V[0] = B[:, 0]  # the first candidate is parallel to this ray and is skipped
    E = transport._adapted_frames(g, B, V)
    for b in range(len(V)):
        np.testing.assert_allclose(E[b], _frame_one_by_one(g, B, V[b]), rtol=0, atol=1e-13)
        np.testing.assert_allclose(transport.initial_frame(chart, p, V[b]), E[b],
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(E[b].T @ g @ E[b], np.eye(chart.dim), rtol=0, atol=1e-13)


@pytest.mark.parametrize("name,params,p,K", SWEEPS)
def test_volume_compare_unchanged_by_batched_frames(name, params, p, K, monkeypatch):
    chart = manifold.builtin(name, params)
    batched = comparison.volume_compare(chart, p, r=0.8, Kref=K, directions=128)
    monkeypatch.setattr(comparison, "_adapted_frames", lambda g, B, V: np.array(
        [_frame_one_by_one(g, B, v) for v in V]))
    looped = comparison.volume_compare(chart, p, r=0.8, Kref=K, directions=128)
    assert batched["area"] == pytest.approx(looped["area"], rel=0, abs=1e-12)


# -- faults inside the integrator --------------------------------------------

@pytest.mark.parametrize("method", ["rk4_fixed", "rkf45_adaptive"])
def test_domain_fault_carries_partial_trajectory(method):
    # the metric needs sqrt(x); the geodesic crosses x = 0 near t = 0.3
    chart = manifold.chart_from_definition(SQRT)
    with pytest.raises(DomainFault, match="sqrt of negative argument") as ei:
        transport.integrate_geodesic(chart, [0.3, 0.0], [-1.0, 0.2], 1.0,
                                     settings=OdeSettings(method=method))
    exc = ei.value
    traj = exc.trajectory
    assert 0.29 < exc.t_exit < 0.32
    assert exc.point[0] < 0.0
    assert len(traj.t) >= 3 and traj.t[0] == 0.0
    assert np.all(np.diff(traj.t) > 0) and traj.t[-1] < exc.t_exit
    assert traj.x.shape == traj.v.shape == (len(traj.t), 2)
    assert np.all(traj.x[:, 0] >= 0.0)
    np.testing.assert_allclose(traj.x[0], [0.3, 0.0])


DEGENERATE = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "x"]]}
OVERFLOWING = {"dim": 2, "coords": ["x", "y"],
               "metric": [["4/(1+x^2+y^2)^2", "0"], ["0", "4/(1+x^2+y^2)^2"]]}


def test_singular_metric_inside_the_rhs_is_located():
    # x^2 + y^2 overflows to inf at the start, so g = 0 there
    chart = manifold.chart_from_definition(OVERFLOWING)
    with pytest.raises(SingularMetric) as ei:
        transport.exp_map(chart, [1e154, 1e154], [1.0, 0.0])
    assert ei.value.t_exit == 0.0
    np.testing.assert_array_equal(ei.value.point, [1e154, 1e154])
    # from x = 0.5 along -e_1 with h = 0.25, the last stage of the second
    # step evaluates g = diag(1, x) at exactly x = 0, t = 0.5
    chart = manifold.chart_from_definition(DEGENERATE)
    settings = OdeSettings(step=0.25)
    with pytest.raises(SingularMetric) as single:
        transport.integrate_geodesic(chart, [0.5, 0.0], [-1.0, 0.0], 1.0, settings=settings)
    with pytest.raises(SingularMetric) as batch:
        transport._exp_rays(chart, np.array([[0.9, 0.0], [0.5, 0.0]]),
                            np.array([[0.1, 0.0], [-1.0, 0.0]]), settings)
    for exc in (single.value, batch.value):
        assert exc.t_exit == 0.5
        np.testing.assert_array_equal(exc.point, [0.0, 0.0])
    traj = single.value.trajectory
    np.testing.assert_array_equal(traj.t, [0.0, 0.25])
    np.testing.assert_array_equal(traj.x, [[0.5, 0.0], [0.25, 0.0]])

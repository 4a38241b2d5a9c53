"""Geodesic integration, parallel transport, exp/log, development."""

import math

import numpy as np
import pytest

from riemannkit import manifold, transport, variation
from riemannkit.errors import BadParam, DomainExit, NoConvergence, SingularMetric
from riemannkit.manifold import SampledCurve
from riemannkit.transport import OdeSettings


FAST = OdeSettings(step=5e-3)


# -- ODE plumbing ------------------------------------------------------------

def test_rk4_path_exponential():
    ts = np.linspace(0.0, 1.0, 101)
    ys = transport.rk4_path(lambda t, y: y, np.array([1.0]), ts)
    assert ys[-1, 0] == pytest.approx(math.e, abs=1e-9)


def test_rk4_fourth_order_convergence():
    # endpoint error should shrink by ~2^4 under step halving
    def run(n_steps):
        ts = np.linspace(0.0, 2.0, n_steps + 1)
        ys = transport.rk4_path(lambda t, y: np.array([math.cos(t) * y[0]]),
                                np.array([1.0]), ts)
        return abs(ys[-1, 0] - math.exp(math.sin(2.0)))

    e1, e2 = run(50), run(100)
    assert 12.0 <= e1 / e2 <= 20.0


def test_rkf45_adaptive_matches_fixed(sphere2):
    p = np.array([0.3, 0.1])
    v = np.array([0.5, -0.2])
    fixed = transport.integrate_geodesic(sphere2, p, v, 2.0,
                                         settings=OdeSettings(step=1e-3))
    adapt = transport.integrate_geodesic(
        sphere2, p, v, 2.0,
        settings=OdeSettings(method="rkf45_adaptive", rtol=1e-10, atol=1e-12))
    assert np.linalg.norm(fixed.x[-1] - adapt.x[-1]) <= 1e-7


def test_bad_settings_rejected():
    with pytest.raises(BadParam):
        OdeSettings(step=-1e-3)
    with pytest.raises(BadParam):
        OdeSettings(method="euler_backward")


@pytest.mark.parametrize("kwargs", [
    dict(step=math.nan), dict(step=math.inf), dict(rtol=math.nan), dict(rtol=math.inf),
    dict(atol=math.nan), dict(atol=math.inf), dict(max_steps=0),
    dict(method="rkf45_adaptive", step=math.nan),
], ids=["nan_step", "infinite_step", "nan_rtol", "infinite_rtol", "nan_atol",
        "infinite_atol", "no_steps", "rkf45_nan_step"])
def test_settings_that_are_not_finite_rejected(kwargs):
    # rejected before any integration: RKF45 from a NaN step rejects every
    # trial step and never returns
    with pytest.raises(BadParam):
        OdeSettings(**kwargs)


@pytest.mark.parametrize("method", ["rk4_fixed", "rkf45_adaptive"])
@pytest.mark.parametrize("tmax", [math.nan, math.inf], ids=["nan", "inf"])
def test_geodesic_horizon_must_be_finite(sphere2, method, tmax):
    settings = OdeSettings(method=method, max_steps=1000)
    with pytest.raises(BadParam, match="tmax"):
        transport.integrate_geodesic(sphere2, [0.3, 0.1], [0.5, -0.2], tmax, settings=settings)


# -- geodesics ---------------------------------------------------------------

def test_euclidean_geodesic_is_straight(eucl2):
    p = np.array([0.1, -0.2])
    v = np.array([0.3, 0.4])
    traj = transport.integrate_geodesic(eucl2, p, v, 3.0, settings=FAST)
    want = p + 3.0 * v
    assert np.linalg.norm(traj.x[-1] - want) <= 1e-12
    assert traj.speed_drift <= 1e-12


def test_sphere_geodesic_closes_after_2pi(sphere2):
    # unit-speed great circle through a non-origin point returns after 2 pi
    p = np.array([0.3, 0.1])
    g = sphere2.evaluator.metric(p)
    v = np.array([1.0, 0.2])
    v = v / math.sqrt(float(v @ g @ v))
    traj = transport.integrate_geodesic(sphere2, p, v, 2 * math.pi,
                                        settings=OdeSettings(step=1e-3))
    assert np.linalg.norm(traj.x[-1] - p) <= 1e-6
    assert np.linalg.norm(traj.v[-1] - v) <= 1e-6
    assert traj.speed_drift <= 1e-9


def test_unit_speed_preserved(hyper2):
    p = np.array([0.2, 0.0])
    g = hyper2.evaluator.metric(p)
    v = np.array([0.7, 0.3])
    v = v / math.sqrt(float(v @ g @ v))
    traj = transport.integrate_geodesic(hyper2, p, v, 2.0, settings=FAST)
    assert traj.speed_drift <= 1e-10


def test_overflowed_metric_raises_singular_metric():
    # x^2 + y^2 overflows to inf, so g = 0 and Gamma cannot be formed
    chart = manifold.chart_from_definition(
        {"dim": 2, "coords": ["x", "y"],
         "metric": [["4/(1+x^2+y^2)^2", "0"], ["0", "4/(1+x^2+y^2)^2"]]})
    with pytest.raises(SingularMetric):
        transport.exp_map(chart, [1e154, 1e154], [1.0, 0.0])


def test_domain_exit_carries_partial_trajectory(sphere2):
    # from the chart origin the antipode is the missing pole, reached at t = pi
    p = np.array([0.0, 0.0])
    v = np.array([0.5, 0.0])  # unit speed at the origin (g = 4 I)
    with pytest.raises(DomainExit) as ei:
        transport.integrate_geodesic(sphere2, p, v, 4.0, settings=FAST)
    exc = ei.value
    assert exc.trajectory is not None
    assert 3.0 < exc.t_exit <= 4.0
    assert len(exc.trajectory.t) > 10
    # the partial trajectory stays inside the capped chart
    assert np.all(np.isfinite(exc.trajectory.x))


def test_rkf45_domain_exit_carries_partial_trajectory():
    # straight lines in the open unit disk; the ray from the centre leaves at t = 1
    disk = manifold.chart_from_definition({
        "dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
        "domain": "1 - x^2 - y^2"})
    with pytest.raises(DomainExit) as ei:
        transport.integrate_geodesic(disk, [0.0, 0.0], [1.0, 0.0], 2.0,
                                     settings=OdeSettings(method="rkf45_adaptive"),
                                     with_frame=False)
    exc = ei.value
    traj = exc.trajectory
    assert exc.t_exit >= 1.0
    assert np.linalg.norm(exc.point) >= 1.0
    assert len(traj.t) >= 3 and traj.t[0] == 0.0
    assert np.all(np.diff(traj.t) > 0) and traj.t[-1] < exc.t_exit
    assert traj.x.shape == traj.v.shape == (len(traj.t), 2)
    assert all(disk.contains(x) for x in traj.x)
    np.testing.assert_allclose(traj.x[:, 0], traj.t, rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.v, np.tile([1.0, 0.0], (len(traj.t), 1)),
                               rtol=0, atol=1e-12)


def test_trajectory_dense_output(sphere2):
    p = np.array([0.3, 0.1])
    v = np.array([0.4, -0.1])
    traj = transport.integrate_geodesic(sphere2, p, v, 1.0,
                                        settings=OdeSettings(step=1e-3))
    # dense output at an off-grid parameter agrees with a direct short run
    s = 0.6180339887
    short = transport.integrate_geodesic(sphere2, p, v, s,
                                         settings=OdeSettings(step=1e-3))
    assert np.linalg.norm(traj.position(s) - short.x[-1]) <= 1e-9
    assert np.linalg.norm(traj.velocity(s) - short.v[-1]) <= 1e-7


def test_trajectory_csv(tmp_path, sphere2):
    p = np.array([0.3, 0.1])
    v = np.array([0.4, -0.1])
    traj = transport.integrate_geodesic(sphere2, p, v, 0.5,
                                        settings=OdeSettings(step=1e-2))
    path = tmp_path / "geo.csv"
    traj.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(lines) == len(traj.t) + 1
    row = [float(x) for x in lines[-1].split(",")]
    assert row[0] == pytest.approx(0.5)
    assert row[1] == pytest.approx(traj.x[-1][0], rel=1e-15)


# -- frames and transport ----------------------------------------------------

def test_initial_frame_orthonormal_tangent_last(sphere2):
    p = np.array([0.3, 0.1])
    g = sphere2.evaluator.metric(p)
    v = np.array([0.5, -0.1])
    v = v / math.sqrt(float(v @ g @ v))
    E = transport.initial_frame(sphere2, p, v)
    assert np.max(np.abs(E.T @ g @ E - np.eye(2))) <= 1e-12
    assert np.linalg.norm(E[:, -1] - v) <= 1e-12


def test_frame_stays_orthonormal_along_geodesic(hyper2):
    p = np.array([0.2, -0.1])
    v = np.array([0.3, 0.4])
    traj = transport.integrate_geodesic(hyper2, p, v, 2.0,
                                        settings=OdeSettings(step=1e-3))
    for i in (len(traj.t) // 2, len(traj.t) - 1):
        g = hyper2.evaluator.metric(traj.x[i])
        E = traj.frame[i]
        assert np.max(np.abs(E.T @ g @ E - np.eye(2))) <= 1e-9


def test_parallel_transport_preserves_inner_products(sphere2, rng):
    p = np.array([0.3, 0.1])
    v = np.array([0.5, -0.2])
    traj = transport.integrate_geodesic(sphere2, p, v, 1.5, settings=FAST)
    g0 = sphere2.evaluator.metric(p)
    g1 = sphere2.evaluator.metric(traj.x[-1])
    for _ in range(5):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        ta = transport.parallel_transport(sphere2, traj, a)[-1]
        tb = transport.parallel_transport(sphere2, traj, b)[-1]
        assert float(ta @ g1 @ tb) == pytest.approx(float(a @ g0 @ b),
                                                    rel=1e-8, abs=1e-10)


def test_transport_of_tangent_is_velocity(hyper2):
    p = np.array([0.1, 0.2])
    v = np.array([0.4, -0.3])
    traj = transport.integrate_geodesic(hyper2, p, v, 1.0, settings=FAST)
    w = transport.parallel_transport(hyper2, traj, v)[-1]
    assert np.linalg.norm(w - traj.v[-1]) <= 1e-8


# -- exp / log ---------------------------------------------------------------

def test_exp_log_round_trip(sphere2, hyper2, rng):
    for chart in (sphere2, hyper2):
        p = np.array([0.25, -0.15])
        for _ in range(3):
            v = 0.35 * rng.standard_normal(2)
            q = transport.exp_map(chart, p, v)
            got = transport.log_map(chart, p, q)
            assert np.linalg.norm(got - v) <= 1e-8


def test_log_map_distance_on_sphere(sphere2):
    # |log_p q|_g equals the geodesic distance; check against a known arc
    p = np.array([0.3, 0.1])
    g = sphere2.evaluator.metric(p)
    v = np.array([1.0, 0.0]) / math.sqrt(g[0, 0])
    q = transport.exp_map(sphere2, p, 1.2 * v)
    u = transport.log_map(sphere2, p, q)
    assert math.sqrt(float(u @ g @ u)) == pytest.approx(1.2, abs=1e-8)


def test_log_map_no_convergence_reports_best(hyper2):
    with pytest.raises(NoConvergence) as ei:
        transport.log_map(hyper2, np.array([0.0, 0.0]), np.array([0.999, 0.0]),
                          max_iter=2)
    assert ei.value.best_value is not None
    assert ei.value.best_residual > 0.0


@pytest.mark.parametrize("name, params, p, dq", [
    ("hyperbolic_ball", {"n": 2}, [0.3, 0.1], [2e-6, 0.0]),
    ("sphere_stereo", {"n": 2}, [50.0, 0.0], [4e-4, 0.0]),
])
def test_log_map_tells_nearby_points_apart(name, params, p, dq):
    # q - p is inside np.allclose's tolerances, but p and q are distinct points
    chart = manifold.builtin(name, params)
    p = np.array(p)
    q = p + dq
    v = transport.log_map(chart, p, q)
    assert np.linalg.norm(transport.exp_map(chart, p, v) - q) <= 1e-10
    assert np.linalg.norm(v - dq) <= 1e-3 * np.linalg.norm(dq)
    assert np.array_equal(transport.log_map(chart, p, p.copy()), np.zeros(2))


def test_shortest_geodesic_tells_nearby_points_apart(hyper2):
    p = np.array([0.3, 0.1])
    q = p + [2e-6, 0.0]
    traj, length = transport.shortest_geodesic(hyper2, p, q, tries=1)
    # g = (2 / (1 - |x|^2))^2 delta is nearly constant over the step
    assert length == pytest.approx(2e-6 * 2.0 / (1.0 - 0.1), rel=1e-5)
    assert np.linalg.norm(traj.x[-1] - q) <= 1e-10


@pytest.mark.parametrize("fn", [transport.log_map, transport.shortest_geodesic])
@pytest.mark.parametrize("q", [[1.2, 0.0], [np.nan, 0.0]])
def test_two_point_problems_reject_endpoints_outside_the_chart(hyper2, fn, q):
    with pytest.raises(DomainExit) as ei:
        fn(hyper2, [0.3, 0.1], q)
    assert np.array_equal(ei.value.point, q, equal_nan=True)
    with pytest.raises(DomainExit) as ei:
        fn(hyper2, q, [0.3, 0.1])
    assert np.array_equal(ei.value.point, q, equal_nan=True)


HOROSPHERICAL = {"dim": 3, "coords": ["x", "y", "z"],
                 "metric": [["exp(2*z)", "0", "0"], ["0", "exp(2*z)", "0"], ["0", "0", "1"]]}
PARABOLOID = {"dim": 2, "coords": ["x", "y"],
              "metric": [["1+4*x^2", "4*x*y"], ["4*x*y", "1+4*y^2"]]}
SHOOT_CHARTS = {
    "sphere2": lambda: manifold.builtin("sphere_stereo", {"n": 2, "R": 1.0}),
    "sphere3": lambda: manifold.builtin("sphere_stereo", {"n": 3, "R": 1.5}),
    "ball3": lambda: manifold.builtin("hyperbolic_ball", {"n": 3}),
    "torus": lambda: manifold.builtin("torus", {"R": 2.0, "r": 1.0}),
    "paraboloid": lambda: manifold.chart_from_definition(PARABOLOID),
    "horospherical": lambda: manifold.chart_from_definition(HOROSPHERICAL),
}


def _shooting_ray(chart):
    n = chart.dim
    return np.linspace(0.25, -0.15, n), np.linspace(0.6, -0.4, n)


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "ball3", "torus", "horospherical"])
def test_exp_differential_matches_central_differences(name):
    chart = SHOOT_CHARTS[name]()
    p, v = _shooting_ray(chart)
    settings = transport.LOG_SETTINGS
    geo = transport.integrate_geodesic(chart, p, v, 1.0, settings=settings)
    D = variation._exp_differential(chart, geo)
    h = 1e-6
    fd = np.column_stack([(transport.exp_map(chart, p, v + h * e, settings)
                           - transport.exp_map(chart, p, v - h * e, settings)) / (2.0 * h)
                          for e in np.eye(chart.dim)])
    assert np.linalg.norm(D - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("name", ["torus", "paraboloid", "horospherical"])
def test_exp_log_round_trip_off_the_model_charts(name):
    chart = SHOOT_CHARTS[name]()
    p, v = _shooting_ray(chart)
    q = transport.exp_map(chart, p, v, transport.LOG_SETTINGS)
    np.testing.assert_allclose(transport.log_map(chart, p, q), v, rtol=0, atol=1e-9)


def test_degenerate_metric_stops_the_geodesic():
    # g = diag(1, x) is singular at x = 0, which the ray reaches at t = 0.5
    chart = manifold.chart_from_definition(
        {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "x"]]})
    with pytest.raises(SingularMetric) as ei:
        transport.integrate_geodesic(chart, [0.5, 0.0], [-1.0, 0.0], 1.0)
    exc = ei.value
    assert 0.5 - 1e-12 <= exc.t_exit <= 0.505 + 1e-12  # g is checked every 5 steps
    np.testing.assert_allclose(exc.point, [0.5 - exc.t_exit, 0.0], rtol=0, atol=1e-12)
    part = exc.trajectory
    assert part.t[-1] < exc.t_exit and len(part.t) == len(part.x) == len(part.v)
    assert np.all(part.x[:, 0] > 0.0)
    # the shooter integrates the same ray first, so log_map stops too
    with pytest.raises(SingularMetric):
        transport.log_map(chart, np.array([0.5, 0.0]), np.array([-0.5, 0.0]))


def test_exp_map_stops_at_a_degenerate_endpoint():
    # the batched exponential of the same ray ends at x = -0.5, where
    # g = diag(1, -0.5); it is named at t = 1, not returned
    chart = manifold.chart_from_definition(
        {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "x"]]})
    with pytest.raises(SingularMetric) as ei:
        transport.exp_map(chart, [0.5, 0.0], [-1.0, 0.0])
    exc = ei.value
    assert exc.t_exit == 1.0
    np.testing.assert_allclose(exc.point, [-0.5, 0.0], rtol=0, atol=1e-12)
    P = np.array([[0.5, 0.0], [0.6, 0.0], [0.7, 0.0]])
    V = np.array([[0.1, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(SingularMetric) as ei:
        transport._exp_rays(chart, P, V, OdeSettings())
    np.testing.assert_allclose(ei.value.point, [-0.4, 0.0], rtol=0, atol=1e-12)


# g = diag(1, x): indefinite where x < 0
PIVOT = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "x"]]}


@pytest.mark.parametrize("method", ["rk4_fixed", "rkf45_adaptive"])
def test_exp_map_refuses_an_indefinite_start(method):
    # from x = -0.5 along (1, 0) the ray ends at x = 0.5, where g is definite;
    # the start is named at t = 0 instead of the end being returned
    chart = manifold.chart_from_definition(PIVOT)
    settings = OdeSettings(method=method)
    for v in ([1.0, 0.0], [0.0, 0.0]):
        with pytest.raises(SingularMetric, match="at the start of ray 0") as ei:
            transport.exp_map(chart, [-0.5, 0.1], v, settings)
        assert ei.value.t_exit == 0.0
        assert np.array_equal(ei.value.point, [-0.5, 0.1])
    # a batch names its first indefinite start, though every ray ends where g is definite
    P = np.array([[0.5, 0.0], [-0.5, 0.1], [-0.2, 0.0]])
    with pytest.raises(SingularMetric, match="at the start of ray 1") as ei:
        transport._exp_rays(chart, P, np.array([[0.1, 0.0], [1.0, 0.0], [1.0, 0.0]]), settings)
    assert ei.value.t_exit == 0.0
    assert np.array_equal(ei.value.point, P[1])


@pytest.mark.parametrize("with_frame", [True, False])
def test_a_geodesic_from_an_indefinite_start_names_it(with_frame):
    chart = manifold.chart_from_definition(PIVOT)
    with pytest.raises(SingularMetric) as ei:
        transport.integrate_geodesic(chart, [-0.5, 0.1], [1.0, 0.0], 1.0, with_frame=with_frame)
    assert ei.value.t_exit == 0.0
    assert np.array_equal(ei.value.point, [-0.5, 0.1])


# -- development -------------------------------------------------------------

def test_develop_geodesic_is_straight(sphere2):
    p = np.array([0.3, 0.1])
    v = np.array([0.5, -0.2])
    traj = transport.integrate_geodesic(sphere2, p, v, 1.5,
                                        settings=OdeSettings(step=2e-3))
    dev = transport.develop(sphere2, traj.as_curve())
    # straight line through the origin: zero cross-track deviation
    d = dev.points[-1] / np.linalg.norm(dev.points[-1])
    cross = dev.points - np.outer(dev.points @ d, d)
    assert np.max(np.linalg.norm(cross, axis=1)) <= 1e-8


def test_develop_preserves_length(sphere2):
    # length of the development equals the Riemannian length of the curve
    t = np.linspace(0.0, 1.0, 301)
    pts = np.column_stack([0.3 + 0.2 * np.sin(2 * t), 0.1 + 0.2 * t * t])
    curve = SampledCurve(t, pts)
    dev = transport.develop(sphere2, curve)
    L_chart = manifold.curve_length(sphere2, curve)
    L_plane = manifold.curve_length(manifold.builtin("euclidean", {"n": 2}), dev)
    assert L_plane == pytest.approx(L_chart, rel=1e-6)


def test_develop_reverse_round_trip(torus21):
    t = np.linspace(0.0, 2.0, 401)
    pts = np.column_stack([0.5 * np.sin(t), 0.8 * t])
    curve = SampledCurve(t, pts)
    dev = transport.develop(torus21, curve)
    back = transport.reverse_develop(torus21, dev, curve.points[0])
    assert np.max(np.linalg.norm(back.points - curve.points, axis=1)) <= 1e-8


def test_latitude_circle_develops_to_circle(sphere2):
    # the polar-angle-a latitude develops to a circle of radius tan(a); its
    # holonomy angle is 2 pi (1 - cos a)
    a = math.pi / 3
    rho = math.tan(a / 2)  # stereographic radius of the latitude circle
    t = np.linspace(0.0, 2 * math.pi, 721)
    pts = rho * np.column_stack([np.cos(t), np.sin(t)])
    curve = SampledCurve(t, pts)
    dev = transport.develop(sphere2, curve)
    # algebraic circle fit: |z|^2 = 2 c . z + d  =>  radius^2 = |c|^2 + d
    Z = dev.points
    A = np.column_stack([2.0 * Z, np.ones(len(Z))])
    sol, *_ = np.linalg.lstsq(A, np.einsum("ti,ti->t", Z, Z), rcond=None)
    center, d = sol[:2], sol[2]
    radius = math.sqrt(float(center @ center + d))
    assert radius == pytest.approx(math.tan(a), abs=1e-6)
    assert np.max(np.abs(np.linalg.norm(Z - center, axis=1) - radius)) <= 1e-6
    # arc angle of the developed circle = 2 pi cos a (the deficit is holonomy)
    arc = np.sum(np.linalg.norm(np.diff(Z, axis=0), axis=1))
    assert arc / radius == pytest.approx(2 * math.pi * math.cos(a), abs=1e-4)


# -- two-point geodesics -----------------------------------------------------

def test_shortest_geodesic_sphere(sphere2):
    p = np.array([0.3, 0.1])
    q = np.array([-0.2, 0.4])
    traj, length = transport.shortest_geodesic(sphere2, p, q, seed=1)
    assert np.linalg.norm(traj.x[-1] - q) <= 1e-7
    v = transport.log_map(sphere2, p, q)
    g = sphere2.evaluator.metric(p)
    assert length == pytest.approx(math.sqrt(float(v @ g @ v)), abs=1e-6)

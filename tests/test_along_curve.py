"""Linear equations along a known curve as products of RK4 transition
matrices: parallel transport and development, checked against RK4 on a
per-stage right-hand side that evaluates the curve and Gamma one stage at a
time."""

import numpy as np
import pytest

from riemannkit import manifold, transport
from riemannkit.manifold import SampledCurve
from riemannkit.transport import OdeSettings
from test_connection import EXPR2


def _transport_reference(chart, curve, w0, substeps=4):
    """w' = -Gamma(c', .) w by RK4 with one dense lookup and one
    ``connection`` call per stage."""
    connection = chart.evaluator.connection

    def rhs(t, w):
        return -(connection(curve.position(t), curve.velocity(t)) @ w)

    return transport.rk4_path(rhs, np.asarray(w0, dtype=float), curve.t, substeps=substeps)


def _develop_reference(chart, curve, substeps=4):
    """The frame E' = -Gamma(c', .) E and sigma' = E^-1 c' by RK4, with one
    solve per stage; the development's velocity E^-1 c' at every sample."""
    curve.ensure_velocities()
    n = chart.dim
    connection = chart.evaluator.connection

    def rhs(t, y):
        E = y[:n * n].reshape(n, n)
        v = curve.velocity(t)
        dE = -(connection(curve.position(t), v) @ E)
        return np.concatenate([dE.ravel(), np.linalg.solve(E, v)])

    B0 = transport.initial_frame(chart, curve.points[0])
    ys = transport.rk4_path(rhs, np.concatenate([B0.ravel(), np.zeros(n)]), curve.t,
                            substeps=substeps)
    E = ys[:, :n * n].reshape(-1, n, n)
    return ys[:, n * n:], np.linalg.solve(E, curve.velocities[:, :, None])[:, :, 0]


CHARTS = {
    "sphere2": lambda: manifold.builtin("sphere_stereo", {"n": 2, "R": 1.0}),
    "torus": lambda: manifold.builtin("torus", {"R": 2.0, "r": 1.0}),
    "expr2": lambda: manifold.chart_from_definition(EXPR2),
}


def _curves(chart):
    """A geodesic, and a closed curve that is none, each with 161 samples.

    The two formulations of the development differ by their RK4 errors, at
    fourth order in the step; with 4 substeps to each sample interval that
    is up to 2e-10 (relative) at 81 samples, and up to 1.2e-11 at 161.
    """
    geo = transport.integrate_geodesic(chart, [0.3, 0.1], [0.5, -0.2], 1.6,
                                       settings=OdeSettings(step=0.01))
    t = np.linspace(0.0, 2.0 * np.pi, 161)
    loop = SampledCurve(t, np.column_stack([0.3 + 0.25 * np.cos(t), 0.1 + 0.4 * np.sin(t)]))
    return geo, loop


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_parallel_transport_matches_per_stage_rk4(name):
    chart = CHARTS[name]()
    w0 = np.array([0.7, -0.4])
    for curve in _curves(chart):  # a Trajectory's own dense output drives C too
        got = transport.parallel_transport(chart, curve, w0)
        want = _transport_reference(chart, curve, w0)
        assert got.shape == want.shape == (len(curve.t), 2)
        assert _rel(got, want) <= 1e-12


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_develop_matches_per_stage_rk4(name):
    chart = CHARTS[name]()
    geo, loop = _curves(chart)
    for curve in (geo.as_curve(), loop):
        dev = transport.develop(chart, curve)
        sigma, dsig = _develop_reference(chart, curve)
        assert np.array_equal(dev.t, curve.t)
        assert _rel(dev.points, sigma) <= 1e-10
        assert _rel(dev.velocities, dsig) <= 1e-10


def test_parallel_transport_in_three_dimensions_matches_per_stage_rk4(sphere3):
    geo = transport.integrate_geodesic(sphere3, [0.3, 0.1, -0.2], [0.5, -0.2, 0.3], 1.5,
                                       settings=OdeSettings(step=0.02))
    w0 = np.array([0.1, 0.7, -0.3])
    got = transport.parallel_transport(sphere3, geo, w0, substeps=2)
    assert _rel(got, _transport_reference(sphere3, geo, w0, substeps=2)) <= 1e-12


def test_develop_is_fourth_order_in_the_substeps(torus21):
    # the coarse samples make the RK4 error dominate; the Hermite dense
    # output is smooth inside each interval, where the substeps fall
    t = np.linspace(0.0, 2.0, 21)
    curve = SampledCurve(t, np.column_stack([0.5 * np.sin(t) + 0.3 * t, 0.8 * t]))
    ref = transport.develop(torus21, curve, substeps=16)
    e1, e2 = (np.max(np.abs(transport.develop(torus21, curve, substeps=k).points - ref.points))
              for k in (1, 2))
    assert 12.0 <= e1 / e2 <= 20.0

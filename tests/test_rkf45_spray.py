"""The RKF45 geodesic: (x, v) stepped in floats with the spray, checked
against the coupled numpy RKF45 of ``test_spray._geodesic_rhs``, with the
domain checked and faults located once per block of accepted steps; the
framed one carries its frame by Fehlberg transitions."""

import math
from dataclasses import replace

import numpy as np
import pytest

from riemannkit import manifold, transport
from riemannkit.errors import DomainExit, DomainFault, StepFault
from riemannkit.transport import OdeSettings
from test_connection import EXPR3
from test_spray import (HOROSPHERICAL, PARABOLOID, SQRT, _domain_guard, _geodesic_rhs, _rkf45,
                        check_chart_step_is_bitwise_the_generic_step)

RKF = OdeSettings(method="rkf45_adaptive")
SPHERE_EXPR = {"dim": 2, "coords": ["x", "y"],
               "metric": [["4/(1+x^2+y^2)^2", "0"], ["0", "4/(1+x^2+y^2)^2"]]}

# the seven charts of the equivalence check, with the length of the ray on each
CHARTS = {
    "sphere2": (lambda: manifold.builtin("sphere_stereo", {"n": 2, "R": 1.0}), 10.0),
    "sphere3": (lambda: manifold.builtin("sphere_stereo", {"n": 3, "R": 1.5}), 10.0),
    "ball3": (lambda: manifold.builtin("hyperbolic_ball", {"n": 3}), 10.0),
    "torus": (lambda: manifold.builtin("torus", {"R": 2.0, "r": 1.0}), 50.0),
    "sphere_expr": (lambda: manifold.chart_from_definition(SPHERE_EXPR), 10.0),
    "paraboloid": (lambda: manifold.chart_from_definition(PARABOLOID), 10.0),
    "horospherical": (lambda: manifold.chart_from_definition(HOROSPHERICAL), 10.0),
}


# the five charts of the framed check, with the length of the ray on each
FRAMED = dict({name: CHARTS[name] for name in ("sphere2", "sphere3", "ball3", "torus")},
              expr3=(lambda: manifold.chart_from_definition(EXPR3), 3.0))
TIGHT = OdeSettings(method="rkf45_adaptive", rtol=1e-13, atol=1e-15)


def _unit_ray(chart):
    n = chart.dim
    p = np.array([0.3, 0.2, 0.1])[:n]
    v = np.array([0.5, 1.0, -0.4])[:n]
    return p, v / manifold.norm(chart, p, v)


def _coupled(chart, p, v, tmax, settings=RKF):
    """(ts, ys) of the coupled numpy RKF45 of (x, v), guarded per sample."""
    n = chart.dim
    return _rkf45(_geodesic_rhs(chart, n), np.concatenate([p, v]),
                  tmax, settings, guard=_domain_guard(chart, n))


def _coupled_framed_end(chart, p, v, tmax, settings):
    """(x, E) at tmax of the coupled numpy RKF45 of (x, v, frame), whose
    error norm covers the frame too."""
    n = chart.dim
    E0 = transport.initial_frame(chart, p, v)
    _, ys = _rkf45(_geodesic_rhs(chart, n), np.concatenate([p, v, E0.T.ravel()]),
                   tmax, settings)
    return ys[-1, :n], ys[-1, 2 * n:].reshape(n, n).T


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class Cliff(manifold.MetricEvaluator):
    """The flat plane, whose Christoffel symbols Gamma^2_jk are NaN past u = 0.6."""

    dim = 2

    def stack(self, x):
        return np.eye(2), np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2))

    def connection(self, x, v):
        C = np.zeros((2, 2))
        if x[0] > 0.6:
            C[1] = math.nan
        return C


# -- agreement with the coupled RKF45 ---------------------------------------

@pytest.mark.parametrize("name", sorted(CHARTS))
def test_unframed_rkf45_matches_the_coupled_reference(name):
    make, tmax = CHARTS[name]
    chart = make()
    n = chart.dim
    p, v = _unit_ray(chart)
    ts, ys = _coupled(chart, p, v, tmax)
    geo = transport.integrate_geodesic(chart, p, v, tmax, settings=RKF, with_frame=False)
    assert geo.frame is None
    assert len(geo.t) == len(ts)
    assert geo.t[-1] == ts[-1] == tmax
    assert _rel(geo.x[-1], ys[-1, :n]) <= 1e-12
    assert _rel(geo.v[-1], ys[-1, n:]) <= 1e-12


@pytest.mark.parametrize("name", sorted(FRAMED))
def test_framed_rkf45_is_as_accurate_as_the_coupled_reference(name):
    # the accepted steps follow (x, v) alone and the frame follows by
    # Fehlberg transitions; against a tight coupled run, x and E at T are
    # within 2x of the error of the coupled RKF45 at default tolerances
    make, tmax = FRAMED[name]
    chart = make()
    n = chart.dim
    p, v = _unit_ray(chart)
    x_ref, E_ref = _coupled_framed_end(chart, p, v, tmax, TIGHT)
    x_old, E_old = _coupled_framed_end(chart, p, v, tmax, RKF)
    geo = transport.integrate_geodesic(chart, p, v, tmax, settings=RKF)
    assert geo.t[-1] == tmax
    for got, old, ref in ((geo.x[-1], x_old, x_ref), (geo.frame[-1], E_old, E_ref)):
        assert np.max(np.abs(got - ref)) <= 2.0 * np.max(np.abs(old - ref))
    G = chart.evaluator.metric_batch(geo.x)
    drift = geo.frame.swapaxes(1, 2) @ G @ geo.frame - np.eye(n)
    assert np.max(np.abs(drift)) <= 1e-8


def test_rkf45_meets_its_tolerance_on_a_variable_curvature_chart():
    # the end-point error against a run at rtol = 1e-13 falls with rtol
    chart = manifold.chart_from_definition(EXPR3)
    p, v = _unit_ray(chart)

    def end(rtol):
        settings = OdeSettings(method="rkf45_adaptive", rtol=rtol, atol=rtol / 100)
        return transport.integrate_geodesic(chart, p, v, 3.0, settings=settings,
                                            with_frame=False).x[-1]

    ref = end(1e-13)
    errors = [float(np.linalg.norm(end(rtol) - ref)) for rtol in (1e-7, 1e-8, 1e-9, 1e-10)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse >= 5.0 * fine
    assert errors[-1] <= 1e-9


# -- the emitted Fehlberg step --------------------------------------------------

@pytest.mark.parametrize("name", sorted(CHARTS) + ["cliff"])
def test_fehlberg_chart_step_and_error_norm_are_bitwise_the_generic_ones(name):
    # on the cliff, past u = 0.6, the error of the second component is NaN
    # and that of the first is not, so the norm must be NaN there
    chart = (manifold.MetricChart(dim=2, coords=["u", "w"], evaluator=Cliff(), label="cliff")
             if name == "cliff" else CHARTS[name][0]())
    check_chart_step_is_bitwise_the_generic_step(chart, transport.FEHLBERG)


# -- the step controller -------------------------------------------------------

def test_a_nan_error_norm_rejects_the_step_and_cuts_h_tenfold():
    widths = []

    def trial(t, y, h):
        widths.append(h)
        return [t + h], math.nan if len(widths) == 1 else 0.5

    t, y = next(transport._rkf45_steps(trial, [0.0], 1.0, OdeSettings(step=0.25)))
    assert widths == [0.25, 0.25 * 0.1]
    assert t == y[0] == 0.025


def test_a_nan_past_the_first_component_rejects_the_step():
    # Gamma(v, v) is (0, NaN) past u = 0.6, so the first component of the
    # error stays finite; no NaN step is accepted, and the steps shrink to
    # nothing before the cliff, as in the coupled RKF45
    chart = manifold.MetricChart(dim=2, coords=["u", "w"], evaluator=Cliff(), label="cliff")
    p, v = np.array([0.0, 0.0]), np.array([1.0, 0.5])
    with pytest.raises(StepFault, match="underflow"):
        _coupled(chart, p, v, 2.0)
    with pytest.raises(StepFault, match="underflow"):
        transport.integrate_geodesic(chart, p, v, 2.0, settings=RKF, with_frame=False)


# -- leaving the domain and faults -------------------------------------------

# The grids of the two RKF45s drift apart by about 1e-9 (relative) where the
# error estimate is a small difference of O(1) slopes, so the samples of a
# partial trajectory are compared to that, and their count exactly.

def test_domain_exit_in_a_later_block_matches_the_per_sample_guard():
    # the torus cut at theta = 8: sample 310, in the fifth block, is the
    # first outside
    torus = manifold.builtin("torus", {"R": 2.0, "r": 1.0})
    chart = replace(torus, domain=lambda X: X[:, 1] < 8.0, label="torus_cap")
    p, v = _unit_ray(chart)
    with pytest.raises(DomainExit) as want:
        _coupled(chart, p, v, 50.0)
    with pytest.raises(DomainExit) as got:
        transport.integrate_geodesic(chart, p, v, 50.0, settings=RKF, with_frame=False)
    got, want = got.value, want.value
    assert len(got.trajectory.t) == len(want.trajectory.t) == 310
    assert got.t_exit == pytest.approx(want.t_exit, rel=1e-9)
    np.testing.assert_allclose(got.point, want.point, rtol=1e-8)
    np.testing.assert_allclose(got.trajectory.t, want.trajectory.t, rtol=1e-9)
    np.testing.assert_allclose(got.trajectory.x, want.trajectory.x, rtol=0, atol=1e-8)
    np.testing.assert_allclose(got.trajectory.v, want.trajectory.v, rtol=0, atol=1e-8)
    assert chart.inside(got.trajectory.x).all() and not chart.contains(got.point)


def test_spray_fault_carries_stage_time_point_and_partial_trajectory():
    # the metric needs sqrt(x); the ray crosses x = 0 near t = 0.3, in the
    # second block of accepted steps
    chart = manifold.chart_from_definition(SQRT)
    p, v = np.array([0.3, 0.0]), np.array([-1.0, 0.2])
    with pytest.raises(DomainFault) as want:
        _coupled(chart, p, v, 1.0)
    with pytest.raises(DomainFault, match="sqrt of negative argument") as got:
        transport.integrate_geodesic(chart, p, v, 1.0, settings=RKF, with_frame=False)
    got, want = got.value, want.value
    traj = got.trajectory
    assert transport.CHECK_EVERY < len(traj.t) == len(want.trajectory.t) == 95
    assert got.t_exit == pytest.approx(want.t_exit, rel=1e-9)
    assert traj.t[-1] < got.t_exit and got.point[0] < 0.0
    np.testing.assert_allclose(got.point, want.point, rtol=1e-6, atol=1e-15)
    np.testing.assert_allclose(traj.t, want.trajectory.t, rtol=1e-8)
    np.testing.assert_allclose(traj.x, want.trajectory.x, rtol=0, atol=1e-8)
    np.testing.assert_allclose(traj.v, want.trajectory.v, rtol=0, atol=1e-8)


def test_fault_after_the_exit_is_the_domain_exit():
    # the ray leaves x > 1e-7 at sample 76, and its sqrt faults at x < 0 in
    # the step after sample 94, both in the block of samples 65..128
    p, v = np.array([0.3, 0.0]), np.array([-1.0, 0.2])
    with pytest.raises(DomainFault) as fault:
        transport.integrate_geodesic(manifold.chart_from_definition(SQRT), p, v, 1.0,
                                     settings=RKF, with_frame=False)
    assert len(fault.value.trajectory.t) == 95
    chart = manifold.chart_from_definition(dict(SQRT, domain="x - 1e-7"))
    with pytest.raises(DomainExit) as want:
        _coupled(chart, p, v, 1.0)
    with pytest.raises(DomainExit) as got:
        transport.integrate_geodesic(chart, p, v, 1.0, settings=RKF, with_frame=False)
    got, want = got.value, want.value
    assert len(got.trajectory.t) == len(want.trajectory.t) == 76
    assert got.t_exit == pytest.approx(want.t_exit, rel=1e-9)
    np.testing.assert_allclose(got.point, want.point, rtol=1e-6, atol=1e-15)


@pytest.mark.parametrize("check_every", [None, 10_000])
def test_step_fault_after_the_exit_is_the_domain_exit(monkeypatch, check_every):
    # toward x = 0 the steps shrink until they underflow; with the domain
    # x > 1e-13 the ray leaves it a few samples before that, in the same
    # block (or, with one block for the whole ray, certainly so)
    if check_every is not None:
        monkeypatch.setattr(transport, "CHECK_EVERY", check_every)
    settings = OdeSettings(method="rkf45_adaptive", rtol=1e-12, atol=1e-14)
    p, v = np.array([0.3, 0.0]), np.array([-1.0, 0.2])
    with pytest.raises(StepFault, match="underflow"):
        transport.integrate_geodesic(manifold.chart_from_definition(SQRT), p, v, 1.0,
                                     settings=settings, with_frame=False)
    chart = manifold.chart_from_definition(dict(SQRT, domain="x - 1e-13"))
    with pytest.raises(DomainExit) as got:
        transport.integrate_geodesic(chart, p, v, 1.0, settings=settings, with_frame=False)
    traj = got.value.trajectory
    # the samples before the exit are all inside, the exit sample is not
    assert np.all(traj.x[:, 0] > 1e-13) and got.value.point[0] <= 1e-13
    assert traj.t[-1] < got.value.t_exit < 0.302
    assert len(traj.t) > 5 * 64


def test_max_steps_fault_inside_the_chart_is_raised():
    chart = manifold.builtin("torus", {"R": 2.0, "r": 1.0})
    p, v = _unit_ray(chart)
    settings = OdeSettings(method="rkf45_adaptive", max_steps=100)
    with pytest.raises(StepFault, match="max_steps"):
        _coupled(chart, p, v, 50.0, settings)
    with pytest.raises(StepFault, match="max_steps"):
        transport.integrate_geodesic(chart, p, v, 50.0, settings=settings, with_frame=False)

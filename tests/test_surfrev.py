"""Surfaces of revolution: profiles, Clairaut, barriers, classification."""

import json
import math

import numpy as np
import pytest

from riemannkit import surfrev, tensor
from riemannkit.errors import BadProfile, BarrierNotTransversal, DomainFault
from riemannkit.transport import OdeSettings, integrate_geodesic


@pytest.fixture(scope="module")
def torus_profile():
    return surfrev._profile_of(surfrev.torus_chart(2.0, 1.0))


# -- profiles ----------------------------------------------------------------

def test_torus_chart_profile(torus21):
    prof = surfrev._profile_of(torus21)
    for u in (0.0, 0.7, 2.0, math.pi):
        assert prof.f.value(u) == pytest.approx(2.0 + math.cos(u), abs=1e-14)
    assert prof.periodic == pytest.approx(2 * math.pi)
    prof.validate()


def test_profile_from_definition_cylinder():
    prof = surfrev.profile_from_definition(
        {"f": "2", "h": "u", "u_range": [-1.0, 1.0]})
    assert prof.f.value(0.3) == 2.0
    assert prof.gauss_curvature(0.1) == 0.0


def test_profile_rejects_nonpositive_f():
    with pytest.raises(BadProfile):
        surfrev.profile_from_definition(
            {"f": "u", "h": "u", "u_range": [-1.0, 1.0]})


def test_profile_rejects_non_arclength():
    with pytest.raises(BadProfile):
        surfrev.profile_from_definition(
            {"f": "2 + u^2", "h": "u", "u_range": [-1.0, 1.0]})


def test_load_profile(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"f": "2", "h": "u", "u_range": [-1.0, 1.0]}))
    prof = surfrev.load_profile(str(path))
    assert prof.f.value(0.0) == 2.0


def test_reparametrize_arclength_paraboloid():
    # f(u) = u on [0.5, 2] with h(u) = u^2 / 2 is not arclength
    raw = surfrev.Profile(f="u", h="u^2 / 2", u_range=(0.5, 2.0),
                          arclength=False)
    prof = surfrev.reparametrize_arclength(raw)
    prof.validate(arc_tol=1e-7)
    # total arclength matches the closed form for int sqrt(1 + u^2) du
    F = lambda u: 0.5 * (u * math.hypot(1.0, u) + math.asinh(u))
    assert prof.u_range[1] == pytest.approx(F(2.0) - F(0.5), abs=1e-8)


def test_reparametrize_arclength_inverse_paraboloid():
    # f(u) = u, so f(s) is u(s); s(u) = F(u) - F(0.5) inverts in closed form
    raw = surfrev.Profile(f="u", h="u^2 / 2", u_range=(0.5, 2.0),
                          arclength=False)
    prof = surfrev.reparametrize_arclength(raw)
    F = lambda u: 0.5 * (u * math.hypot(1.0, u) + math.asinh(u))
    for u in np.linspace(0.5, 2.0, 301):
        s = F(u) - F(0.5)
        assert prof.f.value(s) == pytest.approx(u, abs=1e-8)
    # s beyond the range clamps to its ends
    assert prof.f.value(-1.0) == 0.5
    assert prof.f.value(prof.u_range[1] + 1.0) == 2.0


def test_gauss_curvature_matches_tensor(torus21, torus_profile):
    for u in (0.0, 0.9, 2.2):
        p = np.array([u, 0.4])
        R = tensor.curvature(torus21, p)
        g = torus21.evaluator.metric(p)
        K_tensor = tensor.sectional(R, g, np.array([1.0, 0.0]),
                                    np.array([0.0, 1.0]))
        assert torus_profile.gauss_curvature(u) == pytest.approx(K_tensor,
                                                                 abs=1e-9)


def test_surface_of_revolution_metric():
    prof = surfrev.profile_from_definition(
        {"f": "2", "h": "u", "u_range": [-1.0, 1.0]})
    chart = surfrev.surface_of_revolution(prof)
    g = chart.evaluator.metric(np.array([0.2, 1.0]))
    assert np.max(np.abs(g - np.diag([1.0, 4.0]))) <= 1e-14


def test_gamma_where_f_vanishes_is_a_located_domain_fault():
    # f = u meets the axis at u = 0, outside the profile's range
    chart = surfrev.surface_of_revolution(surfrev.Profile(f="u", h="0", u_range=(0.5, 2.0)))
    ev = chart.evaluator
    x = np.array([0.0, 0.3])
    for call in (lambda: ev.gamma(x), lambda: ev.spray(x.tolist(), [1.0, 1.0]),
                 lambda: ev.connection(x, np.array([1.0, 1.0]))):
        with pytest.raises(DomainFault) as info:
            call()
        assert np.array_equal(info.value.point, x)
        assert "u = 0" in str(info.value)


def test_gauss_curvature_where_f_vanishes_is_a_domain_fault():
    profile = surfrev.Profile(f="u", h="0", u_range=(0.5, 2.0))
    with pytest.raises(DomainFault) as info:
        profile.gauss_curvature(0.0)
    assert np.array_equal(info.value.point, [0.0])
    assert "u = 0" in str(info.value)


def test_initial_velocity_where_f_vanishes_is_a_domain_fault():
    profile = surfrev.Profile(f="u", h="0", u_range=(0.5, 2.0))
    with pytest.raises(DomainFault) as info:
        surfrev.initial_velocity(profile, 0.0, 0.7)
    assert np.array_equal(info.value.point, [0.0])
    assert "u = 0" in str(info.value)


# -- Clairaut ----------------------------------------------------------------

def test_clairaut_constant_conserved(torus21, torus_profile):
    v0 = surfrev.initial_velocity(torus_profile, 0.5, 0.7)
    traj = integrate_geodesic(torus21, np.array([0.5, 0.0]), v0, 20.0,
                              settings=OdeSettings(step=2e-3),
                              with_frame=False)
    rep = surfrev.clairaut_constant(torus21, traj)
    assert rep["drift"] <= 1e-7
    want = (2.0 + math.cos(0.5)) * math.sin(0.7)
    assert rep["c0"] == pytest.approx(want, abs=1e-12)


def test_initial_velocity_unit_speed(torus21, torus_profile):
    for phi0 in (0.0, 0.4, math.pi / 2):
        v = surfrev.initial_velocity(torus_profile, 0.5, phi0)
        g = torus21.evaluator.metric(np.array([0.5, 0.0]))
        assert float(v @ g @ v) == pytest.approx(1.0, abs=1e-12)


# -- barriers ----------------------------------------------------------------

def test_barriers_torus_transversal(torus_profile):
    # f = 2 + cos u = 2.5 at u = +/- pi/3 (one period)
    bars = surfrev.barriers(torus_profile, 2.5)
    us = sorted(b["u"] for b in bars if abs(b["u"]) < math.pi)
    assert us == pytest.approx([-math.pi / 3, math.pi / 3], abs=1e-9)
    for b in bars:
        assert b["tag"] == "transversal"


def test_barriers_critical_tagged(torus_profile):
    # |c| = 1 touches the inner equator u = pi where f' = 0
    bars = surfrev.barriers(torus_profile, 1.0)
    crit = [b for b in bars if b["tag"] == "parallel_geodesic"]
    assert any(abs(abs(b["u"]) - math.pi) < 1e-6 for b in crit)


def test_no_barriers_below_min(torus_profile):
    assert surfrev.barriers(torus_profile, 0.5) == []


# -- classification ----------------------------------------------------------

def test_classify_meridian(torus_profile):
    rep = surfrev.classify_geodesic(torus_profile, (0.5, 0.0, 0.0),
                                    confirm=False)
    assert rep["class"] == "meridian"
    assert rep["c"] == pytest.approx(0.0)


def test_classify_parallel_geodesics(torus_profile):
    # outer equator u = 0 and inner equator u = pi are critical parallels
    for u0 in (0.0, math.pi):
        rep = surfrev.classify_geodesic(torus_profile, (u0, 0.0, math.pi / 2),
                                        confirm=False)
        assert rep["class"] == "parallel_geodesic"


def test_classify_oscillating_with_confirmation(torus_profile):
    # c = 2.5 stays between the u = +/- pi/3 barriers
    u0 = 0.0
    phi0 = math.asin(2.5 / 3.0)
    rep = surfrev.classify_geodesic(torus_profile, (u0, 0.0, phi0),
                                    confirm=True, confirm_T=40.0)
    assert rep["class"] == "oscillating"
    assert rep["confirmation"]["confirmed"]
    assert rep["confirmation"]["theta_monotone"]
    assert "delta_theta" in rep and "winding" in rep


def test_classify_unbounded(torus_profile):
    # |c| < min f = 1: u never turns; the geodesic crosses every parallel
    phi0 = math.asin(0.5 / 3.0)
    rep = surfrev.classify_geodesic(torus_profile, (0.0, 0.0, phi0),
                                    confirm=False)
    assert rep["class"] == "unbounded"
    assert rep["barriers"] == []


def test_classify_asymptotic(torus_profile):
    # c = 1 equals f at the inner equator: asymptotic approach
    phi0 = math.asin(1.0 / 3.0)
    rep = surfrev.classify_geodesic(torus_profile, (0.0, 0.0, phi0),
                                    confirm=False)
    assert rep["class"] == "asymptotic_to_parallel"


# -- delta theta -------------------------------------------------------------

def test_delta_theta_integral_vs_measured(torus_profile):
    for c in (2.5, 1.6):
        integral = surfrev.delta_theta(torus_profile, c)
        measured = surfrev.delta_theta_measured(torus_profile, c, step=1e-3)
        assert integral == pytest.approx(measured, abs=1e-4)


def test_delta_theta_sign_follows_c(torus_profile):
    plus = surfrev.delta_theta(torus_profile, 2.5)
    minus = surfrev.delta_theta(torus_profile, -2.5)
    assert plus > 0.0
    assert minus == pytest.approx(-plus, abs=1e-12)


def test_delta_theta_rejects_critical_barrier(torus_profile):
    with pytest.raises(BarrierNotTransversal):
        surfrev.delta_theta(torus_profile, 1.0)


def test_rationality_flag():
    rep = surfrev.rationality_flag(0.75)
    assert rep["nearest"] == "3/4"
    assert rep["within_window"]
    rep = surfrev.rationality_flag(0.7498, tol=1e-6)
    assert not rep["within_window"]

"""Charts, metric evaluation, sampled curves, and Finsler norms."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemannkit import manifold, transport, variation
from riemannkit.errors import BadParam, DomainExit, SingularMetric, UnknownBuiltin


# -- builtin charts ----------------------------------------------------------

def test_sphere_stereo_metric_closed_form(sphere2, rng):
    # g_ij = (2 R^2 / (R^2 + |x|^2))^2 delta_ij with R = 1
    for _ in range(20):
        p = rng.uniform(-2.0, 2.0, 2)
        mu = (2.0 / (1.0 + p @ p)) ** 2
        g = sphere2.evaluator.metric(p)
        assert np.max(np.abs(g - mu * np.eye(2))) <= 1e-14 * mu


def test_hyperbolic_ball_metric_closed_form(hyper2, rng):
    for _ in range(20):
        p = rng.uniform(-0.6, 0.6, 2)
        mu = (2.0 / (1.0 - p @ p)) ** 2
        g = hyper2.evaluator.metric(p)
        assert np.max(np.abs(g - mu * np.eye(2))) <= 1e-13 * mu


def test_torus_metric_closed_form(torus21, rng):
    # ds^2 = du^2 + (R + r cos(u/r))^2 dtheta^2 with R=2, r=1
    for _ in range(20):
        p = rng.uniform(-3.0, 3.0, 2)
        f = 2.0 + math.cos(p[0])
        g = torus21.evaluator.metric(p)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert g[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert g[1, 1] == pytest.approx(f * f, rel=1e-13)


def test_first_order_derivatives_match_fd(sphere2, hyper2, torus21, rng):
    h = 1e-6
    for chart in (sphere2, hyper2, torus21):
        p = rng.uniform(-0.4, 0.4, 2)
        _, dg = chart.evaluator.first_order(p)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (chart.evaluator.metric(p + e) - chart.evaluator.metric(p - e)) / (2 * h)
            assert np.max(np.abs(dg[k] - fd)) <= 5e-9


def test_stack_batch_matches_scalar(sphere2, torus21, rng):
    X = rng.uniform(-0.5, 0.5, (7, 2))
    for chart in (sphere2, torus21):
        g, dg, d2g = chart.evaluator.stack_batch(X)
        for i, p in enumerate(X):
            gs, dgs, d2gs = chart.evaluator.stack(p)
            assert np.max(np.abs(g[i] - gs)) <= 1e-14
            assert np.max(np.abs(dg[i] - dgs)) <= 1e-12
            assert np.max(np.abs(d2g[i] - d2gs)) <= 1e-12


def test_builtin_rejects_bad_input():
    with pytest.raises(UnknownBuiltin):
        manifold.builtin("frobulator")
    with pytest.raises(BadParam):
        manifold.builtin("sphere_stereo", {"R": -1.0})
    with pytest.raises(BadParam):
        manifold.builtin("torus", {"R": 1.0, "r": 2.0})
    with pytest.raises(BadParam):
        manifold.builtin("euclidean", {"n": 2, "bogus": 1})


def test_domain_membership(hyper2, sphere2):
    assert hyper2.contains([0.5, 0.5])
    assert not hyper2.contains([0.8, 0.7])
    assert sphere2.contains([100.0, 0.0])
    with pytest.raises(Exception):
        hyper2.require_inside([2.0, 0.0])


@pytest.mark.parametrize("name", ["sphere_stereo", "hyperbolic_ball"])
def test_huge_coordinates_are_outside_without_a_warning(name):
    chart = manifold.builtin(name, {"n": 2})
    assert not chart.contains([1e200, 0.0])
    X = np.array([[1e200, 0.0], [0.1, 0.0], [np.inf, 0.0], [np.nan, 0.0]])
    np.testing.assert_array_equal(chart.inside(X), [False, True, False, False])


@pytest.mark.parametrize("name", ["sphere_stereo", "hyperbolic_ball"])
def test_a_huge_velocity_leaves_the_chart(name):
    chart = manifold.builtin(name, {"n": 2})
    with pytest.raises(DomainExit):
        transport.exp_map(chart, [0.1, 0.0], [1e200, 0.0])


@pytest.mark.parametrize("R", [1e-150, 1e-60, 1e-20, 1e20, 1e60, 1e140])
def test_the_sphere_chart_scales_with_its_radius(R):
    # x = R y carries the unit sphere's chart onto that of radius R: its
    # geodesics scale with R and its conjugate parameters do not
    p, v = np.array([0.3, 0.1]), np.array([1.0, 0.4])
    unit, sphere = (manifold.builtin("sphere_stereo", {"R": r}) for r in (1.0, R))
    want = transport.exp_map(unit, p, v)
    got = transport.exp_map(sphere, R * p, R * v) / R
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    want = variation.conjugate_points(unit, p, v, 4.0).points
    got = variation.conjugate_points(sphere, R * p, R * v, 4.0).points
    assert [c.multiplicity for c in got] == [c.multiplicity for c in want] == [1, 1]
    np.testing.assert_allclose([c.t for c in got], [c.t for c in want], rtol=1e-12)


@pytest.mark.parametrize("R", [1e-200, 1e160])
def test_a_radius_the_chart_cannot_represent_is_rejected(R):
    # R * R underflows to 0, or the cap (1e6 R)^2 overflows
    with pytest.raises(BadParam, match=f"R must be positive.*got R={re.escape(repr(R))}"):
        manifold.builtin("sphere_stereo", {"R": R})


# -- metric_at / inner / norm ------------------------------------------------

def test_metric_at_cholesky(sphere2):
    md = manifold.metric_at(sphere2, [0.3, -0.2])
    L = md.chol
    assert np.max(np.abs(L @ L.T - md.g)) <= 1e-14
    assert np.max(np.abs(md.g_inv @ md.g - np.eye(2))) <= 1e-13


def test_singular_metric_raises():
    doc = {"dim": 2, "coords": ["x", "y"],
           "metric": [["x", "0"], ["0", "1"]]}  # degenerate at x = 0
    chart = manifold.chart_from_definition(doc)
    with pytest.raises(SingularMetric):
        manifold.metric_at(chart, [0.0, 0.0])
    with pytest.raises(SingularMetric):
        manifold.metric_at(chart, [-1.0, 0.0])


def test_inner_norm_consistency(hyper2, rng):
    p = rng.uniform(-0.4, 0.4, 2)
    v = rng.standard_normal(2)
    w = rng.standard_normal(2)
    assert manifold.norm(hyper2, p, v) ** 2 == pytest.approx(
        manifold.inner(hyper2, p, v, v), rel=1e-13)
    # bilinearity
    assert manifold.inner(hyper2, p, v + w, v + w) == pytest.approx(
        manifold.inner(hyper2, p, v, v) + 2 * manifold.inner(hyper2, p, v, w)
        + manifold.inner(hyper2, p, w, w), rel=1e-12)


# -- chart definitions -------------------------------------------------------

def test_chart_from_definition_expression(rng):
    doc = {"dim": 2, "coords": ["u", "v"], "label": "cigar",
           "metric": [["1 / (1 + u^2 + v^2)", "0"],
                      ["0", "1 / (1 + u^2 + v^2)"]]}
    chart = manifold.chart_from_definition(doc)
    p = rng.uniform(-1.0, 1.0, 2)
    mu = 1.0 / (1.0 + p @ p)
    assert np.max(np.abs(chart.evaluator.metric(p) - mu * np.eye(2))) <= 1e-14


def test_chart_definition_symmetry_enforced():
    doc = {"dim": 2, "coords": ["x", "y"],
           "metric": [["1", "x"], ["0", "1"]]}
    with pytest.raises(BadParam):
        manifold.chart_from_definition(doc)


def test_chart_definition_shape_checks():
    with pytest.raises(BadParam):
        manifold.chart_from_definition(
            {"dim": 2, "coords": ["x"], "metric": [["1", "0"], ["0", "1"]]})
    with pytest.raises(BadParam):
        manifold.chart_from_definition(
            {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"]]})


def test_a_coordinate_named_twice_is_a_bad_param():
    # with both names x, g = diag(1, x^2) read the second coordinate as the
    # first, and g at (1, 2) was the identity
    doc = {"dim": 2, "coords": ["x", "x"], "metric": [["1", "0"], ["0", "x^2"]]}
    with pytest.raises(BadParam, match="coords name 'x' more than once"):
        manifold.chart_from_definition(doc)


@pytest.mark.parametrize("box", [[[-0.5, 0.0], [0.5, 2.0]], [[-3, -2], [1, 5e-3]],
                                 ((-1, -0.5), (1, 0.5)), ([-1, 0], (1, 2))])
def test_a_documents_sample_box_is_the_charts(box):
    doc = {"dim": 2, "coords": ["x", "y"], "metric": PLANE, "sample_box": box}
    chart = manifold.chart_from_definition(doc)
    low, high = chart.sample_box
    assert low.tolist() == list(box[0]) and high.tolist() == list(box[1])
    P = chart.sample_points(200, 3)
    assert np.all((P >= low) & (P <= high))


BAD_BOXES = {
    "a string": "a",
    "null": None,
    "one side": [[-1.0, -1.0]],
    "three sides": [[-1.0, -1.0], [1.0, 1.0], [2.0, 2.0]],
    "short side": [[-1.0], [1.0, 1.0]],
    "a string number": [[-1.0, "-1"], [1.0, 1.0]],
    "a bool": [[-1.0, False], [1.0, True]],
    "an infinity": [[-1.0, -math.inf], [1.0, 1.0]],
    "a nan": [[-1.0, math.nan], [1.0, 1.0]],
    "low = high": [[-1.0, 1.0], [1.0, 1.0]],
    "low > high": [[1.0, -1.0], [-1.0, 1.0]],
    "an infinite width": [[-1e308, -1.0], [1e308, 1.0]],
    "an integer past floats": [[-1, -1], [1, 10 ** 400]],
}


@pytest.mark.parametrize("box", BAD_BOXES.values(), ids=BAD_BOXES.keys())
def test_a_malformed_sample_box_is_a_bad_param(box):
    doc = {"dim": 2, "coords": ["x", "y"], "metric": PLANE, "sample_box": box}
    with pytest.raises(BadParam, match="sample_box"):
        manifold.chart_from_definition(doc)


PLANE = [["1", "0"], ["0", "1"]]
MALFORMED = {
    "missing metric": {"dim": 2, "coords": ["x", "y"]},
    "dim not a number": {"dim": "two", "coords": ["x", "y"], "metric": PLANE},
    "numeric entries": {"dim": 2, "coords": ["x", "y"], "metric": [[1, 0], [0, 1]]},
    "dim 0": {"dim": 0, "coords": [], "metric": []},
    "n not a number": {"builtin": "sphere_stereo", "params": {"n": "a"}},
    "negative n": {"builtin": "hyperbolic_ball", "params": {"n": -1}},
    "R not a number": {"builtin": "torus", "params": {"R": "x"}},
    "sphere n 0": {"builtin": "sphere_stereo", "params": {"n": 0}},
    "fractional n": {"builtin": "euclidean", "params": {"n": 2.5}},
    "R nan": {"builtin": "sphere_stereo", "params": {"R": math.nan}},
    "not an object": [2, ["x", "y"]],
}


@pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_definitions_are_bad_params(doc):
    with pytest.raises(BadParam):
        manifold.chart_from_definition(doc)


def test_sample_points_rejects_a_negative_count(sphere2):
    with pytest.raises(BadParam):
        sphere2.sample_points(-1, 0)
    assert sphere2.sample_points(0, 0).shape == (0, 2)


@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("fn", [manifold.curve_length, manifold.energy, transport.develop],
                         ids=["curve_length", "energy", "develop"])
def test_curves_of_fewer_than_three_samples_rejected(sphere2, fn, samples):
    # their velocities come from a second-order np.gradient
    t = np.linspace(0.0, 1.0, samples)
    with pytest.raises(BadParam, match="3 samples"):
        fn(sphere2, manifold.SampledCurve(t, np.column_stack([0.1 + 0.2 * t, 0.1 * t])))


def test_definition_accepts_integral_numbers():
    assert manifold.chart_from_definition(
        {"dim": 2.0, "coords": ["x", "y"], "metric": PLANE}).dim == 2
    assert manifold.builtin("sphere_stereo", {"n": 3.0}).dim == 3


def test_unreadable_manifold_file_is_bad_param(tmp_path):
    with pytest.raises(BadParam):
        manifold.load_manifold(str(tmp_path / "absent.json"))
    path = tmp_path / "broken.json"
    path.write_text("{\"dim\": 2,")
    with pytest.raises(BadParam):
        manifold.load_manifold(str(path))


def test_load_manifold_roundtrip(tmp_path, eucl2):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"builtin": "sphere_stereo",
                                "params": {"n": 2, "R": 2.0}}))
    chart = manifold.load_manifold(str(path))
    assert chart.dim == 2
    g = chart.evaluator.metric(np.zeros(2))
    assert g[0, 0] == pytest.approx(4.0)  # (2 R^2 / R^2)^2 at the origin


def test_sample_points_deterministic(sphere2):
    a = sphere2.sample_points(10, seed=7)
    b = sphere2.sample_points(10, seed=7)
    assert np.array_equal(a, b)
    assert all(sphere2.contains(p) for p in a)


# -- sampled curves ----------------------------------------------------------

def _circle_curve(m=200, radius=0.5):
    t = np.linspace(0.0, 2 * np.pi, m + 1)
    pts = radius * np.column_stack([np.cos(t), np.sin(t)])
    vel = radius * np.column_stack([-np.sin(t), np.cos(t)])
    return manifold.SampledCurve(t, pts, vel)


def test_hermite_interpolation_accuracy():
    c = _circle_curve(100)
    for s in [0.013, 1.7, 4.4, 6.1]:
        assert np.linalg.norm(c.position(s)
                              - 0.5 * np.array([np.cos(s), np.sin(s)])) <= 1e-7
        assert np.linalg.norm(c.velocity(s)
                              - 0.5 * np.array([-np.sin(s), np.cos(s)])) <= 1e-5


def test_dense_velocity_of_a_line_far_from_the_origin_has_no_cancellation():
    # x(t) = 2^26 + t sampled exactly on a grid of step 2^-20: the position
    # part of the velocity is one product of p1 - p0, not two that cancel
    h = 2.0 ** -20
    t = h * np.arange(5)
    x = (2.0 ** 26 + t)[:, None]
    assert manifold._dense(t, x, t[1] + 0.37 * h, np.ones_like(x), deriv=True)[0] == 1.0


def test_curve_length_euclidean_circle(eucl2):
    c = _circle_curve(200)
    assert manifold.curve_length(eucl2, c) == pytest.approx(np.pi, rel=1e-7)


def test_energy_cauchy_schwarz(eucl2):
    # E >= L^2 / (b - a), equality iff constant speed
    c = _circle_curve(200)
    L = manifold.curve_length(eucl2, c)
    E = manifold.energy(eucl2, c)
    assert E >= L**2 / (2 * np.pi) - 1e-9
    assert E == pytest.approx(L**2 / (2 * np.pi), rel=1e-6)


def test_energy_and_length_match_pointwise_integrand(sphere2):
    # the batched integrand against one position, velocity and metric call per node
    t = np.linspace(0.0, 1.0, 41)
    c = manifold.SampledCurve(t, np.column_stack([0.3 + 0.5 * t, 0.1 + 0.3 * np.sin(np.pi * t)]))

    def sq_speed(grid):
        return np.array([c.velocity(s) @ sphere2.evaluator.metric(c.position(s)) @ c.velocity(s)
                         for s in grid])

    want_E = manifold.refine_simpson(sq_speed, 0.0, 1.0, start_segments=40)
    want_L = manifold.refine_simpson(lambda g: np.sqrt(sq_speed(g)), 0.0, 1.0, start_segments=40)
    assert manifold.energy(sphere2, c) == pytest.approx(want_E, rel=1e-13)
    assert manifold.curve_length(sphere2, c) == pytest.approx(want_L, rel=1e-13)


def test_refine_simpson_exact_on_polynomial():
    got = manifold.refine_simpson(lambda s: s**3 - s, 0.0, 2.0)
    assert got == pytest.approx(2.0, abs=1e-12)


# -- Finsler norms -----------------------------------------------------------

def test_parallelogram_riemannian_vs_max_norm():
    for n in (2, 3):
        rep = manifold.parallelogram_check(manifold.FinslerNorm.euclidean(n),
                                           samples=200, seed=3)
        assert rep.max_violation <= 1e-12
    rep = manifold.parallelogram_check(manifold.FinslerNorm.max_norm(2),
                                       samples=200, seed=3)
    assert rep.max_violation >= 0.5
    # the witness pair actually realizes the reported violation
    L = manifold.FinslerNorm.max_norm(2)
    v, w = rep.witness_v, rep.witness_w
    got = abs(L.L(v + w) ** 2 + L.L(v - w) ** 2 - 2 * L.L(v) ** 2 - 2 * L.L(w) ** 2)
    assert got == pytest.approx(rep.max_violation, rel=1e-12)


def test_polarization_recovers_metric(hyper2, rng):
    base = np.array([0.2, -0.3])
    L = manifold.FinslerNorm.from_metric(hyper2, base)
    g = hyper2.evaluator.metric(base)
    for _ in range(20):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        got = manifold.polarize(L, manifold.TangentVector(base, a),
                                manifold.TangentVector(base, b))
        assert got == pytest.approx(float(a @ g @ b), rel=1e-10, abs=1e-12)


def test_polarize_base_mismatch(hyper2):
    L = manifold.FinslerNorm.euclidean(2)
    with pytest.raises(BadParam):
        manifold.polarize(L, manifold.TangentVector([0.0, 0.0], [1.0, 0.0]),
                          manifold.TangentVector([0.1, 0.0], [0.0, 1.0]))


def test_homogeneity_check():
    L = manifold.FinslerNorm.max_norm(3)
    assert L.check_homogeneity() <= 1e-9
    assert L.homogeneity_checked
    bad = manifold.FinslerNorm(2, lambda v: float(np.linalg.norm(v)) + 1.0, "affine")
    assert bad.check_homogeneity() > 1e-3
    assert not bad.homogeneity_checked


@given(st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_euclidean_norm_parallelogram_property(n, seed):
    rep = manifold.parallelogram_check(manifold.FinslerNorm.euclidean(n),
                                       samples=20, seed=seed)
    assert rep.max_violation <= 1e-12


@pytest.mark.parametrize("name, params", [
    ("torus", {"R": math.inf, "r": 1.0}),
    ("torus", {"R": 2.0, "r": "nan"}),
    ("sphere_stereo", {"R": math.inf}),
    ("sphere_stereo", {"R": "-inf"}),
])
def test_builtin_parameters_must_be_finite(name, params):
    with pytest.raises(BadParam, match="finite"):
        manifold.builtin(name, params)

"""Riccati traces, comparison verdicts, Rauch/Myers/Bishop checks."""

import math

import numpy as np
import pytest

from riemannkit import comparison, manifold
from riemannkit.errors import BadParam, InputOrderViolated
from riemannkit.transport import OdeSettings


# -- Riccati solver ----------------------------------------------------------

def test_riccati_cotangent():
    tr = comparison.riccati_solve(1.0, math.inf, 7.0)
    assert tr.poles == pytest.approx([math.pi, 2 * math.pi], abs=1e-4)
    # away from the poles f(t) = cot(t)
    for t in (0.5, 1.2, 2.6, 4.0, 5.5):
        i = int(np.argmin(np.abs(tr.t - t)))
        if tr.valid[i]:
            assert tr.f[i] == pytest.approx(1.0 / math.tan(tr.t[i]), abs=1e-6)


def test_riccati_tanh():
    # f' = -f^2 + 1 from f(0) = 0 gives tanh
    tr = comparison.riccati_solve(-1.0, 0.0, 5.0)
    assert tr.poles == []
    i = int(np.argmin(np.abs(tr.t - 3.0)))
    assert tr.f[i] == pytest.approx(math.tanh(tr.t[i]), abs=1e-9)


def test_riccati_euclidean_from_infinity():
    # H = 0 from f0 = inf gives f = 1/t with no pole
    tr = comparison.riccati_solve(0.0, math.inf, 4.0)
    assert tr.poles == []
    i = int(np.argmin(np.abs(tr.t - 2.0)))
    assert tr.f[i] == pytest.approx(0.5, abs=1e-8)


def test_riccati_pole_asymptote():
    # (t - a) f(t) -> 1 on both sides of the pole
    tr = comparison.riccati_solve(1.0, math.inf, 4.0)
    a = tr.poles[0]
    for t in (a - 0.01, a + 0.01):
        i = int(np.argmin(np.abs(tr.t - t)))
        if tr.valid[i]:
            assert (tr.t[i] - a) * tr.f[i] == pytest.approx(1.0, abs=2e-2)


def test_riccati_variable_profile():
    # H(t) = 2: f = sqrt(2) cot(sqrt(2) t), first pole at pi / sqrt(2)
    tr = comparison.riccati_solve(lambda t: 2.0, math.inf, 3.0)
    assert tr.first_pole() == pytest.approx(math.pi / math.sqrt(2), abs=1e-4)


def test_riccati_csv(tmp_path):
    tr = comparison.riccati_solve(1.0, 1.0, 2.0)
    path = tmp_path / "riccati.csv"
    tr.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == len(tr.t) + 1


def test_riccati_segments_split_at_poles():
    tr = comparison.riccati_solve(1.0, math.inf, 7.0)
    segs = list(tr.segments())
    assert len(segs) == 3  # (0, pi), (pi, 2 pi), (2 pi, 7)


@pytest.mark.parametrize("f0", [math.inf, 0.4])
def test_riccati_fourth_order_on_a_variable_profile(f0):
    # the first pole and f(0.5) against a reference at step 6.25e-5:
    # halving the step divides both errors by about 2^4
    def H(t):
        return 1.0 + 0.5 * math.sin(3.0 * t)

    def probe(step):
        tr = comparison.riccati_solve(H, f0, 4.0, step)
        i = int(np.argmin(np.abs(tr.t - 0.5)))
        assert tr.t[i] == 0.5 and tr.valid[i]
        return tr.first_pole(), tr.f[i]

    pole_ref, f_ref = probe(6.25e-5)
    (p1, f1), (p2, f2) = probe(1e-2), probe(5e-3)
    assert 12.0 <= abs(p1 - pole_ref) / abs(p2 - pole_ref) <= 20.0
    assert 12.0 <= abs(f1 - f_ref) / abs(f2 - f_ref) <= 20.0


@pytest.mark.parametrize("H, f0, tmax", [(-1e4, 0.0, 10.0), (-1e4, math.inf, 10.0),
                                         (-100.0, 0.0, 80.0)])
def test_riccati_strongly_negative_profile_stays_finite(H, f0, tmax):
    # j grows like exp(sqrt(-H) t); kept at unit scale, f tends to sqrt(-H)
    tr = comparison.riccati_solve(H, f0, tmax)
    assert tr.poles == []
    assert np.all(tr.valid[1:]) and np.all(np.isfinite(tr.f[1:]))
    assert tr.f[-1] == pytest.approx(math.sqrt(-H), rel=1e-9)


@pytest.mark.parametrize("f0, closed", [(0.0, lambda x: 100.0 * np.tanh(x)),
                                        (math.inf, lambda x: 100.0 / np.tanh(x))])
def test_riccati_stiff_trace_matches_closed_form(f0, closed):
    # H = -1e4: f = 100 tanh(100 t) from f0 = 0, 100 coth(100 t) from f0 = inf
    tr = comparison.riccati_solve(-1e4, f0, 10.0)
    late = tr.t >= 0.05
    assert np.max(np.abs(tr.f[late] - closed(100.0 * tr.t[late]))) <= 1e-6


@pytest.mark.parametrize("H, K, tmax", [(1.0, 0.25, 7.0), (1.0, 0.0, 4.0),
                                        (0.0, -1.0, 4.0),
                                        (lambda t: 1.0 + 0.5 * math.sin(t), 0.5, 9.0)])
def test_sturm_zeros_are_first_poles_of_riccati_traces(H, K, tmax):
    rep = comparison.sturm_check(H, K, tmax)
    assert rep["zero_H"] == comparison.riccati_solve(H, math.inf, tmax).first_pole()
    assert rep["zero_K"] == comparison.riccati_solve(K, math.inf, tmax).first_pole()


def test_sturm_zero_is_none_without_a_zero():
    rep = comparison.sturm_check(1.0, 0.0, 3.0)
    assert rep["zero_H"] is None and rep["zero_K"] is None and rep["ordered"]


def test_riccati_pole_on_a_sample():
    # H = 0 from f0 = -1: j = 1 - t vanishes exactly at the sample t = 1
    tr = comparison.riccati_solve(0.0, -1.0, 2.0, step=0.5)
    assert tr.poles == [1.0]
    assert tr.valid.tolist() == [True, True, False, True, True]
    assert tr.f[tr.valid].tolist() == [-1.0, -2.0, 2.0, 1.0]


def test_riccati_one_sample_grid():
    # a horizon shorter than the step is one step to tmax: f = tan(pi/4 - t)
    tr = comparison.riccati_solve(1.0, 1.0, 0.1, step=1.0)
    assert tr.t.tolist() == [0.0, 0.1] and tr.f[0] == 1.0
    assert tr.f[1] == pytest.approx(math.tan(math.pi / 4 - 0.1), abs=1e-6)
    assert tr.valid.tolist() == [True, True] and tr.poles == []


def test_riccati_samples_reach_tmax():
    # steps of at most 0.5 that end at 1.6 catch the pole of f = -tan t at pi/2
    tr = comparison.riccati_solve(1.0, 0.0, 1.6, step=0.5)
    assert tr.t[-1] == 1.6 and np.all(np.diff(tr.t) <= 0.5)
    assert tr.poles == pytest.approx([math.pi / 2], abs=1e-2)


# -- comparison verdicts -----------------------------------------------------

def test_compare_driving_sphere_vs_euclidean():
    # H = 1 >= K = 0: cot(t) <= 1/t and the H-pole comes first
    rep = comparison.compare_driving(1.0, 0.0, math.inf, 4.0)
    assert rep["ordered"] and rep["pole_ordered"]
    assert rep["pole_H"] == pytest.approx(math.pi, abs=1e-4)
    assert rep["pole_K"] is None


def test_compare_driving_rejects_wrong_order():
    with pytest.raises(InputOrderViolated):
        comparison.compare_driving(0.0, 1.0, math.inf, 4.0)


def test_value_compare():
    # same H, ordered initial values stay ordered
    rep = comparison.value_compare(-1.0, -0.5, 0.5, 4.0)
    assert rep["ordered"]
    with pytest.raises(InputOrderViolated):
        comparison.value_compare(-1.0, 0.5, -0.5, 4.0)


def test_sturm_zero_ordering():
    rep = comparison.sturm_check(1.0, 0.25, 7.0)
    assert rep["zero_H"] == pytest.approx(math.pi, abs=1e-4)
    assert rep["zero_K"] == pytest.approx(2 * math.pi, abs=1e-4)
    assert rep["ordered"]


def test_sturm_rejects_wrong_order():
    with pytest.raises(InputOrderViolated):
        comparison.sturm_check(0.25, 1.0, 7.0)


# -- curvature profiles ------------------------------------------------------

def test_profile_from_sectional(sphere2):
    from riemannkit.transport import integrate_geodesic
    p = np.array([0.3, 0.1])
    g = sphere2.evaluator.metric(p)
    v = np.array([1.0, 0.4])
    v = v / math.sqrt(float(v @ g @ v))
    geo = integrate_geodesic(sphere2, p, v, 2.0, settings=OdeSettings(step=5e-3))
    prof = comparison.CurvatureProfile.from_sectional(sphere2, geo)
    for t in (0.0, 0.7, 1.9):
        assert prof(t) == pytest.approx(1.0, abs=1e-8)


def test_profile_from_sectional_matches_pointwise_torus(torus21):
    from riemannkit import tensor
    from riemannkit.transport import integrate_geodesic
    geo = integrate_geodesic(torus21, [0.3, 0.2], [0.2, 0.5], 3.0,
                             settings=OdeSettings(step=1e-2))
    prof = comparison.CurvatureProfile.from_sectional(torus21, geo, direction=0)
    for i in range(0, len(geo.t), 7):
        want = tensor.sectional(tensor.curvature(torus21, geo.x[i]),
                                torus21.evaluator.metric(geo.x[i]),
                                geo.v[i], geo.frame[i][:, 0])
        assert prof(geo.t[i]) == pytest.approx(want, abs=1e-12)


def test_profile_from_sectional_rejects_tangent_direction(sphere2):
    from riemannkit.errors import DegeneratePlane
    from riemannkit.transport import integrate_geodesic
    geo = integrate_geodesic(sphere2, [0.3, 0.1], [0.5, 0.2], 1.0,
                             settings=OdeSettings(step=1e-2))
    with pytest.raises(DegeneratePlane):
        comparison.CurvatureProfile.from_sectional(sphere2, geo, direction=1)


# -- Rauch -------------------------------------------------------------------

def test_rauch_sphere_vs_euclidean():
    eucl = manifold.builtin("euclidean", {"n": 2})
    sph = manifold.builtin("sphere_stereo", {"n": 2})
    rep = comparison.rauch_ratio(eucl, [0.0, 0.0], [1.0, 0.0],
                                 sph, [0.3, 0.1],
                                 _unit_sphere_vec(sph, [0.3, 0.1], [1.0, 0.4]),
                                 math.pi - 0.05,
                                 settings=OdeSettings(step=2e-3))
    assert rep["monotone"]
    assert rep["dominates"]
    # the ratio is t^2 / sin^2 t
    t_end = rep["t"][-1]
    assert rep["ratio"][-1] == pytest.approx(t_end**2 / math.sin(t_end) ** 2,
                                             rel=1e-6)


def test_rauch_rejects_wrong_order():
    eucl = manifold.builtin("euclidean", {"n": 2})
    sph = manifold.builtin("sphere_stereo", {"n": 2})
    with pytest.raises(InputOrderViolated):
        comparison.rauch_ratio(sph, [0.3, 0.1],
                               _unit_sphere_vec(sph, [0.3, 0.1], [1.0, 0.0]),
                               eucl, [0.0, 0.0], [1.0, 0.0], 1.0,
                               settings=OdeSettings(step=5e-3))


# S^2 of radius 1/sqrt(2) (K = 2) times a line (K = 0), against the unit S^3
ROUND_CYLINDER = {"dim": 3, "coords": ["x", "y", "z"],
                  "metric": [["1/(0.5+x^2+y^2)^2", "0", "0"],
                             ["0", "1/(0.5+x^2+y^2)^2", "0"], ["0", "0", "1"]]}


@pytest.mark.parametrize("direction", [0, 1])
def test_rauch_checks_every_plane_through_the_tangent(direction):
    # along e_x the planes through the tangent have K_lo = 2 and 0, against
    # K_hi = 1: one frame direction alone may look ordered, the planes are not
    lo = manifold.chart_from_definition(ROUND_CYLINDER)
    hi = manifold.builtin("sphere_stereo", {"n": 3, "R": 1.0})
    start, v = [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]
    with pytest.raises(InputOrderViolated):
        comparison.rauch_ratio(lo, start, v, hi, start, v, 1.0,
                               settings=OdeSettings(step=1e-2), direction=direction)


def _unit_sphere_vec(chart, p, v):
    g = chart.evaluator.metric(np.asarray(p, dtype=float))
    v = np.asarray(v, dtype=float)
    return v / math.sqrt(float(v @ g @ v))


# -- Myers -------------------------------------------------------------------

def test_myers_sphere3():
    sph = manifold.builtin("sphere_stereo", {"n": 3})
    p = np.array([0.2, 0.1, -0.1])
    v = _unit_sphere_vec(sph, p, [1.0, 0.3, 0.2])
    rep = comparison.myers_check(sph, p, v, c=1.0,
                                 settings=OdeSettings(step=2e-3))
    assert rep["bound"] == pytest.approx(math.pi)
    assert rep["t_conjugate"] == pytest.approx(math.pi, abs=1e-3)
    assert rep["within_bound"]


def test_myers_rejects_flat_space():
    eucl = manifold.builtin("euclidean", {"n": 3})
    with pytest.raises(InputOrderViolated):
        comparison.myers_check(eucl, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], c=1.0,
                               settings=OdeSettings(step=5e-3))
    with pytest.raises(BadParam):
        comparison.myers_check(eucl, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], c=-1.0)


# -- volume comparison -------------------------------------------------------

def test_model_area_s_K():
    assert comparison.s_K(0.7, 0.0) == pytest.approx(0.7)
    assert comparison.s_K(0.7, 1.0) == pytest.approx(math.sin(0.7))
    assert comparison.s_K(0.7, -1.0) == pytest.approx(math.sinh(0.7))
    assert comparison.s_K(0.5, 4.0) == pytest.approx(0.5 * math.sin(1.0))


def test_volume_compare_sphere_circle_length():
    sph = manifold.builtin("sphere_stereo", {"n": 2})
    p = np.array([0.3, 0.1])
    rep = comparison.volume_compare(sph, p, r=1.0, Kref=1.0, directions=128)
    # geodesic circle of radius 1 on the unit sphere has length 2 pi sin 1
    assert rep["area"] == pytest.approx(2 * math.pi * math.sin(1.0), abs=1e-4)
    assert rep["ratio"] == pytest.approx(1.0, abs=1e-6)
    assert rep["ratio_at_most_one"]


def test_volume_compare_strict_vs_flat_reference():
    sph = manifold.builtin("sphere_stereo", {"n": 2})
    p = np.array([0.3, 0.1])
    rep = comparison.volume_compare(sph, p, r=1.0, Kref=0.0, directions=128)
    assert rep["ratio"] < 1.0 - 1e-3
    assert rep["pointwise"]


def test_volume_compare_hypothesis_violation():
    hyp = manifold.builtin("hyperbolic_ball", {"n": 2})
    with pytest.raises(InputOrderViolated):
        comparison.volume_compare(hyp, [0.0, 0.0], r=0.5, Kref=0.0,
                                  directions=64)


def test_volume_compare_jobs_deterministic():
    sph = manifold.builtin("sphere_stereo", {"n": 2})
    p = np.array([0.3, 0.1])
    a = comparison.volume_compare(sph, p, r=0.8, Kref=1.0, directions=96, jobs=1)
    b = comparison.volume_compare(sph, p, r=0.8, Kref=1.0, directions=96, jobs=3)
    assert a["area"] == b["area"]
    assert np.array_equal(a["dets"], b["dets"])


@pytest.mark.parametrize("name, mu, Kref", [
    ("sphere_stereo", "4/(1+x^2+y^2+z^2)^2", 0.9),
    ("hyperbolic_ball", "4/(1-x^2-y^2-z^2)^2", -1.1),
])
def test_volume_compare_closed_form_matches_kernel(name, mu, Kref):
    # the builtin runs the closed-form driving matrix, the expression chart of
    # the same metric the curvature kernel
    conformal = manifold.builtin(name, {"n": 3})
    expression = manifold.chart_from_definition(
        {"dim": 3, "coords": ["x", "y", "z"],
         "metric": [[mu if i == j else "0" for j in range(3)] for i in range(3)]})
    p = np.array([0.1, -0.05, 0.15])
    a = comparison.volume_compare(conformal, p, r=0.3, Kref=Kref, directions=128)
    b = comparison.volume_compare(expression, p, r=0.3, Kref=Kref, directions=128)
    assert np.max(np.abs(a["dets"] - b["dets"])) <= 1e-12
    assert a["ratio"] == pytest.approx(b["ratio"], abs=1e-12)


EXPR3 = {"dim": 3, "coords": ["x", "y", "z"],
         "metric": [["exp(2*z) + x*y/4", "x/10", "0"],
                    ["x/10", "exp(2*z)", "y/5"],
                    ["0", "y/5", "1 + x^2"]]}
SWEEP_CHARTS = {
    "torus": (lambda: manifold.builtin("torus", {"R": 2.0, "r": 1.0}), [0.3, 0.2]),
    "sphere3": (lambda: manifold.builtin("sphere_stereo", {"n": 3, "R": 1.5}), [0.3, 0.2, 0.1]),
    "hyper3": (lambda: manifold.builtin("hyperbolic_ball", {"n": 3}), [0.1, -0.05, 0.15]),
    "expr3": (lambda: manifold.chart_from_definition(EXPR3), [0.3, 0.2, 0.1]),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CHARTS))
def test_sweep_matches_single_ray_jacobi(name):
    # the sweep chains the orthogonal Jacobi fields of all its rays together
    # by the RK4 transitions that a single framed geodesic takes on the same
    # grid; 50 steps of 32 rays span four blocks of transitions
    from riemannkit import tensor, variation
    from riemannkit.transport import integrate_geodesic
    make, p = SWEEP_CHARTS[name]
    chart, p = make(), np.array(p)
    radii, step, count = (0.2, 0.35, 0.5), 1e-2, 32
    dets = comparison._batched_sphere_sweep(chart, p, radii[-1], count, step, radii=radii)
    B = tensor.orthonormal_frame(manifold.metric_at(chart, p).g)
    for k, v in enumerate(comparison._sphere_directions(chart.dim, count) @ B.T):
        geo = integrate_geodesic(chart, p, v, radii[-1], settings=OdeSettings(step=step))
        F, _ = variation.orthogonal_fundamental(variation.jacobi_system(chart, geo))
        for r in radii:
            i = int(np.argmin(np.abs(geo.t - r)))
            assert geo.t[i] == pytest.approx(r, abs=1e-12)
            assert dets[r][k] == pytest.approx(np.linalg.det(F[i]), abs=1e-10)


def test_scalar_expansion_fit_flat():
    eucl = manifold.builtin("euclidean", {"n": 2})
    rep = comparison.scalar_expansion_fit(eucl, [0.0, 0.0], directions=64)
    assert abs(rep["fitted"]) <= 1e-8
    assert rep["predicted"] == 0.0


def test_scalar_expansion_fit_sphere():
    sph = manifold.builtin("sphere_stereo", {"n": 2})
    rep = comparison.scalar_expansion_fit(sph, [0.3, 0.1], directions=128)
    assert rep["fitted"] == pytest.approx(1.0 / 6.0, abs=1e-5)
    assert rep["predicted"] == pytest.approx(1.0 / 6.0, abs=1e-9)


@pytest.mark.parametrize("kwargs", [
    dict(directions=0), dict(directions=-5), dict(step=0.0), dict(step=-1.0),
    dict(step=math.nan), dict(r=math.nan), dict(r=math.inf), dict(r=0.0),
], ids=["no_directions", "negative_directions", "zero_step", "negative_step",
        "nan_step", "nan_radius", "infinite_radius", "zero_radius"])
def test_volume_compare_rejects_malformed_sweeps(kwargs):
    sph = manifold.builtin("sphere_stereo", {"n": 2})
    with pytest.raises(BadParam):
        comparison.volume_compare(sph, [0.3, 0.1], **{"r": 0.5, "Kref": 0.0,
                                                      "directions": 16, **kwargs})


@pytest.mark.parametrize("kwargs", [
    dict(directions=0), dict(step=0.0), dict(step=-1.0), dict(radii=(0.1,)),
    dict(radii=(0.2, 0.1, 0.0)), dict(radii=(0.2, math.inf)), dict(radii=(0.1, math.nan)),
], ids=["no_directions", "zero_step", "negative_step", "one_radius", "zero_radius",
        "infinite_radius", "nan_radius"])
def test_scalar_expansion_fit_rejects_malformed_sweeps(kwargs):
    sph = manifold.builtin("sphere_stereo", {"n": 2})
    with pytest.raises(BadParam):
        comparison.scalar_expansion_fit(sph, [0.3, 0.1], **{"directions": 16, **kwargs})


def test_sphere_directions_unit_and_deterministic():
    for n in (2, 3):
        D = comparison._sphere_directions(n, 50)
        assert D.shape == (50, n)
        assert np.max(np.abs(np.linalg.norm(D, axis=1) - 1.0)) <= 1e-12
        assert np.array_equal(D, comparison._sphere_directions(n, 50))


@pytest.mark.parametrize("args", [
    (1.0, 0.0, math.nan), (1.0, 0.0, math.inf), (1.0, 0.0, 1.0, math.nan),
    (1.0, 0.0, 1.0, math.inf), (math.nan, 0.0, 1.0),
    (lambda t: math.inf if t > 0.5 else 1.0, 0.0, 1.0), (1.0, math.nan, 4.0),
    (1.0, 0.0, 1e300), (1.0, 0.0, 1e12),
], ids=["nan_tmax", "infinite_tmax", "nan_step", "infinite_step", "nan_H",
        "H_infinite_after_a_half", "nan_f0", "huge_tmax", "tmax_past_max_steps"])
def test_riccati_solve_rejects_malformed_inputs(args):
    with pytest.raises(BadParam):
        comparison.riccati_solve(*args)


@pytest.mark.parametrize("f0, g0", [(-math.inf, 0.0), (-math.inf, -math.inf)])
def test_value_compare_rejects_a_minus_infinite_start(f0, g0):
    with pytest.raises(BadParam, match="-inf"):
        comparison.value_compare(-1.0, f0, g0, 4.0)

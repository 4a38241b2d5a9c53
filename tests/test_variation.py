"""Jacobi fields, conjugate points, index form, variation formulas."""

import math

import numpy as np
import pytest

from riemannkit import manifold, transport, variation
from riemannkit.errors import BadParam, ConjugatePresent, ConjugateNotFound
from riemannkit.manifold import SampledCurve
from riemannkit.transport import OdeSettings, integrate_geodesic


STEP = OdeSettings(step=1e-3)
FAST = OdeSettings(step=5e-3)


def _unit(chart, p, v):
    g = chart.evaluator.metric(p)
    return np.asarray(v, dtype=float) / math.sqrt(float(v @ g @ v))


# -- driving matrix ----------------------------------------------------------

def test_driving_matrix_constant_curvature(sphere2, hyper2, rng):
    for chart, K in ((sphere2, 1.0), (hyper2, -1.0)):
        p = np.array([0.2, -0.1])
        v = _unit(chart, p, rng.standard_normal(2))
        geo = integrate_geodesic(chart, p, v, 1.0, settings=FAST)
        sys = variation.jacobi_system(chart, geo)
        for i in (0, len(sys.t) // 2, len(sys.t) - 1):
            # orthogonal block K I; tangent row/column zero
            M = sys.M[i]
            assert M[0, 0] == pytest.approx(K, abs=1e-9)
            assert abs(M[0, 1]) <= 1e-9 and abs(M[1, 1]) <= 1e-9
        assert sys.m_symmetry_residual() <= 1e-9


# -- Jacobi solutions --------------------------------------------------------

def test_sphere_jacobi_is_sine(sphere2):
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.4]))
    geo = integrate_geodesic(sphere2, p, v, math.pi, settings=STEP)
    E0 = geo.frame[0]
    sol = variation.jacobi_solve(sphere2, geo, np.zeros(2), E0[:, 0])
    # frame components: sin(t) in the first orthogonal direction
    want = np.sin(sol.t)
    assert np.max(np.abs(sol.f[:, 0] - want)) <= 1e-6
    assert np.max(np.abs(sol.f[:, 1])) <= 1e-8


def test_hyperbolic_jacobi_is_sinh(hyper2):
    p = np.array([0.1, 0.0])
    v = _unit(hyper2, p, np.array([0.8, 0.1]))
    geo = integrate_geodesic(hyper2, p, v, 5.0, settings=STEP)
    E0 = geo.frame[0]
    sol = variation.jacobi_solve(hyper2, geo, np.zeros(2), E0[:, 0])
    want = np.sinh(sol.t)
    rel = np.max(np.abs(sol.f[:, 0] - want) / np.maximum(1.0, np.abs(want)))
    assert rel <= 1e-5


def test_euclidean_jacobi_is_linear(eucl2):
    geo = integrate_geodesic(eucl2, [0.0, 0.0], [1.0, 0.0], 4.0, settings=FAST)
    sol = variation.jacobi_solve(eucl2, geo, np.zeros(2), np.array([0.0, 1.0]))
    assert np.max(np.abs(sol.f[:, 0] - sol.t)) <= 1e-10


def test_jacobi_fields_converge_on_torus(torus21):
    # variable curvature, so the dense M(t) between samples matters; the
    # linear interpolant of M bounds the order at 2
    p, v = np.array([0.3, 0.2]), np.array([0.3, 0.4])

    def end_values(h):
        geo = integrate_geodesic(torus21, p, v, 4.0, settings=OdeSettings(step=h))
        sol = variation.jacobi_solve(torus21, geo, [0.0, 0.0], [0.2, 0.5])
        F, _ = variation.orthogonal_fundamental(variation.jacobi_system(torus21, geo))
        return np.append(sol.f[-1, 0], F[-1].ravel())  # the tangent part is exact

    ref = end_values(0.00125)
    errs = [np.abs(end_values(h) - ref) for h in (0.02, 0.01, 0.005)]
    for coarse, fine in zip(errs, errs[1:]):
        assert np.all(np.log2(coarse / fine) >= 1.8)


def test_jacobi_fields_converge_on_torus_full_order(torus21):
    # M at the Hermite midpoint of each step keeps the Jacobi fields at RK4's
    # order on a variable-curvature surface
    p, v = np.array([0.3, 0.2]), np.array([0.3, 0.4])

    def end_values(h):
        geo = integrate_geodesic(torus21, p, v, 4.0, settings=OdeSettings(step=h))
        sol = variation.jacobi_solve(torus21, geo, [0.0, 0.0], [0.2, 0.5])
        F, _ = variation.orthogonal_fundamental(variation.jacobi_system(torus21, geo))
        return np.append(sol.f[-1, 0], F[-1].ravel())

    ref = end_values(0.00125)
    errs = [np.abs(end_values(h) - ref) for h in (0.02, 0.01, 0.005)]
    for coarse, fine in zip(errs, errs[1:]):
        assert np.all(np.log2(coarse / fine) >= 3.8)


def test_coordinate_field_matches_variation_of_geodesics(sphere2):
    # J(t) = d/ds exp_p(t (v + s w)) at s = 0, by central differences
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.0]))
    w = np.array([0.0, 0.2])
    geo = integrate_geodesic(sphere2, p, v, 1.0, settings=FAST)
    sol = variation.jacobi_solve(sphere2, geo, np.zeros(2), w)
    J = sol.coordinate_field()
    h = 1e-5
    plus = integrate_geodesic(sphere2, p, v + h * w, 1.0, settings=FAST,
                              with_frame=False)
    minus = integrate_geodesic(sphere2, p, v - h * w, 1.0, settings=FAST,
                               with_frame=False)
    fd = (plus.x - minus.x) / (2 * h)
    assert np.max(np.linalg.norm(J - fd, axis=1)) <= 1e-5


# -- conjugate points --------------------------------------------------------

def test_first_conjugate_sphere_pi(sphere2):
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.4]))
    rep = variation.conjugate_points(sphere2, p, v, 3.5, settings=STEP)
    assert len(rep.points) == 1
    cp = rep.points[0]
    assert cp.t == pytest.approx(math.pi, abs=1e-4)
    assert cp.multiplicity == 1


def test_conjugate_multiplicity_sphere3(sphere3):
    p = np.array([0.2, 0.1, -0.1])
    v = _unit(sphere3, p, np.array([1.0, 0.3, 0.2]))
    rep = variation.conjugate_points(sphere3, p, v, 3.5,
                                     settings=OdeSettings(step=2e-3))
    assert len(rep.points) == 1
    assert rep.points[0].t == pytest.approx(math.pi, abs=1e-3)
    assert rep.points[0].multiplicity == 2


def test_no_conjugate_points_nonpositive_curvature(eucl2, hyper2):
    for chart in (eucl2, hyper2):
        p = np.array([0.05, 0.02])
        v = _unit(chart, p, np.array([1.0, -0.2]))
        rep = variation.conjugate_points(chart, p, v, 10.0, settings=FAST)
        assert rep.points == []


def test_one_sample_geodesic(sphere2):
    # tmax = 0 leaves one sample and no step, so no midpoint
    rep = variation.conjugate_points(sphere2, [0.3, 0.1], [1.0, 0.0], 0.0)
    assert rep.points == [] and len(rep.t) == 1
    geo = integrate_geodesic(sphere2, [0.3, 0.1], [1.0, 0.0], 0.0)
    assert np.array_equal(variation.jacobi_solve(sphere2, geo, [0.0, 0.0], [0.0, 1.0]).f, [[0.0, 0.0]])


def test_second_conjugate_point_found(sphere2):
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.4]))
    rep = variation.conjugate_points(sphere2, p, v, 6.5, settings=STEP)
    assert len(rep.points) == 2
    assert rep.points[1].t == pytest.approx(2 * math.pi, abs=1e-3)


S3_START = (np.array([0.2, 0.1, -0.1]), np.array([1.0, 0.3, 0.2]))


@pytest.mark.parametrize("tmax", [3.5, 5.0])
@pytest.mark.parametrize("step", [5e-3, 1e-2, 2e-2])
def test_even_multiplicity_found_between_samples(sphere3, step, tmax):
    # det F keeps its sign through a double zero; the count still sees it
    p, v = S3_START
    rep = variation.conjugate_points(sphere3, p, _unit(sphere3, p, v), tmax,
                                     settings=OdeSettings(step=step))
    assert [c.multiplicity for c in rep.points] == [2]
    assert rep.points[0].t == pytest.approx(math.pi, abs=1e-6)


@pytest.mark.parametrize("end, count", [
    (np.zeros((1, 1)), 1), (np.zeros((2, 2)), 2), (np.zeros((3, 3)), 3),
    (np.diag([0.0, 2.0]), 1), (np.diag([0.0, -1.0]), 2),
], ids=["zero1", "zero2", "zero3", "one_zero", "one_zero_one_crossing"])
def test_focal_count_through_a_singular_end(end, count):
    # F_{k+1} = end has no inverse: Kratz's rank M_k counts each direction in
    # which F ends at 0, and from F_k = I a negative entry crosses 0 inside the step
    h, I = 0.1, np.eye(len(end))
    X, B = np.array([I, I, end]), np.array([h * I, h * I])
    assert variation._focal_counts(X, B).tolist() == [0, count]


def test_one_dimensional_chart_has_no_conjugate_points():
    line = manifold.builtin("euclidean", {"n": 1})
    rep = variation.conjugate_points(line, [0.0], [1.0], 1.0, settings=FAST)
    assert rep.points == []
    assert np.all(rep.det == 1.0) and np.all(rep.sigma_min == math.inf)


def _index_form_negatives(sys, nodes=60):
    """Negative eigenvalues of the index form on the hat functions of nodes
    equally spaced interior nodes (Sylvester's law of inertia)."""
    d, t = sys.dim - 1, sys.t
    H = t[-1] / (nodes + 1)
    centers = H * np.arange(1, nodes + 1)
    phi = np.maximum(0.0, 1.0 - np.abs(t[:, None] - centers) / H)
    w = np.zeros_like(t)
    w[:-1] += 0.5 * np.diff(t)
    w[1:] += 0.5 * np.diff(t)
    stiff = (2.0 * np.eye(nodes) - np.eye(nodes, k=1) - np.eye(nodes, k=-1)) / H
    mass = np.einsum("t,ti,tj,tab->iajb", w, phi, phi, sys.M[:, :d, :d])
    form = np.kron(stiff, np.eye(d)) - mass.reshape(nodes * d, nodes * d)
    return int(np.sum(np.linalg.eigvalsh(form) < 0.0))


# the expression chart of scripts/parity.py, which has no conjugate point to t = 1.5
EXPR3 = {"dim": 3, "coords": ["x", "y", "z"],
         "metric": [["exp(2*z) + x*y/4", "x/10", "0"],
                    ["x/10", "exp(2*z)", "y/5"],
                    ["0", "y/5", "1 + x^2"]]}


PI, ROOT3 = math.pi, math.sqrt(3.0)


@pytest.mark.parametrize("chart, p, v, tmax, points", [
    (("sphere_stereo", {"n": 2}), [0.3, 0.1], [1.0, 0.4], 6.5, [(PI, 1), (2 * PI, 1)]),
    (("sphere_stereo", {"n": 3}), [0.2, 0.1, -0.1], [1.0, 0.3, 0.2], 3.5, [(PI, 2)]),
    (("sphere_stereo", {"n": 3}), [0.2, 0.1, -0.1], [1.0, 0.3, 0.2], 7.0,
     [(PI, 2), (2 * PI, 2)]),
    (("hyperbolic_ball", {"n": 3}), [0.1, 0.0, 0.05], [0.8, 0.1, 0.3], 3.0, []),
    # the outer equator, where K = 1/3
    (("torus", {"R": 2.0, "r": 1.0}), [0.0, 0.0], [0.0, 1.0], 12.0,
     [(PI * ROOT3, 1), (2 * PI * ROOT3, 1)]),
    (EXPR3, [0.3, 0.2, 0.1], [0.5, 1.0, -0.4], 1.5, []),
], ids=["S2", "S3", "S3_twice", "H3", "torus_outer_equator", "expr3"])
def test_multiplicities_sum_to_the_index_form_inertia(chart, p, v, tmax, points):
    chart = (manifold.chart_from_definition(chart) if isinstance(chart, dict)
             else manifold.builtin(*chart))
    p = np.array(p)
    geo = integrate_geodesic(chart, p, _unit(chart, p, np.array(v)), tmax,
                             settings=OdeSettings(step=1e-2))
    rep = variation.conjugate_points_from(chart, geo)
    assert [c.multiplicity for c in rep.points] == [m for _, m in points]
    assert [c.t for c in rep.points] == pytest.approx([t for t, _ in points], abs=1e-4)
    index = _index_form_negatives(variation.jacobi_system(chart, geo))
    assert index == sum(m for _, m in points)


# -- index form --------------------------------------------------------------

def test_index_form_closed_form_euclidean(eucl2):
    # V = sin(pi s / L) E_1 on a straight line: I(V,V) = pi^2 / (2 L)
    L = 2.0
    geo = integrate_geodesic(eucl2, [0.0, 0.0], [1.0, 0.0], L, settings=STEP)
    sys = variation.jacobi_system(eucl2, geo)
    V = variation.field_from_function(
        sys, lambda t: np.array([math.sin(math.pi * t / L), 0.0]))
    got = variation.index_form(sys, V)
    assert got == pytest.approx(math.pi**2 / (2 * L), abs=1e-5)


def test_index_form_sphere_closed_form(sphere2):
    # on S^2, I(V,V) = int (V'^2 - V^2) for V = sin(pi s / L) E_1
    L = 2.0
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.4]))
    geo = integrate_geodesic(sphere2, p, v, L, settings=OdeSettings(step=2e-3))
    sys = variation.jacobi_system(sphere2, geo)
    V = variation.field_from_function(
        sys, lambda t: np.array([math.sin(math.pi * t / L), 0.0]))
    want = (math.pi**2 / L**2 - 1.0) * L / 2.0
    assert variation.index_form(sys, V) == pytest.approx(want, abs=1e-4)


def test_index_form_bilinear_symmetric(sphere2, rng):
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.4]))
    geo = integrate_geodesic(sphere2, p, v, 2.0, settings=FAST)
    sys = variation.jacobi_system(sphere2, geo)
    V = variation.field_from_function(sys, lambda t: np.array([math.sin(t), 0.1 * t]))
    Z = variation.field_from_function(sys, lambda t: np.array([t * t, math.cos(t) - 1]))
    assert variation.index_form(sys, V, Z) == pytest.approx(
        variation.index_form(sys, Z, V), rel=1e-12)


def test_index_form_of_end_vanishing_jacobi_field_is_zero(sphere2):
    # Jacobi field sin(t) E_1 vanishes at both ends of [0, pi]; I(J,J) = 0
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.4]))
    geo = integrate_geodesic(sphere2, p, v, math.pi, settings=STEP)
    sys = variation.jacobi_system(sphere2, geo)
    J = variation.field_from_function(sys, lambda t: np.array([math.sin(t), 0.0]))
    assert abs(variation.index_form(sys, J)) <= 1e-4


def test_index_form_grid_mismatch_rejected(eucl2):
    geo = integrate_geodesic(eucl2, [0.0, 0.0], [1.0, 0.0], 1.0, settings=FAST)
    sys = variation.jacobi_system(eucl2, geo)
    V = variation.FieldAlongGeodesic(t=np.linspace(0, 1, 7),
                                     comps=np.zeros((7, 2)))
    with pytest.raises(BadParam):
        variation.index_form(sys, V)


# -- Basic Inequality --------------------------------------------------------

def test_basic_inequality_gap_nonnegative(sphere2):
    L = 2.5  # below the first conjugate parameter pi
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.4]))
    geo = integrate_geodesic(sphere2, p, v, L, settings=OdeSettings(step=2e-3))
    V = variation.field_from_function(
        variation.jacobi_system(sphere2, geo),
        lambda t: np.array([math.sin(math.pi * t / L) + 0.3 * t / L, 0.0]))
    rep = variation.basic_inequality_check(sphere2, geo, V)
    assert rep.gap >= -1e-8
    assert rep.lagrange_drift <= 1e-8


def test_basic_inequality_equality_for_jacobi_input(hyper2):
    # when V is itself the Jacobi field, the gap vanishes
    L = 2.0
    p = np.array([0.1, 0.0])
    v = _unit(hyper2, p, np.array([0.8, 0.1]))
    geo = integrate_geodesic(hyper2, p, v, L, settings=OdeSettings(step=2e-3))
    sys = variation.jacobi_system(hyper2, geo)
    V = variation.field_from_function(sys, lambda t: np.array([math.sinh(t), 0.0]))
    rep = variation.basic_inequality_check(hyper2, geo, V)
    assert abs(rep.gap) <= 1e-6


def test_basic_inequality_guards(sphere2):
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.4]))
    geo = integrate_geodesic(sphere2, p, v, math.pi + 0.3,
                             settings=OdeSettings(step=2e-3))
    sys = variation.jacobi_system(sphere2, geo)
    V = variation.field_from_function(sys, lambda t: np.array([math.sin(t), 0.0]))
    with pytest.raises(ConjugatePresent):
        variation.basic_inequality_check(sphere2, geo, V)
    # nonvanishing start is rejected
    short = integrate_geodesic(sphere2, p, v, 1.0, settings=FAST)
    sys2 = variation.jacobi_system(sphere2, short)
    W = variation.field_from_function(sys2, lambda t: np.array([1.0, 0.0]))
    with pytest.raises(BadParam):
        variation.basic_inequality_check(sphere2, short, W)


def test_a_piece_with_one_sample_is_refused():
    # the sample at 0.5 lies alone between the breakpoints 0.49 and 0.51
    t = np.linspace(0.0, 1.0, 11)
    V = variation.FieldAlongGeodesic(t, np.column_stack([t, t ** 2]), [0.49, 0.51])
    with pytest.raises(BadParam, match="one sample"):
        V.derivative()
    with pytest.raises(BadParam, match="one sample"):
        variation._piecewise_simpson(t, t, [0.49, 0.51])
    # two samples per piece are enough, and a breakpoint off the grid's range is dropped
    V.breakpoints = [0.4, 0.6, 2.0]
    assert np.allclose(V.derivative(), np.column_stack([np.ones(11), 2 * t]))


# -- nonminimality witness ---------------------------------------------------

def test_witness_negative_past_conjugate(sphere2):
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.4]))
    geo = integrate_geodesic(sphere2, p, v, math.pi + 0.3,
                             settings=OdeSettings(step=2e-3))
    rep = variation.nonminimality_witness(sphere2, geo)
    assert rep.index_value < -1e-4
    assert 0.0 < rep.s1 < rep.s2 < math.pi + 0.3
    # the reported field realizes the reported index value
    sys = variation.jacobi_system(sphere2, geo)
    assert variation.index_form(sys, rep.field) == pytest.approx(
        rep.index_value, rel=1e-10, abs=1e-12)
    # the witness field vanishes at both ends
    assert np.linalg.norm(rep.field.comps[0]) <= 1e-10
    assert np.linalg.norm(rep.field.comps[-1]) <= 1e-8


def test_witness_and_basic_inequality_signs(sphere2, torus21):
    # gate 14's sphere inputs, and a geodesic across the torus's outer band,
    # whose first conjugate parameter is near 5.46
    def unit_geo(chart, p, v, L):
        return integrate_geodesic(chart, p, _unit(chart, p, np.array(v)), L,
                                  settings=OdeSettings(step=2e-3))

    for chart, p, v, L_short, L_long in (
            (sphere2, np.array([0.3, 0.1]), [1.0, 0.4], 2.5, math.pi + 0.3),
            (torus21, np.array([0.1, 0.0]), [0.3, 1.0], 4.0, 5.96)):
        short = unit_geo(chart, p, v, L_short)
        V = variation.field_from_function(
            variation.jacobi_system(chart, short),
            lambda t: np.array([math.sin(math.pi * t / L_short) + 0.2 * t, 0.0]))
        assert variation.basic_inequality_check(chart, short, V).gap > 1e-3
        rep = variation.nonminimality_witness(chart, unit_geo(chart, p, v, L_long))
        assert rep.index_value < -1e-3


def test_witness_requires_conjugate_point(hyper2):
    p = np.array([0.1, 0.0])
    v = _unit(hyper2, p, np.array([0.8, 0.1]))
    geo = integrate_geodesic(hyper2, p, v, 3.0, settings=FAST)
    with pytest.raises(ConjugateNotFound):
        variation.nonminimality_witness(hyper2, geo)


# -- first variation ---------------------------------------------------------

def _sine_normal_field(base, amplitude=0.2):
    m = len(base.t)
    s = (base.t - base.t[0]) / (base.t[-1] - base.t[0])
    V = np.zeros_like(base.points)
    V[:, 1] = amplitude * np.sin(np.pi * s)
    return V


def test_first_variation_vanishes_on_geodesic(sphere2):
    p = np.array([0.3, 0.1])
    v = _unit(sphere2, p, np.array([1.0, 0.4]))
    geo = integrate_geodesic(sphere2, p, v, 1.5, settings=OdeSettings(step=2e-3))
    base = geo.as_curve()
    rect = variation.RectangleSpec(base, _sine_normal_field(base))
    rep = variation.first_variation(sphere2, rect)
    assert abs(rep.analytic) <= 1e-6
    assert rep.mismatch <= 1e-5


def test_first_variation_matches_fd_off_geodesic(sphere2):
    # a non-geodesic base curve: dE/dt must be nonzero and match the FD value
    t = np.linspace(0.0, 1.0, 801)
    pts = np.column_stack([0.3 + 0.5 * t, 0.1 + 0.3 * np.sin(np.pi * t) * t * (1 - t) + 0.2 * t])
    base = SampledCurve(t, pts)
    rect = variation.RectangleSpec(base, _sine_normal_field(base))
    rep = variation.first_variation(sphere2, rect)
    assert abs(rep.analytic) > 1e-3
    assert rep.mismatch <= 1e-5 or rep.mismatch <= 1e-4 * abs(rep.analytic)


def test_first_variation_free_ends_boundary_term(eucl2):
    # straight line with free ends and a field not vanishing at the ends:
    # dE/dt = 2 [g(V, c')] at the boundary
    t = np.linspace(0.0, 1.0, 101)
    pts = np.column_stack([t, np.zeros_like(t)])
    base = SampledCurve(t, pts)
    V = np.column_stack([t, np.zeros_like(t)])  # V = s d/dx
    rect = variation.RectangleSpec(base, V, end_condition="free_ends")
    rep = variation.first_variation(eucl2, rect)
    assert rep.analytic == pytest.approx(2.0, abs=1e-8)
    assert rep.mismatch <= 1e-5


@pytest.mark.parametrize("samples", [1, 2])
def test_first_variation_needs_three_samples(eucl2, samples):
    # with velocities given, the acceleration's np.gradient still needs 3
    t = np.linspace(0.0, 1.0, samples)
    base = SampledCurve(t, np.column_stack([t, np.zeros_like(t)]),
                        np.tile([1.0, 0.0], (samples, 1)))
    rect = variation.RectangleSpec(base, np.zeros((samples, 2)))
    with pytest.raises(BadParam, match="3 samples"):
        variation.first_variation(eucl2, rect)


@pytest.mark.parametrize("tmax", [math.nan, math.inf], ids=["nan", "inf"])
def test_conjugate_points_horizon_must_be_finite(sphere2, tmax):
    with pytest.raises(BadParam, match="tmax"):
        variation.conjugate_points(sphere2, [0.3, 0.1], [0.5, -0.2], tmax)


def test_rectangle_spec_validation(eucl2):
    t = np.linspace(0.0, 1.0, 11)
    pts = np.column_stack([t, np.zeros_like(t)])
    base = SampledCurve(t, pts)
    bad = np.ones((11, 2))
    with pytest.raises(BadParam):
        variation.RectangleSpec(base, bad)  # fixed ends but nonzero at ends
    with pytest.raises(BadParam):
        variation.RectangleSpec(base, np.zeros((5, 2)))
    with pytest.raises(BadParam):
        variation.RectangleSpec(base, np.zeros((11, 2)), end_condition="loose")

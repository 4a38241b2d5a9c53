"""Vectors, frames and scalar parameters that the library cannot use are
RiemannKitErrors: BadDimension for a shape, BadParam for a number that is
not finite, an index out of range or a frame that is no basis, through the
library and through the CLI as a JSON error with exit 1. Hypothesis drives
the CLI's numeric options with zeros, extremes, negatives and non-finite
values."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from riemannkit import cli, comparison, manifold, tensor, transport, variation
from riemannkit.errors import BadDimension, BadParam, DomainFault
from riemannkit.transport import OdeSettings


def _geodesic(chart, tmax=1.0):
    return transport.integrate_geodesic(chart, [0.3, 0.1], [0.5, -0.2], tmax,
                                        settings=OdeSettings(step=1e-2))


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


S2 = ("--builtin", "sphere_stereo", "--point", "0.3,0.1", "--velocity", "0.5,-0.2",
      "--tmax", "1", "--step", "0.01")


# ---------------------------------------------------------------------------
# Vectors and frames
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w0, error", [([1.0, 0.0, 0.0], BadDimension), ([math.nan, 0.0], BadParam)])
def test_parallel_transport_checks_w0(sphere2, w0, error):
    with pytest.raises(error, match="w0"):
        transport.parallel_transport(sphere2, _geodesic(sphere2), w0)


@pytest.mark.parametrize("J0, J0p, error", [([1.0, 0.0, 0.0], [0.0, 1.0], BadDimension),
                                            ([0.0, 0.0], [math.nan, 0.0], BadParam)])
def test_jacobi_solve_checks_the_initial_data(sphere2, J0, J0p, error):
    with pytest.raises(error, match="J0"):
        variation.jacobi_solve(sphere2, _geodesic(sphere2), J0, J0p)


@pytest.mark.parametrize("frame", [np.zeros((2, 2)), [[1.0, 0.0], [0.0, math.nan]],
                                   [[1.0, 2.0], [0.5, 1.0]]])
def test_develop_rejects_a_frame_that_is_no_basis(sphere2, frame):
    with pytest.raises(BadParam, match="frame"):
        transport.develop(sphere2, _geodesic(sphere2).as_curve(), frame=frame)


def test_reverse_develop_checks_the_frame_shape(sphere2):
    sigma = transport.develop(sphere2, _geodesic(sphere2).as_curve())
    with pytest.raises(BadDimension, match="frame"):
        transport.reverse_develop(sphere2, sigma, [0.3, 0.1], frame=np.eye(3))
    with pytest.raises(BadParam, match="frame"):
        transport.reverse_develop(sphere2, sigma, [0.3, 0.1], frame=np.zeros((2, 2)))


def test_a_field_with_a_column_too_many_is_bad_dimension(sphere2):
    geo = _geodesic(sphere2, 2.0)
    sys = variation.jacobi_system(sphere2, geo)
    V = variation.FieldAlongGeodesic(t=sys.t.copy(), comps=np.zeros((len(sys.t), 3)))
    with pytest.raises(BadDimension, match="field components"):
        variation.index_form(sys, V)
    with pytest.raises(BadDimension, match="field components"):
        variation.basic_inequality_check(sphere2, geo, V)


def test_a_field_that_is_not_finite_is_bad_param(sphere2):
    sys = variation.jacobi_system(sphere2, _geodesic(sphere2))
    V = variation.field_from_function(sys, lambda t: [math.nan * t, 0.0])
    with pytest.raises(BadParam, match="field components"):
        variation.index_form(sys, V)


def test_a_direction_out_of_range_is_bad_param(sphere2, hyper2):
    with pytest.raises(BadParam, match="direction"):
        comparison.rauch_ratio(sphere2, [0.0, 0.0], [1.0, 0.0],
                               hyper2, [0.0, 0.0], [0.5, 0.0], 1.0, direction=5)
    with pytest.raises(BadParam, match="direction"):
        comparison.CurvatureProfile.from_sectional(sphere2, _geodesic(sphere2), direction=5)


@pytest.mark.parametrize("x, error", [([math.nan, 1.0], BadParam), ([1.0, 0.0, 0.0], BadDimension)])
def test_sectional_checks_its_vectors(sphere2, x, error):
    R = tensor.curvature(sphere2, [0.3, 0.1])
    g = sphere2.evaluator.metric(np.array([0.3, 0.1]))
    with pytest.raises(error):
        tensor.sectional(R, g, x, [0.0, 1.0])


@pytest.mark.parametrize("with_frame", [True, False])
@pytest.mark.parametrize("velocity", [[math.inf, 0.0], [1e300, 0.0]])
def test_a_velocity_that_is_not_finite_or_overflows_is_bad_param(torus21, velocity, with_frame):
    with pytest.raises(BadParam, match="velocity"):
        transport.integrate_geodesic(torus21, [0.5, 0.0], velocity, 1.0, with_frame=with_frame)


@pytest.mark.parametrize("argv", [
    ("transport", *S2, "--w0", "nan,0"),
    ("jacobi", *S2, "--j0", "0,0", "--j0p", "nan,0"),
    ("geodesic", *S2[:4], "--velocity", "inf,0", "--tmax", "1"),
], ids=["transport_nan_w0", "jacobi_nan_j0p", "geodesic_infinite_velocity"])
def test_cli_vectors_that_are_not_finite_are_bad_param_reports(argv):
    code, text = _run(*argv)
    assert code == 1
    assert json.loads(text)["error"]["type"] == "BadParam"


# ---------------------------------------------------------------------------
# Scalar parameters
# ---------------------------------------------------------------------------

def _rectangle(chart):
    t = np.linspace(0.0, 1.0, 21)
    base = manifold.SampledCurve(t, np.array([0.3, 0.1]) + np.outer(t, [0.2, 0.1]))
    return variation.RectangleSpec(base, np.sin(math.pi * t)[:, None] * [0.1, -0.1])


@pytest.mark.parametrize("t_step", [0.0, math.nan, -1e-4])
def test_first_variation_needs_a_positive_t_step(sphere2, t_step):
    with pytest.raises(BadParam, match="t_step"):
        variation.first_variation(sphere2, _rectangle(sphere2), t_step=t_step)


def test_a_variation_field_that_is_not_finite_is_bad_param(sphere2):
    rect = _rectangle(sphere2)
    with pytest.raises(BadParam, match="V must be finite"):
        variation.RectangleSpec(rect.base, np.where(rect.V == 0.0, rect.V, math.nan))


@pytest.mark.parametrize("eps", [0.0, math.inf])
def test_normal_taylor_check_needs_a_positive_eps(sphere2, eps):
    with pytest.raises(BadParam, match="eps"):
        tensor.normal_taylor_check(sphere2, [0.3, 0.1], eps=eps)


@pytest.mark.parametrize("margin", [-1.0, 0.0, math.nan])
def test_nonminimality_witness_needs_a_positive_margin(sphere2, margin):
    with pytest.raises(BadParam, match="margin_factor"):
        variation.nonminimality_witness(sphere2, _geodesic(sphere2), margin_factor=margin)


@pytest.mark.parametrize("axes", [(1.0, 1.0, math.nan), (1.0, -1.0, 1.0), (math.inf, 1.0, 1.0)])
def test_berger_curvatures_need_positive_finite_axes(axes):
    with pytest.raises(BadParam, match="axis length"):
        tensor.berger_curvatures(*axes)


@pytest.mark.parametrize("t", [[0.0, math.nan, 1.0], [0.0, 1.0, math.inf], [0.0, 0.0, 1.0]])
def test_a_curve_grid_must_be_finite_and_increasing(t):
    with pytest.raises(BadParam, match="curve parameter grid"):
        manifold.SampledCurve(t, np.zeros((3, 2)))


@pytest.mark.parametrize("count, seed", [(2.5, 0), (True, 0), (2, -1), (2, 0.5)])
def test_sample_points_needs_integer_counts_and_seeds(sphere2, count, seed):
    with pytest.raises(BadParam):
        sphere2.sample_points(count, seed)


@pytest.mark.parametrize("radii", [(0.1, 0.1), (0.2, math.nan), (0.2, -0.1)])
def test_scalar_expansion_fit_needs_two_distinct_positive_radii(sphere2, radii):
    with pytest.raises(BadParam, match="radi"):
        comparison.scalar_expansion_fit(sphere2, [0.3, 0.1], radii=radii, directions=8)


def test_a_volume_whose_reference_area_underflows_is_bad_param(sphere2):
    with pytest.raises(BadParam, match="underflows"):
        comparison.volume_compare(sphere2, [0.0, 0.0], 1e-300, -1e-300, directions=4)


@pytest.mark.parametrize("argv", [
    ("surfrev", "--torus", "2,1", "--classify", "0,0,nan"),
    ("surfrev", "--torus", "2,1", "--barriers", "nan"),
    ("variation", *S2, "--amplitude", "nan"),
    ("geodesic", *S2[:6], "--tmax", "1e300", "--step", "1e-300"),
    ("geodesic", *S2[:6], "--tmax=-inf"),
], ids=["classify_nan", "barriers_nan", "variation_nan_amplitude", "geodesic_infinite_steps",
        "geodesic_minus_infinite_tmax"])
def test_cli_scalars_that_end_in_nan_are_error_reports(argv):
    code, text = _run(*argv)
    assert code == 1
    assert json.loads(text)["error"]["type"] in ("BadParam", "StepFault")


# ---------------------------------------------------------------------------
# Fuzzing the CLI's numeric options
# ---------------------------------------------------------------------------

NUMBERS = st.sampled_from(["0", "0.3", "1", "-0.5", "-1", "1e-300", "-1e-300", "1e300", "-1e300",
                           "nan", "inf", "-inf"])
# a few hundred steps at most, or a length or step that the library rejects
# before it steps
LENGTHS = st.sampled_from(["0", "0.5", "2", "-1", "1e-300", "1e300", "nan", "inf", "-inf"])
STEPS = st.sampled_from(["0.01", "0.05", "0", "-0.01", "1e-300", "1e300", "nan", "inf"])
CHARTS = st.sampled_from([("--builtin", name) for name in
                          ("sphere_stereo", "hyperbolic_ball", "torus", "euclidean")])


def _vector(k):
    return st.lists(NUMBERS, min_size=k, max_size=k).map(",".join)


_RAY = st.builds(lambda chart, p, v, tmax, step: [*chart, "--point", p, "--velocity", v,
                                                  "--tmax", tmax, "--step", step],
                 CHARTS, _vector(2), _vector(2), LENGTHS, STEPS)
ARGV = st.one_of(
    _RAY.map(lambda ray: ["geodesic", *ray]),
    st.builds(lambda ray, w: ["transport", *ray, "--w0", w], _RAY, _vector(2)),
    st.builds(lambda ray, j, jp: ["jacobi", *ray, "--j0", j, "--j0p", jp],
              _RAY, _vector(2), _vector(2)),
    _RAY.map(lambda ray: ["conjugate", *ray]),
    st.builds(lambda chart, p, r, k, dirs: ["volume", *chart, "--point", p, "--r", r,
                                            "--kref", k, "--directions", dirs],
              CHARTS, _vector(2), LENGTHS, NUMBERS, st.sampled_from(["4", "8", "0", "-1"])),
    st.builds(lambda H, f0, tmax, step: ["riccati", "--H", H, "--f0", f0, "--tmax", tmax,
                                         "--step", step], NUMBERS, NUMBERS, LENGTHS, STEPS),
    st.builds(lambda torus, what: ["surfrev", "--torus", torus, "--no-confirm", *what],
              _vector(2), st.one_of(_vector(3).map(lambda c: ["--classify", c]),
                                    NUMBERS.map(lambda c: ["--barriers", c]))),
)


def _not_finite(doc, path=""):
    """The paths of the numbers in a report that are not finite, which the
    report writes as strings."""
    if isinstance(doc, dict):
        return [bad for key, value in doc.items() for bad in _not_finite(value, f"{path}/{key}")]
    if isinstance(doc, list):
        return [bad for i, value in enumerate(doc) for bad in _not_finite(value, f"{path}[{i}]")]
    if isinstance(doc, str) and doc in ("nan", "inf", "-inf"):
        return [path]
    return [path] if isinstance(doc, float) and not math.isfinite(doc) else []


@settings(derandomize=True, max_examples=150, deadline=None)
@given(argv=ARGV)
@example(argv=["surfrev", "--torus", "2,1", "--no-confirm", "--classify", "0,0,nan"])
@example(argv=["surfrev", "--torus", "2,1", "--no-confirm", "--barriers", "nan"])
@example(argv=["transport", *S2, "--w0", "nan,0"])
@example(argv=["jacobi", *S2, "--j0", "0,0", "--j0p", "nan,0"])
@example(argv=["transport", *S2[:6], "--tmax", "0", "--step", "0.01", "--w0", "-1e300,0"])
@example(argv=["volume", "--builtin", "torus", "--point", "0,0", "--r", "1e300", "--kref", "0",
               "--directions", "4"])
def test_every_cli_run_ends_in_one_json_document(argv):
    code, text = _run(*argv)
    assert code in (0, 1, 2)
    if code == 2:  # a usage error, on stderr
        assert text == ""
        return
    doc = json.loads(text)
    assert ("error" in doc) == (code == 1)
    if code == 0:
        assert _not_finite({key: value for key, value in doc.items() if key != "settings"}) == []


def test_sin_of_an_argument_that_overflows_is_a_domain_fault():
    chart = manifold.chart_from_definition(
        {"dim": 2, "coords": ["x", "y"], "metric": [["2 + sin(x*1e300*1e300)", "0"], ["0", "1"]]})
    ev, x = chart.evaluator, np.array([1.0, 0.0])
    for call in (lambda: ev.stack(x), lambda: ev.spray([1.0, 0.0], [1.0, 0.0]),
                 lambda: ev.connection(x, x), lambda: ev.gamma_batch(np.tile(x, (20, 1)))):
        with pytest.raises(DomainFault, match="sin, cos or tan of an infinite argument"):
            call()
    # a torus whose cos(u / r) overflows far outside its period
    code, text = _run("surfrev", "--torus", "0.3,1e-300", "--no-confirm", "--classify", "-1e300,0,0.3")
    assert code == 1 and json.loads(text)["error"]["type"] == "DomainFault"


def test_barriers_of_a_huge_torus_do_not_overflow():
    # f - c is about 1e300 at every sample, whose products overflow
    code, text = _run("surfrev", "--torus", "1e300,1", "--barriers", "0.5")
    assert code == 0 and json.loads(text)["barriers"] == []

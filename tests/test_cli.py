"""Command-line interface: JSON reports, CSV artifacts, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import riemannkit
from riemannkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_curvature_report(capsys):
    code, rep = run_json(capsys, "curvature", "--builtin", "sphere_stereo",
                         "--param", "n=2,R=1", "--point", "0.3,0.1")
    assert code == 0
    assert rep["schema"] == "riemann-kit/1"
    assert rep["command"] == "curvature"
    pay = rep["curvature"] if "curvature" in rep else rep
    text = json.dumps(rep)
    assert "scalar" in text
    # scalar curvature of the unit sphere is 2
    def find_scalar(d):
        if isinstance(d, dict):
            for k, v in d.items():
                if k == "scalar":
                    return v
                got = find_scalar(v)
                if got is not None:
                    return got
        return None
    assert find_scalar(rep) == pytest.approx(2.0, abs=1e-9)


def test_geodesic_csv_and_report(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code, rep = run_json(capsys, "geodesic", "--builtin", "sphere_stereo",
                         "--point", "0.3,0.1", "--velocity", "0.4,-0.1",
                         "--tmax", "1.0", "--step", "0.005",
                         "--csv", str(csv_path))
    assert code == 0
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 202  # header + 201 samples
    assert lines[0].split(",")[0] == "t"


def test_transport_report_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "w.csv"
    code, rep = run_json(capsys, "transport", "--builtin", "sphere_stereo",
                         "--point", "0.3,0.1", "--velocity", "0.4,-0.1",
                         "--tmax", "1.5", "--step", "0.005", "--w0", "0.2,0.5",
                         "--csv", str(csv_path))
    assert code == 0
    assert rep["command"] == "transport"
    assert rep["norm_drift"] <= 1e-9
    assert rep["norm_end"] == pytest.approx(rep["norm_start"], abs=1e-9)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,w1,w2"
    assert len(lines) == 302  # header + 301 samples
    assert [float(x) for x in lines[-1].split(",")[1:]] == pytest.approx(rep["w_end"], abs=0)


def test_develop_report_of_a_geodesic_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "dev.csv"
    code, rep = run_json(capsys, "develop", "--builtin", "hyperbolic_ball",
                         "--param", "n=3", "--point", "0.1,0.2,-0.1",
                         "--velocity", "0.4,-0.3,0.2", "--tmax", "1.2", "--step", "0.004",
                         "--csv", str(csv_path))
    assert code == 0
    assert rep["command"] == "develop"
    # a geodesic develops to a straight line, as long as the geodesic
    assert rep["straightness_residual"] <= 1e-8
    speed = 2.0 / (1.0 - 0.06) * math.sqrt(0.29)  # conformal factor at the start
    assert rep["length_estimate"] == pytest.approx(1.2 * speed, rel=1e-6)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,s1,s2,s3"
    assert len(lines) == 302


def test_exp_log_round_trip_via_cli(capsys):
    code, rep = run_json(capsys, "exp", "--builtin", "hyperbolic_ball",
                         "--point", "0.1,0.2", "--velocity", "0.2,-0.1")
    assert code == 0
    q = np.array(rep["endpoint"])
    code, rep2 = run_json(capsys, "log", "--builtin", "hyperbolic_ball",
                          "--point", "0.1,0.2",
                          "--target", ",".join(f"{x:.17g}" for x in q))
    assert code == 0
    text = json.dumps(rep2)
    v = None
    def find(d, key):
        if isinstance(d, dict):
            for k, val in d.items():
                if k == key:
                    return val
                got = find(val, key)
                if got is not None:
                    return got
        return None
    v = np.array(find(rep2, "velocity"))
    assert np.linalg.norm(v - np.array([0.2, -0.1])) <= 1e-7


def test_riccati_command(capsys):
    code, rep = run_json(capsys, "riccati", "--H", "1.0", "--f0", "inf",
                         "--tmax", "4.0")
    assert code == 0
    def find(d, key):
        if isinstance(d, dict):
            for k, val in d.items():
                if k == key:
                    return val
                got = find(val, key)
                if got is not None:
                    return got
        return None
    poles = find(rep, "poles")
    assert poles is not None
    assert poles[0] == pytest.approx(math.pi, abs=1e-4)


def test_compare_command(capsys):
    code, rep = run_json(capsys, "compare", "--mode", "sturm", "--H", "1.0",
                         "--K", "0.25", "--tmax", "7.0")
    assert code == 0
    text = json.dumps(rep)
    assert "zero_H" in text


def test_compare_driving_command(capsys):
    code, rep = run_json(capsys, "compare", "--mode", "driving", "--H", "1",
                         "--K", "0", "--f0", "inf", "--tmax", "4")
    assert code == 0
    assert rep["ordered"] is True and rep["pole_ordered"] is True
    assert rep["pole_H"] == pytest.approx(math.pi, abs=1e-4)
    assert rep["pole_K"] is None
    assert not any(key.startswith("trace") for key in rep)


def test_compare_value_command(capsys):
    code, rep = run_json(capsys, "compare", "--mode", "value", "--H", "-1",
                         "--f0", "-0.5", "--g0", "0.5", "--tmax", "4")
    assert code == 0
    assert rep["ordered"] is True


def test_surfrev_classify(capsys):
    code, rep = run_json(capsys, "surfrev", "--torus", "2,1",
                         "--classify", "0,0,0.985110783", "--no-confirm")
    assert code == 0
    text = json.dumps(rep)
    assert "oscillating" in text


def test_conjugate_command(capsys):
    code, rep = run_json(capsys, "conjugate", "--builtin", "sphere_stereo",
                         "--point", "0.3,0.1", "--velocity", "0.88,0.35",
                         "--tmax", "3.5", "--step", "0.002")
    assert code == 0
    text = json.dumps(rep)
    assert "points" in text or "conjugate" in text


@pytest.mark.parametrize("step", ["2e-3", "1e-2"])
def test_conjugate_points_of_even_multiplicity(capsys, step):
    # speed 2 / 1.06 on the unit S^3: pi and 2 pi over it, each of multiplicity 2
    code, rep = run_json(capsys, "conjugate", "--builtin", "sphere_stereo", "--param", "n=3",
                         "--point", "0.2,0.1,-0.1", "--velocity", "1,0,0", "--tmax", "4",
                         "--step", step)
    assert code == 0
    points = rep["conjugate_points"]
    assert [c["multiplicity"] for c in points] == [2, 2]
    assert [c["t"] for c in points] == pytest.approx([0.53 * math.pi, 1.06 * math.pi], abs=1e-6)


def test_check_command(capsys):
    code, rep = run_json(capsys, "check", "--builtin", "hyperbolic_ball",
                         "--samples", "5")
    assert code == 0


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, text = run(capsys, "curvature", "--builtin", "euclidean",
                     "--point", "0,0", "--output", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == "riemann-kit/1"


def test_error_exit_code_and_report(capsys):
    # unknown builtin -> engine error, exit 1, structured report
    code, rep = run_json(capsys, "curvature", "--builtin", "frobulator",
                         "--point", "0,0")
    assert code == 1
    assert rep["error"]["type"] == "UnknownBuiltin"


@pytest.mark.parametrize("R", ["1e-200", "1e160"])
def test_a_radius_the_chart_cannot_represent_is_a_json_error(capsys, R):
    code, rep = run_json(capsys, "curvature", "--builtin", "sphere_stereo",
                         "--param", f"n=2,R={R}", "--point", "0,0")
    assert code == 1
    assert rep["error"]["type"] == "BadParam"
    assert "R must be positive" in rep["error"]["message"]


def test_parse_error_carries_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "dim": 2, "coords": ["x", "y"],
        "metric": [["1 + *", "0"], ["0", "1"]]}))
    code, rep = run_json(capsys, "curvature", "--manifold", str(bad),
                         "--point", "0,0")
    assert code == 1
    assert rep["error"]["type"] == "ParseError"
    assert rep["error"]["line"] == 1
    assert rep["error"]["column"] >= 1


def test_domain_exit_reported(capsys):
    code, rep = run_json(capsys, "geodesic", "--builtin", "sphere_stereo",
                         "--point", "0,0", "--velocity", "0.5,0",
                         "--tmax", "4.0", "--step", "0.005")
    assert code == 1
    assert rep["error"]["type"] == "DomainExit"
    assert rep["error"]["t_exit"] > 3.0


def test_dimension_mismatch_reported(capsys):
    code, rep = run_json(capsys, "curvature", "--builtin", "sphere_stereo",
                         "--point", "0,0,0")
    assert code == 1
    assert rep["error"]["type"] == "BadDimension"
    code, rep = run_json(capsys, "geodesic", "--builtin", "sphere_stereo",
                         "--point", "0.1,0.2", "--velocity", "0.5",
                         "--tmax", "1.0")
    assert code == 1
    assert rep["error"]["type"] == "BadDimension"
    assert "--velocity" in rep["error"]["message"]


def test_usage_error_exit_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
    code = main(["geodesic", "--builtin", "euclidean"])  # missing required args
    capsys.readouterr()
    assert code == 2


def test_vector_with_leading_minus(capsys):
    # a vector whose first component is negative, given as its own token
    code, rep = run_json(capsys, "exp", "--builtin", "sphere_stereo",
                         "--point", "-0.3,0.1", "--velocity", "-1,0")
    assert code == 0
    assert rep["settings"]["point"] == [-0.3, 0.1]
    assert rep["settings"]["velocity"] == [-1.0, 0.0]
    code, joined = run_json(capsys, "exp", "--builtin", "sphere_stereo",
                            "--point=-0.3,0.1", "--velocity=-1,0")
    assert code == 0
    assert joined["endpoint"] == rep["endpoint"]


def test_import_and_version_load_no_scipy():
    script = ("import sys, riemannkit, riemannkit.cli\n"
              "riemannkit.cli.main(['--version'])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(riemannkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_seed_echoed(capsys):
    code, rep = run_json(capsys, "curvature", "--builtin", "euclidean",
                         "--point", "0,0", "--seed", "42")
    assert code == 0
    assert rep["seed"] == 42


def test_log_of_a_nearby_target(capsys):
    # the target is 2.1e-6 from the point, inside np.allclose's tolerances
    code, rep = run_json(capsys, "log", "--builtin", "hyperbolic_ball", "--param", "n=2",
                         "--point", "0.3,0.1", "--target", "0.3000021,0.1")
    assert code == 0
    assert rep["velocity"][0] == pytest.approx(2.1e-6, rel=1e-3)
    assert rep["residual"] <= 1e-10


def test_a_geodesic_into_the_ball_boundary_is_a_located_domain_exit(capsys):
    # a stage point rounds onto |x| = 1, where the conformal factor divides by 0
    code, rep = run_json(capsys, "geodesic", "--builtin", "hyperbolic_ball", "--param", "n=2",
                         "--point", "0.3,0.1", "--velocity", "3,1", "--tmax", "10",
                         "--step", "0.1")
    assert code == 1
    err = rep["error"]
    assert err["type"] == "DomainExit"
    assert 0.0 < err["t_exit"] < 10.0
    assert len(err["point"]) == 2 and math.hypot(*err["point"]) >= 1.0


def test_exp_domain_exit_reports_where_it_stopped(capsys):
    code, rep = run_json(capsys, "exp", "--builtin", "sphere_stereo", "--param", "n=2,R=1",
                         "--point", "0,0", "--velocity", "0,3.2", "--step", "0.01")
    assert code == 1
    err = rep["error"]
    assert err["type"] == "DomainExit"
    assert 0.0 < err["t_exit"] <= 1.0
    assert err["point"][0] == 0.0 and abs(err["point"][1]) >= 1e6


def test_log_without_convergence_reports_its_best_value(capsys):
    # S^2 from (0.3, 0.1) along (1, 0.4) at distance pi/2
    from riemannkit import manifold, transport
    chart = manifold.builtin("sphere_stereo", {"n": 2})
    p, u = np.array([0.3, 0.1]), np.array([1.0, 0.4])
    q = transport.exp_map(chart, p, 0.5 * math.pi * u / manifold.norm(chart, p, u))
    code, rep = run_json(capsys, "log", "--builtin", "sphere_stereo", "--param", "n=2,R=1",
                         "--point", "0.3,0.1", "--target", ",".join(map(repr, q.tolist())))
    assert code == 1
    err = rep["error"]
    assert err["type"] == "NoConvergence"
    assert err["best_residual"] > 1e-10
    assert len(err["best_value"]) == 2 and all(math.isfinite(c) for c in err["best_value"])


def test_non_finite_array_entries_stay_strict_json():
    from riemannkit.cli import _jsonable
    doc = _jsonable({"point": np.array([1.0, math.inf, -math.inf, math.nan]),
                     "rows": np.array([[0.5], [math.nan]]), "count": np.arange(2)})
    assert doc == {"point": [1.0, "inf", "-inf", "nan"], "rows": [[0.5], ["nan"]], "count": [0, 1]}
    json.dumps(doc, allow_nan=False)


def test_log_target_outside_the_chart_reported(capsys):
    code, rep = run_json(capsys, "log", "--builtin", "hyperbolic_ball", "--param", "n=2",
                         "--point", "0.3,0.1", "--target", "1.2,0")
    assert code == 1
    assert rep["error"]["type"] == "DomainExit"
    assert "1.2" in rep["error"]["message"]


@pytest.mark.parametrize("doc", [
    {"dim": 2, "coords": ["x", "y"]},
    {"builtin": "hyperbolic_ball", "params": {"n": -1}},
])
def test_malformed_manifold_reported(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "curvature", "--manifold", str(path), "--point", "0,0")
    assert code == 1
    assert rep["error"]["type"] == "BadParam"


def test_degenerate_start_reported(tmp_path, capsys):
    # g is indefinite at the start point: a JSON error report, not a traceback
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "coords": ["x", "y"],
                                "metric": [["x", "0"], ["0", "1"]]}))
    code, rep = run_json(capsys, "geodesic", "--manifold", str(path),
                         "--point=-1,0", "--velocity=1,0", "--tmax", "1")
    assert code == 1
    assert rep["error"]["type"] == "SingularMetric"


def test_degenerate_metric_along_log_reported(tmp_path, capsys):
    # g = diag(1, x) turns singular halfway along the first Newton ray
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "coords": ["x", "y"],
                                "metric": [["1", "0"], ["0", "x"]]}))
    code, rep = run_json(capsys, "log", "--manifold", str(path),
                         "--point", "0.5,0", "--target=-0.5,0")
    assert code == 1
    assert rep["error"]["type"] == "SingularMetric"
    assert rep["error"]["t_exit"] == pytest.approx(0.5, abs=1e-2)


def test_overflowed_metric_reported(tmp_path, capsys):
    # g underflows to 0 at the start point: a JSON error report, not a traceback
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "coords": ["x", "y"],
                                "metric": [["4/(1+x^2+y^2)^2", "0"],
                                           ["0", "4/(1+x^2+y^2)^2"]]}))
    code, rep = run_json(capsys, "exp", "--manifold", str(path),
                         "--point", "1e154,1e154", "--velocity", "1,0")
    assert code == 1
    assert rep["error"]["type"] == "SingularMetric"


def test_degenerate_endpoint_of_exp_reported(tmp_path, capsys):
    # the ray runs from x = 0.5 to x = -0.5, where g = diag(1, x) is indefinite
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "coords": ["x", "y"],
                                "metric": [["1", "0"], ["0", "x"]]}))
    code, rep = run_json(capsys, "exp", "--manifold", str(path),
                         "--point", "0.5,0", "--velocity=-1,0")
    assert code == 1
    assert rep["error"]["type"] == "SingularMetric"
    assert rep["error"]["t_exit"] == 1.0


@pytest.mark.parametrize("argv", [
    ("surfrev", "--profile", "missing.json", "--barriers", "1"),
    ("surfrev", "--torus", "inf,1", "--barriers", "1"),
    ("compare", "--mode", "value", "--H", "-1", "--f0=-inf", "--g0", "0", "--tmax", "4"),
], ids=["missing_profile", "infinite_torus", "value_minus_inf"])
def test_bad_inputs_are_bad_param_reports(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, rep = run_json(capsys, *argv)
    assert code == 1
    assert rep["error"]["type"] == "BadParam"


@pytest.mark.parametrize("argv", [
    ("surfrev", "--torus", "2", "--barriers", "1"),
    ("surfrev", "--torus", "2,1", "--classify", "0,0"),
    ("surfrev", "--barriers", "1"),
], ids=["one_torus_radius", "two_classify_values", "no_profile_or_torus"])
def test_malformed_surfrev_vectors_are_bad_param_reports(capsys, argv):
    code, rep = run_json(capsys, *argv)
    assert code == 1
    assert rep["command"] == "surfrev"
    assert rep["error"]["type"] == "BadParam"


S2 = ("--builtin", "sphere_stereo", "--param", "n=2")
RAY = ("--point", "0.3,0.1", "--velocity", "0.5,-0.2")


@pytest.mark.parametrize("argv", [
    ("geodesic", *S2, *RAY, "--tmax", "1", "--step", "nan"),
    ("geodesic", *S2, *RAY, "--tmax", "nan"),
    ("geodesic", *S2, *RAY, "--tmax", "inf"),
    ("exp", *S2, *RAY, "--step", "inf"),
    ("riccati", "--H", "1", "--f0", "0", "--tmax", "nan"),
    ("riccati", "--H", "1", "--f0", "0", "--tmax", "inf"),
    ("riccati", "--H", "nan", "--f0", "0", "--tmax", "1"),
    ("riccati", "--H", "1", "--f0", "nan", "--tmax", "4"),
    ("variation", *S2, *RAY, "--tmax", "0"),
    ("check", *S2, "--samples", "-1"),
], ids=["geodesic_nan_step", "geodesic_nan_tmax", "geodesic_infinite_tmax",
        "exp_infinite_step", "riccati_nan_tmax", "riccati_infinite_tmax", "riccati_nan_H",
        "riccati_nan_f0", "variation_zero_tmax", "check_negative_samples"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_and_negative_inputs_are_bad_param_reports(capsys, argv):
    code, rep = run_json(capsys, *argv)
    assert code == 1
    assert rep["command"] == argv[0]
    assert rep["error"]["type"] == "BadParam"


@pytest.mark.parametrize("option", [("--directions", "0"), ("--r", "nan"), ("--r", "inf")],
                         ids=["no_directions", "nan_radius", "infinite_radius"])
def test_malformed_volume_inputs_are_bad_param_reports(capsys, option):
    code, rep = run_json(capsys, "volume", "--builtin", "sphere_stereo", "--param", "n=2",
                         "--point", "0.3,0.1", "--r", "0.5", "--kref", "0",
                         "--directions", "16", *option)
    assert code == 1
    assert rep["command"] == "volume"
    assert rep["error"]["type"] == "BadParam"


# ---------------------------------------------------------------------------
# Success paths, each against a closed form
# ---------------------------------------------------------------------------

HEADER = {"schema", "version", "command", "seed", "settings", "timestamp"}
# the unit S^2 from its stereographic origin, where g = 4 delta: a unit-speed ray
ORIGIN_RAY = ("--point", "0,0", "--velocity", "0.5,0")


def _report(rep, command, keys):
    assert rep["schema"] == "riemann-kit/1" and rep["command"] == command
    assert set(rep) == HEADER | set(keys)
    return rep


def test_jacobi_end_norm_on_the_sphere(capsys):
    # J(0) = 0, |J'(0)| = 1 normal to the unit-speed ray: |J(t)| = |sin t|
    code, rep = run_json(capsys, "jacobi", *S2, *ORIGIN_RAY, "--tmax", "2",
                         "--j0", "0,0", "--j0p", "0,0.5")
    assert code == 0
    _report(rep, "jacobi", {"end_components", "end_norm", "max_norm", "csv"})
    assert rep["end_norm"] == pytest.approx(abs(math.sin(2.0)), abs=1e-6)


def test_variation_index_form_on_the_sphere(capsys):
    # V = a sin(pi t) e_2 on [0, 1] with K = 1: I(V, V) = a^2 (pi^2 - 1) / 2
    code, rep = run_json(capsys, "variation", *S2, *ORIGIN_RAY, "--tmax", "1")
    assert code == 0
    _report(rep, "variation", {"index_form", "first_variation"})
    assert rep["index_form"] == pytest.approx(0.25 * (math.pi ** 2 - 1.0) / 2.0, rel=1e-4)
    assert set(rep["first_variation"]) == {"analytic", "finite_difference", "mismatch"}


def test_volume_of_a_geodesic_circle_on_the_sphere(capsys):
    code, rep = run_json(capsys, "volume", *S2, "--point", "0,0", "--r", "0.5", "--kref", "1")
    assert code == 0
    _report(rep, "volume", {"area", "reference", "ratio", "ratio_at_most_one", "pointwise",
                            "ric_min_eigenvalue", "directions", "dets_summary"})
    assert rep["area"] == pytest.approx(2.0 * math.pi * math.sin(0.5), rel=1e-8)
    assert abs(rep["ratio"] - 1.0) <= 1e-9


def test_surfrev_barriers_of_the_torus(capsys):
    # f(u) = 2 + cos u = 2.5 at u = +-pi/3, where f' != 0
    code, rep = run_json(capsys, "surfrev", "--torus", "2,1", "--barriers", "2.5")
    assert code == 0
    _report(rep, "surfrev", {"c", "barriers"})
    assert [b["tag"] for b in rep["barriers"]] == ["transversal", "transversal"]
    assert [b["u"] for b in rep["barriers"]] == pytest.approx([-math.pi / 3, math.pi / 3],
                                                              abs=1e-9)


def test_surfrev_delta_theta_of_the_torus(capsys):
    code, rep = run_json(capsys, "surfrev", "--torus", "2,1", "--delta-theta", "2.5")
    assert code == 0
    _report(rep, "surfrev", {"c", "delta_theta"})
    want = riemannkit.surfrev.delta_theta(riemannkit.torus_chart(2.0, 1.0).profile, 2.5)
    assert rep["delta_theta"] == want


def test_surfrev_gauss_curvature_of_the_torus(capsys):
    # K = cos u / (2 + cos u), 1/3 on the outer equator u = 0
    code, rep = run_json(capsys, "surfrev", "--torus", "2,1")
    assert code == 0
    _report(rep, "surfrev", {"u_range", "gauss_curvature_at_midrange"})
    assert rep["u_range"] == pytest.approx([-math.pi, math.pi])
    assert rep["gauss_curvature_at_midrange"] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_develop_a_geodesic_read_from_its_csv(tmp_path, capsys):
    csv_path = tmp_path / "geo.csv"
    code, _ = run_json(capsys, "geodesic", *S2, "--point", "0.3,0.1", "--velocity", "0.4,-0.1",
                       "--tmax", "1.5", "--step", "0.005", "--csv", str(csv_path))
    assert code == 0
    code, rep = run_json(capsys, "develop", *S2, "--curve-csv", str(csv_path))
    assert code == 0
    _report(rep, "develop", {"end", "length_estimate", "straightness_residual", "csv"})
    assert rep["straightness_residual"] <= 1e-8


def test_riccati_csv_has_one_pole_at_pi(tmp_path, capsys):
    # f' = -H - f^2 from f(0) = inf: f = cot t, with its pole at pi
    csv_path = tmp_path / "riccati.csv"
    code, rep = run_json(capsys, "riccati", "--H", "1", "--f0", "inf", "--tmax", "4",
                         "--csv", str(csv_path))
    assert code == 0
    _report(rep, "riccati", {"poles", "samples", "csv"})
    assert rep["poles"] == pytest.approx([math.pi], abs=1e-4)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,f"
    t, f = (float(x) for x in lines[1].split(","))
    assert f == pytest.approx(1.0 / math.tan(t), rel=1e-6)


def test_print_manifold_echoes_the_chart_source(tmp_path, capsys):
    doc = {"dim": 2, "coords": ["x", "y"], "label": "paraboloid",
           "metric": [["1+4*x^2", "4*x*y"], ["4*x*y", "1+4*y^2"]]}
    path = tmp_path / "paraboloid.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "geodesic", "--manifold", str(path), "--print-manifold",
                         *RAY, "--tmax", "0.5", "--step", "0.01")
    assert code == 0
    _report(rep, "geodesic", {"endpoint", "end_velocity", "speed_drift", "samples", "csv",
                              "manifold"})
    assert rep["manifold"] == doc == riemannkit.load_manifold(str(path)).source


def test_error_report_written_to_output(tmp_path, capsys):
    out = tmp_path / "error.json"
    code, text = run(capsys, "geodesic", *S2, *RAY, "--tmax", "-1", "--output", str(out))
    assert code == 1
    assert text == ""
    rep = json.loads(out.read_text())
    assert set(rep) == {"schema", "version", "command", "error"}
    assert rep["command"] == "geodesic"
    assert rep["error"]["type"] == "BadParam"

#!/usr/bin/env python3
"""Record the library's outputs on fixed inputs, or compare two records.

    python scripts/parity.py record OUT [--charts sphere2,torus]
    python scripts/parity.py compare A B [--tol 1e-13]

``record`` runs every layer on the charts below (all of them by default)
with fixed seeds and writes one JSON object of named outputs. A float is
written as ``float.hex``, so the sign of a zero and the last bit survive; an
output that raises is written as its fault: type, message, ``t_exit`` and
``point``. Run it once per checkout, with that checkout's ``src`` on
PYTHONPATH, to see whether a change keeps its results.

``compare`` prints, for every output, whether the two records agree bitwise
and otherwise its largest difference relative to the output's largest
entry, then a summary and a DIFFERS line for each output that is missing
on one side, whose fault differs or whose difference exceeds ``--tol``; it
exits 1 where there is one.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from riemannkit import comparison, manifold, surfrev, transport, variation
from riemannkit.errors import RiemannKitError
from riemannkit.transport import OdeSettings

SCHEMA = "riemann-kit-parity/1"
EXPR3 = {"dim": 3, "coords": ["x", "y", "z"],
         "metric": [["exp(2*z) + x*y/4", "x/10", "0"],
                    ["x/10", "exp(2*z)", "y/5"],
                    ["0", "y/5", "1 + x^2"]]}
SQRT = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "1 + sqrt(x)"]]}
# the benchmark's expression sphere, 4 R^4 / (R^2 + x^2 + y^2)^2 at R = 1.2: a
# square in a denominator, and a compiled Jacobi operator
SPHERE_EXPR = {"dim": 2, "coords": ["x", "y"],
               "metric": [["8.2944/(1.44+x^2+y^2)^2", "0"],
                          ["0", "8.2944/(1.44+x^2+y^2)^2"]]}

# name: (chart, box of the sampled points, a unit-speed ray's point and
# direction, Kref for volume_compare or None)
CHARTS = {
    "euclidean3": (lambda: manifold.builtin("euclidean", {"n": 3}), 1.0,
                   ([0.3, 0.2, 0.1], [0.5, 1.0, -0.4]), 0.0),
    "sphere2": (lambda: manifold.builtin("sphere_stereo", {"n": 2}), 0.8,
                ([0.3, 0.1], [1.0, 0.4]), 0.5),
    "sphere3": (lambda: manifold.builtin("sphere_stereo", {"n": 3, "R": 1.5}), 1.0,
                ([0.3, 0.2, 0.1], [0.5, 1.0, -0.4]), 0.2),
    "hyper2": (lambda: manifold.builtin("hyperbolic_ball", {"n": 2}), 0.5,
               ([0.3, 0.1], [1.0, 0.4]), -1.0),
    "hyper3": (lambda: manifold.builtin("hyperbolic_ball", {"n": 3}), 0.4,
               ([0.3, 0.2, 0.1], [0.5, 1.0, -0.4]), -1.0),
    "torus": (lambda: manifold.builtin("torus", {"R": 2.0, "r": 1.0}), 1.5,
              ([0.5, 0.0], [0.8, 0.3]), None),
    "expr3": (lambda: manifold.chart_from_definition(EXPR3), 0.5,
              ([0.3, 0.2, 0.1], [0.5, 1.0, -0.4]), None),
    "sqrt": (lambda: manifold.chart_from_definition(SQRT), 0.4,
             ([0.5, 0.1], [0.3, 1.0]), None),
    "sphere_expr": (lambda: manifold.chart_from_definition(SPHERE_EXPR), 0.8,
                    ([0.3, 0.1], [1.0, 0.4]), 0.5),
}


def _cone():
    # f(u) = u meets its axis at u = 0, which the chart, with no domain, reaches
    return manifold.MetricChart(dim=2, coords=["u", "theta"], label="cone",
                                evaluator=surfrev.SurfRevEvaluator(surfrev.SmoothFunc("u")))


# name: (the chart it is recorded with, its chart, a call on it) of runs that
# end in a fault
FAULTS = {
    "ball_boundary_rk4": ("hyper2", CHARTS["hyper2"][0], lambda c: transport.integrate_geodesic(
        c, [0.3, 0.1], [3.0, 1.0], 10.0, settings=OdeSettings(step=0.1))),
    "ball_boundary_rays": ("hyper3", CHARTS["hyper3"][0], lambda c: transport._exp_rays(
        c, [[0.1, 0.0, 0.0], [0.2, -0.19, 0.08]], [[0.1, 0.0, 0.0], [3.3, 11.0, -15.7]],
        OdeSettings(step=0.02))),
    "sqrt_negative_rk4": ("sqrt", CHARTS["sqrt"][0], lambda c: transport.integrate_geodesic(
        c, [0.3, 0.0], [-1.0, 0.2], 1.0, settings=OdeSettings(step=1e-3))),
    "sqrt_negative_rkf45": ("sqrt", CHARTS["sqrt"][0], lambda c: transport.integrate_geodesic(
        c, [0.3, 0.0], [-1.0, 0.2], 1.0, settings=OdeSettings(method="rkf45_adaptive"))),
    "sqrt_negative_rays": ("sqrt", CHARTS["sqrt"][0], lambda c: transport._exp_rays(
        c, [[0.5, 0.0]] * 20 + [[0.3, 0.0]], [[0.0, 0.1]] * 20 + [[-1.0, 0.2]],
        OdeSettings(step=0.01))),
    "cone_axis_rk4": ("torus", _cone, lambda c: transport.integrate_geodesic(
        c, [0.5, 0.5], [-1.0, 2.0], 2.0, settings=OdeSettings(step=1.0))),
    "sphere_pole_exit": ("sphere2", CHARTS["sphere2"][0], lambda c: transport.exp_map(
        c, [0.0, 0.0], [0.0, 3.2], OdeSettings(step=0.01))),
    "sphere_log_no_convergence": ("sphere2", CHARTS["sphere2"][0], lambda c: transport.log_map(
        c, [0.3, 0.1], transport.exp_map(c, [0.3, 0.1], 0.5 * math.pi * _unit(c, [0.3, 0.1],
                                                                              [1.0, 0.4])))),
}


# g = diag(1, x), whose second pivot is 0 at x = 0
PIVOT = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "x"]]}
FAULTS.update({f"expr_zero_pivot_{form}": ("sqrt", lambda: manifold.chart_from_definition(PIVOT), call)
               for form, call in (
                   ("gamma", lambda c: c.evaluator.gamma(np.array([0.0, 0.3]))),
                   ("connection", lambda c: c.evaluator.connection(np.array([0.0, 0.3]),
                                                                   np.array([1.0, -0.5]))),
                   ("spray", lambda c: c.evaluator.spray([0.0, 0.3], [1.0, -0.5])))})


def _unit(chart, p, v):
    v = np.asarray(v, dtype=float)
    return v / manifold.norm(chart, np.asarray(p, dtype=float), v)


def _value(x):
    a = np.asarray(x, dtype=float)
    return {"shape": list(a.shape), "hex": [float(e).hex() for e in a.ravel().tolist()]}


def _fault(exc):
    point = getattr(exc, "point", None)
    t_exit = getattr(exc, "t_exit", None)
    return {"fault": type(exc).__name__, "message": str(exc),
            "t_exit": None if t_exit is None else float(t_exit).hex(),
            "point": None if point is None else _value(point)}


def _outputs(chart, box, ray, kref):
    """(name, thunk) of every output recorded on one chart."""
    ev, n = chart.evaluator, chart.dim
    rng = np.random.default_rng(20261020)
    center = np.array(ray[0])
    X = center + rng.uniform(-box, box, (40, n)) * 0.5
    X = X[chart.inside(X)]
    V = rng.normal(0.0, 0.5, X.shape)
    p, v = center, _unit(chart, center, ray[1])
    rk4, rkf = OdeSettings(step=0.01), OdeSettings(method="rkf45_adaptive", rtol=1e-9, atol=1e-11)
    yield "stack", lambda: [s for x in X[:4] for s in ev.stack(x)]
    yield "stack_batch", lambda: ev.stack_batch(X)
    yield "gamma", lambda: [ev.gamma(x) for x in X[:8]]
    yield "spray", lambda: [ev.spray(x.tolist(), w.tolist()) for x, w in zip(X[:8], V)]
    yield "connection", lambda: [ev.connection(x, w) for x, w in zip(X[:8], V)]
    yield "connection_batch_8", lambda: ev.connection_batch(X[:8], V[:8])
    yield "connection_batch", lambda: ev.connection_batch(X, V)
    # below and past BATCH_ROWS: the loop and the array form
    for rows in (8, 64):
        yield f"gamma_batch_{rows}", lambda r=rows: ev.gamma_batch(np.resize(X, (r, n)))
        yield f"spray_batch_{rows}", lambda r=rows: ev.spray_batch(np.resize(X, (r, n)),
                                                                  np.resize(V, (r, n)))
    for name, settings in (("rk4", rk4), ("rkf45", rkf)):
        geodesic = functools.partial(transport.integrate_geodesic, chart, p, v, 1.5,
                                     settings=settings)
        yield f"geodesic_{name}", lambda g=geodesic: _samples(g(with_frame=False))
        yield f"geodesic_{name}_framed", lambda g=geodesic: _samples(g())
        yield f"geodesic_{name}_frame", lambda g=geodesic: g().frame
        yield f"exp_map_{name}", lambda s=settings: [transport.exp_map(chart, x, 0.3 * w, s)
                                                    for x, w in zip(X[:4], V)]
        yield f"exp_rays_{name}", lambda s=settings: transport._exp_rays(chart, X, 0.3 * V, s)
    yield "exp_rays_rk4_8", lambda: transport._exp_rays(chart, X[:8], 0.3 * V[:8], rk4)
    yield "jacobi", lambda: jacobi(chart, p, v, rk4)
    yield "parallel_transport", lambda: transport.parallel_transport(
        chart, transport.integrate_geodesic(chart, p, v, 1.0, settings=rk4, with_frame=False), V[0])
    # past a block of TRANSITION_BLOCK transitions: 750 steps, 3,000 substeps
    long_ray = functools.partial(transport.integrate_geodesic, chart, p, v, 1.5,
                                 settings=OdeSettings(step=2e-3))
    yield "geodesic_rk4_frame_long", lambda: long_ray().frame
    yield "jacobi_long", lambda: list(variation.orthogonal_fundamental(
        variation.jacobi_system(chart, long_ray())))
    yield "parallel_transport_long", lambda: transport.parallel_transport(
        chart, long_ray(with_frame=False), V[0], substeps=4)
    yield "develop", lambda: transport.develop(chart, transport.integrate_geodesic(
        chart, p, v, 1.0, settings=rk4, with_frame=False).as_curve()).points
    yield "log_map", lambda: transport.log_map(chart, p, transport.exp_map(chart, p, 0.4 * v))
    yield "reverse_develop", lambda: reverse_develop(chart, p, v, rk4)
    yield "sectional_profile", lambda: sectional_profile(chart, p, v, rk4)
    conjugate = functools.cache(lambda: variation.conjugate_points(
        chart, p, v, 4.0, settings=OdeSettings(step=0.005)).points)
    yield "conjugate_t", lambda: [c.t for c in conjugate()]
    yield "conjugate_multiplicity", lambda: [c.multiplicity for c in conjugate()]
    yield "conjugate_sigma_min", lambda: [c.sigma_min for c in conjugate()]
    yield "sweep_det", lambda: list(comparison._batched_sphere_sweep(
        chart, p, 0.4, 64, 0.02, radii=[0.2, 0.4]).values())
    if kref is not None:
        yield "volume_compare", lambda: [comparison.volume_compare(
            chart, p, 0.3, kref, directions=64, step=0.02, ric_samples=4)[k]
            for k in ("area", "ratio", "dets")]
        yield "scalar_expansion_fit", lambda: [comparison.scalar_expansion_fit(
            chart, p, directions=64, step=0.01)[k] for k in ("fitted", "predicted")]
    yield "first_variation", lambda: first_variation(chart, p, v)


def _samples(geo):
    return [geo.t, geo.x, geo.v]


def jacobi(chart, p, v, settings):
    geo = transport.integrate_geodesic(chart, p, v, 1.5, settings=settings)
    n = chart.dim
    sol = variation.jacobi_solve(chart, geo, np.zeros(n), geo.frame[0][:, 0])
    return [sol.f, sol.fp, sol.system.M, sol.system.M_mid]


def reverse_develop(chart, p, v, settings):
    # the curve in the chart whose development is that of the ray to exp(0.4 v)
    geo = transport.integrate_geodesic(chart, p, 0.4 * v, 1.0, settings=settings, with_frame=False)
    back = transport.reverse_develop(chart, transport.develop(chart, geo.as_curve()), p)
    return [back.points, back.velocities]


def sectional_profile(chart, p, v, settings):
    geo = transport.integrate_geodesic(chart, p, v, 1.5, settings=settings)
    profile = comparison.CurvatureProfile.from_sectional(chart, geo)
    return [profile(t) for t in geo.t]


def first_variation(chart, p, v):
    # along a coordinate segment, which is no geodesic, so that dE/dt is not 0
    t = np.linspace(0.0, 1.0, 41)
    base = manifold.SampledCurve(t, p + 0.5 * t[:, None] * v, np.tile(0.5 * v, (len(t), 1)))
    bump = np.sin(math.pi * t)[:, None] * np.linspace(0.2, -0.1, chart.dim)
    rep = variation.first_variation(chart, variation.RectangleSpec(base, bump))
    return [rep.analytic, rep.finite_difference]


def record(names):
    out = {}
    for name in names:
        make, box, ray, kref = CHARTS[name]
        chart = make()
        for key, thunk in _outputs(chart, box, ray, kref):
            out[f"{name}/{key}"] = _run(thunk)
    for key, (owner, make, call) in FAULTS.items():
        if owner in names:
            out[f"fault/{key}"] = _run(lambda: call(make()))
    return out


def _run(thunk):
    """The recorded output of thunk(): its value, a list of its parts, or its fault."""
    try:
        result = thunk()
    except (RiemannKitError, ArithmeticError, ValueError) as exc:
        return _fault(exc)
    if isinstance(result, (list, tuple)):
        return {"parts": [_value(part) for part in result]}
    return _value(result)


# ---------------------------------------------------------------------------

def _floats(rec):
    return np.array([float.fromhex(h) for h in rec["hex"]])


def _difference(a, b):
    """(bitwise, largest relative difference) of two recorded values."""
    if "parts" in a or "parts" in b:
        pa, pb = a.get("parts", [a]), b.get("parts", [b])
        if len(pa) != len(pb):
            return False, math.inf
        diffs = [_difference(x, y) for x, y in zip(pa, pb)]
        return all(d[0] for d in diffs), max((d[1] for d in diffs), default=0.0)
    if a["shape"] != b["shape"]:
        return False, math.inf
    if a["hex"] == b["hex"]:
        return True, 0.0
    x, y = _floats(a), _floats(b)
    same_nan = np.isnan(x) & np.isnan(y)
    if (np.isnan(x) != np.isnan(y)).any():
        return False, math.inf
    scale = max(float(np.max(np.abs(np.where(same_nan, 0.0, y)), initial=0.0)), 1e-300)
    diff = np.abs(np.where(same_nan, 0.0, x - y))
    return False, float(np.max(diff, initial=0.0)) / scale


def compare(a, b, tol):
    bad, counts, worst = [], {"bitwise": 0, "within": 0, "over": 0, "fault": 0,
                              "missing": 0}, 0.0
    for name in sorted(set(a) | set(b)):
        x, y = a.get(name), b.get(name)
        if x is None or y is None:
            status = "missing"
        elif "fault" in x or "fault" in y:
            status = "bitwise" if x == y else "fault"
            if status == "fault":
                moved = "" if all(x.get(k) == y.get(k) for k in ("t_exit", "point")) else \
                    " (t_exit or point differs)"
                print(f"{name}: fault {x.get('fault', 'value')} {x.get('message', '')!r} "
                      f"-> {y.get('fault', 'value')} {y.get('message', '')!r}{moved}")
        else:
            bitwise, rel = _difference(x, y)
            status = "bitwise" if bitwise else ("within" if rel <= tol else "over")
            if not bitwise:
                worst = max(worst, rel)
                print(f"{name}: largest relative difference {rel:.3g}")
        counts[status] += 1
        if status in ("missing", "fault", "over"):
            bad.append(name)
    print(f"{len(set(a) | set(b))} outputs: {counts['bitwise']} bitwise, {counts['within']} "
          f"within {tol:g} (largest {worst:.3g}), {counts['over']} over, {counts['fault']} "
          f"faults differ, {counts['missing']} missing")
    for name in bad:
        print(f"DIFFERS: {name}")
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rp = sub.add_parser("record", help="write the outputs of this checkout")
    rp.add_argument("out")
    rp.add_argument("--charts", default=",".join(CHARTS),
                    help=f"comma-separated names among {', '.join(CHARTS)}")
    cp = sub.add_parser("compare", help="compare two records")
    cp.add_argument("a")
    cp.add_argument("b")
    cp.add_argument("--tol", type=float, default=0.0,
                    help="largest relative difference allowed (default bitwise)")
    args = ap.parse_args(argv)
    if args.command == "record":
        names = args.charts.split(",")
        unknown = sorted(set(names) - set(CHARTS))
        if unknown:
            ap.error(f"unknown charts {unknown}")
        with open(args.out, "w") as fh:
            json.dump({"schema": SCHEMA, "outputs": record(names)}, fh, indent=0)
        return 0
    docs = []
    for path in (args.a, args.b):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema") != SCHEMA:
            ap.error(f"{path} is not a {SCHEMA} record")
        docs.append(doc["outputs"])
    return compare(*docs, args.tol)


if __name__ == "__main__":
    sys.exit(main())

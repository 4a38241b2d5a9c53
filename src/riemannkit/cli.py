"""Command-line entry point: one subcommand per engine capability.

Reports are JSON documents under schema "riemann-kit/1"; trajectory-like
outputs go to CSV at 17 significant digits. Exit codes: 0 success, 1 engine
error (report carries an error object), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__, comparison, manifold, surfrev, tensor, transport, variation
from .errors import BadDimension, BadParam, RiemannKitError

SCHEMA = "riemann-kit/1"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}: {exc}")


def _params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        key, _, val = item.partition("=")
        if not _:
            raise argparse.ArgumentTypeError(f"bad --param item {item!r}")
        out[key.strip()] = float(val)
    return out


def _f0(text: str) -> float:
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):  # entry by entry where one is not finite
        return obj.tolist() if obj.dtype.kind != "f" or np.isfinite(obj).all() else _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


# vector options that hold a point or tangent vector of the chart
_CHART_VECTORS = ("point", "velocity", "target", "w0", "j0", "j0p")


def _resolve_chart(args) -> manifold.MetricChart:
    if getattr(args, "manifold", None):
        chart = manifold.load_manifold(args.manifold)
    else:
        name = getattr(args, "builtin", None) or "euclidean"
        chart = manifold.builtin(name, getattr(args, "param", None) or {})
    for option in _CHART_VECTORS:
        vec = getattr(args, option, None)
        if vec is not None and len(vec) != chart.dim:
            raise BadDimension(f"--{option} has {len(vec)} components but chart "
                               f"'{chart.label}' has dimension {chart.dim}")
    return chart


def _settings(args) -> transport.OdeSettings:
    return transport.OdeSettings(step=getattr(args, "step", 1e-3))


def _emit(args, payload: dict, command: str) -> None:
    doc = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "seed": int(getattr(args, "seed", 0)),
        "settings": _jsonable({
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "output") and not callable(v)
        }),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    doc.update(_jsonable(payload))
    _write(args, doc)


def _write(args, report: dict) -> None:
    """Write a report as indented JSON to ``--output``, or else to stdout."""
    text = json.dumps(report, indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _maybe_print_manifold(args, chart) -> dict:
    extra = {}
    if getattr(args, "print_manifold", False):
        extra["manifold"] = chart.source or {"label": chart.label}
    return extra


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_curvature(args):
    chart = _resolve_chart(args)
    p = args.point
    md = manifold.metric_at(chart, p)
    R = tensor.curvature(chart, p)
    ric = tensor.ricci(R, md.g)
    planes = {}
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            ei = np.zeros(chart.dim); ei[i] = 1.0
            ej = np.zeros(chart.dim); ej[j] = 1.0
            planes[f"{chart.coords[i]}^{chart.coords[j]}"] = tensor.sectional(R, md.g, ei, ej)
    payload = {
        "point": p,
        "metric": md.g,
        "christoffel": tensor.christoffel(chart, p).gamma,
        "sectional": planes,
        "ricci": ric.ric,
        "scalar": ric.scalar,
        "symmetry_residuals": tensor.check_symmetries(R),
        "bianchi_residual": tensor.bianchi_residual(chart, p),
    }
    payload.update(_maybe_print_manifold(args, chart))
    _emit(args, payload, "curvature")
    return 0


def cmd_geodesic(args):
    chart = _resolve_chart(args)
    traj = transport.integrate_geodesic(chart, args.point, args.velocity,
                                        args.tmax, settings=_settings(args))
    if args.csv:
        traj.to_csv(args.csv)
    payload = {
        "endpoint": traj.x[-1], "end_velocity": traj.v[-1],
        "speed_drift": traj.speed_drift, "samples": len(traj.t),
        "csv": args.csv,
    }
    payload.update(_maybe_print_manifold(args, chart))
    _emit(args, payload, "geodesic")
    return 0


def cmd_transport(args):
    chart = _resolve_chart(args)
    traj = transport.integrate_geodesic(chart, args.point, args.velocity,
                                        args.tmax, settings=_settings(args))
    w = transport.parallel_transport(chart, traj, args.w0)
    n0, nT = manifold.norm(chart, traj.x[0], args.w0), manifold.norm(chart, traj.x[-1], w[-1])
    if args.csv:
        manifold._write_csv(args.csv, ["t"] + [f"w{i+1}" for i in range(chart.dim)],
                            np.column_stack([traj.t, w]))
    _emit(args, {"w_end": w[-1], "norm_start": n0, "norm_end": nT,
                 "norm_drift": abs(nT - n0), "csv": args.csv}, "transport")
    return 0


def cmd_exp(args):
    chart = _resolve_chart(args)
    q = transport.exp_map(chart, args.point, args.velocity,
                          settings=_settings(args))
    _emit(args, {"endpoint": q}, "exp")
    return 0


def cmd_log(args):
    chart = _resolve_chart(args)
    v = transport.log_map(chart, args.point, args.target)
    q = transport.exp_map(chart, args.point, v)
    _emit(args, {"velocity": v,
                 "residual": float(np.linalg.norm(q - args.target))}, "log")
    return 0


def _load_curve_csv(path: str, n: int) -> manifold.SampledCurve:
    """The curve of the columns t, x1..xn of a CSV file with a header line;
    later columns, such as the velocities and frame of ``geodesic --csv``,
    are ignored."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise BadParam(f"cannot read curve CSV {path}: {exc}") from None
    if data.shape[1] < n + 1:
        raise BadDimension(f"curve CSV {path} has {data.shape[1] - 1} coordinate "
                           f"columns but the chart has dimension {n}")
    return manifold.SampledCurve(data[:, 0], data[:, 1:n + 1])


def cmd_develop(args):
    chart = _resolve_chart(args)
    if args.curve_csv:
        curve = _load_curve_csv(args.curve_csv, chart.dim)
    else:
        traj = transport.integrate_geodesic(chart, args.point, args.velocity,
                                            args.tmax, settings=_settings(args))
        curve = traj.as_curve()
    dev = transport.develop(chart, curve)
    P = dev.points
    if args.csv:
        manifold._write_csv(args.csv, ["t"] + [f"s{i+1}" for i in range(chart.dim)],
                            np.column_stack([dev.t, P]))
    end = P[-1]
    d = end / np.linalg.norm(end) if np.linalg.norm(end) > 0 else end
    straight = float(np.max(np.abs(P - np.outer(P @ d, d)))) if np.linalg.norm(end) > 0 else 0.0
    _emit(args, {"end": end, "length_estimate": float(np.sum(
        np.linalg.norm(np.diff(P, axis=0), axis=1))),
        "straightness_residual": straight, "csv": args.csv}, "develop")
    return 0


def cmd_jacobi(args):
    chart = _resolve_chart(args)
    geo = transport.integrate_geodesic(chart, args.point, args.velocity,
                                       args.tmax, settings=_settings(args))
    sol = variation.jacobi_solve(chart, geo, args.j0, args.j0p)
    norms = np.hypot.reduce(sol.f, axis=1, initial=0.0)  # without overflow where the norm is finite
    if args.csv:
        manifold._write_csv(args.csv, ["t"] + [f"f{i+1}" for i in range(chart.dim)] + ["norm"],
                            np.column_stack([sol.t, sol.f, norms]))
    _emit(args, {"end_components": sol.f[-1], "end_norm": float(norms[-1]),
                 "max_norm": float(np.max(norms)), "csv": args.csv}, "jacobi")
    return 0


def cmd_conjugate(args):
    chart = _resolve_chart(args)
    rep = variation.conjugate_points(chart, args.point, args.velocity,
                                     args.tmax, settings=_settings(args))
    _emit(args, {"conjugate_points": [
        {"t": c.t, "multiplicity": c.multiplicity, "sigma_min": c.sigma_min}
        for c in rep.points]}, "conjugate")
    return 0


def cmd_variation(args):
    chart = _resolve_chart(args)
    geo = transport.integrate_geodesic(chart, args.point, args.velocity,
                                       args.tmax, settings=_settings(args))
    manifold._require_three_samples(geo.t)  # first_variation's check, before f divides by L
    sys_ = variation.jacobi_system(chart, geo)
    L = geo.tmax
    amp = args.amplitude

    def f(t):
        comps = np.zeros(chart.dim)
        comps[0] = amp * math.sin(math.pi * t / L)
        return comps

    V = variation.field_from_function(sys_, f)
    I_VV = variation.index_form(sys_, V)
    Vcoord = np.einsum("tia,ta->ti", geo.frame, V.comps)
    Vcoord[0] = Vcoord[-1] = 0.0
    rect = variation.RectangleSpec(base=geo.as_curve(), V=Vcoord)
    fv = variation.first_variation(chart, rect)
    _emit(args, {"index_form": I_VV,
                 "first_variation": {"analytic": fv.analytic,
                                     "finite_difference": fv.finite_difference,
                                     "mismatch": fv.mismatch}}, "variation")
    return 0


def cmd_riccati(args):
    tr = comparison.riccati_solve(args.H, args.f0, args.tmax, args.step)
    if args.csv:
        tr.to_csv(args.csv)
    _emit(args, {"poles": tr.poles, "samples": int(np.sum(tr.valid)),
                 "csv": args.csv}, "riccati")
    return 0


def cmd_compare(args):
    if args.mode == "driving":
        out = comparison.compare_driving(args.H, args.K, args.f0, args.tmax,
                                         args.step)
        payload = {k: v for k, v in out.items() if not k.startswith("trace")}
    elif args.mode == "value":
        out = comparison.value_compare(args.H, args.f0, args.g0, args.tmax,
                                       args.step)
        payload = {k: v for k, v in out.items() if not k.startswith("trace")}
    else:
        payload = comparison.sturm_check(args.H, args.K, args.tmax, args.step)
    _emit(args, payload, "compare")
    return 0


def cmd_volume(args):
    chart = _resolve_chart(args)
    out = comparison.volume_compare(chart, args.point, args.r, args.kref,
                                    directions=args.directions,
                                    seed=args.seed, jobs=args.jobs)
    out["dets_summary"] = {"min": float(np.min(out["dets"])),
                           "max": float(np.max(out["dets"]))}
    del out["dets"]
    _emit(args, out, "volume")
    return 0


def cmd_surfrev(args):
    for option, count in (("torus", 2), ("classify", 3)):
        if getattr(args, option) is not None and len(getattr(args, option)) != count:
            raise BadParam(f"--{option} takes {count} comma-separated numbers")
    if args.profile:
        prof = surfrev.load_profile(args.profile)
    elif args.torus is None:
        raise BadParam("surfrev needs --profile or --torus")
    else:
        R, r = args.torus
        prof = surfrev.torus_chart(R, r).profile
    payload = {}
    if args.classify is not None:
        payload = surfrev.classify_geodesic(prof, args.classify,
                                            confirm=not args.no_confirm)
    elif args.delta_theta is not None:
        payload = {"c": args.delta_theta,
                   "delta_theta": surfrev.delta_theta(prof, args.delta_theta)}
    elif args.barriers is not None:
        payload = {"c": args.barriers,
                   "barriers": surfrev.barriers(prof, args.barriers)}
    else:
        payload = {"u_range": list(prof.u_range),
                   "gauss_curvature_at_midrange": prof.gauss_curvature(
                       0.5 * (prof.u_range[0] + prof.u_range[1]))}
    _emit(args, payload, "surfrev")
    return 0


def cmd_check(args):
    chart = _resolve_chart(args)
    pts = chart.sample_points(args.samples, args.seed)
    worst = {"symmetry": 0.0, "bianchi": 0.0, "ricci_symmetry": 0.0}
    for p in pts:
        md = manifold.metric_at(chart, p)  # raises on nondefinite metric
        R = tensor.curvature(chart, p)
        res = tensor.check_symmetries(R)
        worst["symmetry"] = max(worst["symmetry"], max(res.values()))
        worst["bianchi"] = max(worst["bianchi"], tensor.bianchi_residual(chart, p))
        ric = tensor.ricci(R, md.g).ric
        worst["ricci_symmetry"] = max(worst["ricci_symmetry"],
                                      float(np.max(np.abs(ric - ric.T))))
    payload = {"points_checked": len(pts), "max_residuals": worst,
               "positive_definite": True}
    payload.update(_maybe_print_manifold(args, chart))
    _emit(args, payload, "check")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_common(sp, chart=True, point=False, velocity=False, tmax=False):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", help="write the JSON report here (default stdout)")
    if chart:
        sp.add_argument("--builtin", help="builtin chart name")
        sp.add_argument("--param", type=_params, default={},
                        help="builtin parameters, e.g. n=2,R=1")
        sp.add_argument("--manifold", help="manifold definition JSON file")
        sp.add_argument("--print-manifold", action="store_true",
                        help="echo the resolved manifold definition")
    if point:
        sp.add_argument("--point", type=_vector, required=True)
    if velocity:
        sp.add_argument("--velocity", type=_vector, required=True)
    if tmax:
        sp.add_argument("--tmax", type=float, required=True)
        sp.add_argument("--step", type=float, default=1e-3)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="riemannkit",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("curvature", help="curvature invariants at a point")
    _add_common(sp, point=True)
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("geodesic", help="integrate a geodesic")
    _add_common(sp, point=True, velocity=True, tmax=True)
    sp.add_argument("--csv", help="trajectory CSV output path")
    sp.set_defaults(func=cmd_geodesic)

    sp = sub.add_parser("transport", help="parallel transport along a geodesic")
    _add_common(sp, point=True, velocity=True, tmax=True)
    sp.add_argument("--w0", type=_vector, required=True)
    sp.add_argument("--csv")
    sp.set_defaults(func=cmd_transport)

    sp = sub.add_parser("exp", help="exponential map")
    _add_common(sp, point=True, velocity=True)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.set_defaults(func=cmd_exp)

    sp = sub.add_parser("log", help="logarithm map by Newton shooting")
    _add_common(sp, point=True)
    sp.add_argument("--target", type=_vector, required=True)
    sp.set_defaults(func=cmd_log)

    sp = sub.add_parser("develop", help="development into the tangent plane")
    _add_common(sp, chart=True)
    sp.add_argument("--point", type=_vector)
    sp.add_argument("--velocity", type=_vector)
    sp.add_argument("--tmax", type=float, default=1.0)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.add_argument("--curve-csv", help="CSV with t,x1..xn columns to develop")
    sp.add_argument("--csv", help="planar curve CSV output path")
    sp.set_defaults(func=cmd_develop)

    sp = sub.add_parser("jacobi", help="solve the Jacobi equation")
    _add_common(sp, point=True, velocity=True, tmax=True)
    sp.add_argument("--j0", type=_vector, required=True)
    sp.add_argument("--j0p", type=_vector, required=True)
    sp.add_argument("--csv")
    sp.set_defaults(func=cmd_jacobi)

    sp = sub.add_parser("conjugate", help="locate conjugate points")
    _add_common(sp, point=True, velocity=True, tmax=True)
    sp.set_defaults(func=cmd_conjugate)

    sp = sub.add_parser("variation", help="index form and first variation")
    _add_common(sp, point=True, velocity=True, tmax=True)
    sp.add_argument("--amplitude", type=float, default=0.5)
    sp.set_defaults(func=cmd_variation)

    sp = sub.add_parser("riccati", help="scalar Riccati trace with poles")
    _add_common(sp, chart=False)
    sp.add_argument("--H", type=float, required=True)
    sp.add_argument("--f0", type=_f0, required=True)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.add_argument("--csv")
    sp.set_defaults(func=cmd_riccati)

    sp = sub.add_parser("compare", help="Riccati/Sturm comparison checks")
    _add_common(sp, chart=False)
    sp.add_argument("--mode", choices=["driving", "value", "sturm"],
                    required=True)
    sp.add_argument("--H", type=float, required=True)
    sp.add_argument("--K", type=float, default=0.0)
    sp.add_argument("--f0", type=_f0, default=0.0)
    sp.add_argument("--g0", type=_f0, default=0.0)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--step", type=float, default=1e-3)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("volume", help="geodesic-sphere volume comparison")
    _add_common(sp, point=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--kref", type=float, required=True)
    sp.add_argument("--directions", type=int)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    sp.set_defaults(func=cmd_volume)

    sp = sub.add_parser("surfrev", help="surface-of-revolution analysis")
    _add_common(sp, chart=False)
    sp.add_argument("--profile", help="profile definition JSON file")
    sp.add_argument("--torus", type=_vector, help="R,r for the builtin torus")
    sp.add_argument("--classify", type=_vector,
                    help="u0,theta0,phi0 initial data to classify")
    sp.add_argument("--delta-theta", type=float, dest="delta_theta")
    sp.add_argument("--barriers", type=float)
    sp.add_argument("--no-confirm", action="store_true")
    sp.set_defaults(func=cmd_surfrev)

    sp = sub.add_parser("check", help="metric/curvature consistency sweep")
    _add_common(sp, chart=True)
    sp.add_argument("--samples", type=int, default=20)
    sp.set_defaults(func=cmd_check)

    return ap


def _attach_negative_values(argv) -> list:
    """Attach a value such as -1,0 or -inf to its option, which argparse reads as a flag."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-(\.?\d|inf|nan)", tok, re.IGNORECASE)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RiemannKitError, OverflowError) as exc:  # an expression's documented overflow
        report = {
            "schema": SCHEMA,
            "version": __version__,
            "command": getattr(args, "command", None),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        extra = {k: _jsonable(v) for k, v in vars(exc).items() if v is not None and k in
                 ("line", "column", "t_exit", "point", "best_residual", "best_value")}
        if extra:
            report["error"].update(extra)
        _write(args, report)
        return 1


if __name__ == "__main__":
    sys.exit(main())

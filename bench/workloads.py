"""The four workloads: seeded operation streams and their oracles.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Operations come in a fixed cycle of
kinds; the parameters of each kind are drawn from a low-discrepancy
sequence (Roberts' R_d) with a seeded offset, so any run covers each
kind's parameter box evenly and two seeds give different inputs with the
same mix.  The library only ever sees the generated inputs: base points,
target points and rectangle bases come from the closed forms in
``oracles``, and every answer is checked against a closed form.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracles as O

STEP = 2e-3  # fixed RK4 step of every fixed-step integration


# ---------------------------------------------------------------------------
# Parameter streams
# ---------------------------------------------------------------------------

def _rd_alpha(dims: int) -> np.ndarray:
    phi = 2.0
    for _ in range(40):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return np.array([phi ** -(i + 1) for i in range(dims)]) % 1.0


class Stream:
    """The j-th draw is frac(offset + j * alpha) in [0, 1)^dims.

    With an rng the offset is seeded; without one it is fixed, which gives
    the size schedule that every seed shares.
    """

    def __init__(self, dims: int, rng: np.random.Generator = None):
        self.alpha = _rd_alpha(dims)
        self.offset = rng.random(dims) if rng is not None else np.full(dims, 0.5)
        self.j = 0

    def draw(self) -> list:
        u = (self.offset + self.j * self.alpha) % 1.0
        self.j += 1
        return list(u)


def _direction(u: list, n: int) -> np.ndarray:
    """Euclidean unit vector from n - 1 uniforms."""
    if n == 2:
        a = 2.0 * math.pi * u[0]
        return np.array([math.cos(a), math.sin(a)])
    z = 2.0 * u[0] - 1.0
    a = 2.0 * math.pi * u[1]
    s = math.sqrt(max(1.0 - z * z, 0.0))
    return np.array([s * math.cos(a), s * math.sin(a), z])


def _ball_point(u: list, n: int, radius: float) -> np.ndarray:
    """Uniform point of the ball of the given radius from n uniforms."""
    return radius * u[n - 1] ** (1.0 / n) * _direction(u, n)


def _unit(model, p, u: list) -> np.ndarray:
    d = _direction(u, len(p))
    return d / O.speed(model.metric, p, d)


def _lerp(a: float, b: float, u: float) -> float:
    return a + (b - a) * u


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str
    chart: str          # key into the workload's chart table, "" for none
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        return f"{self.kind}:{self.chart}" if self.chart else self.kind


@dataclass
class ChartSpec:
    model: object
    builtin: tuple = ()     # (name, params) for manifold.builtin
    doc: dict = None        # manifold JSON definition for chart_from_definition

    def build(self, rk):
        if self.doc is not None:
            return rk.manifold.chart_from_definition(self.doc)
        return rk.manifold.builtin(*self.builtin)


class Failure(Exception):
    """An answer that disagrees with its closed form.

    `defect` names the known seed defect the wrong answer belongs to, or is
    None for a wrong answer of no known class.
    """

    def __init__(self, what: str, defect: str = None):
        super().__init__(what)
        self.defect = defect


def _need(ok: bool, what: str, defect: str = None):
    if not ok:
        raise Failure(what, defect)


# The seed's known defects.  A failure of one of these classes is counted in
# `failed` like any other; a failure of no known class makes a run incorrect.
DEFECT_LOG = "log_map on a sphere: no convergence or a non-minimal geodesic"
DEFECT_POLE = ("fixed-step integration on a sphere near the stereographic pole: "
               "DomainExit, OverflowError or a wrong answer")
DEFECT_MINUS = "cli: a vector with a leading minus is read as a flag (exit 2)"

# (operation kind, model class, exception class) of the known defects that raise
KNOWN_RAISES = {
    ("log", "StereoSphere", "NoConvergence"): DEFECT_LOG,
}

# A fixed-step geodesic counts as near the pole when it comes within this
# angle of it, where |x| reaches about 20 R.  With RK4 at STEP the speed
# drifts past gate 12's 1e-6 from about 0.05 rad on at R = 0.5 (0.04 rad at
# R = 0.6), and the first conjugate point is off by more than 1e-4, or the
# search raises, from about 0.007 rad on; at 0.1 rad the drift is 5.5e-8.
POLE_GAP = 0.1
POLE_KINDS = ("geo", "conj")
POLE_RAISES = ("DomainExit", "OverflowError")  # builtin and expression charts


def _check_geodesic(model, op, traj):
    p, v, T = op.params["p"], op.params["v"], op.params["T"]
    x, w = traj.x[-1], traj.v[-1]
    s0 = O.speed(model.metric, p, v)
    drift = abs(O.speed(model.metric, x, w) - s0)
    _need(drift <= O.TOL_DRIFT, f"speed drift {drift:.3g}")
    if hasattr(model, "killing"):
        kd = O.invariant_drift(model.killing, traj.x, traj.v)
        _need(kd <= O.TOL_DRIFT, f"Clairaut/Killing drift {kd:.3g}")
    if hasattr(model, "dist"):
        err = abs(model.dist(p, x) - T * s0)
        _need(err <= O.TOL_DISTANCE, f"distance error {err:.3g}")


def _run_geo(rk, chart, model, op):
    prm = op.params
    settings = rk.OdeSettings(step=STEP)
    traj = rk.transport.integrate_geodesic(chart, prm["p"], prm["v"], prm["T"],
                                           settings=settings)
    x = traj.x[-1]
    R = rk.tensor.curvature(chart, x)
    n = chart.dim
    e = np.eye(n)
    K = rk.tensor.sectional(R, chart.evaluator.metric(x), e[0], e[n - 1])
    return traj, K


def _check_geo(rk, chart, model, op, out):
    traj, K = out
    _check_geodesic(model, op, traj)
    x = traj.x[-1]
    want = model.K(x) if callable(model.K) else model.K
    _need(abs(K - want) <= O.TOL_SECTIONAL, f"sectional K {K:.12g} != {want:.12g}")


def _run_rkf(rk, chart, model, op):
    prm = op.params
    settings = rk.OdeSettings(method="rkf45_adaptive")
    return rk.transport.integrate_geodesic(chart, prm["p"], prm["v"], prm["T"],
                                           settings=settings, with_frame=False)


def _check_rkf(rk, chart, model, op, traj):
    _check_geodesic(model, op, traj)


def _run_conj(rk, chart, model, op):
    prm = op.params
    return rk.variation.conjugate_points(chart, prm["p"], prm["v"], prm["T"],
                                         settings=rk.OdeSettings(step=STEP))


def _near_pole(model, prm) -> bool:
    """Whether a sphere geodesic from p along v up to T passes near the chart's pole."""
    return model.pole_gap(prm["p"], prm["v"], prm["T"]) <= POLE_GAP


def _check_conj(rk, chart, model, op, rep):
    _need(bool(rep.points), "no conjugate point found")
    first = rep.points[0]
    want = math.pi * model.R
    _need(abs(first.t - want) <= O.TOL_CONJUGATE, f"first conjugate t {first.t:.10g} != pi R")
    _need(first.multiplicity == model.n - 1, f"multiplicity {first.multiplicity} != n - 1")


def _run_log(rk, chart, model, op):
    return rk.transport.log_map(chart, op.params["p"], op.params["q"])


def _check_log(rk, chart, model, op, v):
    p, want, d = op.params["p"], op.params["v"], op.params["d"]
    v = np.asarray(v)
    err = O.speed(model.metric, p, v - want)
    if err <= O.TOL_DISTANCE * max(1.0, d):
        return
    length = O.speed(model.metric, p, v)
    raise Failure(f"log_map error {err:.3g} (g-length {length:.6g}, distance {d:.6g})",
                  DEFECT_LOG if _wraps(model, p, op.params["q"], v, length, d) else None)


def _wraps(model, p, q, v, length, d) -> bool:
    """v is a geodesic from p to q that is not the shortest one.

    On a sphere of radius R every geodesic from p to q has length
    2 pi R k + d or 2 pi R k - d; the shortest is k = 0.
    """
    if not isinstance(model, O.StereoSphere) or length <= d + O.TOL_DISTANCE:
        return False
    tol = O.TOL_DISTANCE * max(1.0, length)
    if model.dist(model.exp(p, v), q) > tol:
        return False
    turn = 2.0 * math.pi * model.R
    k = round(length / turn)
    return min(abs(length - (turn * k + s * d)) for s in (-1.0, 1.0)) <= tol


def _run_vol(rk, chart, model, op):
    prm = op.params
    return rk.comparison.volume_compare(chart, prm["p"], prm["r"], model.K,
                                        directions=prm["directions"], jobs=1)


def _check_vol(rk, chart, model, op, rep):
    want = model.sphere_area(op.params["r"])
    err = abs(rep["area"] - want)
    _need(err <= O.TOL_VOLUME, f"area error {err:.3g}")
    _need(abs(rep["ratio"] - 1.0) <= O.TOL_VOLUME, f"volume ratio {rep['ratio']:.10g}")


def _run_sef(rk, chart, model, op):
    return rk.comparison.scalar_expansion_fit(chart, op.params["p"],
                                              directions=op.params["directions"], jobs=1)


def _check_sef(rk, chart, model, op, rep):
    want = (model.n - 1) * model.K / 6.0
    err = abs(rep["fitted"] - want)
    _need(err <= O.TOL_SCALAR_FIT, f"fitted coefficient error {err:.3g}")


def _run_fv(rk, chart, model, op):
    prm = op.params
    base = rk.manifold.SampledCurve(prm["t"], prm["x"], prm["xv"])
    rect = rk.variation.RectangleSpec(base, prm["V"])
    return rk.variation.first_variation(chart, rect)


def _check_fv(rk, chart, model, op, rep):
    # the base is a geodesic with fixed ends, so dE/dt = 0 in closed form
    _need(rep.mismatch <= O.TOL_VARIATION, f"first-variation mismatch {rep.mismatch:.3g}")
    _need(abs(rep.finite_difference) <= O.TOL_VARIATION,
          f"dE/dt = {rep.finite_difference:.3g}, closed form 0")


KINDS = {
    "geo": (_run_geo, _check_geo),
    "rkf": (_run_rkf, _check_rkf),
    "conj": (_run_conj, _check_conj),
    "log": (_run_log, _check_log),
    "vol": (_run_vol, _check_vol),
    "sef": (_run_sef, _check_sef),
    "fv": (_run_fv, _check_fv),
}


# ---------------------------------------------------------------------------
# Parameter generators per (kind, chart)
# ---------------------------------------------------------------------------

def _start(model, u, radius):
    """Base point in a ball of the chart and a g-unit direction there."""
    n = model.n
    p = _ball_point(u[:n], n, radius)
    return p, _unit(model, p, u[n:2 * n - 1])


def _box_point(u, low, high):
    return np.array([_lerp(a, b, t) for a, b, t in zip(low, high, u)])


def gen_geo(model, u, s):
    if isinstance(model, O.StereoSphere):
        p, v = _start(model, u, model.R)
        T = _lerp(0.2, 0.6, s[0]) * math.pi * model.R
    elif isinstance(model, O.PoincareBall):
        p, v = _start(model, u, 0.5)
        T = _lerp(0.5, 3.0, s[0])
    elif isinstance(model, O.Torus):
        p = _box_point(u[:2], (-math.pi, -math.pi), (math.pi, math.pi))
        v = _unit(model, p, u[2:3])
        T = _lerp(2.0, 12.0, s[0])
    elif isinstance(model, O.Paraboloid):
        p, v = _start(model, u, 1.0)
        T = _lerp(0.5, 2.0, s[0])
    else:  # Horospherical
        p = _box_point(u[:3], (-1, -1, -1), (1, 1, 1))
        v = _unit(model, p, u[3:5])
        T = _lerp(0.3, 1.5, s[0])
    return {"p": p, "v": v, "T": T}


def gen_rkf(model, u, s):
    prm = gen_geo(model, u, s)
    lo, hi = (50.0, 150.0) if isinstance(model, O.Torus) else (10.0, 30.0)
    prm["T"] = _lerp(lo, hi, s[0])
    return prm


def gen_conj(model, u, s):
    p, v = _start(model, u, model.R)
    return {"p": p, "v": v, "T": 1.1 * math.pi * model.R}


HYPERBOLIC_LOG_BOUND = 2.0  # stands in for the (infinite) injectivity radius


def gen_log(model, u, s):
    # The distance sets the Newton work, so it follows the shared schedule.
    # 1 - s[1] puts a run's first three distances at 0.50, 0.93 and 0.36 of
    # the range, so every run has long round trips, where log_map fails.
    frac = 1.0 - s[1]
    if isinstance(model, O.StereoSphere):
        p, w = _start(model, u, model.R)
        d = 0.75 * model.injectivity * frac
    else:
        p, w = _start(model, u, 0.5)
        d = 0.75 * HYPERBOLIC_LOG_BOUND * frac
    return {"p": p, "q": model.exp(p, d * w), "v": d * w, "d": d}


def gen_vol(model, u, s):
    n = model.n
    p = _ball_point(u[:n], n, getattr(model, "R", 0.5))
    return {"p": p, "r": _lerp(0.1, 0.4, s[1]), "directions": int(_lerp(128, 1024, s[0]))}


def gen_sef(model, u, s):
    n = model.n
    p = _ball_point(u[:n], n, getattr(model, "R", 0.5))
    return {"p": p, "directions": int(_lerp(128, 256, s[0]))}


FV_SPACING = 2e-3  # sample spacing of gate 14's rectangles


def gen_fv(model, u, s):
    p, w = _start(model, u, getattr(model, "R", 0.5))
    m = int(_lerp(200, 300, s[0]))
    L = m * FV_SPACING
    t = np.linspace(0.0, L, m + 1)
    x, xv = model.geodesic(p, w, t)
    V = np.zeros_like(x)
    V[:, int(2 * u[5]) % model.n] = _lerp(0.1, 0.2, u[5]) * np.sin(math.pi * t / L)
    return {"t": t, "x": x, "xv": xv, "V": V, "samples": m + 1}


GENERATORS = {"geo": gen_geo, "rkf": gen_rkf, "conj": gen_conj, "log": gen_log,
              "vol": gen_vol, "sef": gen_sef, "fv": gen_fv}
GEOMETRY_DIMS = 6   # seeded uniforms per operation: points, directions, rectangle fields
SIZE_DIMS = 2       # scheduled uniforms per operation: lengths, distances, direction counts


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """A chart table plus an endless cycle of (kind, chart) operations.

    `cycle_seconds` is about the passing-operation time of one cycle at the
    seed commit on a 2-core Xeon VM.  A run of --seconds does
    round(seconds / cycle_seconds) whole cycles, so every run of a workload
    does the same operations whatever the machine's speed at the time.
    """

    name = ""
    cycle: list = []
    cycle_seconds = 1.0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.specs = self.chart_specs()

    def chart_specs(self) -> dict:
        raise NotImplementedError

    def build_charts(self, rk) -> dict:
        return {key: spec.build(rk) for key, spec in self.specs.items()}

    def ops(self):
        """Endless operation stream; the seed draws geometry, a fixed schedule sizes."""
        streams = {}
        for j in itertools.count():
            kind, keys = self.cycle[j % len(self.cycle)]
            keys = (keys,) if isinstance(keys, str) else keys
            if (kind, keys) not in streams:
                streams[kind, keys] = (Stream(GEOMETRY_DIMS, self.rng), Stream(SIZE_DIMS), [0])
            geometry, sizes, seen = streams[kind, keys]
            chart = keys[seen[0] % len(keys)]
            seen[0] += 1
            model = self.specs[chart].model
            yield Op(kind, chart, GENERATORS[kind](model, geometry.draw(), sizes.draw()))

    def execute(self, rk, charts, op):
        """Run one operation; returns the library's result (timed part)."""
        return KINDS[op.kind][0](rk, charts[op.chart], self.specs[op.chart].model, op)

    def check(self, rk, charts, op, out):
        """Raise Failure when the result disagrees with its closed form."""
        KINDS[op.kind][1](rk, charts[op.chart], self.specs[op.chart].model, op, out)

    def input_defect(self, op) -> bool:
        """Whether the input alone triggers a known defect."""
        return False

    def classify(self, op, exc) -> str:
        """The known seed defect a failure belongs to, or None."""
        model = self.specs[op.chart].model
        raised = type(exc).__name__
        if (op.kind in POLE_KINDS and isinstance(model, O.StereoSphere)
                and (isinstance(exc, Failure) or raised in POLE_RAISES)
                and _near_pole(model, op.params)):
            return DEFECT_POLE
        if isinstance(exc, Failure):
            return exc.defect
        return KNOWN_RAISES.get((op.kind, type(model).__name__, raised))


class SingleRay(Workload):
    name = "single_ray"
    cycle_seconds = 3.0

    def chart_specs(self):
        specs = {}
        for i, R in enumerate((0.6, 1.0, 1.5)):
            specs[f"s2_{i}"] = ChartSpec(O.StereoSphere(2, R), ("sphere_stereo", {"n": 2, "R": R}))
            specs[f"s3_{i}"] = ChartSpec(O.StereoSphere(3, R), ("sphere_stereo", {"n": 3, "R": R}))
        specs["h2"] = ChartSpec(O.PoincareBall(2), ("hyperbolic_ball", {"n": 2}))
        specs["h3"] = ChartSpec(O.PoincareBall(3), ("hyperbolic_ball", {"n": 3}))
        specs["torus"] = ChartSpec(O.Torus(2.0, 1.0), ("torus", {"R": 2.0, "r": 1.0}))
        return specs

    S2 = ("s2_0", "s2_1", "s2_2")
    S3 = ("s3_0", "s3_1", "s3_2")
    # two thirds of the operations are plain geodesics, so the median latency
    # falls inside one cluster rather than in the gap between kinds
    cycle = [("geo", S2), ("geo", "h2"), ("conj", S2), ("geo", S3), ("geo", "h3"),
             ("conj", S3), ("geo", "torus"), ("geo", S2), ("conj", S2), ("geo", "h2"),
             ("geo", S3), ("rkf", "torus")]


class RayBatch(Workload):
    name = "ray_batch"
    cycle_seconds = 8.0

    def chart_specs(self):
        return {
            "s2": ChartSpec(O.StereoSphere(2, 1.0), ("sphere_stereo", {"n": 2, "R": 1.0})),
            "s3": ChartSpec(O.StereoSphere(3, 1.0), ("sphere_stereo", {"n": 3, "R": 1.0})),
            "h2": ChartSpec(O.PoincareBall(2), ("hyperbolic_ball", {"n": 2})),
            "h3": ChartSpec(O.PoincareBall(3), ("hyperbolic_ball", {"n": 3})),
        }

    cycle = [("vol", "s2"), ("log", "s2"), ("fv", ("s2", "h2")), ("log", "h2"),
             ("vol", "s3"), ("sef", ("s2", "h2", "s3")), ("log", "s3"),
             ("vol", "h3"), ("log", "h3")]


class ExprChart(Workload):
    name = "expr_chart"
    cycle_seconds = 5.0

    def chart_specs(self):
        specs = {}
        for i, R in enumerate((0.7, 1.2)):
            doc = {"dim": 2, "coords": ["x", "y"], "label": f"sphere_expr(R={R!r})",
                   "metric": O.stereo_sphere_metric(R)}
            specs[f"es2_{i}"] = ChartSpec(O.StereoSphere(2, R), doc=doc)
        specs["par"] = ChartSpec(O.Paraboloid(), doc={
            "dim": 2, "coords": ["x", "y"], "label": "paraboloid",
            "metric": O.Paraboloid.METRIC})
        specs["eh3"] = ChartSpec(O.Horospherical(), doc={
            "dim": 3, "coords": ["x", "y", "z"], "label": "horospherical_H3",
            "metric": O.Horospherical.METRIC})
        return specs

    ES2 = ("es2_0", "es2_1")
    # one conjugate search per cycle keeps the 11th largest latency inside the
    # geodesic cluster instead of on the edge of the conjugate one
    cycle = [("geo", ES2), ("geo", "par"), ("conj", ES2), ("geo", "eh3"),
             ("geo", ES2), ("geo", "par"), ("geo", "eh3"), ("rkf", "par")]


# ---------------------------------------------------------------------------
# The cli workload: subprocess calls of the riemannkit command
# ---------------------------------------------------------------------------

def _leading_minus(arg) -> bool:
    """An argument such as -0.1,0.2 that argparse takes for an option."""
    return len(arg) > 1 and arg[0] == "-" and (arg[1].isdigit() or arg[1] == ".")


def _fmt(values) -> str:
    """A vector in the README's comma form; a leading minus is kept as is."""
    return ",".join(f"{float(x):.12g}" for x in values)


@dataclass
class CliOp:
    kind: str
    argv: list
    expect: dict
    csv: bool = False

    def describe(self) -> str:
        return f"cli.{self.kind}"


class Cli(Workload):
    """Each operation is one `riemannkit <subcommand>` process."""

    name = "cli"
    cycle_seconds = 3.75
    cycle = ["curvature", "exp", "riccati", "compare", "surfrev", "geodesic",
             "conjugate", "check"]

    def chart_specs(self):
        return {
            "s2": ChartSpec(O.StereoSphere(2, 1.0), ("sphere_stereo", {"n": 2, "R": 1.0})),
            "h2": ChartSpec(O.PoincareBall(2), ("hyperbolic_ball", {"n": 2})),
            "torus": ChartSpec(O.Torus(2.0, 1.0), ("torus", {"R": 2.0, "r": 1.0})),
        }

    def ops(self):
        streams = {k: (Stream(GEOMETRY_DIMS, self.rng), Stream(SIZE_DIMS)) for k in self.cycle}
        for j in itertools.count():
            kind = self.cycle[j % len(self.cycle)]
            geometry, sizes = streams[kind]
            yield getattr(self, "_op_" + kind)(geometry.draw(), sizes.draw())

    def input_defect(self, op) -> bool:
        return any(_leading_minus(a) for a in op.argv)

    def classify(self, op, exc) -> str:
        return exc.defect if isinstance(exc, Failure) else None

    @staticmethod
    def _chart_args(u):
        if u < 0.5:
            R = _lerp(0.5, 2.0, 2.0 * u)
            return O.StereoSphere(2, R), ["--builtin", "sphere_stereo", "--param", f"n=2,R={R:.12g}"]
        return O.PoincareBall(2), ["--builtin", "hyperbolic_ball", "--param", "n=2"]

    def _op_curvature(self, u, s):
        model, chart = self._chart_args(u[0])
        p = _ball_point(u[1:3], 2, getattr(model, "R", 0.5))
        return CliOp("curvature", ["curvature", *chart, "--point", _fmt(p)], {"K": model.K})

    def _op_exp(self, u, s):
        model = O.StereoSphere(2, 1.0)
        p, w = _start(model, u, 1.0)
        v = _lerp(0.1, 2.0, s[0]) * w
        return CliOp("exp", ["exp", "--builtin", "sphere_stereo", "--param", "n=2,R=1",
                             "--point", _fmt(p), "--velocity", _fmt(v)],
                     {"model": model, "q": model.exp(p, v)})

    def _op_riccati(self, u, s):
        H = _lerp(0.25, 4.0, u[0])
        k = 1 + int(3 * s[0])
        T = (k + _lerp(0.1, 0.9, s[1])) * math.pi / math.sqrt(H)
        return CliOp("riccati", ["riccati", "--H", f"{H:.12g}", "--f0", "inf",
                                 "--tmax", f"{T:.12g}"],
                     {"poles": [i * math.pi / math.sqrt(H) for i in range(1, k + 1)]})

    def _op_compare(self, u, s):
        H = _lerp(0.5, 4.0, u[0])
        K = H * _lerp(0.2, 0.9, u[1])
        T = 1.25 * math.pi / math.sqrt(K)
        return CliOp("compare", ["compare", "--mode", "sturm", "--H", f"{H:.12g}",
                                 "--K", f"{K:.12g}", "--tmax", f"{T:.12g}"],
                     {"zero_H": math.pi / math.sqrt(H), "zero_K": math.pi / math.sqrt(K)})

    def _op_surfrev(self, u, s):
        torus = O.Torus(2.0, 1.0)
        u0 = _lerp(-math.pi, math.pi, u[0])
        th = _lerp(-math.pi, math.pi, u[1])
        phi = _lerp(0.05, math.pi - 0.05, u[2])
        c = torus.f(u0) * math.sin(phi)
        want = "unbounded" if abs(c) < torus.R - torus.r else "oscillating"
        return CliOp("surfrev", ["surfrev", "--torus", "2,1", "--classify",
                                 _fmt([u0, th, phi]), "--no-confirm"], {"class": want})

    def _op_geodesic(self, u, s):
        model, chart = self._chart_args(u[0])
        p, v = _start(model, u[1:], getattr(model, "R", 0.5))
        inj = getattr(model, "injectivity", 3.0)
        T = _lerp(0.3, 0.9, s[0]) * inj
        near = isinstance(model, O.StereoSphere) and _near_pole(model, {"p": p, "v": v, "T": T})
        return CliOp("geodesic", ["geodesic", *chart, "--point", _fmt(p), "--velocity", _fmt(v),
                                  "--tmax", f"{T:.12g}", "--step", f"{STEP:g}"],
                     {"model": model, "p": p, "T": T, "near_pole": near}, csv=True)

    def _op_conjugate(self, u, s):
        R = _lerp(0.5, 2.0, s[0])
        model = O.StereoSphere(2, R)
        p, v = _start(model, u, R)
        return CliOp("conjugate", ["conjugate", "--builtin", "sphere_stereo", "--param",
                                   f"n=2,R={R:.12g}", "--point", _fmt(p), "--velocity", _fmt(v),
                                   "--tmax", f"{1.1 * math.pi * R:.12g}", "--step", f"{STEP:g}"],
                     {"t": math.pi * R, "near_pole": _near_pole(model, {
                         "p": p, "v": v, "T": 1.1 * math.pi * R})})

    def _op_check(self, u, s):
        model, chart = self._chart_args(u[0])
        samples = int(_lerp(5, 20, s[0]))
        return CliOp("check", ["check", *chart, "--samples", str(samples),
                               "--seed", str(int(1000 * u[2]))], {"samples": samples})

    def check(self, rk, charts, op, out):
        code, report, csv_lines = out
        minus = code == 2 and self.input_defect(op)
        pole = DEFECT_POLE if op.expect.get("near_pole") else None
        _need(code == 0, f"exit code {code}", DEFECT_MINUS if minus else
              pole if code == 1 else None)
        doc = json.loads(report)
        _need(doc.get("schema") == "riemann-kit/1", "missing riemann-kit/1 schema")
        want = op.expect
        if op.kind == "curvature":
            for plane, K in doc["sectional"].items():
                _need(abs(K - want["K"]) <= O.TOL_SECTIONAL, f"sectional {plane} = {K}")
        elif op.kind == "exp":
            err = want["model"].dist(np.array(doc["endpoint"]), want["q"])
            _need(err <= O.TOL_DISTANCE, f"endpoint off by {err:.3g}")
        elif op.kind == "riccati":
            _need(len(doc["poles"]) == len(want["poles"]), f"poles {doc['poles']}")
            for got, exp in zip(doc["poles"], want["poles"]):
                _need(abs(got - exp) <= O.TOL_RICCATI, f"pole {got} != {exp}")
        elif op.kind == "compare":
            for key in ("zero_H", "zero_K"):
                got = doc[key]
                _need(got is not None and abs(got - want[key]) <= O.TOL_RICCATI,
                      f"{key} {got} != {want[key]}")
            _need(doc["ordered"] is True, "Sturm verdict not ordered")
        elif op.kind == "surfrev":
            _need(doc["class"] == want["class"], f"class {doc['class']} != {want['class']}")
        elif op.kind == "geodesic":
            model = want["model"]
            err = abs(model.dist(want["p"], np.array(doc["endpoint"])) - want["T"])
            _need(err <= O.TOL_DISTANCE, f"distance error {err:.3g}", pole)
            _need(doc["speed_drift"] <= O.TOL_DRIFT, f"speed drift {doc['speed_drift']:.3g}",
                  pole)
            _need(csv_lines == doc["samples"] + 1, f"{csv_lines} CSV lines")
        elif op.kind == "conjugate":
            pts = doc["conjugate_points"]
            _need(bool(pts), "no conjugate point", pole)
            _need(abs(pts[0]["t"] - want["t"]) <= O.TOL_CONJUGATE, f"t {pts[0]['t']}", pole)
            _need(pts[0]["multiplicity"] == 1, "multiplicity != 1", pole)
        elif op.kind == "check":
            res = doc["max_residuals"]
            _need(doc["points_checked"] == want["samples"], "points_checked")
            _need(res["symmetry"] <= O.TOL_SYMMETRY, f"symmetry residual {res['symmetry']}")
            _need(res["bianchi"] <= O.TOL_BIANCHI, f"Bianchi residual {res['bianchi']}")


WORKLOADS = {w.name: w for w in (SingleRay, RayBatch, ExprChart, Cli)}

"""Geodesic integration, parallel translation, exp/log, developments.

Default integrator is fixed-step RK4 with cubic-Hermite dense output;
an adaptive RKF45 is available through OdeSettings.method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (BadParam, DomainExit, NoConvergence, StepFault)
from .manifold import (MetricChart, SampledCurve, _hermite, _hermite_deriv,
                       metric_at)
from .tensor import orthonormal_frame


@dataclass(frozen=True)
class OdeSettings:
    method: str = "rk4_fixed"
    step: float = 1e-3
    rtol: float = 1e-9
    atol: float = 1e-11
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.step <= 0 or self.rtol <= 0 or self.atol <= 0:
            raise BadParam("step and tolerances must be positive")
        if self.method not in ("rk4_fixed", "rkf45_adaptive"):
            raise BadParam(f"unknown method {self.method!r}")


DEFAULT_SETTINGS = OdeSettings()


@dataclass
class Trajectory:
    """Time-stamped geodesic (or integral-curve) samples with dense output."""

    chart: MetricChart
    t: np.ndarray
    x: np.ndarray  # (m+1, n)
    v: np.ndarray  # (m+1, n)
    frame: Optional[np.ndarray] = None  # (m+1, n, n), columns parallel
    speed_drift: float = 0.0
    settings: OdeSettings = DEFAULT_SETTINGS

    @property
    def tmax(self) -> float:
        return float(self.t[-1])

    def _segment(self, s: float) -> int:
        k = int(np.searchsorted(self.t, s, side="right")) - 1
        return min(max(k, 0), len(self.t) - 2)

    def position(self, s: float) -> np.ndarray:
        k = self._segment(s)
        return _hermite(self.t[k], self.t[k + 1], self.x[k], self.x[k + 1],
                        self.v[k], self.v[k + 1], s)

    def velocity(self, s: float) -> np.ndarray:
        k = self._segment(s)
        return _hermite_deriv(self.t[k], self.t[k + 1], self.x[k], self.x[k + 1],
                              self.v[k], self.v[k + 1], s)

    def state_at(self, s: float):
        return self.position(s), self.velocity(s)

    def as_curve(self) -> SampledCurve:
        return SampledCurve(self.t.copy(), self.x.copy(), self.v.copy())

    def to_csv(self, path: str):
        n = self.x.shape[1]
        cols = ["t"] + [f"x{i+1}" for i in range(n)] + [f"v{i+1}" for i in range(n)]
        rows = [self.t[:, None], self.x, self.v]
        if self.frame is not None:
            for a in range(n):
                cols += [f"e{a+1}_{i+1}" for i in range(n)]
            rows.append(self.frame.transpose(0, 2, 1).reshape(len(self.t), n * n))
        data = np.hstack(rows)
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in data:
                fh.write(",".join(f"{val:.17g}" for val in row) + "\n")


# ---------------------------------------------------------------------------
# Core steppers
# ---------------------------------------------------------------------------

def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_path(rhs, y0: np.ndarray, ts: np.ndarray, substeps: int = 1,
             guard: Optional[Callable] = None):
    """Integrate across the sample grid ``ts``; returns y at every grid time.

    ``guard(t, y)`` may raise to stop integration (domain checks).
    """
    ys = np.empty((len(ts), len(y0)))
    ys[0] = y0
    y = np.asarray(y0, dtype=float)
    for i in range(len(ts) - 1):
        h = (ts[i + 1] - ts[i]) / substeps
        t = ts[i]
        for _ in range(substeps):
            y = _rk4_step(rhs, t, y, h)
            t += h
        if guard is not None:
            guard(ts[i + 1], y, ys[: i + 1], ts[: i + 1])
        ys[i + 1] = y
    return ys


# Fehlberg 4(5) coefficients
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8, 3680 / 513, -845 / 4104),
    (-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_C = (0, 1 / 4, 3 / 8, 12 / 13, 1, 1 / 2)
_RKF_B5 = (16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0)


def _rkf45(rhs, y0, t0, t1, settings: OdeSettings, guard=None):
    t = t0
    y = np.asarray(y0, dtype=float)
    h = min(settings.step, t1 - t0)
    ts = [t0]
    ys = [y.copy()]
    steps = 0
    while t < t1 - 1e-15:
        if steps > settings.max_steps:
            raise StepFault("rkf45: max_steps exceeded")
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t1)):
            raise StepFault("rkf45: step size underflow")
        ks = []
        for row, c in zip(_RKF_A, _RKF_C):
            yi = y + h * sum(a * k for a, k in zip(row, ks)) if row else y
            ks.append(rhs(t + c * h, yi))
        y5 = y + h * sum(b * k for b, k in zip(_RKF_B5, ks))
        y4 = y + h * sum(b * k for b, k in zip(_RKF_B4, ks))
        err = float(np.max(np.abs(y5 - y4) / (settings.atol + settings.rtol * np.maximum(np.abs(y), np.abs(y5)))))
        if err <= 1.0:
            t += h
            y = y5
            if guard is not None:
                guard(t, y, ys, ts)
            ts.append(t)
            ys.append(y.copy())
            steps += 1
        h *= min(4.0, max(0.1, 0.9 * (max(err, 1e-16)) ** -0.2))
    return np.array(ts), np.array(ys)


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

def initial_frame(chart: MetricChart, p, v=None) -> np.ndarray:
    """g-orthonormal frame; when v is nonzero the last column points along v."""
    g = chart.evaluator.metric(np.asarray(p, dtype=float))
    B = orthonormal_frame(g)
    if v is None:
        return B
    v = np.asarray(v, dtype=float)
    speed2 = float(v @ g @ v)
    if speed2 <= 0.0:
        return B
    u = v / math.sqrt(speed2)
    cols = [u]
    for k in range(chart.dim):
        cand = B[:, k]
        for c in cols:
            cand = cand - float(c @ g @ cand) * c
        nrm2 = float(cand @ g @ cand)
        if nrm2 > 1e-20:
            cols.append(cand / math.sqrt(nrm2))
        if len(cols) == chart.dim:
            break
    # tangent direction last
    return np.column_stack(cols[1:] + [u])


def _geodesic_rhs(chart: MetricChart, n: int, with_frame: bool):
    ev = chart.evaluator

    def rhs(t, y):
        x = y[:n]
        v = y[n:2 * n]
        G = ev.gamma(x)
        a = -np.einsum("ijk,j,k->i", G, v, v)
        out = np.empty_like(y)
        out[:n] = v
        out[n:2 * n] = a
        if with_frame:
            E = y[2 * n:].reshape(n, n)
            out[2 * n:] = (-np.einsum("ijk,j,ka->ia", G, v, E)).ravel()
        return out

    return rhs


def _domain_guard(chart: MetricChart, n: int):
    # the samples so far come as arrays (RK4) or lists (RKF45); they are
    # copied into the partial trajectory only when the guard raises
    def guard(t, y, ys_so_far, ts_so_far):
        x = y[:n]
        if not chart.contains(x):
            ys_so_far = np.asarray(ys_so_far)
            traj = Trajectory(chart=chart,
                              t=np.array(ts_so_far, dtype=float),
                              x=ys_so_far[:, :n].copy(),
                              v=ys_so_far[:, n:2 * n].copy())
            raise DomainExit(f"left chart domain near t={t:.6g}", t_exit=float(t),
                             trajectory=traj, point=x.copy())
    return guard


def integrate_geodesic(chart: MetricChart, p, v, tmax: float,
                       settings: OdeSettings = DEFAULT_SETTINGS,
                       with_frame: bool = True) -> Trajectory:
    """Integrate the geodesic ODE from (p, v) on [0, tmax]."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    n = chart.dim
    chart.require_inside(p)
    if tmax < 0:
        raise BadParam("tmax must be nonnegative")

    y0 = np.concatenate([p, v])
    E0 = None
    if with_frame:
        E0 = initial_frame(chart, p, v if np.any(v) else None)
        y0 = np.concatenate([y0, E0.ravel()])
    rhs = _geodesic_rhs(chart, n, with_frame)
    guard = _domain_guard(chart, n)

    if tmax == 0.0:
        ts = np.array([0.0])
        ys = y0[None, :]
    elif settings.method == "rk4_fixed":
        n_steps = max(1, int(math.ceil(tmax / settings.step - 1e-12)))
        if n_steps > settings.max_steps:
            raise StepFault("rk4_fixed: max_steps exceeded")
        ts = np.linspace(0.0, tmax, n_steps + 1)
        ys = rk4_path(rhs, y0, ts, guard=guard)
    else:
        ts, ys = _rkf45(rhs, y0, 0.0, tmax, settings, guard=guard)

    x = ys[:, :n]
    vel = ys[:, n:2 * n]
    frame = ys[:, 2 * n:].reshape(-1, n, n) if with_frame else None
    speeds = np.array([math.sqrt(max(float(vel[i] @ chart.evaluator.metric(x[i]) @ vel[i]), 0.0))
                       for i in range(0, len(ts), max(1, len(ts) // 200))])
    drift = float(np.max(np.abs(speeds - speeds[0]))) if len(speeds) else 0.0
    return Trajectory(chart=chart, t=ts, x=x, v=vel, frame=frame,
                      speed_drift=drift, settings=settings)


# ---------------------------------------------------------------------------
# Parallel transport along arbitrary sampled curves
# ---------------------------------------------------------------------------

def _transport_matrix_along(chart: MetricChart, curve, W0: np.ndarray,
                            substeps: int = 4) -> np.ndarray:
    """Transport the columns of W0 along a curve with position/velocity."""
    n = chart.dim
    ev = chart.evaluator

    def rhs(t, y):
        x = curve.position(t)
        v = curve.velocity(t)
        G = ev.gamma(x)
        W = y.reshape(n, -1)
        return (-np.einsum("ijk,j,ka->ia", G, v, W)).ravel()

    ts = np.asarray(curve.t, dtype=float)
    ys = rk4_path(rhs, np.asarray(W0, dtype=float).ravel(), ts, substeps=substeps)
    return ys.reshape(len(ts), n, -1)


def parallel_transport(chart: MetricChart, traj, w0, substeps: int = 4) -> np.ndarray:
    """Components of the parallel translate of w0 at every sample of traj."""
    w0 = np.asarray(w0, dtype=float)
    out = _transport_matrix_along(chart, traj, w0[:, None], substeps=substeps)
    return out[:, :, 0]


# ---------------------------------------------------------------------------
# Exponential and logarithm maps
# ---------------------------------------------------------------------------

def exp_map(chart: MetricChart, p, v, settings: OdeSettings = DEFAULT_SETTINGS) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        chart.require_inside(p)
        return p.copy()
    traj = integrate_geodesic(chart, p, v, 1.0, settings=settings, with_frame=False)
    return traj.x[-1].copy()


LOG_SETTINGS = OdeSettings(step=2e-3)


def log_map(chart: MetricChart, p, q, frame=None,
            settings: OdeSettings = LOG_SETTINGS, max_iter: int = 50,
            tol: float = 1e-10) -> np.ndarray:
    """Initial velocity v with exp_p(v) = q, by Newton shooting with FD Jacobian."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = chart.dim
    if np.allclose(p, q):
        return np.zeros(n)
    v = q - p
    scale = max(1.0, float(np.linalg.norm(v)))
    best_v, best_res = v.copy(), math.inf
    J = None
    for it in range(max_iter):
        try:
            r = exp_map(chart, p, v, settings=settings) - q
        except DomainExit:
            v = 0.5 * (v + best_v) if best_res < math.inf else 0.5 * v
            continue
        res = float(np.linalg.norm(r))
        if res < best_res:
            best_res, best_v = res, v.copy()
        if res <= tol * scale:
            return v
        if J is None or it % 2 == 0:
            h = 1e-6 * max(1.0, float(np.linalg.norm(v)))
            J = np.empty((n, n))
            for k in range(n):
                dv = np.zeros(n)
                dv[k] = h
                try:
                    rp = exp_map(chart, p, v + dv, settings=settings) - q
                    rm = exp_map(chart, p, v - dv, settings=settings) - q
                except DomainExit:
                    raise NoConvergence("log_map: FD stencil left domain",
                                        best_residual=best_res, best_value=best_v)
                J[:, k] = (rp - rm) / (2.0 * h)
        try:
            delta = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            raise NoConvergence("log_map: singular shooting Jacobian",
                                best_residual=best_res, best_value=best_v)
        step_scale = 1.0
        nd = float(np.linalg.norm(delta))
        if nd > 2.0 * scale:
            step_scale = 2.0 * scale / nd
        v = v - step_scale * delta
    raise NoConvergence(f"log_map: no convergence in {max_iter} iterations",
                        best_residual=best_res, best_value=best_v)


def normal_coordinates(chart: MetricChart, p, q, frame=None,
                       settings: OdeSettings = LOG_SETTINGS) -> np.ndarray:
    """Components of log_p(q) in a g-orthonormal frame at p."""
    p = np.asarray(p, dtype=float)
    B = initial_frame(chart, p) if frame is None else np.asarray(frame, dtype=float)
    v = log_map(chart, p, q, settings=settings)
    return np.linalg.solve(B, v)


# ---------------------------------------------------------------------------
# Development and reverse development
# ---------------------------------------------------------------------------

def develop(chart: MetricChart, curve: SampledCurve, frame=None,
            substeps: int = 4) -> SampledCurve:
    """Development of a curve into Euclidean space.

    The planar curve carries components w.r.t. the parallel translate of a
    g-orthonormal frame at the start, so its Euclidean geometry (length,
    curvature, straightness) matches the intrinsic geometry of the input;
    choosing a different frame rotates the result by a fixed isometry.
    """
    curve.ensure_velocities()
    n = chart.dim
    p0 = curve.points[0]
    B0 = initial_frame(chart, p0) if frame is None else np.asarray(frame, dtype=float)
    ev = chart.evaluator

    def rhs(t, y):
        E = y[:n * n].reshape(n, n)
        x = curve.position(t)
        v = curve.velocity(t)
        G = ev.gamma(x)
        dE = -np.einsum("ijk,j,ka->ia", G, v, E)
        dsig = np.linalg.solve(E, v)
        return np.concatenate([dE.ravel(), dsig])

    y0 = np.concatenate([B0.ravel(), np.zeros(n)])
    ys = rk4_path(rhs, y0, curve.t, substeps=substeps)
    sigma = ys[:, n * n:]
    # velocities of the development, for downstream interpolation
    dsig = np.empty_like(sigma)
    for i, t in enumerate(curve.t):
        E = ys[i, :n * n].reshape(n, n)
        dsig[i] = np.linalg.solve(E, curve.velocities[i])
    return SampledCurve(curve.t.copy(), sigma, dsig)


def reverse_develop(chart: MetricChart, sigma: SampledCurve, p, frame=None,
                    substeps: int = 4) -> SampledCurve:
    """Curve in the chart whose development is the given planar curve."""
    sigma.ensure_velocities()
    if float(np.linalg.norm(sigma.points[0])) > 1e-12:
        raise BadParam("reverse_develop: sigma must start at the origin")
    p = np.asarray(p, dtype=float)
    n = chart.dim
    chart.require_inside(p)
    B0 = initial_frame(chart, p) if frame is None else np.asarray(frame, dtype=float)
    ev = chart.evaluator

    def rhs(t, y):
        x = y[:n]
        E = y[n:].reshape(n, n)
        v = E @ sigma.velocity(t)
        G = ev.gamma(x)
        dE = -np.einsum("ijk,j,ka->ia", G, v, E)
        return np.concatenate([v, dE.ravel()])

    def guard(t, y, ys_so_far, ts_so_far):
        if not chart.contains(y[:n]):
            raise DomainExit(f"reverse development left chart near t={t:.6g}",
                             t_exit=float(t), point=y[:n].copy())

    y0 = np.concatenate([p, B0.ravel()])
    ys = rk4_path(rhs, y0, sigma.t, substeps=substeps, guard=guard)
    points = ys[:, :n]
    vels = np.empty_like(points)
    for i, t in enumerate(sigma.t):
        E = ys[i, n:].reshape(n, n)
        vels[i] = E @ sigma.velocity(t)
    return SampledCurve(sigma.t.copy(), points, vels)


# ---------------------------------------------------------------------------
# Two-point candidate geodesics
# ---------------------------------------------------------------------------

def shortest_geodesic(chart: MetricChart, p, q, tries: int = 8, seed: int = 0,
                      settings: OdeSettings = LOG_SETTINGS):
    """Best converged connecting geodesic among multi-start shooting attempts.

    The result is a candidate minimizer only; no global claim is made.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.allclose(p, q):
        traj = integrate_geodesic(chart, p, np.zeros(chart.dim), 0.0,
                                  settings=settings)
        return traj, 0.0
    rng = np.random.default_rng(seed)
    md = metric_at(chart, p)
    best = None
    base = q - p
    for k in range(max(1, tries)):
        if k == 0:
            guess = base
        else:
            guess = base * rng.uniform(0.3, 1.5) + rng.normal(0.0, 0.2 * np.linalg.norm(base), chart.dim)
        try:
            r0 = exp_map(chart, p, guess, settings=settings) - q
            v = log_map(chart, p, q, settings=settings) if k == 0 else _polish(chart, p, q, guess, settings)
        except (NoConvergence, DomainExit):
            continue
        length = math.sqrt(max(float(v @ md.g @ v), 0.0))
        if best is None or length < best[1]:
            best = (v, length)
    if best is None:
        raise NoConvergence("shortest_geodesic: no shooting start converged")
    v, length = best
    traj = integrate_geodesic(chart, p, v, 1.0, settings=settings)
    return traj, length


def _polish(chart, p, q, guess, settings):
    # rerun the Newton solve from a specific starting velocity
    n = chart.dim
    v = np.asarray(guess, dtype=float)
    scale = max(1.0, float(np.linalg.norm(q - p)))
    for it in range(50):
        r = exp_map(chart, p, v, settings=settings) - q
        if float(np.linalg.norm(r)) <= 1e-10 * scale:
            return v
        h = 1e-6 * max(1.0, float(np.linalg.norm(v)))
        J = np.empty((n, n))
        for k in range(n):
            dv = np.zeros(n)
            dv[k] = h
            J[:, k] = (exp_map(chart, p, v + dv, settings=settings)
                       - exp_map(chart, p, v - dv, settings=settings)) / (2.0 * h)
        v = v - np.linalg.solve(J, r)
    raise NoConvergence("polish: no convergence")

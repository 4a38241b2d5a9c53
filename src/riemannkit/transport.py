"""Geodesic integration, parallel translation, exp/log, developments.

Default integrator is fixed-step RK4 with cubic-Hermite dense output;
an adaptive RKF45 is available through OdeSettings.method.  Both step an
unframed geodesic's (x, v) on Python floats with the evaluator's geodesic
spray Gamma(v, v) and check the chart domain once per block of steps.

A fixed-step framed geodesic runs in two passes.  The nonlinear one is
that float loop, which also records every RK4 stage.  The linear one then
carries the parallel frame.  Every linear equation along a known curve is
solved so (the frame, a transported vector, a development's coframe,
``variation``'s Jacobi fields): C from one ``connection_batch`` at all
stage points gives one RK4 transition matrix per step (``_transition``),
chained by ``_advance``.  A framed RKF45 geodesic, whose error norm covers
the frame, integrates the coupled numpy state of ``_geodesic_rhs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .errors import (_POINT_FAULTS, BadDimension, BadParam, DomainExit,
                     NoConvergence, SingularMetric, StepFault)
from .manifold import MetricChart, SampledCurve, _dense, _write_csv, metric_at
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

    def position(self, s: float) -> np.ndarray:
        return _dense(self.t, self.x, s, self.v)

    def velocity(self, s: float) -> np.ndarray:
        return _dense(self.t, self.x, s, self.v, deriv=True)

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
        _write_csv(path, cols, np.hstack(rows))


# ---------------------------------------------------------------------------
# Core steppers
# ---------------------------------------------------------------------------

def _rk4_step(rhs, t, y, h, k1=None):
    """One RK4 step; ``k1``, when given, is rhs(t, y) already evaluated."""
    if k1 is None:
        k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_path(rhs, y0: np.ndarray, ts: np.ndarray, substeps: int = 1,
             guard: Optional[Callable] = None):
    """Integrate across the sample grid ``ts``; returns y at every grid time
    (the nonlinear equations of ``_integrate`` and ``reverse_develop``).

    ``guard(t, y, ys, ts)`` may raise to stop integration (domain checks).
    A ``DomainFault`` or ``SingularMetric`` from ``rhs`` is handed to it as
    ``fault=`` with the samples before the failing step, for context, and
    then raised again.
    """
    ys = np.empty((len(ts), len(y0)))
    ys[0] = y0
    y = np.asarray(y0, dtype=float)
    try:
        for i in range(len(ts) - 1):
            h = (ts[i + 1] - ts[i]) / substeps
            t = ts[i]
            for _ in range(substeps):
                y = _rk4_step(rhs, t, y, h)
                t += h
            if guard is not None:
                guard(ts[i + 1], y, ys[: i + 1], ts[: i + 1])
            ys[i + 1] = y
    except _POINT_FAULTS as exc:
        if guard is not None:
            guard(t, y, ys[: i + 1], ts[: i + 1], fault=exc)
        raise
    return ys


# Fehlberg 4(5) coefficients; row s of _RKF_A weighs the stages before s
_RKF_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 4, 0, 0, 0, 0],
    [3 / 32, 9 / 32, 0, 0, 0],
    [1932 / 2197, -7200 / 2197, 7296 / 2197, 0, 0],
    [439 / 216, -8, 3680 / 513, -845 / 4104, 0],
    [-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40],
])
_RKF_C = (0, 1 / 4, 3 / 8, 12 / 13, 1, 1 / 2)
_RKF_B5 = np.array([16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
_RKF_ERR = _RKF_B5 - np.array([25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0])  # minus B4


def _rkf45_steps(trial, y, t1: float, settings: OdeSettings):
    """The accepted (t, y) of RKF45 from y at t = 0 to t1.  ``trial(t, y, h)``
    gives the fifth-order end y5 of a step and its error norm, at most 1 to
    accept, max_j |y5_j - y4_j| / (atol + rtol max(|y_j|, |y5_j|)); the next h
    is h 0.9 norm^(-1/5) clamped to [0.1, 4] (Hairer, Norsett and Wanner,
    Solving ODEs I, II.4), so a NaN norm, rejected, cuts h tenfold."""
    t, h, steps = 0.0, min(settings.step, t1), 0
    while t < t1 - 1e-15:
        if steps > settings.max_steps:
            raise StepFault("rkf45: max_steps exceeded")
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t1)):
            raise StepFault("rkf45: step size underflow")
        y5, err = trial(t, y, h)
        if err <= 1.0:
            t, y, steps = t + h, y5, steps + 1
            yield t, y
        h *= min(4.0, max(0.1, 0.9 * (max(err, 1e-16)) ** -0.2))


def _rkf45(rhs, y0, t1: float, settings: OdeSettings, guard=None):
    """Sample times and states of RKF45 for y' = rhs(t, y) on [0, t1]."""
    def trial(t, y, h):
        K = np.empty((6, len(y)))  # the stages' slopes
        K[0] = rhs(t, y)
        for s in range(1, 6):
            K[s] = rhs(t + _RKF_C[s] * h, y + h * (_RKF_A[s, :s] @ K[:s]))
        y5 = y + h * (_RKF_B5 @ K)
        scale = settings.atol + settings.rtol * np.maximum(np.abs(y), np.abs(y5))
        return y5, float(np.max(np.abs(h * (_RKF_ERR @ K)) / scale))

    ts, ys = [0.0], [np.array(y0, dtype=float)]
    try:
        for t, y in _rkf45_steps(trial, ys[0], t1, settings):
            if guard is not None:
                guard(t, y, ys, ts)
            ts.append(t)
            ys.append(y)
    except _POINT_FAULTS as exc:
        if guard is not None:
            guard(ts[-1], ys[-1], ys, ts, fault=exc)
        raise
    return np.array(ts), np.array(ys)


def _fixed_grid(tmax: float, settings: OdeSettings) -> np.ndarray:
    """The sample times of fixed-step RK4 on [0, tmax]."""
    if tmax == 0.0:
        return np.array([0.0])
    n_steps = max(1, int(math.ceil(tmax / settings.step - 1e-12)))
    if n_steps > settings.max_steps:
        raise StepFault("rk4_fixed: max_steps exceeded")
    return np.linspace(0.0, tmax, n_steps + 1)


def _integrate(rhs, y0, tmax: float, settings: OdeSettings, guard):
    """Sample times and states of y' = rhs(t, y) on [0, tmax] under ``settings``."""
    if settings.method == "rk4_fixed":
        ts = _fixed_grid(tmax, settings)
        return ts, rk4_path(rhs, y0, ts, guard=guard)
    return _rkf45(rhs, y0, tmax, settings, guard=guard)


def _transition(A, h) -> np.ndarray:
    """RK4 transition matrices (B, k, k) of the linear equation y' = A(t) y.

    A[s] (B, k, k) is A at stage s = 0..3 of step b, of width h[b] (< 0
    steps backward): at the start of the step, twice at RK4's two middle
    stage points, and at its end.  Row b maps y at the start of step b to
    one RK4 step of y' = A y from there.
    """
    hb = np.reshape(h, (-1, 1, 1))
    eye = np.eye(A[0].shape[-1])
    K1 = A[0]
    K2 = A[1] @ (eye + (0.5 * hb) * K1)
    K3 = A[2] @ (eye + (0.5 * hb) * K2)
    K4 = A[3] @ (eye + hb * K3)
    return eye + (hb / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


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
    if float(v @ g @ v) <= 0.0:
        return B
    return _adapted_frames(g, B, v[None])[0]


def _adapted_frames(g: np.ndarray, B: np.ndarray, V: np.ndarray) -> np.ndarray:
    """One g-orthonormal frame per nonzero row of V, its last column along it.

    Gram-Schmidt of (V[b], B[:, 0], B[:, 1], ...) against the shared g, run
    on all rows at once; a candidate within 1e-20 (squared g-norm) of the
    span so far is skipped.
    """
    N, n = V.shape
    U = V / np.sqrt(((V @ g) * V).sum(axis=1))[:, None]
    cols = np.zeros((N, n, n))  # accepted columns in order; unfilled ones are 0
    cols[:, :, 0] = U
    count = np.ones(N, dtype=int)
    rows = np.arange(N)
    for k in range(n):
        if (count == n).all():
            break
        cand = B[:, k]  # broadcast to (N, n) by the first projection
        for c in range(k + 1):  # before candidate k at most k + 1 columns are filled
            C = cols[:, :, c]
            cand = cand - ((C @ g) * cand).sum(axis=1)[:, None] * C
        nrm2 = ((cand @ g) * cand).sum(axis=1)
        take = (nrm2 > 1e-20) & (count < n)
        cols[rows[take], :, count[take]] = cand[take] / np.sqrt(nrm2[take])[:, None]
        count += take
    # tangent direction last
    return np.concatenate([cols[:, :, 1:], cols[:, :, :1]], axis=2)


def _geodesic_rhs(chart: MetricChart, n: int):
    """y' = (v, -C v, -C e_1, ..., -C e_n) with C = Gamma(v, .), for the state
    y = (x, v, e_1, ..., e_n) that holds the frame vectors one after another."""
    connection = chart.evaluator.connection

    def rhs(t, y):
        x = y[:n]
        try:
            C = connection(x, y[n:2 * n])
        except _POINT_FAULTS as exc:
            exc.t_exit, exc.point = float(t), x.copy()
            raise
        out = np.empty_like(y)
        out[:n] = y[n:2 * n]
        out[n:] = y[n:].reshape(-1, n).dot(-C.T).ravel()  # rows v, e_a -> -C v, -C e_a
        return out

    return rhs


def _domain_guard(chart: MetricChart, n: int):
    # the samples so far come as arrays (RK4) or lists (RKF45); they are
    # copied into the partial trajectory only when the guard raises, or
    # when a fault of the right-hand side (which set its t_exit and point)
    # is handed in
    def guard(t, y, ys_so_far, ts_so_far, fault=None):
        x = y[:n]
        if fault is None and chart.contains(x):
            return
        ys_so_far = np.asarray(ys_so_far)
        traj = Trajectory(chart=chart,
                          t=np.array(ts_so_far, dtype=float),
                          x=ys_so_far[:, :n].copy(),
                          v=ys_so_far[:, n:2 * n].copy())
        if fault is not None:
            fault.trajectory = traj
            return
        raise DomainExit(f"left chart domain near t={t:.6g}", t_exit=float(t),
                         trajectory=traj, point=x.copy())
    return guard


CHECK_EVERY = 64  # float steps between two domain checks of a geodesic
TRANSITION_BLOCK = 512  # steps per batch of transition matrices; bounds the temporaries
# what a spray can raise, also at the points past the chart's edge that the
# float loops reach before their next domain check, and RKF45's step faults
_STEP_FAULTS = (*_POINT_FAULTS, StepFault, ArithmeticError, ValueError)


def _end_block(chart: MetricChart, ts, rows, lo: int, hi: int, fault):
    """Check the samples lo..hi-1 that a block of float geodesic steps added,
    and raise what the block ended in: DomainExit at the first of them outside
    the chart, as a per-sample guard would, else the exception it stopped on.
    A DomainFault or SingularMetric gets the samples up to its step; ``rows(i,
    j)`` is (x, v) at samples i..j-1, shape (j - i, 2n).
    """
    def samples(j):
        Y = rows(0, j)
        return Trajectory(chart, np.array(ts[:j], dtype=float), Y[:, :n].copy(), Y[:, n:].copy())

    n = chart.dim
    X = rows(lo, hi)[:, :n]
    inside = chart.inside(X)
    if not inside.all():
        j = lo + int(np.argmin(inside))
        raise DomainExit(f"left chart domain near t={ts[j]:.6g}", t_exit=float(ts[j]),
                         point=X[j - lo].copy(), trajectory=samples(j)) from None
    if fault is not None:
        if isinstance(fault, _POINT_FAULTS):
            fault.trajectory = samples(hi)
        raise fault


def _spray_stages(chart: MetricChart, p, v, ts: np.ndarray) -> np.ndarray:
    """Fixed-step RK4 of x' = v, v' = -Gamma(v, v) on the grid ts, in floats.

    Returns S of shape (m + 1, 4, 2n) for the m steps: S[i, 0] is (x, v) at
    ts[i], and S[i, 1:] (i < m) are the other three stage points of step i.
    A fault of the spray is located at its stage time and point, as by
    ``_geodesic_rhs``; ``_end_block`` checks the domain once per
    ``CHECK_EVERY`` steps.
    """
    n = chart.dim
    spray = chart.evaluator.spray
    hs = np.diff(ts).tolist()
    m = len(hs)
    S = np.empty((m + 1, 4, 2 * n))
    x, v = p.tolist(), v.tolist()
    S[0, 0] = x + v
    x2 = x3 = x4 = None  # the stage points of the current step
    for start in range(0, m, CHECK_EVERY):
        rows = []  # S[start:done], flat
        done = stage = start
        fault = None
        try:
            for i in range(start, min(start + CHECK_EVERY, m)):
                h = hs[i]
                a = 0.5 * h
                stage = 0
                k1 = spray(x, v)
                x2 = [xj + a * vj for xj, vj in zip(x, v)]
                v2 = [vj - a * kj for vj, kj in zip(v, k1)]
                stage = 1
                k2 = spray(x2, v2)
                x3 = [xj + a * vj for xj, vj in zip(x, v2)]
                v3 = [vj - a * kj for vj, kj in zip(v, k2)]
                stage = 2
                k3 = spray(x3, v3)
                x4 = [xj + h * vj for xj, vj in zip(x, v3)]
                v4 = [vj - h * kj for vj, kj in zip(v, k3)]
                stage = 3
                k4 = spray(x4, v4)
                rows += x
                rows += v
                rows += x2
                rows += v2
                rows += x3
                rows += v3
                rows += x4
                rows += v4
                b = h / 6.0
                x = [xj + b * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
                     for xj, p1, p2, p3, p4 in zip(x, v, v2, v3, v4)]
                v = [vj - b * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
                     for vj, q1, q2, q3, q4 in zip(v, k1, k2, k3, k4)]
                done = i + 1
        except _POINT_FAULTS as exc:
            t = ts[done]
            exc.t_exit = float((t, t + 0.5 * h, t + 0.5 * h, t + h)[stage])
            exc.point = np.array((x, x2, x3, x4)[stage])
            fault = exc
        except _STEP_FAULTS as exc:
            fault = exc
        S[start:done].reshape(-1)[:] = rows
        S[done, 0] = x + v
        _end_block(chart, ts, lambda i, j: S[i:j, 0], start + 1, done + 1, fault)
    return S


def _rkf45_spray(chart: MetricChart, p, v, tmax: float, settings: OdeSettings):
    """Unframed RKF45 of y = (x, v), x' = v, v' = -Gamma(v, v), on [0, tmax],
    in floats: ``_rkf45``'s trial step with its Fehlberg stages unrolled, six
    ``spray`` calls each; faults are located and the domain checked as in
    ``_spray_stages``.  Returns the sample times and the rows y (m + 1, 2n)."""
    n = chart.dim
    spray = chart.evaluator.spray
    atol, rtol = settings.atol, settings.rtol

    def trial(t, y, h):
        stage, Y = 0, y
        try:
            k0 = y[n:] + [-q for q in spray(y[:n], y[n:])]
            stage, Y = 1, [yj + h * (0.25 * a) for yj, a in zip(y, k0)]
            k1 = Y[n:] + [-q for q in spray(Y[:n], Y[n:])]
            stage, Y = 2, [yj + h * (3 / 32 * a + 9 / 32 * b) for yj, a, b in zip(y, k0, k1)]
            k2 = Y[n:] + [-q for q in spray(Y[:n], Y[n:])]
            stage, Y = 3, [yj + h * (1932 / 2197 * a - 7200 / 2197 * b + 7296 / 2197 * c)
                           for yj, a, b, c in zip(y, k0, k1, k2)]
            k3 = Y[n:] + [-q for q in spray(Y[:n], Y[n:])]
            stage, Y = 4, [yj + h * (439 / 216 * a - 8.0 * b + 3680 / 513 * c - 845 / 4104 * d)
                           for yj, a, b, c, d in zip(y, k0, k1, k2, k3)]
            k4 = Y[n:] + [-q for q in spray(Y[:n], Y[n:])]
            stage, Y = 5, [yj + h * (-8 / 27 * a + 2.0 * b - 3544 / 2565 * c
                                     + 1859 / 4104 * d - 11 / 40 * e)
                           for yj, a, b, c, d, e in zip(y, k0, k1, k2, k3, k4)]
            k5 = Y[n:] + [-q for q in spray(Y[:n], Y[n:])]
        except _POINT_FAULTS as exc:
            exc.t_exit, exc.point = float(t + _RKF_C[stage] * h), np.array(Y[:n])
            raise
        y5 = [yj + h * (16 / 135 * a + 6656 / 12825 * c + 28561 / 56430 * d - 9 / 50 * e
                        + 2 / 55 * f) for yj, a, c, d, e, f in zip(y, k0, k2, k3, k4, k5)]
        r = [abs(h * ((16 / 135 - 25 / 216) * a + (6656 / 12825 - 1408 / 2565) * c
                      + (28561 / 56430 - 2197 / 4104) * d + (-9 / 50 + 1 / 5) * e + 2 / 55 * f))
             / (atol + rtol * max(abs(yj), abs(zj)))
             for yj, zj, a, c, d, e, f in zip(y, y5, k0, k2, k3, k4, k5)]
        # Python's max skips a NaN that is not first; np.max would not
        return y5, math.nan if math.isnan(sum(r)) else max(r)

    y = p.tolist() + v.tolist()
    ts, rows = [0.0], list(y)  # the samples' times and rows, flat
    accepted = _rkf45_steps(trial, y, tmax, settings)
    while True:
        lo, fault = len(ts), None
        try:
            for t, y in islice(accepted, CHECK_EVERY):
                ts.append(t)
                rows += y
        except _STEP_FAULTS as exc:
            fault = exc
        _end_block(chart, ts, lambda i, j: np.reshape(rows[2 * n * i:2 * n * j], (j - i, 2 * n)),
                   lo, len(ts), fault)
        if len(ts) < lo + CHECK_EVERY:
            return np.array(ts), np.reshape(rows, (-1, 2 * n))


def _advance(Y0: np.ndarray, m: int, transitions: Callable) -> np.ndarray:
    """Y[0] = Y0 and Y[i + 1] = Phi_i Y[i] over m steps, where
    ``transitions(s, e)`` builds Phi_s..Phi_{e-1}, ``TRANSITION_BLOCK`` at a time."""
    Y = np.empty((m + 1,) + np.shape(Y0))
    Y[0] = Y0
    for s in range(0, m, TRANSITION_BLOCK):
        for i, P in enumerate(transitions(s, min(s + TRANSITION_BLOCK, m)), s):
            Y[i + 1] = P @ Y[i]
    return Y


def _parallel_frames(chart: MetricChart, S: np.ndarray, h: np.ndarray,
                     E0: np.ndarray) -> np.ndarray:
    """The frame E0 carried along the stage points S of ``_spray_stages``:
    E_{i+1} = Phi_i E_i with Phi_i the RK4 transition of E' = -Gamma(v, .) E
    over step i, of width h[i]."""
    n = chart.dim

    def transitions(s, e):
        Y = S[s:e].reshape(-1, 2 * n)  # the stage points of steps s..e-1, in order
        C = chart.evaluator.connection_batch(Y[:, :n], Y[:, n:])
        return _transition(-C.reshape(e - s, 4, n, n).swapaxes(0, 1), h[s:e])

    return _advance(E0, len(h), transitions)


def _first_indefinite(G: np.ndarray):
    """Index of the first matrix of the stack G that is not positive definite
    (to working precision), or None when one Cholesky of the stack passes."""
    try:
        np.linalg.cholesky(G)
        return None
    except np.linalg.LinAlgError:
        lam = np.linalg.eigvalsh(G)
        return int(np.argmin(lam[:, 0] > 1e-14 * lam[:, -1]))


def integrate_geodesic(chart: MetricChart, p, v, tmax: float,
                       settings: OdeSettings = DEFAULT_SETTINGS,
                       with_frame: bool = True) -> Trajectory:
    """Integrate the geodesic ODE from (p, v) on [0, tmax]."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    n = chart.dim
    chart.require_inside(p)
    if v.shape != p.shape:
        raise BadDimension(f"velocity of shape {v.shape} at a point of shape {p.shape}")
    if tmax < 0:
        raise BadParam("tmax must be nonnegative")

    E0 = initial_frame(chart, p, v if np.any(v) else None) if with_frame else None
    if settings.method == "rk4_fixed":
        ts = _fixed_grid(tmax, settings)
        S = _spray_stages(chart, p, v, ts)
        frame = _parallel_frames(chart, S, np.diff(ts), E0) if with_frame else None
        ys = S[:, 0]
    elif not with_frame:
        ts, ys = _rkf45_spray(chart, p, v, tmax, settings)
        frame = None
    else:
        ts, ys = _rkf45(_geodesic_rhs(chart, n), np.concatenate([p, v, E0.T.ravel()]),
                        tmax, settings, guard=_domain_guard(chart, n))
        frame = ys[:, 2 * n:].reshape(-1, n, n).swapaxes(1, 2)

    x = ys[:, :n].copy()
    vel = ys[:, n:2 * n].copy()
    # g at up to 200 samples gives the speed drift; at the first of them where
    # g is not positive definite (to working precision), the geodesic stops
    idx = np.arange(0, len(ts), max(1, len(ts) // 200))
    G = chart.evaluator.metric_batch(x[idx])
    bad = _first_indefinite(G)
    if bad is not None:
        i = idx[bad]
        raise SingularMetric(f"metric not positive definite near t={ts[i]:.6g}",
                             t_exit=float(ts[i]), point=x[i].copy(),
                             trajectory=Trajectory(chart, ts[:i], x[:i], vel[:i]))
    speeds = np.sqrt(np.maximum(np.einsum("bi,bij,bj->b", vel[idx], G, vel[idx]), 0.0))
    return Trajectory(chart=chart, t=ts, x=x, v=vel, frame=frame, settings=settings,
                      speed_drift=float(np.max(np.abs(speeds - speeds[0]))))


# ---------------------------------------------------------------------------
# Parallel transport along arbitrary sampled curves
# ---------------------------------------------------------------------------

def _along(chart: MetricChart, curve, substeps: int, Y0: np.ndarray, system) -> np.ndarray:
    """Y at every sample of a curve with position/velocity for Y' = A(t) Y,
    A = system(C, c') with C = Gamma(c', .): RK4 transition matrices of
    ``substeps`` steps per sample interval, from one dense-output batch and
    one ``connection_batch`` per block of steps."""
    n, t = chart.dim, curve.t
    h = np.repeat(np.diff(t) / substeps, substeps)
    t0 = np.repeat(t[:-1], substeps) + np.tile(np.arange(substeps), len(t) - 1) * h

    def transitions(s, e):
        T = np.concatenate([t0[s:e], t0[s:e] + 0.5 * h[s:e], t0[s:e] + h[s:e]])
        V = curve.velocity(T)
        C = chart.evaluator.connection_batch(curve.position(T), V)
        A = system(C.reshape(3, e - s, n, n), V.reshape(3, e - s, n))
        return _transition((A[0], A[1], A[1], A[2]), h[s:e])

    return _advance(Y0, len(h), transitions)[::substeps]


def parallel_transport(chart: MetricChart, traj, w0, substeps: int = 4) -> np.ndarray:
    """Components of the parallel translate of w0 at every sample of traj."""
    return _along(chart, traj, substeps, np.asarray(w0, dtype=float), lambda C, V: -C)


# ---------------------------------------------------------------------------
# Exponential and logarithm maps
# ---------------------------------------------------------------------------

def exp_map(chart: MetricChart, p, v, settings: OdeSettings = DEFAULT_SETTINGS) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        chart.require_inside(p)
        return p.copy()
    return _exp_rays(chart, p[None], v[None], settings)[0]


def _exp_rays(chart: MetricChart, P, V, settings: OdeSettings) -> np.ndarray:
    """Endpoints exp_{P[b]}(V[b]) of N geodesics integrated as one system.

    The flat state holds x and v of every ray. RKF45's error norm is a max
    over the whole state, so every ray meets the tolerance; after every step
    the guard checks all rays with one domain call and names the first ray
    outside. Where g is not positive definite at an endpoint, SingularMetric
    names the first such ray's endpoint, at t = 1.
    """
    P = np.asarray(P, dtype=float)
    V = np.asarray(V, dtype=float)
    chart.require_inside(P)
    if V.shape != P.shape:
        raise BadDimension(f"velocities of shape {V.shape} at points of shape {P.shape}")
    N, n = P.shape
    connection_batch = chart.evaluator.connection_batch

    def rhs(t, y):
        Y = y.reshape(N, 2 * n)
        X, W = Y[:, :n], Y[:, n:]
        try:
            C = connection_batch(X, W)
        except _POINT_FAULTS as exc:
            exc.t_exit = float(t)
            raise
        out = np.empty((N, 2 * n))
        out[:, :n] = W
        out[:, n:] = -(C @ W[:, :, None])[:, :, 0]
        return out.ravel()

    def guard(t, y, ys_so_far, ts_so_far, fault=None):
        X = y.reshape(N, 2 * n)[:, :n]
        outside = ~chart.inside(X)
        if fault is None and outside.any():
            raise DomainExit(f"left chart domain near t={t:.6g}",
                             t_exit=float(t), point=X[np.argmax(outside)].copy())

    _, ys = _integrate(rhs, np.hstack([P, V]).ravel(), 1.0, settings, guard)
    ends = ys[-1].reshape(N, 2 * n)[:, :n].copy()
    bad = _first_indefinite(chart.evaluator.metric_batch(ends))
    if bad is not None:
        raise SingularMetric(f"metric not positive definite at the end of ray {bad}",
                             t_exit=1.0, point=ends[bad].copy())
    return ends


LOG_SETTINGS = OdeSettings(step=2e-3)


def log_map(chart: MetricChart, p, q, settings: OdeSettings = LOG_SETTINGS,
            max_iter: int = 50, tol: float = 1e-10) -> np.ndarray:
    """Initial velocity v with exp_p(v) = q, by Newton shooting on the exact
    differential of exp, from the Jacobi fields along the current ray."""
    p, q = _endpoints(chart, p, q)
    if np.array_equal(p, q):
        return np.zeros(chart.dim)
    return _shoot(chart, p, q, q - p, settings, max_iter, tol)


def _endpoints(chart: MetricChart, p, q):
    """p and q as arrays; DomainExit naming the first of them outside the chart."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    chart.require_inside(p)
    chart.require_inside(q)
    return p, q


def _shoot(chart: MetricChart, p, q, v, settings: OdeSettings,
           max_iter: int = 50, tol: float = 1e-10) -> np.ndarray:
    """Damped Newton iteration on exp_p(v) = q started from v.

    Each iteration integrates the current ray once, with its parallel frame;
    unless it has converged, the Newton Jacobian is d(exp_p)_v from the
    Jacobi fields along that ray. A ray that leaves the chart is halved
    toward the best velocity so far.
    """
    from .variation import _exp_differential  # variation imports this module

    scale = max(1.0, float(np.linalg.norm(q - p)))
    best_v, best_res = v.copy(), math.inf
    for _ in range(max_iter):
        try:
            geo = integrate_geodesic(chart, p, v, 1.0, settings=settings)
        except DomainExit:
            v = 0.5 * (v + best_v) if best_res < math.inf else 0.5 * v
            continue
        r = geo.x[-1] - q
        res = float(np.linalg.norm(r))
        if res < best_res:
            best_res, best_v = res, v.copy()
        if res <= tol * scale:
            return v
        try:
            delta = np.linalg.solve(_exp_differential(chart, geo), r)
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
    With the coframe Theta = E^-1, Theta' = Theta C and sigma' = Theta c' for
    C = Gamma(c', .): Z = [Theta | sigma] solves Z' = Z [[C, c'], [0, 0]].
    """
    n = chart.dim
    B0 = initial_frame(chart, curve.points[0]) if frame is None else np.asarray(frame, dtype=float)

    def system(C, V):  # ZT = Z^T = [Theta^T; sigma] solves ZT' = A ZT
        A = np.zeros(C.shape[:2] + (n + 1, n + 1))
        A[..., :n, :n] = C.swapaxes(-1, -2)
        A[..., n, :n] = V
        return A

    ZT = _along(chart, curve, substeps, np.vstack([np.linalg.inv(B0).T, np.zeros(n)]), system)
    dsig = np.einsum("tji,tj->ti", ZT[:, :n], curve.ensure_velocities())  # Theta c' there
    return SampledCurve(curve.t.copy(), ZT[:, n], dsig)


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
    connection = chart.evaluator.connection

    def rhs(t, y):
        x = y[:n]
        E = y[n:].reshape(n, n)
        v = E @ sigma.velocity(t)
        dE = -(connection(x, v) @ E)
        return np.concatenate([v, dE.ravel()])

    def guard(t, y, ys_so_far, ts_so_far, fault=None):
        if fault is None and not chart.contains(y[:n]):
            raise DomainExit(f"reverse development left chart near t={t:.6g}",
                             t_exit=float(t), point=y[:n].copy())

    ys = rk4_path(rhs, np.concatenate([p, B0.ravel()]), sigma.t, substeps=substeps, guard=guard)
    E = ys[:, n:].reshape(-1, n, n)
    return SampledCurve(sigma.t.copy(), ys[:, :n], (E @ sigma.velocities[:, :, None])[:, :, 0])


# ---------------------------------------------------------------------------
# Two-point candidate geodesics
# ---------------------------------------------------------------------------

def shortest_geodesic(chart: MetricChart, p, q, tries: int = 8, seed: int = 0,
                      settings: OdeSettings = LOG_SETTINGS):
    """Best converged connecting geodesic among multi-start shooting attempts.

    The result is a candidate minimizer only; no global claim is made.
    """
    p, q = _endpoints(chart, p, q)
    if np.array_equal(p, q):
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
            v = _shoot(chart, p, q, guess, settings)
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


"""Geodesic integration, parallel translation, exp/log, developments.

Default integrator is fixed-step RK4 with cubic-Hermite dense output;
an adaptive RKF45 is available through OdeSettings.method.  A method is its
``_Tableau``, which emits a float step per chart and one array step.  A
single ray has one integrator per method: a loop that steps (x, v) on
Python floats by that step, and checks the chart domain once per block of
steps.  ``integrate_geodesic`` and ``exp_map`` both run it.  The float step
is emitted on the first integration and cached on the evaluator
(``_chart_step``), with the spray's statements, the term (v, v) of the
evaluator's ``connection_fragment`` (see ``manifold.MetricEvaluator``),
inlined into every stage: no stage calls a spray.

A framed geodesic runs in two passes.  The nonlinear one is that float
loop, which also records the stage points of every (accepted) step.  The
linear one then carries the parallel frame.  Every linear equation along a
known curve is solved so (the frame, a transported vector, a development's
coframe, ``variation``'s Jacobi fields, for one ray or for the rays of
``comparison``'s direction sweep together): C from one ``connection_batch``
at all stage points gives one transition matrix per step (``_transition``,
the method's array step of Y' = A Y from I), chained by ``_advance``, a
prefix scan of products over each block of transitions in log2 of its
length of batched matmuls, for k x k transitions up to ``SCAN_WIDTH``, and
one matmul a step above it.  A block holds ``TRANSITION_BLOCK`` transitions,
so fewer steps the more rays it carries.  The scan's products associate
otherwise than that chain, which moves frames, transports and Jacobi fields
at rounding level, but never a geodesic's (x, v).

RK4's array step also steps ``reverse_develop``'s ``rk4_path`` and batches
of ray rows (x, v[, frame]) (``_step_rays``, for ``_exp_rays`` and
``comparison``'s direction sweep).  One function, ``_ray_slopes``, writes a
ray row's slope for the ray step, the sweep and ``variation.jacobi_system``:
one ``spray_batch``, so that each row is bitwise its own float loop, and one
``connection_batch`` where rows carry a frame.  An arithmetic fault at a
stage point outside the chart is DomainExit there.

g must be positive definite where a ray starts: a framed geodesic's
``initial_frame``, and ``exp_map`` and ``_exp_rays`` by ``_definite``, raise
SingularMetric at t = 0 naming the start.  ``_definite`` checks their ends
(t = 1), and up to 200 samples of a geodesic go through the same scan,
``manifold._first_indefinite``.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .errors import (_POINT_FAULTS, BadParam, DomainExit,
                     NoConvergence, SingularMetric, StepFault)
from .expr import _define
from .manifold import (MetricChart, SampledCurve, _count, _dense, _finite, _first_indefinite,
                       _write_csv, metric_at)
from .tensor import orthonormal_frame


@dataclass(frozen=True)
class OdeSettings:
    method: str = "rk4_fixed"
    step: float = 1e-3
    rtol: float = 1e-9
    atol: float = 1e-11
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (self.step, self.rtol, self.atol)):
            raise BadParam("step and tolerances must be positive and finite")
        if self.max_steps < 1:
            raise BadParam("max_steps must be at least 1")
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

def rk4_path(rhs, y0: np.ndarray, ts: np.ndarray, substeps: int = 1,
             guard: Optional[Callable] = None):
    """Integrate across the sample grid ``ts``; returns y at every grid time
    (the nonlinear equation of ``reverse_develop``).

    ``guard(t, y, ys, ts)`` may raise to stop integration (domain checks).
    A ``DomainFault`` or ``SingularMetric`` from ``rhs`` is handed to it as
    ``fault=`` with the samples before the failing step, for context, and
    then raised again.
    """
    _require_substeps(substeps)
    ys = np.empty((len(ts), len(y0)))
    ys[0] = y0
    y = np.asarray(y0, dtype=float)
    try:
        for i in range(len(ts) - 1):
            h = (ts[i + 1] - ts[i]) / substeps
            t = ts[i]
            for _ in range(substeps):
                y = RK4.step(lambda s, Y: rhs(t + RK4.c[s] * h, Y), y, h)
                t += h
            if guard is not None:
                guard(ts[i + 1], y, ys[: i + 1], ts[: i + 1])
            ys[i + 1] = y
    except _POINT_FAULTS as exc:
        if guard is not None:
            guard(t, y, ys[: i + 1], ts[: i + 1], fault=exc)
        raise
    return ys


def _ray_slopes(chart: MetricChart, Y: np.ndarray) -> np.ndarray:
    """Y' = (v, -Gamma(v, v), -C E) of ray rows Y = (x, v, E), E's k >= 0 frame
    columns flattened row by row, with C = Gamma(v, .) per row: the one slope
    of a ray row, from ``spray_batch`` and ``connection_batch``."""
    n, evaluator = chart.dim, chart.evaluator
    (N, width), X, V = Y.shape, Y[:, :n], Y[:, n:2 * n]
    slopes = [V, -evaluator.spray_batch(X, V)]
    if width > 2 * n:
        E = Y[:, 2 * n:].reshape(N, n, width // n - 2)
        slopes.append(-(evaluator.connection_batch(X, V) @ E).reshape(N, width - 2 * n))
    return np.hstack(slopes)


def _rays_rhs(chart: MetricChart) -> Callable:
    """``_ray_slopes`` of the ray rows Y at t, its faults located: a point
    fault gets t as its ``t_exit``, and an arithmetic fault is DomainExit
    where a ray is outside the chart, as in the float loops."""
    def rhs(t, Y):
        try:
            return _ray_slopes(chart, Y)
        except _POINT_FAULTS as exc:
            exc.t_exit = float(t)
            raise
        except ArithmeticError as exc:
            raise _outside(chart, t, Y[:, :chart.dim], exc) or exc
    return rhs


def _step_rays(chart: MetricChart, rhs, t, Y: np.ndarray, h, t1, k1=None) -> np.ndarray:
    """``RK4.step`` of the ray rows Y from t by h on rhs = ``_rays_rhs(chart)``
    (``k1``, if given, is rhs(t, Y)); DomainExit at t1, the caller's end of
    the step, naming the first ray that ends outside the chart."""
    Y1 = RK4.step(lambda s, Z: rhs(t + RK4.c[s] * h, Z), Y, h, k1)
    exit = _outside(chart, t1, Y1[:, :chart.dim])
    if exit is not None:
        raise exit
    return Y1


def _outside(chart: MetricChart, t, X: np.ndarray, cause=None) -> Optional[DomainExit]:
    """DomainExit at t, from ``cause``, naming the first row of X outside the chart, or None."""
    outside = ~chart.inside(X)
    if outside.any():
        exit = DomainExit(f"left chart domain near t={t:.6g}", t_exit=float(t),
                          point=X[np.argmax(outside)].copy())
        exit.__cause__ = cause
        return exit


def _rkf45_steps(trial, y, t1: float, settings: OdeSettings):
    """The accepted (t, y) of RKF45 from y at t = 0 to t1.  ``trial(t, y, h)``
    gives the fifth-order end y5 of a step and its error norm, at most 1 to
    accept, max_j |y5_j - y4_j| / (atol + rtol max(|y_j|, |y5_j|)); the next h
    is h 0.9 norm^(-1/5) clamped to [0.1, 4] (Hairer, Norsett and Wanner,
    Solving ODEs I, II.4), so a NaN norm, rejected, cuts h tenfold."""
    t, h, steps = 0.0, min(settings.step, t1), 0
    while t < t1 - 1e-15:
        if steps >= settings.max_steps:
            raise StepFault("rkf45: max_steps exceeded")
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t1)):
            raise StepFault("rkf45: step size underflow")
        y5, err = trial(t, y, h)
        if err <= 1.0:
            t, y, steps = t + h, y5, steps + 1
            yield t, y
        h *= min(4.0, max(0.1, 0.9 * (max(err, 1e-16)) ** -0.2))


def _require_substeps(substeps) -> None:
    if not isinstance(substeps, numbers.Integral) or substeps < 1:
        raise BadParam(f"substeps must be a positive integer, not {substeps!r}")


def _fixed_grid(tmax: float, settings: OdeSettings) -> np.ndarray:
    """The sample times of fixed-step RK4 on [0, tmax]."""
    if tmax == 0.0:
        return np.array([0.0])
    if tmax / settings.step - 1e-12 > settings.max_steps:  # before ceil, which fails at inf
        raise StepFault("rk4_fixed: max_steps exceeded")
    n_steps = max(1, int(math.ceil(tmax / settings.step - 1e-12)))
    return np.linspace(0.0, tmax, n_steps + 1)


def _weighted(w: float, term: str) -> str:
    return term if w == 1.0 else f"{w!r} * {term}"


def _combination(weights, terms) -> str:
    """Source of sum_j w_j terms[j] over the j with w_j != 0, in order."""
    return " + ".join(_weighted(w, term) for w, term in zip(weights, terms) if w)


class _Tableau(namedtuple("_Tableau", "name a b c div e", defaults=(None,))):
    """An explicit Runge-Kutta method (Hairer, Norsett and Wanner, Solving
    ODEs I, II.1): stage s is taken at t + c[s] h and y + h sum_j a[s][j] K_j,
    the step is y + (h / div) sum_s b[s] K_s, and h sum_s e[s] K_s, where the
    error row e is given, estimates the error of its y.  Its array ``step``
    (transition matrices, ray batches, ``rk4_path``) and its float step on a
    chart, with the chart's spray inlined, are straight-line code emitted
    from it on first use.
    """

    def float_step(self, fragment, n: int, filename: str):
        """``step(X, V, H, Rows)``: one step of x' = v, v' = -Gamma(v, v) from
        the lists X and V of n floats by H, every stage and component written
        out, rounded as x + H sum_j w_j V_j and v - H sum_j w_j Q_j for the
        velocity V_j and spray Q_j of stage j.  ``fragment``, an evaluator's
        ``connection_fragment``, gives from the term (v, v, q) the
        statements, and their globals, that set the names q to the spray at
        the point held in the names x and v.  The step appends each stage
        point (x, v) to ``Rows`` before that stage's statements, so a fault's
        stage is the last point recorded, and returns the new x and v as
        lists.  Where the error row is given, it takes the tolerances ``Atol,
        Rtol`` too and also returns the error norm of ``_rkf45_steps``: NaN
        where a component is, else the largest |H sum_s e[s] K_s|_j /
        (Atol + Rtol max(|y_j|, |y5_j|)).  The step's own names begin with a
        capital letter, so they cannot meet a fragment's.
        """
        X, V, Q = ([[f"{c}{s}_{i}" for i in range(n)] for s in range(len(self.a))]
                   for c in "XVQ")
        ends = [f"X_{i}" for i in range(n)], [f"V_{i}" for i in range(n)]
        lines = [f"{', '.join(X[0])}, = X", f"{', '.join(V[0])}, = V", "Rows += X", "Rows += V"]
        env = {"_nan": math.nan}

        def combine(names, starts, op, width, weights, slopes):  # y0 op width sum_j w_j K_j
            return [f"{y} = {y0} {op} {width} * ({_combination(weights, terms)})"
                    for y, y0, terms in zip(names, starts, zip(*slopes))]

        for s, row in enumerate(self.a):
            if s:
                lines += combine(X[s], X[0], "+", "H", row, V) + combine(V[s], V[0], "-", "H", row, Q)
                lines.append(f"Rows += ({', '.join(X[s] + V[s])},)")
            body, names = fragment(X[s], [(V[s], V[s], Q[s])])
            lines += body
            env.update(names)
        lines.append(f"Hd = H / {self.div!r}")
        lines += (combine(ends[0], X[0], "+", "Hd", self.b, V)
                  + combine(ends[1], V[0], "-", "Hd", self.b, Q))
        result = f"[{', '.join(ends[0])}], [{', '.join(ends[1])}]"
        params = "X, V, H, Rows"
        if self.e is not None:
            errors = [f"abs(H * ({_combination(self.e, terms)}))" for terms in [*zip(*V), *zip(*Q)]]
            norms = [f"R{j}" for j in range(2 * n)]
            lines += [f"{r} = {err} / (Atol + Rtol * max(abs({y}), abs({z})))"
                      for r, err, y, z in zip(norms, errors, X[0] + V[0], ends[0] + ends[1])]
            # R is NaN where a term is, none being negative; Python's max
            # skips a NaN that is not first
            lines.append(f"R = {' + '.join(norms)}")
            result += f", _nan if R != R else max({', '.join(norms)})"
            params += ", Atol, Rtol"
        lines.append(f"return {result}")
        return _define("step", params, lines, env, filename)

    @functools.cached_property
    def step(self):
        """``step(f, y, h, k1=None)``: one step from the array y by h, where
        ``f(s, Y)`` is the slope at stage s, which the caller takes at t +
        c[s] h, and ``k1``, if given, is f(0, y).  Rounded as y + (a[s][j] h) K_j
        and y + (h / div) sum_s b[s] K_s, weight-0 terms left out and weight-1
        factors not written, so RK4's is the textbook step.  Emitted once per
        tableau; its source stays in ``linecache``."""
        lines = ["K0 = f(0, y) if k1 is None else k1"]
        for s, row in enumerate(self.a[1:], 1):
            terms = "".join(f" + ({_weighted(w, 'h')}) * K{j}" for j, w in enumerate(row) if w)
            lines.append(f"K{s} = f({s}, y{terms})")
        total = _combination(self.b, [f"K{s}" for s in range(len(self.b))])
        lines.append(f"return y + (h / {self.div!r}) * ({total})")
        return _define("step", "f, y, h, k1=None", lines, (),
                       f"<riemannkit {self.name} array step>")


RK4 = _Tableau("RK4", ((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1.0, 2.0, 2.0, 1.0),
               (0.0, 0.5, 0.5, 1.0), 6.0)
FEHLBERG = _Tableau(  # Fehlberg 4(5): the fifth-order row, which RKF45 accepts
    "FEHLBERG", ((), (1 / 4,), (3 / 32, 9 / 32), (1932 / 2197, -7200 / 2197, 7296 / 2197),
                 (439 / 216, -8.0, 3680 / 513, -845 / 4104),
                 (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40)),
    (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55),
    (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2), 1.0)
FEHLBERG = FEHLBERG._replace(e=tuple(  # the fifth-order row less the fourth-order one
    b5 - b4 for b5, b4 in zip(FEHLBERG.b, (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0))))
_EMITTED = itertools.count()  # numbers the emitted float steps, whose linecache names differ


def _chart_step(chart: MetricChart, tableau: _Tableau):
    """``tableau``'s float step on the chart, from its evaluator's fragment:
    emitted on the first call and cached in the evaluator's own ``__dict__``,
    so that a wrapper that hands other attributes on to an evaluator keeps its
    own.  The fragment and the callables it names are read then, once."""
    steps = vars(chart.evaluator).setdefault("_float_steps", {})
    step = steps.get(tableau.name)
    if step is None:
        step = steps[tableau.name] = tableau.float_step(
            chart.evaluator.connection_fragment, chart.dim,
            f"<riemannkit {tableau.name} step on {chart.label or 'a chart'} #{next(_EMITTED)}>")
    return step


def _transition(A, h, tableau: _Tableau = RK4) -> np.ndarray:
    """Transition matrices (B, [N,] k, k) of one ``tableau`` step of y' = A(t) y:
    its ``step`` of Y' = A[s] Y from Y = I, whose first slope is A[0].

    A[s] (B, [N,] k, k) is A at stage point s of step b, of width h[b] (< 0
    steps backward), for each of N rays; row b maps y at the start of step b
    to its end.  RK4 rounds as I + (h/6)(K1 + 2 K2 + 2 K3 + K4).
    """
    return tableau.step(lambda s, Y: A[s] @ Y, np.eye(A[0].shape[-1]),
                        np.reshape(h, (-1,) + (1,) * (np.ndim(A[0]) - 1)), A[0])


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

def initial_frame(chart: MetricChart, p, v=None) -> np.ndarray:
    """g-orthonormal frame; when v is nonzero the last column points along v.
    SingularMetric naming p where g is not positive definite there; BadParam
    where g(v, v) overflows."""
    p = np.asarray(p, dtype=float)
    g = chart.evaluator.metric(p)
    try:
        B = orthonormal_frame(g)
    except SingularMetric as exc:
        exc.point = p.copy()
        raise
    if v is None:
        return B
    v = np.asarray(v, dtype=float)
    if _energy(g, p, v) <= 0.0:
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


CHECK_EVERY = 64  # float steps between two domain checks of a geodesic
TRANSITION_BLOCK = 512  # transition rows (rays x steps) per batch; bounds the temporaries
# the widest k x k transitions that _advance chains by a prefix scan, whose
# log2(block) batched products a step grow as k^3; one matmul a step costs
# 1.2-2.8 us up to k = 24. Per step in the library's own chains, on an Intel
# Xeon: the scan 0.3-0.5 us to k = 6 and 1.0-1.1 us at k = 10; at k = 12 the
# two tie, and from k = 14 the loop wins (1.5-1.9 against 1.8-2.5 us; at
# k = 20, 1.4-2.5 against 4.7-7.2 us)
SCAN_WIDTH = 10
# what a spray can raise, also at the points past the chart's edge that the
# float loops reach before their next domain check (DomainExit, where an
# arithmetic fault is located there), and RKF45's step faults
_STEP_FAULTS = (*_POINT_FAULTS, DomainExit, StepFault, ArithmeticError, ValueError)


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
        if isinstance(fault, (*_POINT_FAULTS, DomainExit)):
            fault.trajectory = samples(hi)
        raise fault


def _locate(chart: MetricChart, fault, tableau: _Tableau, t, h, stages: list):
    """The fault of a ``tableau`` step from t by h at its stage, the last of the
    flat (x, v) ``stages`` the step recorded: a point fault gets the stage's t
    and x, and an arithmetic fault at an x outside the chart is DomainExit."""
    n = chart.dim
    if isinstance(fault, (*_POINT_FAULTS, ArithmeticError)):
        t, x = float(t + tableau.c[len(stages) // (2 * n) - 1] * h), np.array(stages[-2 * n:-n])
        if isinstance(fault, _POINT_FAULTS):
            fault.t_exit, fault.point = t, x
        else:
            fault = _outside(chart, t, x[None], fault) or fault
    return fault


def _spray_stages(chart: MetricChart, p, v, ts: np.ndarray) -> np.ndarray:
    """Fixed-step RK4 of x' = v, v' = -Gamma(v, v) on the grid ts, in floats.

    Returns S of shape (m + 1, 4, 2n) for the m steps: S[i, 0] is (x, v) at
    ts[i], and S[i, 1:] (i < m) are the other three stage points of step i,
    in the order of ``RK4``'s stages.  A fault of the spray gets the time
    and point of its stage as ``t_exit`` and ``point``; ``_end_block``
    checks the domain once per ``CHECK_EVERY`` steps.
    """
    n = chart.dim
    step = _chart_step(chart, RK4)
    hs = np.diff(ts).tolist()
    m = len(hs)
    S = np.empty((m + 1, 4, 2 * n))
    x, v = p.tolist(), v.tolist()
    S[0, 0] = x + v
    for start in range(0, m, CHECK_EVERY):
        rows = []  # S[start:done], flat, then the stage points of a step that failed
        done = start
        fault = None
        try:
            for i in range(start, min(start + CHECK_EVERY, m)):
                x, v = step(x, v, hs[i], rows)
                done = i + 1
        except _STEP_FAULTS as exc:
            fault = _locate(chart, exc, RK4, ts[done], hs[done], rows[8 * n * (done - start):])
        S[start:done].reshape(-1)[:] = rows[:8 * n * (done - start)]
        S[done, 0] = x + v
        _end_block(chart, ts, lambda i, j: S[i:j, 0], start + 1, done + 1, fault)
    return S


def _rkf45_spray(chart: MetricChart, p, v, tmax: float, settings: OdeSettings):
    """RKF45 of y = (x, v), x' = v, v' = -Gamma(v, v), on [0, tmax], in floats:
    ``_rkf45_steps`` over the chart's ``FEHLBERG`` step, with its error norm;
    faults are located and the domain checked as in ``_spray_stages``.
    Returns the sample times, the rows y (m + 1, 2n) and the stage points
    of the accepted steps, a flat list of m * 6 * 2n floats, which only a
    framed geodesic reads."""
    n = chart.dim
    step = _chart_step(chart, FEHLBERG)
    atol, rtol = settings.atol, settings.rtol
    points, kept = [], 0  # the accepted steps' stage points, flat, and then the trial step's

    def trial(t, y, h):
        del points[kept:]
        try:
            x5, v5, err = step(y[0], y[1], h, points, atol, rtol)
        except (*_POINT_FAULTS, ArithmeticError) as exc:
            raise _locate(chart, exc, FEHLBERG, t, h, points[kept:])
        return (x5, v5), err

    ts, rows = [0.0], p.tolist() + v.tolist()  # the samples' times and rows, flat
    accepted = _rkf45_steps(trial, (p.tolist(), v.tolist()), tmax, settings)
    while True:
        lo, fault = len(ts), None
        try:
            for t, y in islice(accepted, CHECK_EVERY):
                ts.append(t)
                rows += y[0]
                rows += y[1]
                kept = len(points)
        except _STEP_FAULTS as exc:
            fault = exc
        _end_block(chart, ts, lambda i, j: np.reshape(rows[2 * n * i:2 * n * j], (j - i, 2 * n)),
                   lo, len(ts), fault)
        if len(ts) < lo + CHECK_EVERY:
            return np.array(ts), np.reshape(rows, (-1, 2 * n)), points


def _advance(Y0: np.ndarray, m: int, transitions: Callable) -> np.ndarray:
    """Y[0] = Y0 and Y[i + 1] = Phi_i Y[i] over m steps, where
    ``transitions(s, e)`` builds Phi_s..Phi_{e-1} as a fresh (e - s, [N,] k, k)
    array, which is overwritten here.  Y0 is (k[, c]) along one curve, or
    (N, k, c) for N rays chained together; a block holds ``TRANSITION_BLOCK``
    transitions (rays x steps), so max(1, TRANSITION_BLOCK // N) steps.

    Up to k = ``SCAN_WIDTH`` each block is an inclusive prefix product
    (Hillis and Steele, Data parallel algorithms, CACM 29(12), 1986): in
    round d = 1, 2, 4, ... every product takes the one d places before it on
    its right, so the block holds Phi_i ... Phi_s after log2(e - s) batched
    matmuls, and one more gives Y[s+1..e] from Y[s].  The products associate
    otherwise than the chain Phi_i (... (Phi_s Y[s])), so Y differs from it
    at rounding level; each block starts again from Y[s], and a NaN in Phi_j
    reaches the samples after j only.  Wider transitions are chained one
    matmul a step, since the scan's log2(e - s) products of k x k matrices a
    step then cost more than the loop's one.
    """
    Y = np.empty((m + 1,) + np.shape(Y0))
    Y[0] = Y0
    block = max(1, TRANSITION_BLOCK // len(Y0)) if np.ndim(Y0) == 3 else TRANSITION_BLOCK
    for s in range(0, m, block):
        e = min(s + block, m)
        P = transitions(s, e)
        if P.shape[-1] > SCAN_WIDTH:
            for i in range(s, e):
                Y[i + 1] = P[i - s] @ Y[i]
            continue
        d = 1
        while d < e - s:
            P[d:] = P[d:] @ P[:-d]
            d *= 2
        Y[s + 1:e + 1] = P @ Y[s]
    return Y


def _parallel_frames(chart: MetricChart, S: np.ndarray, h: np.ndarray,
                     E0: np.ndarray, tableau: _Tableau = RK4) -> np.ndarray:
    """The frame E0 carried along the stage points S of a float loop, an
    (m[+1], stages, 2n) array or flat: E_{i+1} = Phi_i E_i with Phi_i the
    ``tableau`` transition of E' = -Gamma(v, .) E over step i, of width h[i],
    from S[i, :stages]."""
    n, k = chart.dim, len(tableau.a)
    S = np.reshape(S, (-1, k, 2 * n))

    def transitions(s, e):
        Y = S[s:e, :k].reshape(-1, 2 * n)  # the stage points of steps s..e-1, in order
        C = chart.evaluator.connection_batch(Y[:, :n], Y[:, n:])
        return _transition(-C.reshape(e - s, k, n, n).swapaxes(0, 1), h[s:e], tableau)

    return _advance(E0, len(h), transitions)


def _start(chart: MetricChart, p, v):
    """p and v as arrays, p inside the chart (or a batch of points) and v of
    its shape and finite."""
    p = np.asarray(p, dtype=float)
    chart.require_inside(p)
    return p, _finite("velocity", v, p.shape)


def _float_geodesic(chart: MetricChart, p, v, tmax: float, settings: OdeSettings):
    """The float loop of ``settings.method`` from (p, v) on [0, tmax]: sample times,
    rows (x, v), and the stage points of every step (flat under RKF45) with the
    method's tableau."""
    if settings.method == "rk4_fixed":
        ts = _fixed_grid(tmax, settings)
        S = _spray_stages(chart, p, v, ts)
        return ts, S[:, 0], S, RK4
    return (*_rkf45_spray(chart, p, v, tmax, settings), FEHLBERG)


def integrate_geodesic(chart: MetricChart, p, v, tmax: float,
                       settings: OdeSettings = DEFAULT_SETTINGS,
                       with_frame: bool = True) -> Trajectory:
    """Integrate the geodesic ODE from (p, v) on [0, tmax]; SingularMetric at
    t = 0 or at the first of up to 200 samples where g is not positive definite."""
    p, v = _start(chart, p, v)
    n = chart.dim
    if not 0.0 <= tmax < math.inf:
        raise BadParam(f"tmax must be finite and nonnegative, not {tmax!r}")

    try:
        E0 = initial_frame(chart, p, v if np.any(v) else None) if with_frame else None
    except SingularMetric as exc:
        exc.t_exit = 0.0
        raise
    ts, ys, S, tableau = _float_geodesic(chart, p, v, tmax, settings)
    frame = _parallel_frames(chart, S, np.diff(ts), E0, tableau) if with_frame else None
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
    if not with_frame:  # a framed run's initial_frame checked g(v, v)
        _energy(G[0], p, v)
    speeds = np.sqrt(np.maximum(np.einsum("bi,bij,bj->b", vel[idx], G, vel[idx]), 0.0))
    return Trajectory(chart=chart, t=ts, x=x, v=vel, frame=frame, settings=settings,
                      speed_drift=float(np.max(np.abs(speeds - speeds[0]))))


def _energy(g: np.ndarray, p: np.ndarray, v: np.ndarray) -> float:
    """g(v, v), g the metric at p, summed in floats, which overflow quietly
    before the speeds square v; BadParam where it is not finite."""
    w = v.tolist()
    energy = sum(a * b * gab for a, row in zip(w, g.tolist()) for b, gab in zip(w, row))
    if not math.isfinite(energy):
        raise BadParam(f"g(v, v) of the velocity {w} overflows at {p.tolist()}")
    return energy


# ---------------------------------------------------------------------------
# Parallel transport along arbitrary sampled curves
# ---------------------------------------------------------------------------

def _along(chart: MetricChart, curve, substeps: int, Y0: np.ndarray, system) -> np.ndarray:
    """Y at every sample of a curve with position/velocity for Y' = A(t) Y,
    A = system(C, c') with C = Gamma(c', .): RK4 transition matrices of
    ``substeps`` steps per sample interval, from one dense-output batch and
    one ``connection_batch`` per block of steps; BadParam where the dense
    velocity overflows, at samples too close for the size of their points."""
    _require_substeps(substeps)
    n, t = chart.dim, curve.t
    h = np.repeat(np.diff(t) / substeps, substeps)
    t0 = np.repeat(t[:-1], substeps) + np.tile(np.arange(substeps), len(t) - 1) * h

    def transitions(s, e):
        T = np.concatenate([t0[s:e], t0[s:e] + 0.5 * h[s:e], t0[s:e] + h[s:e]])
        with np.errstate(over="ignore", invalid="ignore"):
            V = curve.velocity(T)
        if not np.isfinite(V).all():
            bad = T[np.argmin(np.isfinite(V).all(axis=1))]
            raise BadParam(f"the curve's velocity is not finite near t={bad:.6g}")
        C = chart.evaluator.connection_batch(curve.position(T), V)
        A = system(C.reshape(3, e - s, n, n), V.reshape(3, e - s, n))
        return _transition((A[0], A[1], A[1], A[2]), h[s:e])

    return _advance(Y0, len(h), transitions)[::substeps]


def parallel_transport(chart: MetricChart, traj, w0, substeps: int = 4) -> np.ndarray:
    """Components of the parallel translate of w0 at every sample of traj."""
    return _along(chart, traj, substeps, _finite("w0", w0, (chart.dim,)), lambda C, V: -C)


# ---------------------------------------------------------------------------
# Exponential and logarithm maps
# ---------------------------------------------------------------------------

def exp_map(chart: MetricChart, p, v, settings: OdeSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """exp_p(v): the end at t = 1 of the ray's float loop, the one
    ``integrate_geodesic`` runs; SingularMetric where g is not positive
    definite at p (t = 0) or at the end (t = 1)."""
    p, v = _start(chart, p, v)
    _definite(chart, p[None], 0.0, "start")
    if not np.any(v):
        return p.copy()
    ys = _float_geodesic(chart, p, v, 1.0, settings)[1]
    return _definite(chart, ys[-1:, :chart.dim], 1.0, "end")[0]


def _definite(chart: MetricChart, X: np.ndarray, t: float, where: str) -> np.ndarray:
    """A copy of the points X (N, n) of N rays at t, their ``where``;
    SingularMetric at the first of them where g is not positive definite."""
    X = X.copy()
    bad = _first_indefinite(chart.evaluator.metric_batch(X))
    if bad is not None:
        raise SingularMetric(f"metric not positive definite at the {where} of ray {bad}",
                             t_exit=t, point=X[bad].copy())
    return X


def _exp_rays(chart: MetricChart, P, V, settings: OdeSettings) -> np.ndarray:
    """Endpoints exp_{P[b]}(V[b]) of N rays, for the batches of
    ``variation.first_variation``.

    Under RK4 all rays step together by ``_step_rays`` on the grid of
    ``_fixed_grid``, which names the first ray outside the chart after every
    step; under RKF45 each ray runs ``exp_map``'s float loop in turn, so a
    batch raises what the first failing ray's own loop raises. Where g is
    not positive definite at a start or an endpoint, SingularMetric names
    the first such ray's start, at t = 0, or its endpoint, at t = 1.
    """
    P, V = _start(chart, P, V)
    _definite(chart, P, 0.0, "start")
    n = chart.dim
    if settings.method == "rk4_fixed":
        rhs, Y = _rays_rhs(chart), np.hstack([P, V])
        ts = _fixed_grid(1.0, settings).tolist()
        for t, t1 in zip(ts[:-1], ts[1:]):
            Y = _step_rays(chart, rhs, t, Y, t1 - t, t1)
        return _definite(chart, Y[:, :n], 1.0, "end")
    return _definite(chart, np.array([_float_geodesic(chart, p, v, 1.0, settings)[1][-1, :n]
                                      for p, v in zip(P, V)]).reshape(-1, n), 1.0, "end")


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


# ---------------------------------------------------------------------------
# Development and reverse development
# ---------------------------------------------------------------------------

def _frame(chart: MetricChart, p, frame) -> np.ndarray:
    """The g-orthonormal frame at p, or else ``frame``, an n x n array of
    finite numbers; BadParam where its columns are no basis to working
    precision."""
    if frame is None:
        return initial_frame(chart, p)
    B = _finite("frame", frame, (chart.dim, chart.dim))
    if np.linalg.matrix_rank(B) < chart.dim:
        raise BadParam(f"frame columns are not a basis: {B.tolist()}")
    return B


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
    B0 = _frame(chart, curve.points[0], frame)

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
    B0 = _frame(chart, p, frame)
    connection = chart.evaluator.connection

    def rhs(t, y):  # a point fault gets the time and x of its stage
        x = y[:n]
        E = y[n:].reshape(n, n)
        v = E @ sigma.velocity(t)
        try:
            C = connection(x, v)
        except _POINT_FAULTS as exc:
            exc.t_exit, exc.point = float(t), x.copy()
            raise
        return np.concatenate([v, (-(C @ E)).ravel()])

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
    tries = _count("tries", tries)
    rng = np.random.default_rng(_count("seed", seed, 0))
    if np.array_equal(p, q):
        traj = integrate_geodesic(chart, p, np.zeros(chart.dim), 0.0,
                                  settings=settings)
        return traj, 0.0
    md = metric_at(chart, p)
    best = None
    base = q - p
    for k in range(tries):
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


"""The fixed-step geodesic kernel: (x, v) stepped in floats with the spray,
then the parallel frame from batched RK4 transitions, checked against the
coupled RK4 of (x, v, frame) on the reference right-hand side
``_geodesic_rhs`` below, guarded per sample by ``_domain_guard``.  The
numpy RKF45 ``_rkf45`` below is the coupled reference of the RKF45 tests."""

import functools
import gc
import linecache
import math
import traceback

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemannkit import expr, manifold, surfrev, transport
from riemannkit.errors import (_POINT_FAULTS, BadDimension, DomainExit, DomainFault,
                               SingularMetric)
from riemannkit.manifold import MetricChart, SampledCurve
from riemannkit.transport import OdeSettings, Trajectory, _rkf45_steps


class StackOnly(manifold.MetricEvaluator):
    """g = diag(1, 1 + u^2 + w^2 / 2), supplied through ``stack`` alone."""

    dim = 2

    def stack(self, x):
        u, w = float(x[0]), float(x[1])
        g = np.diag([1.0, 1.0 + u * u + 0.5 * w * w])
        dg = np.zeros((2, 2, 2))
        dg[0, 1, 1], dg[1, 1, 1] = 2.0 * u, w
        d2g = np.zeros((2, 2, 2, 2))
        d2g[0, 0, 1, 1], d2g[1, 1, 1, 1] = 2.0, 1.0
        return g, dg, d2g


PARABOLOID = {"dim": 2, "coords": ["x", "y"],
              "metric": [["1+4*x^2", "4*x*y"], ["4*x*y", "1+4*y^2"]]}
HOROSPHERICAL = {"dim": 3, "coords": ["x", "y", "z"],
                 "metric": [["exp(2*z)", "0", "0"], ["0", "exp(2*z)", "0"], ["0", "0", "1"]]}
DISK = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "1"]],
        "domain": "1 - x^2 - y^2"}
PARABOLOID_CAP = dict(PARABOLOID, domain="0.36 - x^2 - y^2")
SQRT = {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "1 + sqrt(x)"]]}

CHARTS = {
    "sphere2": lambda: manifold.builtin("sphere_stereo", {"n": 2, "R": 1.0}),
    "sphere3": lambda: manifold.builtin("sphere_stereo", {"n": 3, "R": 1.5}),
    "ball3": lambda: manifold.builtin("hyperbolic_ball", {"n": 3}),
    "torus": lambda: manifold.builtin("torus", {"R": 2.0, "r": 1.0}),
    "paraboloid": lambda: manifold.chart_from_definition(PARABOLOID),
    "horospherical": lambda: manifold.chart_from_definition(HOROSPHERICAL),
    "stack_only": lambda: manifold.MetricChart(dim=2, coords=["u", "w"],
                                               evaluator=StackOnly(), label="stack_only"),
    "euclidean3": lambda: manifold.builtin("euclidean", {"n": 3}),
}


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


def _rk4_step(rhs, t, y, h, k1=None):
    """One textbook RK4 step; ``k1``, when given, is rhs(t, y) already evaluated."""
    if k1 is None:
        k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Fehlberg 4(5) coefficients as published; row s of _RKF_A weighs the stages before s
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


def _coupled(chart, p, v, tmax, step, with_frame=True):
    """(ts, x, v, frame) of the coupled RK4 of (x, v, frame), step by step."""
    n = chart.dim
    y0 = np.concatenate([p, v])
    if with_frame:
        y0 = np.concatenate([y0, transport.initial_frame(chart, p, v).T.ravel()])
    ts = transport._fixed_grid(tmax, OdeSettings(step=step))
    ys = transport.rk4_path(_geodesic_rhs(chart, n), y0, ts, guard=_domain_guard(chart, n))
    frame = ys[:, 2 * n:].reshape(-1, n, n).swapaxes(1, 2) if with_frame else None
    return ts, ys[:, :n], ys[:, n:2 * n], frame


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# -- agreement with the coupled RK4 -------------------------------------------

@pytest.mark.parametrize("name", sorted(set(CHARTS) - {"euclidean3"}))
def test_kernel_matches_coupled_rk4(name):
    chart = CHARTS[name]()
    n = chart.dim
    p, v = np.linspace(0.25, -0.15, n), np.linspace(0.6, -0.4, n)
    ts, x, vel, frame = _coupled(chart, p, v, 1.7, 2e-3)
    geo = transport.integrate_geodesic(chart, p, v, 1.7, settings=OdeSettings(step=2e-3))
    np.testing.assert_array_equal(geo.t, ts)
    assert _rel(geo.x, x) <= 1e-12
    assert _rel(geo.v, vel) <= 1e-12
    assert _rel(geo.frame, frame) <= 1e-12
    bare = transport.integrate_geodesic(chart, p, v, 1.7, settings=OdeSettings(step=2e-3),
                                        with_frame=False)
    assert bare.frame is None
    np.testing.assert_array_equal(bare.x, geo.x)
    np.testing.assert_array_equal(bare.v, geo.v)


def test_zero_length_geodesic_keeps_its_frame(sphere2):
    p, v = np.array([0.3, 0.1]), np.array([1.0, 0.0])
    geo = transport.integrate_geodesic(sphere2, p, v, 0.0)
    np.testing.assert_array_equal(geo.t, [0.0])
    np.testing.assert_array_equal(geo.x, [p])
    np.testing.assert_array_equal(geo.frame, [transport.initial_frame(sphere2, p, v)])


def test_transition_is_one_rk4_step_for_constant_coefficients():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 3, 3))
    h = rng.uniform(-0.2, 0.2, 6)
    Phi = transport._transition([A] * 4, h)
    for b in range(6):
        want = _rk4_step(lambda t, Y: A[b] @ Y, 0.0, np.eye(3), h[b])
        np.testing.assert_allclose(Phi[b], want, rtol=0, atol=1e-15)


def test_transition_is_one_fehlberg_step_for_constant_coefficients():
    # the fifth-order end y5 of one trial step of the coupled RKF45, whose
    # tolerances accept it, for Y' = A Y from Y = I
    rng = np.random.default_rng(6)
    A = rng.normal(size=(6, 3, 3))
    h = rng.uniform(0.01, 0.2, 6)
    Phi = transport._transition([A] * 6, h, transport.FEHLBERG)
    for b in range(6):
        loose = OdeSettings(method="rkf45_adaptive", step=h[b], rtol=1e6, atol=1e6)
        ts, ys = _rkf45(lambda t, y: (A[b] @ y.reshape(3, 3)).ravel(),
                        np.eye(3).ravel(), h[b], loose)
        assert len(ts) == 2 and ts[-1] == h[b]
        np.testing.assert_allclose(Phi[b], ys[-1].reshape(3, 3), rtol=0, atol=1e-15)


def _loop_transition(A, h, tableau):
    """``_transition`` as a loop over the rows of the tableau: the reference
    for the straight-line code that the tableau emits."""
    hb = np.reshape(h, (-1, 1, 1))
    eye = np.eye(A[0].shape[-1])
    K = [A[0]]
    for As, row in zip(A[1:], tableau.a[1:]):
        Y = eye
        for w, Kj in zip(row, K):
            if w:
                Y = Y + (hb if w == 1.0 else w * hb) * Kj
        K.append(As @ Y)
    terms = (Ks if w == 1.0 else w * Ks for w, Ks in zip(tableau.b, K) if w)
    return eye + (hb / tableau.div) * sum(terms, next(terms))  # added in order, one at a time


@pytest.mark.parametrize("name", ["RK4", "FEHLBERG"])
def test_tableau_rows_are_consistent(name):
    tableau = getattr(transport, name)
    assert len(tableau.a) == len(tableau.b) == len(tableau.c)
    for s, row in enumerate(tableau.a):
        assert len(row) == s
        assert abs(sum(row) - tableau.c[s]) <= 1e-15
    assert abs(sum(tableau.b) - tableau.div) <= 1e-15
    if tableau.e is not None:
        assert abs(sum(tableau.e)) <= 1e-15


def test_fehlberg_error_row_is_the_fifth_less_the_fourth_order_weights():
    assert transport.FEHLBERG.e == tuple(_RKF_ERR.tolist())
    assert transport.RK4.e is None


@pytest.mark.parametrize("name", ["RK4", "FEHLBERG"])
@pytest.mark.parametrize("steps, k", [(1, 2), (1024, 4)])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
def test_emitted_transition_is_bitwise_the_tableau_loop(name, steps, k, sign):
    tableau = getattr(transport, name)
    rng = np.random.default_rng(steps + k)
    A = rng.normal(size=(len(tableau.a), steps, k, k))
    h = sign * rng.uniform(1e-3, 0.3, steps)
    got = transport._transition(A, h, tableau)
    want = _loop_transition(A, h, tableau)
    assert got.shape == (steps, k, k)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(5,), (7, 10)], ids=["state", "ray_rows"])
@pytest.mark.parametrize("h", [0.173, -0.173, 0.0, -0.0])
@pytest.mark.parametrize("given_k1", [False, True], ids=["k1_evaluated", "k1_given"])
def test_rk4_array_step_is_bitwise_the_textbook_step(shape, h, given_k1):
    rng = np.random.default_rng(len(shape))
    W = rng.normal(size=(shape[-1], shape[-1]))
    t, y = 0.3, _signed_zeros(rng, rng.normal(size=shape))

    def rhs(t, Y):  # keeps signed zeros of Y where Y @ W is zero
        return np.tanh(Y @ W) * (1.0 + t) - Y * math.cos(t)

    k1 = _signed_zeros(rng, rhs(t, y)) if given_k1 else None
    got = transport.RK4.step(lambda s, Y: rhs(t + transport.RK4.c[s] * h, Y), y, h, k1)
    want = _rk4_step(rhs, t, y, h, k1)
    assert got.shape == shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["RK4", "FEHLBERG"])
def test_a_fault_in_an_array_step_shows_its_stage_statement(name):
    def f(s, Y):
        if s == 2:
            raise DomainFault("stage 2")
        return -Y

    with pytest.raises(DomainFault, match="stage 2") as got:
        getattr(transport, name).step(f, np.ones(3), 0.1)
    frames = [frame for frame in traceback.extract_tb(got.value.__traceback__)
              if frame.filename == f"<riemannkit {name} array step>"]
    assert len(frames) == 1
    assert linecache.getline(frames[0].filename, frames[0].lineno).strip().startswith("K2 = f(2, ")


def test_a_fault_in_a_ray_batch_passes_through_the_array_step():
    # the metric needs sqrt(x); the ray crosses x = 0 near t = 0.3
    chart = manifold.chart_from_definition(SQRT)
    with pytest.raises(DomainFault, match="sqrt of negative argument") as got:
        transport._exp_rays(chart, [[0.3, 0.0]], [[-1.0, 0.2]], OdeSettings(step=1e-3))
    assert 0.29 < got.value.t_exit < 0.32
    text = "".join(traceback.format_exception(got.value))
    assert '"<riemannkit RK4 array step>"' in text
    assert "= f(" in text


# -- the emitted float step of a chart ----------------------------------------

def _combination(form: str, weights, lists: str, first: str = "") -> str:
    """Source of [form(sum_j w_j a_j) for y, a_j in zip(first, lists.format(j))]
    over the j with w_j != 0, in order; without ``first``, there is no y."""
    used = [j for j, w in enumerate(weights) if w]
    total = " + ".join(transport._weighted(weights[j], f"a{j}") for j in used)
    heads = ["y"] * bool(first) + [f"a{j}" for j in used]
    names = [first] * bool(first) + [lists.format(j) for j in used]
    return f"[{form.format(total)} for {', '.join(heads)} in zip({', '.join(names)})]"


@functools.cache
def _generic_step(tableau):
    """``step(spray, x0, v0, h, rows)``, the step of a tableau over any spray
    callable, one list comprehension and one ``spray`` call per stage: the
    reference for the chart steps that the tableau emits.  Rounded as they
    are, it records each stage point in ``rows`` before its spray call and
    returns x, v and, where the error row is given, |h sum_s e[s] K_s|."""
    lines = []
    for s, row in enumerate(tableau.a):
        if s:
            lines += [f"x{s} = {_combination('y + h * ({})', row, 'v{}', 'x0')}",
                      f"v{s} = {_combination('y - h * ({})', row, 'q{}', 'v0')}"]
        lines += [f"rows += x{s}", f"rows += v{s}", f"q{s} = spray(x{s}, v{s})"]
    ends = [_combination("y + hd * ({})", tableau.b, "v{}", "x0"),
            _combination("y - hd * ({})", tableau.b, "q{}", "v0")]
    if tableau.e is not None:
        ends.append(_combination("abs(h * ({}))", tableau.e, "v{0} + q{0}"))
    lines += [f"hd = h / {tableau.div!r}", f"return {', '.join(ends)}"]
    return expr._define("step", "spray, x0, v0, h, rows", lines)


def _reference_step(chart, tableau, x, v, h, rows, atol=1e-11, rtol=1e-9):
    """The generic step of ``tableau`` with the chart's spray and, for an
    error row, the RKF45 error norm of its errors in a list (NaN where one is)."""
    out = _generic_step(tableau)(chart.evaluator.spray, x, v, h, rows)
    if tableau.e is None:
        return out
    x5, v5, err = out
    r = [ej / (atol + rtol * max(abs(yj), abs(zj))) for yj, zj, ej in zip(x + v, x5 + v5, err)]
    # Python's max skips a NaN that is not first; np.max would not
    return x5, v5, math.nan if math.isnan(sum(r)) else max(r)


def _both_steps(chart, tableau, x, v, h):
    """(result or exception, rows) of the chart step and of the reference step."""
    runs = []
    for step in (transport._chart_step(chart, tableau), functools.partial(_reference_step, chart, tableau)):
        rows = []
        args = (x, v, h, rows) + ((1e-11, 1e-9) if tableau.e is not None else ())
        try:
            runs.append((step(*args), rows))
        except Exception as exc:  # compared below: type, message and the rows so far
            runs.append((exc, rows))
    return runs


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _signed_zeros(rng, a):
    """a with about a quarter of its entries replaced by 0.0 or -0.0."""
    a = np.array(a, dtype=float)
    hit = rng.random(a.shape) < 0.25
    a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
    return a


@pytest.mark.parametrize("tableau", ["RK4", "FEHLBERG"])
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_step_is_bitwise_the_generic_step(name, tableau):
    check_chart_step_is_bitwise_the_generic_step(CHARTS[name](), getattr(transport, tableau))


def check_chart_step_is_bitwise_the_generic_step(chart, tableau, cases=150):
    n = chart.dim
    rng = np.random.default_rng(len(chart.label) + 7 * n)
    low, high = chart.sample_box if chart.sample_box is not None else (-np.ones(n), np.ones(n))
    inside = 0
    for _ in range(cases):
        x = _signed_zeros(rng, rng.uniform(low, high))
        if not chart.contains(x):
            continue
        inside += 1
        v = _signed_zeros(rng, rng.normal(0.0, 2.0, n))
        h = float(_signed_zeros(rng, rng.uniform(-0.3, 0.3)))
        (got, got_rows), (want, want_rows) = _both_steps(chart, tableau, x.tolist(), v.tolist(), h)
        assert _bits(got_rows) == _bits(want_rows)
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert _bits(a) == _bits(b)
    assert inside >= cases // 2


def _hyperbolic_edge(a):  # the stage-1 point (1, 0), where mu(|x|^2) divides by 0
    return manifold.builtin("hyperbolic_ball", {"n": 2}), [1.0 - a, 0.0], [1.0, 0.0]


def _axis(a):  # the stage-1 point u = 0, where the profile f(u) = u meets the axis
    chart = manifold.MetricChart(dim=2, coords=["u", "theta"], label="cone",
                                 evaluator=surfrev.SurfRevEvaluator(surfrev.SmoothFunc("u")))
    return chart, [a, 0.5], [-1.0, 2.0]


def _negative_sqrt(a):  # the stage-1 point x = 0.1 - a < 0
    return manifold.chart_from_definition(SQRT), [0.1, 0.2], [-1.0, 0.5]


def _zero_pivot(a):  # the stage-1 point x = 0, where g_00 = x is a zero pivot
    doc = {"dim": 2, "coords": ["x", "y"], "metric": [["x", "0"], ["0", "1"]]}
    return manifold.chart_from_definition(doc), [a, 0.3], [-1.0, 0.5]


def _overflowing_power(a):  # the stage-1 point x = 1e-103, where d_x x^-2 overflows
    doc = {"dim": 2, "coords": ["x", "y"], "metric": [["1 + x^-2", "0"], ["0", "1"]]}
    return manifold.chart_from_definition(doc), [1e-100, 0.5], [-(1e-100 - 1e-103) / a, 0.0]


@pytest.mark.parametrize("tableau", ["RK4", "FEHLBERG"])
@pytest.mark.parametrize("case, fault, message", [
    (_hyperbolic_edge, ZeroDivisionError, "float division by zero"),
    (_axis, DomainFault, "f(u) = 0 at u = 0"),
    (_negative_sqrt, DomainFault, "sqrt of negative argument"),
    (_zero_pivot, SingularMetric, "metric singular at [0.0, 0."),
    (_overflowing_power, OverflowError, "negative power overflows at [1.0"),
])
def test_each_fragment_kind_faults_at_its_stage_as_its_spray(case, fault, message, tableau):
    # conformal, surface of revolution and expression fragments: the step
    # from x0 by h = 1 reaches its fault at stage 1, whose point it has
    # recorded, and raises what the spray raises there
    tableau = getattr(transport, tableau)
    chart, x, v = case(tableau.a[1][0])
    n = chart.dim
    (got, rows), (want, want_rows) = _both_steps(chart, tableau, x, v, 1.0)
    assert type(got) is type(want) is fault
    assert str(got) == str(want) and str(got).startswith(message)
    assert _bits(rows) == _bits(want_rows) and len(rows) == 2 * 2 * n
    with pytest.raises(fault) as per_point:
        chart.evaluator.spray(rows[-2 * n:-n], rows[-n:])
    assert str(per_point.value) == str(got)


def _listed_steps() -> set:
    return {name for name in linecache.cache if name.startswith("<riemannkit ")}


def test_a_chart_step_is_emitted_once_on_first_use(monkeypatch):
    # and only a chart step's source is kept in linecache, while it lives
    emitted = []
    define = transport._define
    monkeypatch.setattr(transport, "_define",
                        lambda name, *args: emitted.append(name) or define(name, *args))
    gc.collect()  # steps of charts earlier tests dropped would otherwise leave the listing mid-test
    before = _listed_steps()
    charts = [CHARTS[name]() for name in ("sphere2", "torus", "paraboloid", "stack_only")]
    assert emitted == [] and _listed_steps() == before
    for chart in charts:
        assert "_float_steps" not in vars(chart.evaluator)
        p, v = np.full(2, 0.3), np.array([0.5, -0.2])
        for method in ("rk4_fixed", "rkf45_adaptive", "rk4_fixed", "rkf45_adaptive"):
            transport.integrate_geodesic(chart, p, v, 0.2, settings=OdeSettings(method=method, step=0.05),
                                         with_frame=False)
        assert sorted(vars(chart.evaluator)["_float_steps"]) == ["FEHLBERG", "RK4"]
    assert emitted == ["step"] * 2 * len(charts)
    assert len(_listed_steps() - before) == 2 * len(charts)
    del chart, charts
    gc.collect()
    assert _listed_steps() <= before


@pytest.mark.parametrize("method", ["rk4_fixed", "rkf45_adaptive"])
def test_the_first_float_step_compiles_no_per_point_spray(method):
    # the step inlines the evaluator's connection fragment, not the spray's form
    chart = manifold.chart_from_definition(PARABOLOID)
    transport.integrate_geodesic(chart, [0.3, 0.1], [1.0, 0.4], 0.2, with_frame=False,
                                 settings=OdeSettings(method=method, step=0.05))
    assert "spray" not in vars(chart.evaluator)


class Forwarding:
    """An evaluator that hands every attribute on to another one."""

    def __init__(self, evaluator):
        self.inner = evaluator

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("name", ["sphere2", "torus", "paraboloid", "stack_only"])
def test_a_forwarding_wrapper_gets_the_same_chart_step(name):
    # its step inlines the evaluator's fragment, line for line as the
    # evaluator's own step does
    def source(evaluator):
        chart = MetricChart(dim=2, coords=["u", "w"], evaluator=evaluator)
        code = transport._chart_step(chart, transport.RK4).__code__
        return linecache.getlines(code.co_filename)
    assert source(Forwarding(CHARTS[name]().evaluator)) == source(CHARTS[name]().evaluator)


def test_a_conformal_profile_cannot_be_replaced_under_its_chart_step():
    # the chart's float step has c and sign inlined: a flat model assigned
    # afterwards would reach connection but not exp_map
    chart = CHARTS["sphere2"]()
    p, v = [0.3, 0.1], [1.0, 0.4]
    end = transport.exp_map(chart, p, v)
    for name in ("c", "sign", "K"):
        with pytest.raises(AttributeError):
            setattr(chart.evaluator, name, 0.0)
    np.testing.assert_array_equal(transport.exp_map(chart, p, v), end)
    np.testing.assert_allclose(end, [3.0991, 1.3925], atol=1e-4)


def test_a_fault_in_an_inlined_spray_shows_its_statement():
    chart = manifold.chart_from_definition(dict(SQRT, label="sqrt_chart"))
    with pytest.raises(DomainFault) as got:
        transport.integrate_geodesic(chart, [0.3, 0.0], [-1.0, 0.2], 1.0, with_frame=False)
    text = "".join(traceback.format_exception(got.value))
    assert '"<riemannkit RK4 step on sqrt_chart #' in text
    assert "raise DomainFault(f'sqrt of negative argument {" in text


# -- the sprays ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CHARTS))
def test_spray_is_connection_applied_to_v(name):
    chart = CHARTS[name]()
    ev = chart.evaluator
    low, high = chart.sample_box if chart.sample_box is not None else (-np.ones(2), np.ones(2))

    @settings(max_examples=60, deadline=None)
    @given(u=st.lists(st.floats(0.0, 1.0), min_size=chart.dim, max_size=chart.dim),
           v=st.lists(st.floats(-3.0, 3.0), min_size=chart.dim, max_size=chart.dim))
    def check(u, v):
        x = np.asarray(low) + (np.asarray(high) - np.asarray(low)) * np.asarray(u)
        if not chart.contains(x):
            return
        got = ev.spray(x.tolist(), v)
        assert isinstance(got, list) and len(got) == chart.dim
        want = ev.connection(x, np.asarray(v)) @ np.asarray(v)
        scale = max(1.0, float(np.max(np.abs(ev.gamma(x))))) * max(1.0, float(np.dot(v, v)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    check()


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_metric_batch_matches_pointwise(name):
    chart = CHARTS[name]()
    X = chart.sample_points(16, 11)
    G = chart.evaluator.metric_batch(X)
    np.testing.assert_allclose(G, [chart.evaluator.metric(x) for x in X], rtol=1e-15, atol=0)


# -- leaving the domain and faults -------------------------------------------

@pytest.mark.parametrize("j", [9, transport.CHECK_EVERY - 1, transport.CHECK_EVERY,
                               transport.CHECK_EVERY + 1, 2 * transport.CHECK_EVERY + 7])
@pytest.mark.parametrize("with_frame", [True, False])
def test_domain_exit_matches_the_per_sample_guard(j, with_frame):
    # a straight line through the unit disk whose sample j is the first outside
    disk = manifold.chart_from_definition(DISK)
    h = 1.0 / 128.0
    p, v = np.array([1.0 - (j - 0.5) * h, 0.0]), np.array([1.0, 0.0])
    with pytest.raises(DomainExit) as want:
        _coupled(disk, p, v, 300 * h, h, with_frame)
    with pytest.raises(DomainExit) as got:
        transport.integrate_geodesic(disk, p, v, 300 * h, settings=OdeSettings(step=h),
                                     with_frame=with_frame)
    got, want = got.value, want.value
    assert len(got.trajectory.t) == len(want.trajectory.t) == j
    assert got.t_exit == want.t_exit == j * h
    np.testing.assert_array_equal(got.point, want.point)
    np.testing.assert_array_equal(got.trajectory.t, want.trajectory.t)
    np.testing.assert_array_equal(got.trajectory.x, want.trajectory.x)
    np.testing.assert_array_equal(got.trajectory.v, want.trajectory.v)


@pytest.mark.parametrize("tmax", [0.75, 3.0])
def test_domain_exit_on_a_curved_chart(tmax):
    # the paraboloid over a disk of radius 0.6: sample 744 is the first
    # outside; with tmax = 0.75 the last block ends 6 steps after it
    chart = manifold.chart_from_definition(PARABOLOID_CAP)
    p, v = np.array([0.1, -0.05]), np.array([0.8, 0.3])
    for with_frame in (True, False):
        with pytest.raises(DomainExit) as want:
            _coupled(chart, p, v, tmax, 1e-3, with_frame)
        with pytest.raises(DomainExit) as got:
            transport.integrate_geodesic(chart, p, v, tmax, settings=OdeSettings(step=1e-3),
                                         with_frame=with_frame)
        got, want = got.value, want.value
        assert got.t_exit == want.t_exit == pytest.approx(0.744, abs=1e-12)
        assert len(got.trajectory.t) == len(want.trajectory.t) == 744
        np.testing.assert_allclose(got.point, want.point, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.trajectory.x, want.trajectory.x, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got.trajectory.v, want.trajectory.v, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("step", [1e-3, 2e-3, 1e-2, 0.1, 0.3])
@pytest.mark.parametrize("n,R", [(2, 0.6), (2, 1.0), (3, 1.5)])
def test_ray_into_the_pole_leaves_the_chart(step, n, R):
    # the stereographic image of the pole is at infinity; the steps past the
    # cap overflow, and only DomainExit or OverflowError may come of it
    chart = manifold.builtin("sphere_stereo", {"n": n, "R": R})
    p, v = np.zeros(n), np.zeros(n)
    p[0], v[0] = 0.3 * R, 1.0
    with pytest.raises((DomainExit, OverflowError)):
        transport.integrate_geodesic(chart, p, v, 10.0 * R, settings=OdeSettings(step=step))


@pytest.mark.parametrize("with_frame", [True, False])
def test_point_fault_is_located_as_by_the_coupled_rk4(with_frame):
    # the metric needs sqrt(x); the ray crosses x = 0 near t = 0.3, inside a block
    chart = manifold.chart_from_definition(SQRT)
    p, v = np.array([0.3, 0.0]), np.array([-1.0, 0.2])
    with pytest.raises(DomainFault) as want:
        _coupled(chart, p, v, 1.0, 1e-3, with_frame)
    with pytest.raises(DomainFault, match="sqrt of negative argument") as got:
        transport.integrate_geodesic(chart, p, v, 1.0, settings=OdeSettings(step=1e-3),
                                     with_frame=with_frame)
    got, want = got.value, want.value
    assert got.t_exit == want.t_exit
    assert 0.29 < got.t_exit < 0.32
    np.testing.assert_allclose(got.point, want.point, rtol=1e-12, atol=1e-15)
    assert len(got.trajectory.t) == len(want.trajectory.t)
    np.testing.assert_array_equal(got.trajectory.t, want.trajectory.t)
    np.testing.assert_allclose(got.trajectory.x, want.trajectory.x, rtol=1e-12, atol=1e-15)


def test_a_point_fault_in_reverse_develop_is_located_at_its_stage():
    # the line (-t, 0.2 t) from (0.1, 0) reverse-develops into x < 0, where
    # the metric needs sqrt(x), at the midpoint stage of the step from t = 0.1
    chart = manifold.chart_from_definition(SQRT)
    t = np.linspace(0.0, 0.5, 51)
    sigma = SampledCurve(t, np.column_stack([-t, 0.2 * t]), np.tile([-1.0, 0.2], (51, 1)))
    with pytest.raises(DomainFault, match="sqrt of negative argument") as got:
        transport.reverse_develop(chart, sigma, [0.1, 0.0], substeps=4)
    h = (t[11] - t[10]) / 4
    assert got.value.t_exit == t[10] + 0.5 * h
    before = transport.reverse_develop(
        chart, SampledCurve(t[:11], sigma.points[:11], sigma.velocities[:11]), [0.1, 0.0], substeps=4)
    assert before.points[-1][0] > 0.0 > got.value.point[0]
    np.testing.assert_allclose(got.value.point, before.points[-1] + (0.5 * h) * before.velocities[-1],
                               rtol=1e-12)


class FaultOnCall:
    """``evaluator`` with a fragment that first calls a counting global, which
    records the x of every call and raises DomainFault on call k (counted
    from 0)."""

    def __init__(self, evaluator, k: int):
        self.evaluator, self.k, self.xs = evaluator, k, []

    def __getattr__(self, name):
        return getattr(self.evaluator, name)

    def count(self, *x):
        self.xs.append(list(x))
        if len(self.xs) > self.k:
            raise DomainFault(f"spray call {self.k}")

    def connection_fragment(self, x, terms, rows=False):
        lines, env = self.evaluator.connection_fragment(x, terms, rows)
        return [f"_count({', '.join(x)})", *lines], dict(env, _count=self.count)


@pytest.mark.parametrize("method, stage", [("rk4_fixed", s) for s in range(4)]
                         + [("rkf45_adaptive", s) for s in range(6)])
def test_spray_fault_is_located_at_its_stage(monkeypatch, method, stage):
    # the spray faults at one stage of the fourth step (RK4) or trial step
    # (RKF45): t_exit is t + c h of that stage and point is its x, exactly
    trials = []  # (t, h) of every RKF45 trial step
    steps = transport._rkf45_steps

    def logged(trial, y, t1, settings):
        def logged_trial(t, y, h):
            trials.append((t, h))
            return trial(t, y, h)
        return steps(logged_trial, y, t1, settings)

    monkeypatch.setattr(transport, "_rkf45_steps", logged)
    chart = CHARTS["sphere2"]()
    k = 3 * (4 if method == "rk4_fixed" else 6) + stage
    chart.evaluator = FaultOnCall(chart.evaluator, k)
    settings = OdeSettings(method=method, step=0.05)
    with pytest.raises(DomainFault, match=f"spray call {k}") as got:
        transport.integrate_geodesic(chart, [0.3, 0.1], [1.0, 0.4], 1.0, settings=settings,
                                     with_frame=False)
    if method == "rk4_fixed":
        ts = transport._fixed_grid(1.0, settings)
        t, h = ts[3], np.diff(ts).tolist()[3]
        want = (t, t + 0.5 * h, t + 0.5 * h, t + h)[stage]
    else:
        t, h = trials[3]
        want = t + _RKF_C[stage] * h
    assert got.value.t_exit == float(want)
    np.testing.assert_array_equal(got.value.point, chart.evaluator.xs[k])
    assert got.value.trajectory.t[-1] == t


def test_fault_after_the_exit_is_the_domain_exit():
    # the ray leaves x > 0.02 at sample 282 and faults at x = 0 in step 299,
    # both in the block of samples 257..320: the exit is what is reported
    chart = manifold.chart_from_definition(dict(SQRT, domain="x - 0.02"))
    p, v = np.array([0.3, 0.0]), np.array([-1.0, 0.2])
    with pytest.raises(DomainExit) as want:
        _coupled(chart, p, v, 1.0, 1e-3)
    with pytest.raises(DomainExit) as got:
        transport.integrate_geodesic(chart, p, v, 1.0, settings=OdeSettings(step=1e-3))
    assert got.value.t_exit == want.value.t_exit == pytest.approx(0.282, abs=1e-12)
    assert len(got.value.trajectory.t) == len(want.value.trajectory.t) == 282
    np.testing.assert_allclose(got.value.point, want.value.point, rtol=1e-12, atol=1e-15)
    with pytest.raises(DomainFault):  # without the domain, the fault itself
        transport.integrate_geodesic(manifold.chart_from_definition(SQRT), p, v, 1.0,
                                     settings=OdeSettings(step=1e-3))


# -- points of the wrong length ----------------------------------------------

def test_wrong_length_point_is_a_bad_dimension(hyper2):
    p3, v3 = [0.1, 0.2, 0.0], [0.3, 0.0, 0.1]
    with pytest.raises(BadDimension):
        transport.integrate_geodesic(hyper2, p3, v3, 1.0)
    with pytest.raises(BadDimension):
        transport.exp_map(hyper2, p3, v3)
    with pytest.raises(BadDimension):
        transport.log_map(hyper2, p3, [0.2, 0.1, 0.0])
    with pytest.raises(BadDimension):
        transport.integrate_geodesic(hyper2, [0.1, 0.2], v3, 1.0)
    with pytest.raises(BadDimension):
        transport.exp_map(hyper2, [0.1, 0.2], v3)
    with pytest.raises(DomainExit):
        hyper2.require_inside([[0.1, 0.2], [2.0, 0.0]])

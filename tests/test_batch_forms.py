"""Batch-first evaluation: the batches of every evaluator kind against its
per-point functions, bitwise, on both sides of the ``BATCH_ROWS`` crossover,
and fault for fault where a check fails inside a batch."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemannkit import manifold, surfrev
from riemannkit.errors import BadProfile, DomainFault, SingularMetric
from riemannkit.manifold import BATCH_ROWS, MetricEvaluator
from riemannkit.transport import OdeSettings, integrate_geodesic
from test_compiled import _COORD, FAULTS, METRICS, _evaluator, _sphere
from test_connection import EXPR2, EXPR3
from test_spray import StackOnly


def _expr_chart(coords, rows):
    return manifold.chart_from_definition({"dim": len(coords), "coords": coords,
                                           "metric": rows})


CHARTS = {
    "euclidean": lambda: manifold.builtin("euclidean", {"n": 3}),
    "sphere_stereo": lambda: manifold.builtin("sphere_stereo", {"n": 3, "R": 1.5}),
    "hyperbolic_ball": lambda: manifold.builtin("hyperbolic_ball", {"n": 2}),
    "torus": lambda: manifold.builtin("torus", {"R": 2.0, "r": 1.0}),
    # an arclength expression profile, and a chained one from re-parametrizing
    "surfrev_expr": lambda: surfrev.surface_of_revolution(
        surfrev.Profile(f="2 + cos(u)", h="sin(u)", u_range=(-3.0, 3.0))),
    "surfrev_chain": lambda: surfrev.surface_of_revolution(
        surfrev.Profile(f="1 + u^2", h="u", u_range=(-1.0, 1.0), arclength=False)),
    "expr2": lambda: manifold.chart_from_definition(EXPR2),
    "expr3": lambda: manifold.chart_from_definition(EXPR3),
    **{f"expr_{name}": functools.partial(_expr_chart, *METRICS[name])
       for name in ("sphere", "paraboloid", "horospherical")},
    # the default fragment of an evaluator that supplies only stack
    "stack_only": lambda: manifold.MetricChart(dim=2, coords=["u", "w"], evaluator=StackOnly(),
                                               label="stack_only"),
}
SIZES = (1, BATCH_ROWS - 1, BATCH_ROWS, 2048)


@functools.lru_cache(maxsize=None)
def _chart(name):
    return CHARTS[name]()


def _same(got, want):
    """Equal shape, dtype and bytes: bitwise, signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_batches_equal_the_per_point_functions_bitwise(name, size):
    chart = _chart(name)
    ev = chart.evaluator
    X = chart.sample_points(size, 13)
    V = np.random.default_rng([13, size]).uniform(-1.5, 1.5, (size, chart.dim))
    assert _same(ev.metric_batch(X), [ev.metric(x) for x in X])
    stacks = [ev.stack(x) for x in X]
    for got, k in zip(ev.stack_batch(X), range(3)):
        assert _same(got, [s[k] for s in stacks])
    assert _same(ev.gamma_batch(X), [ev.gamma(x) for x in X])
    assert _same(ev.connection_batch(X, V), [ev.connection(x, v) for x, v in zip(X, V)])
    assert _same(ev.spray_batch(X, V), [ev.spray(x.tolist(), v.tolist()) for x, v in zip(X, V)])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_metric_batch_is_the_g_of_stack_batch_bitwise(name, size):
    # callers that need only g read metric_batch
    ev = _chart(name).evaluator
    X = _chart(name).sample_points(size, 17)
    assert _same(ev.metric_batch(X), ev.stack_batch(X)[0])


def test_the_crossover_picks_the_loop_or_the_array_form():
    ev = manifold.ExpressionEvaluator(_chart("expr2").evaluator.asts, 2)
    inner = ev.gamma
    calls = []

    def counted(x):
        calls.append(1)
        return inner(x)

    ev.gamma = counted
    X = _chart("expr2").sample_points(BATCH_ROWS, 3)
    ev.gamma_batch(X[:-1])
    assert len(calls) == BATCH_ROWS - 1
    ev.gamma_batch(X)
    assert len(calls) == BATCH_ROWS - 1  # the array form, no per-point call


# ---------------------------------------------------------------------------
# Faults inside a batch
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainFault, SingularMetric, OverflowError) as exc:
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        point, want_point = getattr(got, "point", None), getattr(want, "point", None)
        assert (point is None and want_point is None) or _same(point, want_point)
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and all(_same(a, b) for a, b in zip(got, want))
    else:
        assert _same(got, want)


# each batch and the per-point loop it must match
LOOPS = {
    "metric_batch": lambda ev, X, V: MetricEvaluator.metric_batch(ev, X),
    "stack_batch": lambda ev, X, V: MetricEvaluator.stack_batch(ev, X),
    "gamma_batch": lambda ev, X, V: MetricEvaluator.gamma_batch(ev, X),
    "connection_batch": lambda ev, X, V: manifold._batch(
        None, ev.connection, [(ev.dim, ev.dim)], X, V),
}


def _assert_batches_fault_as_the_loop(ev, X, V=None):
    V = np.ones_like(X) if V is None else V
    for name, loop in LOOPS.items():
        batch = getattr(ev, name)
        args = (X, V) if name == "connection_batch" else (X,)
        _assert_same_outcome(_outcome(batch, *args), _outcome(loop, ev, X, V))


def _rows(count, seed=5):
    """Points with 0.5 < x < 0.9 and 0.1 < y < 0.4, where every FAULTS
    expression is defined."""
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0.5, 0.9, count), rng.uniform(0.1, 0.4, count)])


@pytest.mark.parametrize("row", [0, 37, BATCH_ROWS + 40])
@pytest.mark.parametrize("source, point, lowest", FAULTS)
def test_domain_faults_in_a_batch(source, point, lowest, row):
    ev = _evaluator(["x", "y"], [[source, "0"], ["0", "1"]])
    X = _rows(BATCH_ROWS + 48)
    X[row] = point
    _assert_batches_fault_as_the_loop(ev, X)
    # the loop's fault at the row, or no fault below the lowest order
    outcome = _outcome(ev.stack_batch, X)
    assert isinstance(outcome, DomainFault)
    assert outcome.point is None or _same(outcome.point, X[row])
    metric = _outcome(ev.metric_batch, X)
    assert isinstance(metric, DomainFault) == (lowest == 0)
    assert _same(_outcome(ev.gamma_batch, X).point, X[row])


def test_overflow_in_a_batch_raises_the_loops_error():
    ev = _evaluator(["x", "y"], _sphere(1.2))
    X = _rows(2 * BATCH_ROWS)
    X[BATCH_ROWS + 3] = [1e160, 0.0]
    for name in LOOPS:
        args = (X, X) if name == "connection_batch" else (X,)
        with pytest.raises(OverflowError):
            getattr(ev, name)(*args)
    _assert_batches_fault_as_the_loop(ev, X)


def test_a_negative_power_overflow_in_a_batch_raises_the_loops_error():
    # x^-2 = 1 / x^2 overflows at 1e-157; under exp its inf would turn into
    # a finite value, so the array form's own check sends the batch to the loop
    X = _rows(2 * BATCH_ROWS)
    X[BATCH_ROWS + 3] = [1e-157, 0.2]
    for g00 in ("1 + x^-2", "2 + exp(-x^-2)"):
        ev = _evaluator(["x", "y"], [[g00, "0"], ["0", "1"]])
        for name in LOOPS:
            args = (X, X) if name == "connection_batch" else (X,)
            with pytest.raises(OverflowError):
                getattr(ev, name)(*args)
        _assert_batches_fault_as_the_loop(ev, X)


@pytest.mark.parametrize("size", [BATCH_ROWS - 1, 2 * BATCH_ROWS])
@pytest.mark.parametrize("name", ["metric_batch", "stack_batch"])
def test_a_fault_in_the_loop_names_its_row(name, size):
    # below BATCH_ROWS the loop runs at once; from it on, the array form's
    # failing log check sends the batch to the loop
    ev = _evaluator(["x", "y"], [["2 + log(x)", "0"], ["0", "1"]])
    X = _rows(size)
    row = size - 4
    X[row, 0] = -1.0
    with pytest.raises(DomainFault) as one:
        ev.metric(X[row])
    with pytest.raises(DomainFault) as info:
        getattr(ev, name)(X)
    assert str(info.value) == str(one.value)
    assert _same(info.value.point, X[row])


@pytest.mark.parametrize("row", [0, 1, 1000, 2047])
def test_a_zero_pivot_at_a_row_of_a_large_batch(row):
    ev = _evaluator(["x", "y"], [["1", "0"], ["0", "x"]])
    X = _rows(2048)
    X[row] = [0.0, 0.3]
    with pytest.raises(SingularMetric, match="metric singular") as info:
        ev.gamma_batch(X)
    assert _same(info.value.point, X[row])
    _assert_batches_fault_as_the_loop(ev, X)


class SingularAtOrigin(MetricEvaluator):
    """g = diag(1, u^2 + w^2), singular at the origin alone, supplied
    through ``stack``."""

    dim = 2

    def stack(self, x):
        u, w = float(x[0]), float(x[1])
        dg = np.zeros((2, 2, 2))
        dg[0, 1, 1], dg[1, 1, 1] = 2.0 * u, 2.0 * w
        d2g = np.zeros((2, 2, 2, 2))
        d2g[0, 0, 1, 1] = d2g[1, 1, 1, 1] = 2.0
        return np.diag([1.0, u * u + w * w]), dg, d2g


@pytest.mark.parametrize("size", [BATCH_ROWS - 1, 2 * BATCH_ROWS])
def test_a_singular_g_of_the_default_fragment_names_its_point(size):
    # per point, and in a batch below BATCH_ROWS or from it on, where the
    # array form's inverse fails and sends the batch to the loop
    ev = SingularAtOrigin()
    X = _rows(size)
    X[size - 4] = 0.0
    V = np.ones_like(X)
    origin = np.zeros(2)
    forms = [lambda: ev.gamma(origin), lambda: ev.connection(origin, V[0]),
             lambda: ev.spray([0.0, 0.0], [1.0, 1.0]), lambda: ev.gamma_batch(X),
             lambda: ev.connection_batch(X, V), lambda: ev.spray_batch(X, V)]
    for form in forms:
        with pytest.raises(SingularMetric) as info:
            form()
        assert str(info.value) == f"metric singular at {origin}"
        assert _same(info.value.point, origin)


def test_the_first_failing_row_wins_over_the_first_failing_check():
    # the log check comes before the sqrt check in the compiled statements;
    # row 9 fails the log and row 3 the sqrt, and the loop stops at row 3
    ev = _evaluator(["x", "y"], [["2 + log(x) + sqrt(y)", "0"], ["0", "1"]])
    X = _rows(4 * BATCH_ROWS)
    X[9, 0] = -1.0
    X[3, 1] = -1.0
    with pytest.raises(DomainFault, match="sqrt of negative argument") as info:
        ev.gamma_batch(X)
    assert _same(info.value.point, X[3])
    _assert_batches_fault_as_the_loop(ev, X)


def test_an_overflow_at_a_later_row_than_a_fault_raises_the_fault():
    # the exp statement comes first and overflows at row 5; the loop stops at
    # the log fault of row 2
    ev = _evaluator(["x", "y"], [["2 + exp(x) + log(y)", "0"], ["0", "1"]])
    X = _rows(2 * BATCH_ROWS)
    X[5, 0] = 1000.0
    X[2, 1] = -1.0
    with pytest.raises(DomainFault, match="log of nonpositive argument") as info:
        ev.gamma_batch(X)
    assert _same(info.value.point, X[2])
    _assert_batches_fault_as_the_loop(ev, X)


def test_sign_at_zero_as_the_loop():
    # d abs(u) = sign(u) du with sign(0) = 1
    ev = _evaluator(["x", "y"], [["2 + abs(x)", "abs(x - y)/4"], ["abs(x - y)/4", "2 + x*y"]])
    X = _rows(2 * BATCH_ROWS)
    X[3, 0] = 0.0
    X[7] = [0.4, 0.4]
    X[8] = [0.0, 0.0]
    _assert_batches_fault_as_the_loop(ev, X)
    assert ev.stack_batch(X)[1][3, 0, 0, 0] == 1.0


def test_a_value_that_is_not_finite_sends_the_batch_to_the_loop():
    # f = u vanishes at u = 0, outside the profile's range: there the
    # per-point f'/f raises DomainFault, and the array form's inf goes back
    # to the loop, which raises as it does and names the row
    chart = surfrev.surface_of_revolution(surfrev.Profile(f="u", h="0", u_range=(0.5, 2.0)))
    ev = chart.evaluator
    X = np.column_stack([np.linspace(0.6, 1.9, 2 * BATCH_ROWS), np.zeros(2 * BATCH_ROWS)])
    X[BATCH_ROWS + 1, 0] = 0.0
    with pytest.raises(DomainFault) as one:
        ev.gamma(X[BATCH_ROWS + 1])
    for name in ("gamma_batch", "connection_batch"):
        args = (X, X) if name == "connection_batch" else (X,)
        with pytest.raises(DomainFault) as info:
            getattr(ev, name)(*args)
        assert str(info.value) == str(one.value)
        assert np.array_equal(info.value.point, X[BATCH_ROWS + 1])
    stacks = [ev.stack(x) for x in X]
    for got, k in zip(ev.stack_batch(X), range(3)):
        assert _same(got, [s[k] for s in stacks])


# sign (as the derivative of abs), abs, sqrt and non-integer powers, with
# terms that fault at a zero coordinate
_FUNCTION_TERMS = st.sampled_from([
    "abs(x)", "abs(x - y)", "sqrt(1 + x^2 + y^2)", "sqrt(abs(y))", "abs(y)^1.5",
    "(2 + x*y)^0.5", "(1 + x^2)^-0.25", "2^x", "x*y^2", "y^-1"])
_TERMS = st.lists(st.tuples(st.floats(-0.05, 0.05), _FUNCTION_TERMS), max_size=3)


@settings(max_examples=40, deadline=None)
@given(c=st.floats(2.0, 4.0), entries=st.lists(_TERMS, min_size=3, max_size=3),
       points=st.lists(st.tuples(_COORD, _COORD), min_size=BATCH_ROWS, max_size=BATCH_ROWS + 8))
def test_batches_of_perturbed_identities_match_the_loop(c, entries, points):
    def entry(terms, diagonal):
        parts = [f"{coef!r}*{term}" for coef, term in terms]
        return " + ".join([repr(c)] * diagonal + parts) or "0"

    g00, g01, g11 = (entry(terms, diag) for terms, diag in zip(entries, (1, 0, 1)))
    ev = _evaluator(["x", "y"], [[g00, g01], [g01, g11]])
    X = np.array(points, dtype=float)
    V = np.random.default_rng(len(points)).uniform(-1.0, 1.0, X.shape)
    _assert_batches_fault_as_the_loop(ev, X, V)


# ---------------------------------------------------------------------------
# Profiles on arrays
# ---------------------------------------------------------------------------

PROFILES = {
    "expression": lambda: surfrev.Profile(f="1 + u^2", h="u", u_range=(-1.0, 1.0),
                                          arclength=False),
    "torus": lambda: surfrev._profile_of(manifold.builtin("torus", {"R": 2.0, "r": 0.7})),
    "chain": lambda: surfrev.reparametrize_arclength(PROFILES["expression"]()),
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profile_batches_equal_the_calls(name):
    prof = PROFILES[name]()
    us = np.linspace(*prof.u_range, 1001)
    for fun in (prof.f, prof.h):
        calls = [fun(u) for u in us]
        for got, k in zip(fun.batch(us), range(3)):
            assert _same(got, [c[k] for c in calls])


def test_profile_batch_faults_as_the_call():
    fun = surfrev.SmoothFunc("log(u)")
    us = np.linspace(-1.0, 1.0, 64)
    with pytest.raises(DomainFault) as want:
        fun(us[0])
    with pytest.raises(DomainFault) as got:
        fun.batch(us)
    assert str(got.value) == str(want.value)


def test_the_profile_crossover_picks_the_loop_or_the_array_form():
    fun = surfrev.SmoothFunc("2 + cos(u)")
    inner = fun._call
    calls = []

    def counted(u):
        calls.append(1)
        return inner(u)

    fun._call = counted
    us = np.linspace(-1.0, 1.0, BATCH_ROWS)
    fun.batch(us[:-1])
    assert len(calls) == BATCH_ROWS - 1
    fun.batch(us)
    assert len(calls) == BATCH_ROWS - 1  # the array form, no per-point call


@pytest.mark.parametrize("size", [BATCH_ROWS - 1, 2 * BATCH_ROWS])
def test_a_profile_batch_fault_names_its_element(size):
    fun = surfrev.SmoothFunc("log(u)")
    us = np.linspace(0.5, 2.0, size)
    us[size - 4] = -1.0
    with pytest.raises(DomainFault) as want:
        fun(us[size - 4])
    with pytest.raises(DomainFault) as got:
        fun.batch(us)
    assert str(got.value) == str(want.value)
    assert _same(got.value.point, us[size - 4])


def test_profile_scans_keep_their_values():
    raw = PROFILES["expression"]()
    us = np.linspace(-1.0, 1.0, 8193)
    speed = np.array([math.hypot(raw.f(u)[1], raw.h(u)[1]) for u in us])
    total = np.cumsum(np.diff(us) * (speed[1:] + speed[:-1]) / 2.0)[-1]
    assert surfrev.reparametrize_arclength(raw).u_range == (0.0, total)

    chart = manifold.builtin("torus", {"R": 2.0, "r": 1.0})
    prof = surfrev._profile_of(chart)
    traj = integrate_geodesic(chart, np.array([0.3, 0.0]), np.array([0.6, 0.3]), 2.0,
                              settings=OdeSettings(step=1e-2), with_frame=False)
    want = np.array([prof.f.value(traj.x[i, 0]) ** 2 * traj.v[i, 1]
                     for i in range(len(traj.t))])
    assert _same(surfrev.clairaut_constant(chart, traj)["c"], want)


def test_validate_names_the_first_bad_sample():
    prof = surfrev.Profile(f="u", h="u", u_range=(-1.0, 1.0))
    u = prof.sample_u()[0]
    with pytest.raises(BadProfile) as info:
        prof.validate()
    assert str(info.value) == f"f(u) must stay positive; f({u:.6g}) = {u:.6g}"
    prof = surfrev.Profile(f="2 + u^2", h="u", u_range=(-1.0, 1.0))
    u = prof.sample_u()[0]
    res = abs((2.0 * u) * (2.0 * u) + 1.0 - 1.0)
    with pytest.raises(BadProfile) as info:
        prof.validate()
    assert str(info.value) == f"profile not by arclength: |f'^2+h'^2-1| = {res:.3g} at u={u:.6g}"


def test_the_torus_profile_is_validated_once(monkeypatch):
    calls = []
    validate = surfrev.Profile.validate

    def counted(self, *args, **kwargs):
        calls.append(self.label)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(surfrev.Profile, "validate", counted)
    surfrev.torus_chart(2.0, 1.0)
    assert len(calls) == 1

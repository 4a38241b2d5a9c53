"""Compiled profiles: the torus as an expression profile against its closed
forms, and the float call and array form of every expression profile."""

import math

import numpy as np
import pytest

from riemannkit import expr, surfrev
from riemannkit.expr import _each
from riemannkit.transport import OdeSettings, integrate_geodesic


# -- the torus's closed forms, the reference ---------------------------------

class ClosedForm(surfrev.SmoothFunc):
    """A profile function from a float closed form and its array twin."""

    def __init__(self, call, rows, label):
        super().__init__(call, label)
        self.rows = rows

    def array_form(self, U):
        return self.rows(U)


def closed_form_torus(R, r):
    """The torus chart from f = R + r cos(u/r), h = r sin(u/r) written out
    with math.cos and math.sin, and their arrays element by element."""
    def fcall(u):
        c, s = math.cos(u / r), math.sin(u / r)
        return R + r * c, -s, -c / r

    def hcall(u):
        c, s = math.cos(u / r), math.sin(u / r)
        return r * s, c, -s / r

    def cos_sin(U):
        q = U / r
        return _each(math.cos, q), _each(math.sin, q)

    def frows(U):
        c, s = cos_sin(U)
        return R + r * c, -s, -c / r

    def hrows(U):
        c, s = cos_sin(U)
        return r * s, c, -s / r

    prof = surfrev.Profile(f=ClosedForm(fcall, frows, "f"), h=ClosedForm(hcall, hrows, "h"),
                           u_range=(-math.pi * r, math.pi * r), periodic=2.0 * math.pi * r)
    return surfrev.surface_of_revolution(prof)


def _same(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


def _within_ulps(a, b, k):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= k * np.spacing(np.abs(b))))


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(18)
    X = np.column_stack([rng.uniform(-math.pi, math.pi, 3000), rng.uniform(-3.0, 3.0, 3000)])
    return X, rng.normal(size=(3000, 2))


def test_unit_torus_is_bitwise_its_closed_forms(points):
    X, V = points
    new, ref = surfrev.torus_chart(2.0, 1.0), closed_form_torus(2.0, 1.0)
    us = X[:, 0]
    for got, want in ((new.profile.f, ref.profile.f), (new.profile.h, ref.profile.h)):
        assert all(got(u) == want(u) for u in us)
        assert all(_same(a, b) for a, b in zip(got.batch(us), want.array_form(us)))
    ev, ev_ref = new.evaluator, ref.evaluator
    for x, v in zip(X[:300], V[:300]):
        assert _same(ev.gamma(x), ev_ref.gamma(x))
        assert ev.spray(x.tolist(), v.tolist()) == ev_ref.spray(x.tolist(), v.tolist())
    assert _same(ev.connection_batch(X, V), ev_ref.connection_batch(X, V))
    assert all(_same(a, b) for a, b in zip(ev.stack_batch(X), ev_ref.stack_batch(X)))


def test_unit_torus_framed_geodesic_is_bitwise_the_closed_forms():
    new, ref = surfrev.torus_chart(2.0, 1.0), closed_form_torus(2.0, 1.0)
    x0, v0 = np.array([0.5, 0.0]), surfrev.initial_velocity(new.profile, 0.5, 0.7)
    got, want = (integrate_geodesic(chart, x0, v0, 7.0, settings=OdeSettings(step=2e-3))
                 for chart in (new, ref))
    assert _same(got.x, want.x) and _same(got.v, want.v) and _same(got.frame, want.frame)


def test_other_radii_agree_with_the_closed_forms_to_4_ulp():
    new, ref = surfrev.torus_chart(2.0, 0.7), closed_form_torus(2.0, 0.7)
    us = np.linspace(-0.7 * math.pi, 0.7 * math.pi, 2001)
    for got, want in ((new.profile.f, ref.profile.f), (new.profile.h, ref.profile.h)):
        assert _within_ulps([got(u) for u in us], [want(u) for u in us], 4)
        assert _within_ulps(got.batch(us), want.array_form(us), 4)


def test_numpy_radii_build_the_float_torus():
    a, b = surfrev.torus_chart(np.float64(2.0), np.float64(1.0)), surfrev.torus_chart(2.0, 1.0)
    assert (a.label, a.source) == (b.label, b.source)
    assert all(type(value) is float for value in a.source["params"].values())
    assert (a.profile.f.source, a.profile.h.source) == (b.profile.f.source, b.profile.h.source)
    assert (a.profile.u_range, a.profile.periodic) == (b.profile.u_range, b.profile.periodic)
    assert a.evaluator.spray([0.3, 0.1], [0.4, 0.2]) == b.evaluator.spray([0.3, 0.1], [0.4, 0.2])


# -- the compiled profile function --------------------------------------------

@pytest.mark.parametrize("source", ["2 + cos(u)", "u", "3", "sqrt(1 + u^2) * exp(-u)"])
def test_a_profile_call_is_three_python_floats(source):
    values = surfrev.SmoothFunc(source)(0.25)
    assert len(values) == 3 and all(type(value) is float for value in values)
    value, grad, hess = expr.compile_tensor(expr.parse(source, ["u"]), 1, 2)(np.array([0.25]))
    assert values == (value, float(grad[0]), float(hess[0, 0]))


def test_a_profile_batch_is_compiled_once(monkeypatch):
    count = []
    define = expr._define

    def counted(*args):
        count.append(args[0])
        return define(*args)

    monkeypatch.setattr(expr, "_define", counted)
    fun = surfrev.SmoothFunc("2 + cos(u)")
    us = np.linspace(-1.0, 1.0, 64)
    first, second = fun.batch(us), fun.batch(us)
    assert len(count) == 2  # the float function, then its array form once
    assert all(_same(a, b) for a, b in zip(first, second))

    chart = surfrev.torus_chart(2.0, 1.0)  # validating it runs both batches
    del count[:]
    X = np.column_stack([us, us])
    chart.evaluator.stack_batch(X)
    chart.evaluator.stack_batch(X)
    assert count == []


@pytest.mark.parametrize("source", ["2 + cos(u)", "u", "3", "sqrt(1 + u^2) * exp(-u)"])
def test_a_profile_batch_is_fresh_arrays_of_its_calls(source):
    # each of f, f', f'' is its own (N,) float array, never the input itself,
    # with the values of the float calls
    fun = surfrev.SmoothFunc(source)
    us = np.linspace(-1.0, 1.0, 32)
    rows = fun.batch(us)
    for k, row in enumerate(rows):
        assert row.shape == us.shape and row.dtype == float and row.flags.c_contiguous
        assert not np.shares_memory(row, us)
        assert _same(row, [fun(u)[k] for u in us.tolist()])

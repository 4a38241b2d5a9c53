"""``transport._advance``, a prefix scan of each block of transition
matrices, against the step-by-step chain it replaced, kept here as the
reference ``_advance_loop``: alone, and through the frames, Jacobi fields
and transports that chain their transitions with it."""

import numpy as np
import pytest

from riemannkit import manifold, transport, variation
from riemannkit.transport import SCAN_WIDTH, TRANSITION_BLOCK, OdeSettings

EXPR3 = {"dim": 3, "coords": ["x", "y", "z"],
         "metric": [["exp(2*z) + x*y/4", "x/10", "0"],
                    ["x/10", "exp(2*z)", "y/5"],
                    ["0", "y/5", "1 + x^2"]]}

# name: (chart, a point and a direction of a ray that stays inside to T = 1.5)
CHARTS = {
    "sphere2": (lambda: manifold.builtin("sphere_stereo", {"n": 2}), [0.3, 0.1], [1.0, 0.4]),
    "sphere3": (lambda: manifold.builtin("sphere_stereo", {"n": 3, "R": 1.5}),
                [0.3, 0.2, 0.1], [0.5, 1.0, -0.4]),
    "hyper3": (lambda: manifold.builtin("hyperbolic_ball", {"n": 3}),
               [0.3, 0.2, 0.1], [0.5, 1.0, -0.4]),
    "torus": (lambda: manifold.builtin("torus", {"R": 2.0, "r": 1.0}), [0.5, 0.0], [0.8, 0.3]),
    "expr3": (lambda: manifold.chart_from_definition(EXPR3), [0.3, 0.2, 0.1], [0.5, 1.0, -0.4]),
}


def _advance_loop(Y0, m, transitions):
    """Y[i + 1] = Phi_i Y[i], one matmul per step: the reference chain."""
    Y = np.empty((m + 1,) + np.shape(Y0))
    Y[0] = Y0
    for s in range(0, m, TRANSITION_BLOCK):
        for i, P in enumerate(transitions(s, min(s + TRANSITION_BLOCK, m)), s):
            Y[i + 1] = P @ Y[i]
    return Y


def _rel(a, b):
    """Largest difference of a from b relative to b's largest entry."""
    return float(np.max(np.abs(a - b), initial=0.0) / max(np.max(np.abs(b)), 1e-300))


def _transitions(m, k, h, seed=7):
    """RK4 transition matrices of y' = A(t) y over m steps of width h, with a
    smooth random A; the callback hands back a fresh block, as the library's
    builders do, and records the blocks asked for."""
    rng = np.random.default_rng(seed)
    A0, A1 = rng.normal(0.0, 1.0, (2, k, k))
    t = h * np.arange(m + 1)
    s = np.sin(np.concatenate([t, t[:-1] + 0.5 * h]))[:, None, None]
    A = A0 + s * A1
    Phi = transport._transition((A[:m], A[m + 1:], A[m + 1:], A[1:m + 1]), np.full(m, h))
    calls = []

    def transitions(lo, hi):
        calls.append((lo, hi))
        return Phi[lo:hi].copy()
    return Phi, transitions, calls


# Y0 shapes (k, ...): the widest transitions the scan takes, and wider ones
SHAPES = {"vector": (3,), "matrix": (6, 3), "at_scan_width": (SCAN_WIDTH, 4),
          "wide_vector": (SCAN_WIDTH + 1,), "wide_matrix": (24, 5)}


@pytest.mark.parametrize("h", [2e-3, -2e-3], ids=["forward", "backward"])
@pytest.mark.parametrize("name", list(SHAPES))
@pytest.mark.parametrize("m", [0, 1, 2, 3, 511, 512, 513, 1500])
def test_the_scan_is_the_chain_at_rounding_level(m, name, h):
    shape = SHAPES[name]
    k = shape[0]
    Y0 = np.random.default_rng(3).normal(size=shape)
    _, want_transitions, want_calls = _transitions(m, k, h)
    _, got_transitions, got_calls = _transitions(m, k, h)
    want = _advance_loop(Y0, m, want_transitions)
    got = transport._advance(Y0, m, got_transitions)
    assert got.shape == want.shape == (m + 1,) + shape
    assert np.array_equal(got[0], Y0)
    assert _rel(got, want) <= 1e-13
    assert got_calls == want_calls  # the same blocks, each asked for once
    if name.startswith("wide"):  # the scan's log2(block) products a step cost more than one matmul
        assert np.array_equal(got, want)


def test_one_step_is_the_chains_matmul_bitwise():
    Phi, transitions, _ = _transitions(1, 4, 0.01)
    Y0 = np.arange(4.0) - 1.5
    assert np.array_equal(transport._advance(Y0, 1, transitions), _advance_loop(Y0, 1, transitions))


@pytest.mark.parametrize("shape", [(3,), (6, 3)], ids=["vector", "matrix"])
@pytest.mark.parametrize("j", [0, 5, 511, 512, 700, 1499])
def test_a_nan_in_one_transition_reaches_the_loops_samples_after_it(j, shape):
    m, k = 1500, shape[0]
    Phi, _, _ = _transitions(m, k, 2e-3)
    Phi[j, 1, 2] = np.nan

    def transitions(lo, hi):
        return Phi[lo:hi].copy()
    Y0 = np.random.default_rng(5).normal(size=shape)
    want = _advance_loop(Y0, m, transitions)
    got = transport._advance(Y0, m, transitions)
    assert np.isfinite(got[:j + 1]).all()
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(got[j + 1]).any() and np.isnan(got[j + 2:]).all()
    assert _rel(got[:j + 1], want[:j + 1]) <= 1e-13


@pytest.mark.parametrize("k, c", [(4, 2), (SCAN_WIDTH + 2, 3)], ids=["scan", "loop"])
@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 300])
def test_a_ray_batch_is_each_ray_chained_alone(m, k, c):
    # N rays share a block of TRANSITION_BLOCK transition rows, so a block is
    # TRANSITION_BLOCK // N of their steps; where the blocks of the batch and
    # of a ray alone coincide, or where each step is one matmul, each ray is
    # bitwise its own chain
    N = 8
    steps = TRANSITION_BLOCK // N
    Phis = [_transitions(m, k, 2e-3, seed=ray)[0] for ray in range(N)]
    Phi = np.stack(Phis, axis=1)
    Y0 = np.random.default_rng(11).normal(size=(N, k, c))
    calls = []

    def transitions(lo, hi):
        calls.append((lo, hi))
        return Phi[lo:hi].copy()
    got = transport._advance(Y0, m, transitions)
    assert got.shape == (m + 1, N, k, c)
    assert calls == [(s, min(s + steps, m)) for s in range(0, m, steps)]
    for ray in range(N):
        want = transport._advance(Y0[ray], m, lambda lo, hi: Phis[ray][lo:hi].copy())
        if m <= steps or k > SCAN_WIDTH:
            assert np.array_equal(got[:, ray], want)
        assert _rel(got[:, ray], want) <= 1e-13


def _reference(monkeypatch):
    """Run the library's chains on ``_advance_loop`` from here on."""
    monkeypatch.setattr(transport, "_advance", _advance_loop)
    monkeypatch.setattr(variation, "_advance", _advance_loop)


def _long_ray(name, settings):
    """The unit ray of a chart to T = 1.5, framed, and its chart."""
    make, p, v = CHARTS[name]
    chart = make()
    v = np.asarray(v) / manifold.norm(chart, np.asarray(p, dtype=float), np.asarray(v, dtype=float))
    return chart, transport.integrate_geodesic(chart, p, v, 1.5, settings=settings)


def _outputs(name, settings):
    """The frame, the orthogonal Jacobi fields (F, F') and a transported vector
    (four substeps per step) along the long ray."""
    chart, geo = _long_ray(name, settings)
    F, Fp = variation.orthogonal_fundamental(variation.jacobi_system(chart, geo))
    w = transport.parallel_transport(chart, geo, np.linspace(1.0, -0.5, chart.dim), substeps=4)
    return {"frame": geo.frame, "F": F, "Fp": Fp, "transport": w, "x": geo.x}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_frames_jacobi_fields_and_transports_past_a_block_are_the_chains(monkeypatch, name):
    settings = OdeSettings(step=2e-3)  # 750 steps, 3,000 for the transport
    got = _outputs(name, settings)
    assert len(got["frame"]) == 751 > TRANSITION_BLOCK
    _reference(monkeypatch)
    want = _outputs(name, settings)
    assert np.array_equal(got["x"], want["x"])  # the nonlinear pass is untouched
    for key in ("frame", "F", "Fp", "transport"):
        assert _rel(got[key], want[key]) <= 1e-13, key


@pytest.mark.parametrize("name", ["sphere3", "torus"])
def test_rkf45_frames_are_the_chains(monkeypatch, name):
    settings = OdeSettings(method="rkf45_adaptive", rtol=1e-12, atol=1e-14)
    got = _long_ray(name, settings)[1]
    _reference(monkeypatch)
    want = _long_ray(name, settings)[1]
    assert np.array_equal(got.t, want.t)
    assert _rel(got.frame, want.frame) <= 1e-13

"""Curvature tensor pipeline against constant-curvature closed forms."""

import math

import numpy as np
import pytest

from riemannkit import manifold, tensor
from riemannkit.errors import BadParam, DegeneratePlane, SingularMetric


def _rand_point(chart, rng):
    lo, hi = chart.sample_box
    return rng.uniform(lo, hi)


def pair_symmetrize(T: np.ndarray) -> np.ndarray:
    """Project onto the subspace obeying symmetries (1), (2) and (4)."""
    A = 0.5 * (T - T.transpose(1, 0, 2, 3))
    A = 0.5 * (A - A.transpose(0, 1, 3, 2))
    return 0.5 * (A + A.transpose(2, 3, 0, 1))


def jacobi_matrix_at(chart, x, v, E) -> np.ndarray:
    """M[a,b] = g(R_{gamma' E_b} gamma', E_a) in the frame columns of E, from
    the lowered components of the full tensor: M_ab = low[v, E_b, v, E_a]."""
    low = tensor.curvature(chart, x).low
    return np.einsum("ijhk,i,jb,h,ka->ab", low, v, E, v, E)


# -- Christoffel symbols -----------------------------------------------------

def test_christoffel_torus_closed_form(torus21, rng):
    # Gamma^u_tt = -f f', Gamma^t_ut = f'/f with f = 2 + cos u
    for _ in range(10):
        p = rng.uniform(-3.0, 3.0, 2)
        f = 2.0 + math.cos(p[0])
        f1 = -math.sin(p[0])
        G = tensor.christoffel(torus21, p).gamma
        assert G[0, 1, 1] == pytest.approx(-f * f1, abs=1e-12)
        assert G[1, 0, 1] == pytest.approx(f1 / f, abs=1e-12)
        assert G[1, 1, 0] == pytest.approx(f1 / f, abs=1e-12)
        assert abs(G[0, 0, 0]) <= 1e-13 and abs(G[1, 0, 0]) <= 1e-13


def test_christoffel_symmetric_lower_indices(sphere3, rng):
    p = _rand_point(sphere3, rng)
    G = tensor.christoffel(sphere3, p).gamma
    assert np.max(np.abs(G - G.transpose(0, 2, 1))) <= 1e-13


# -- sectional curvature -----------------------------------------------------

@pytest.mark.parametrize("name,params,K", [
    ("sphere_stereo", {"n": 2, "R": 1.0}, 1.0),
    ("sphere_stereo", {"n": 2, "R": 2.0}, 0.25),
    ("sphere_stereo", {"n": 3, "R": 1.0}, 1.0),
    ("hyperbolic_ball", {"n": 2}, -1.0),
    ("hyperbolic_ball", {"n": 3}, -1.0),
    ("euclidean", {"n": 3}, 0.0),
])
def test_sectional_constant_curvature(name, params, K, rng):
    chart = manifold.builtin(name, params)
    for _ in range(10):
        p = _rand_point(chart, rng)
        R = tensor.curvature(chart, p)
        g = chart.evaluator.metric(p)
        x = rng.standard_normal(chart.dim)
        y = rng.standard_normal(chart.dim)
        assert tensor.sectional(R, g, x, y) == pytest.approx(K, abs=1e-8)


def test_torus_gauss_curvature(torus21):
    # K = cos(u) / (2 + cos(u)) for R=2, r=1
    for u in (0.0, 1.0, math.pi / 2, 2.5):
        p = np.array([u, 0.7])
        R = tensor.curvature(torus21, p)
        g = torus21.evaluator.metric(p)
        want = math.cos(u) / (2.0 + math.cos(u))
        got = tensor.sectional(R, g, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(want, abs=1e-10)


def test_sectional_degenerate_plane(sphere2, rng):
    p = _rand_point(sphere2, rng)
    R = tensor.curvature(sphere2, p)
    g = sphere2.evaluator.metric(p)
    v = rng.standard_normal(2)
    with pytest.raises(DegeneratePlane):
        tensor.sectional(R, g, v, 2.0 * v)


# -- algebraic symmetries and Bianchi ----------------------------------------

@pytest.mark.parametrize("name,params", [
    ("sphere_stereo", {"n": 3}), ("hyperbolic_ball", {"n": 3}),
    ("torus", {"R": 2.0, "r": 1.0}), ("euclidean", {"n": 4}),
])
def test_symmetry_residuals(name, params, rng):
    chart = manifold.builtin(name, params)
    for _ in range(5):
        p = _rand_point(chart, rng)
        R = tensor.curvature(chart, p)
        res = tensor.check_symmetries(R)
        assert max(res.values()) <= 1e-8, res


def test_bianchi_residual_small(sphere3, torus21, rng):
    for chart in (sphere3, torus21):
        p = _rand_point(chart, rng)
        assert tensor.bianchi_residual(chart, p) <= 1e-5


def test_pair_symmetrize_projects():
    rng = np.random.default_rng(5)
    T = rng.standard_normal((3, 3, 3, 3))
    S = pair_symmetrize(T)
    assert np.max(np.abs(S + S.transpose(1, 0, 2, 3))) <= 1e-13
    assert np.max(np.abs(S + S.transpose(0, 1, 3, 2))) <= 1e-13
    assert np.max(np.abs(S - S.transpose(2, 3, 0, 1))) <= 1e-13
    # projection is idempotent
    assert np.max(np.abs(pair_symmetrize(S) - S)) <= 1e-13


# -- Ricci / scalar ----------------------------------------------------------

@pytest.mark.parametrize("name,params,K", [
    ("sphere_stereo", {"n": 2}, 1.0),
    ("sphere_stereo", {"n": 3}, 1.0),
    ("hyperbolic_ball", {"n": 3}, -1.0),
])
def test_ricci_einstein_constant(name, params, K, rng):
    chart = manifold.builtin(name, params)
    n = chart.dim
    p = _rand_point(chart, rng)
    g = chart.evaluator.metric(p)
    rd = tensor.ricci(tensor.curvature(chart, p), g)
    assert np.max(np.abs(rd.ric - (n - 1) * K * g)) <= 1e-8
    assert rd.scalar == pytest.approx(n * (n - 1) * K, abs=1e-8)


def test_scalar_curvature_unit_sphere_is_two(sphere2, rng):
    p = _rand_point(sphere2, rng)
    g = sphere2.evaluator.metric(p)
    assert tensor.ricci(tensor.curvature(sphere2, p), g).scalar == pytest.approx(
        2.0, abs=1e-9)


# -- frames ------------------------------------------------------------------

def test_orthonormal_frame(hyper2, rng):
    p = _rand_point(hyper2, rng)
    g = hyper2.evaluator.metric(p)
    B = tensor.orthonormal_frame(g)
    assert np.max(np.abs(B.T @ g @ B - np.eye(2))) <= 1e-13


def test_frame_components_constant_curvature(sphere3, rng):
    # in an orthonormal frame the lowered tensor of S^3 is the K=1 model
    p = _rand_point(sphere3, rng)
    g = sphere3.evaluator.metric(p)
    B = tensor.orthonormal_frame(g)
    Rf = tensor.frame_components(tensor.curvature(sphere3, p).low, B)
    model = tensor.CurvatureAlgebraElement.constant_curvature(3, 1.0).components
    assert np.max(np.abs(Rf - model)) <= 1e-8


# -- curvature algebra -------------------------------------------------------

def test_curvature_space_dim():
    assert [tensor.curvature_space_dim(n) for n in (2, 3, 4)] == [1, 6, 20]


def test_ric_contraction_identity(rng):
    # C_Ric(A ^ I) = (n - 2) A + tr(A) I for symmetric A; the product is
    # symmetric in its arguments, so A ^ I and I ^ A coincide
    for n in (3, 4):
        eye = np.eye(n)
        for _ in range(25):
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            assert np.max(np.abs(tensor.wedge_pair(A, eye)
                                 - tensor.wedge_pair(eye, A))) <= 1e-12
            T = 0.5 * (tensor.wedge_pair(A, eye) + tensor.wedge_pair(eye, A))
            got = tensor.ric_contraction(T)
            want = (n - 2) * A + np.trace(A) * eye
            assert np.max(np.abs(got - want)) <= 1e-12


def test_wedge_pair_is_curvature_like(rng):
    A = rng.standard_normal((3, 3)); A = 0.5 * (A + A.T)
    B = rng.standard_normal((3, 3)); B = 0.5 * (B + B.T)
    T = tensor.wedge_pair(A, B) + tensor.wedge_pair(B, A)
    el = tensor.CurvatureAlgebraElement.from_array(T)
    assert el.cyclic_residual() <= 1e-12


def test_weyl_vanishes_in_three_dimensions(rng):
    for _ in range(5):
        A = rng.standard_normal((3, 3)); A = 0.5 * (A + A.T)
        eye = np.eye(3)
        T = tensor.wedge_pair(A, eye) + tensor.wedge_pair(eye, A)
        parts = tensor.weyl_decompose(T)
        assert tensor.det_norm(parts["weyl"]) <= 1e-10
        # decomposition reassembles the input
        total = parts["scalar_part"] + parts["traceless_ricci_part"] + parts["weyl"]
        assert np.max(np.abs(total - T)) <= 1e-10


def test_weyl_orthogonal_parts(rng):
    n = 4
    T = pair_symmetrize(rng.standard_normal((n, n, n, n)))
    el = tensor.CurvatureAlgebraElement.from_array(T, require_cyclic=False)
    # use the cyclic projection implied by the decomposition input contract
    parts = tensor.weyl_decompose(el.components)
    assert abs(tensor.det_inner(parts["weyl"], parts["scalar_part"])) <= 1e-8
    assert abs(tensor.det_inner(parts["weyl"], parts["traceless_ricci_part"])) <= 1e-8


# -- normal coordinates ------------------------------------------------------

def test_normal_taylor_sphere():
    chart = manifold.builtin("sphere_stereo", {"n": 2})
    rep = tensor.normal_taylor_check(chart, [0.3, 0.1])
    assert rep["gamma_origin_max"] <= 1e-6
    assert rep["K_fitted"] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("name, params, p", [
    ("sphere_stereo", {"n": 2}, [0.3, 0.1]),
    ("sphere_stereo", {"n": 3, "R": 1.5}, [0.3, 0.1, -0.2]),
    ("hyperbolic_ball", {"n": 3}, [0.1, 0.2, -0.1])])
def test_normal_taylor_christoffel_vanish_at_origin(name, params, p):
    # g in normal coordinates from the exact differential of exp, not from
    # differences of nearby rays, whose rounding left Gamma(0) near 1e-9
    rep = tensor.normal_taylor_check(manifold.builtin(name, params), p)
    assert rep["gamma_origin_max"] <= 1e-12


# -- Killing fields ----------------------------------------------------------

def test_killing_rotation_field(eucl2, rng):
    pts = rng.uniform(-1.0, 1.0, (20, 2))
    assert tensor.killing_residual(eucl2, ("-x2", "x1"), pts) <= 1e-8
    # a non-isometric field has a visibly nonzero residual
    assert tensor.killing_residual(eucl2, ("x1", "0"), pts) >= 0.5


def test_killing_sphere_rotation(sphere2, rng):
    # rotation about the projection axis is an isometry of the round metric
    pts = rng.uniform(-1.0, 1.0, (20, 2))
    assert tensor.killing_residual(sphere2, ("-x2", "x1"), pts) <= 1e-8


# -- Berger spheres ----------------------------------------------------------

def test_berger_round_sphere():
    rep = tensor.berger_curvatures(1.0, 1.0, 1.0)
    for key in ("K12", "K23", "K31"):
        assert rep[key] == pytest.approx(0.25, abs=1e-12)
    assert rep["cross_check"] <= 1e-12


def test_berger_two_routes_agree(rng):
    for _ in range(50):
        a, b, c = rng.uniform(0.5, 2.0, 3)
        assert tensor.berger_curvatures(a, b, c)["cross_check"] <= 1e-12


def test_berger_rejects_nonpositive():
    with pytest.raises(BadParam):
        tensor.berger_curvatures(1.0, 0.0, 1.0)


# -- batched curvature -------------------------------------------------------

def test_curvature_low_batch_matches_scalar(torus21, rng):
    X = rng.uniform(-1.0, 1.0, (6, 2))
    G_b, low_b = tensor.curvature_low_batch(torus21, X)
    for i, p in enumerate(X):
        R = tensor.curvature(torus21, p)
        assert np.max(np.abs(low_b[i] - R.low)) <= 1e-10


def test_jacobi_driving_batch_matches_pointwise(torus21, sphere3, rng):
    from riemannkit.tensor import jacobi_driving_batch
    for chart in (torus21, sphere3):
        n = chart.dim
        X = rng.uniform(-0.8, 0.8, (5, n))
        V = rng.standard_normal((5, n))
        Eo = np.empty((5, n, n))
        for i in range(5):
            g = chart.evaluator.metric(X[i])
            B = tensor.orthonormal_frame(g)
            Eo[i] = B
        M = jacobi_driving_batch(chart, X, V, Eo)
        for i in range(5):
            want = jacobi_matrix_at(chart, X[i], V[i], Eo[i])
            assert np.max(np.abs(M[i] - want)) <= 1e-10


# -- the closed-form driving matrix of conformal charts ----------------------

def _besse_driving(mu, dmu, d2mu, X, V, E):
    """(C, M) of g = mu(|x|^2) delta at the rays (X, V) in the frames E, from
    any profile: with phi = (1/2) log mu, q = |x|^2, s = mu'/mu and s' = ds/dq,
    low = -mu (T owedge delta), the Kulkarni-Nomizu product of delta with
    T = Hess phi - dphi dphi^T + (1/2)|dphi|^2 I = alpha I + beta x x^T,
    alpha = s + s^2 q / 2, beta = 2 s' - s^2 (Besse, Einstein Manifolds, 1987,
    Thm 1.159); C = Gamma(v, .) from dphi = s x."""
    C, M = [], []
    for x, v, e in zip(X, V, E):
        q = float(x @ x)
        m = mu(q)
        s = dmu(q) / m
        alpha, beta = s + 0.5 * s * s * q, 2.0 * (d2mu(q) / m - s * s) - s * s
        T = alpha * np.eye(len(x)) + beta * np.outer(x, x)
        Tv = T @ v
        B = -m * ((v @ Tv) * np.eye(len(x)) + (v @ v) * T - np.outer(Tv, v) - np.outer(v, Tv))
        o = np.outer(v, s * x)
        C.append(o - o.T + (v @ (s * x)) * np.eye(len(x)))
        M.append(e.T @ B @ e)
    return np.array(C), np.array(M)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_driving_on_a_variable_profile(n, rng):
    # mu = e^q has beta = 2 s' - s^2 = -1, so the x x^T term of T is exercised
    # (beta is 0 on the sphere and the ball); jacobi_matrix_at goes through
    # tensor.curvature and jacobi_driving_batch through the compiled B
    coords = [f"x{i+1}" for i in range(n)]
    mu = "exp(" + "+".join(f"{c}^2" for c in coords) + ")"
    expression = manifold.chart_from_definition(
        {"dim": n, "coords": coords,
         "metric": [[mu if i == j else "0" for j in range(n)] for i in range(n)]})
    X = rng.uniform(-0.7, 0.7, (6, n))
    V = rng.standard_normal((6, n))
    E = np.stack([tensor.orthonormal_frame(expression.evaluator.metric(x)) for x in X])
    C, M = _besse_driving(math.exp, math.exp, math.exp, X, V, E)
    # the compiled B and the kernel's, each called directly, against Besse's
    _, _, low = tensor.curvature_kernel(*expression.evaluator.stack_batch(X))
    kernel = np.einsum("bijhk,bi,bh->bjk", low, V, V)  # low(v, e_j, v, e_k)
    scale = np.max(np.abs(M), axis=(1, 2))
    for B in (expression.evaluator.jacobi_batch(X, V), kernel):
        assert np.all(np.max(np.abs(E.swapaxes(1, 2) @ B @ E - M), axis=(1, 2)) <= 1e-13 * scale)
    M_expr = tensor.jacobi_driving_batch(expression, X, V, E)
    C_expr = expression.evaluator.connection_batch(X, V)
    assert np.max(np.abs(C_expr - C)) <= 1e-13 * np.max(np.abs(C))
    assert np.array_equal(M_expr, M_expr.swapaxes(1, 2))
    for i in range(len(X)):
        want = jacobi_matrix_at(expression, X[i], V[i], E[i])
        want = 0.5 * (want + want.T)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(M[i] - want)) <= 1e-13 * scale
        assert np.max(np.abs(M_expr[i] - want)) <= 1e-13 * scale


MODELS = {f"S{n}-R{R}": ("sphere_stereo", {"n": n, "R": R}) for n in (2, 3, 4) for R in (0.6, 1.5)}
MODELS.update({f"H{n}": ("hyperbolic_ball", {"n": n}) for n in (2, 3)})


@pytest.mark.parametrize("name, params", MODELS.values(), ids=MODELS.keys())
def test_closed_form_driving_is_the_kernels_on_the_models(name, params, rng):
    # K = sign / c is every sectional curvature of the kernel's R, and the
    # closed form B = K mu^2 (|v|^2 I - v v^T) gives the kernel's M
    chart = manifold.builtin(name, params)
    ev, n = chart.evaluator, chart.dim
    assert ev.K == (1.0 / (params["R"] * params["R"]) if name == "sphere_stereo" else -1.0)
    X = chart.sample_points(6, 7)
    V = rng.standard_normal((6, n))
    E = np.stack([tensor.orthonormal_frame(ev.metric(x)) for x in X])
    M = tensor.jacobi_driving_batch(chart, X, V, E)
    assert np.array_equal(M, M.swapaxes(1, 2))
    for i in range(len(X)):
        R = tensor.curvature(chart, X[i])
        g = ev.metric(X[i])
        for a, b in [(0, 1), (0, n - 1), (1, n - 1)] if n > 2 else [(0, 1)]:
            assert tensor.sectional(R, g, E[i][:, a], E[i][:, b]) == pytest.approx(ev.K, rel=1e-13)
        assert tensor.sectional(R, g, V[i], X[i] + V[i][::-1]) == pytest.approx(ev.K, rel=1e-13)
        want = jacobi_matrix_at(chart, X[i], V[i], E[i])
        want = 0.5 * (want + want.T)
        assert np.max(np.abs(M[i] - want)) <= 1e-13 * np.max(np.abs(want))


def test_closed_form_driving_rejects_a_nonpositive_profile():
    # the ball's mu = (2 / (1 - |x|^2))^2 is infinite on the unit circle
    chart = manifold.builtin("hyperbolic_ball", {"n": 2})
    X = np.array([[0.1, 0.2], [1.0, 0.0], [np.nan, 0.0]])
    V, E = np.ones((3, 2)), np.tile(np.eye(2), (3, 1, 1))
    with pytest.raises(SingularMetric, match="metric not positive definite at") as ei:
        tensor.jacobi_driving_batch(chart, X, V, E)
    assert np.array_equal(ei.value.point, X[1])
    with pytest.raises(SingularMetric) as ei:
        tensor.jacobi_driving_batch(chart, X[[0, 2]], V[:2], E[:2])
    assert np.isnan(ei.value.point[0])


def test_the_kernel_names_the_first_indefinite_point_of_a_batch():
    # g = diag(1, x) is indefinite at x = -0.1 and x = -0.9; the least eigenvalue
    # is at the later point, but the first one is named
    chart = manifold.chart_from_definition(
        {"dim": 2, "coords": ["x", "y"], "metric": [["1", "0"], ["0", "x"]]})
    X = np.array([[0.5, 0.0], [-0.1, 0.2], [-0.9, 0.0]])
    with pytest.raises(SingularMetric, match="metric not positive definite at") as ei:
        tensor.curvature_low_batch(chart, X)
    assert np.array_equal(ei.value.point, X[1])
    with pytest.raises(SingularMetric) as ei:
        tensor.jacobi_driving_batch(chart, X, np.ones((3, 2)), np.tile(np.eye(2), (3, 1, 1)))
    assert np.array_equal(ei.value.point, X[1])


def test_sectional_refuses_a_nearly_degenerate_plane(sphere2):
    # g(x, x) g(y, y) - g(x, y)^2 is about 1e-18 of g(x, x) g(y, y) at y = v + 1e-9 w,
    # past the plane test's 1e-12, and 1e-10 of it at y = v + 1e-5 w
    p, v, w = np.array([0.3, 0.1]), np.array([0.5, 0.2]), np.array([0.2, -0.5])
    R, g = tensor.curvature(sphere2, p), manifold.metric_at(sphere2, p).g
    with pytest.raises(DegeneratePlane):
        tensor.sectional(R, g, v, v + 1e-9 * w)
    assert tensor.sectional(R, g, v, v + 1e-5 * w) == pytest.approx(1.0, rel=1e-6)

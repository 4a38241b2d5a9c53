"""The curvature kernel against sympy on a 3-D chart of variable curvature.

Model spaces have curvature tensors built from g alone, so a transposed
index in the kernel can cancel there; this chart has no such symmetry.
Conventions checked: low[a,b,c,d] = g_ai R^i_bcd with
R^i_jhk = d_h Gamma^i_kj - d_k Gamma^i_hj + Gamma^i_hm Gamma^m_kj - Gamma^i_km Gamma^m_hj,
and up = -R (the operator R_XY = D_[X,Y] - D_X D_Y + D_Y D_X).
"""

import numpy as np
import pytest
import scipy.linalg
import sympy as sp

from riemannkit import comparison, manifold, tensor, transport, variation
from riemannkit.errors import DomainExit, SingularMetric
from riemannkit.transport import Trajectory

COORDS = ["x", "y", "z"]
ROWS = [["1 + x^2", "x*y", "0"], ["x*y", "2 + y^2", "z/4"], ["0", "z/4", "exp(x)"]]
P = np.array([0.3, -0.2, 0.5])
TOL = 1e-12


@pytest.fixture(scope="module")
def chart():
    return manifold.chart_from_definition({"dim": 3, "coords": COORDS, "metric": ROWS})


@pytest.fixture(scope="module")
def oracle():
    """Numeric (Gamma, R, low) functions of a point, derived symbolically."""
    xs = sp.symbols(COORDS, real=True)
    g = sp.Matrix(3, 3, lambda i, j: sp.sympify(ROWS[i][j].replace("^", "**"),
                                                 locals=dict(zip(COORDS, xs))))
    gi = g.inv()
    Gam = [[[sp.simplify(sum(gi[i, m] * (sp.diff(g[m, k], xs[j]) + sp.diff(g[m, j], xs[k])
                                         - sp.diff(g[j, k], xs[m])) for m in range(3)) / 2)
             for k in range(3)] for j in range(3)] for i in range(3)]
    R = sp.MutableDenseNDimArray.zeros(3, 3, 3, 3)
    for i in range(3):
        for j in range(3):
            for h in range(3):
                for k in range(3):
                    R[i, j, h, k] = (sp.diff(Gam[i][k][j], xs[h]) - sp.diff(Gam[i][h][j], xs[k])
                                     + sum(Gam[i][h][m] * Gam[m][k][j]
                                           - Gam[i][k][m] * Gam[m][h][j] for m in range(3)))
    gam_f = sp.lambdify(xs, Gam, "numpy")
    R_f = sp.lambdify(xs, R.tolist(), "numpy")
    g_f = sp.lambdify(xs, g.tolist(), "numpy")

    def at(p):
        Rp = np.array(R_f(*p), dtype=float)
        low = np.einsum("ai,ibcd->abcd", np.array(g_f(*p), dtype=float), Rp)
        return np.array(gam_f(*p), dtype=float), Rp, low
    return at


def _driving(low, v, E):
    return np.einsum("abcd,a,bq,c,dp->pq", low, v, E, v, E)


def test_pointwise_gamma_and_curvature(chart, oracle):
    G, R, low = oracle(P)
    assert 0.5 < np.max(np.abs(R)) < 2.0  # a genuinely curved point
    assert np.max(np.abs(tensor.christoffel(chart, P).gamma - G)) <= TOL
    Rt = tensor.curvature(chart, P)
    assert np.max(np.abs(Rt.up + R)) <= TOL
    assert np.max(np.abs(Rt.low - low)) <= TOL


def test_batched_curvature_and_driving(chart, oracle, rng):
    X = P + rng.uniform(-0.2, 0.2, (7, 3))
    V = rng.standard_normal((7, 3))
    E = rng.standard_normal((7, 3, 2))
    G_b, low_b = tensor.curvature_low_batch(chart, X)
    M_b = tensor.jacobi_driving_batch(chart, X, V, E)
    for i, x in enumerate(X):
        G, _, low = oracle(x)
        assert np.max(np.abs(G_b[i] - G)) <= TOL
        assert np.max(np.abs(low_b[i] - low)) <= TOL
        want = _driving(low, V[i], E[i])
        assert np.max(np.abs(M_b[i] - 0.5 * (want + want.T))) <= 10 * TOL


def test_compiled_jacobi_operator_matches_kernel_and_oracle(chart, oracle, rng):
    # B = low(v, ., v, .) from the compiled operator, as jacobi_driving_batch
    # takes it, and from the kernel's R, both against sympy's
    X = P + rng.uniform(-0.2, 0.2, (40, 3))
    V = rng.standard_normal((40, 3))
    B = chart.evaluator.jacobi_batch(X, V)
    _, _, low = tensor.curvature_kernel(*chart.evaluator.stack_batch(X))
    kernel = np.einsum("bijhk,bi,bh->bjk", low, V, V)
    for i, x in enumerate(X):
        want = np.einsum("ijhk,i,h->jk", oracle(x)[2], V[i], V[i])
        scale = np.max(np.abs(want))
        assert np.max(np.abs(B[i] - want)) <= TOL * scale
        assert np.max(np.abs(B[i] - kernel[i])) <= TOL * scale


def test_jacobi_system_matches_oracle(chart, oracle):
    v = np.array([0.4, 0.3, -0.5])
    geo = transport.integrate_geodesic(chart, P, v, 0.5,
                                       settings=transport.OdeSettings(step=5e-3))
    sys_ = variation.jacobi_system(chart, geo)
    for i in (0, 37, len(geo.t) - 1):
        want = _driving(oracle(geo.x[i])[2], geo.v[i], geo.frame[i])
        assert np.max(np.abs(sys_.M[i] - 0.5 * (want + want.T))) <= 10 * TOL


def _trajectory(chart, xs):
    m = len(xs)
    return Trajectory(chart=chart, t=np.linspace(0.0, 1.0, m), x=np.asarray(xs, float),
                      v=np.tile([1.0, 0.0], (m, 1)), frame=np.tile(np.eye(2), (m, 1, 1)))


def test_jacobi_system_errors_match_metric_at(hyper2):
    with pytest.raises(DomainExit):
        variation.jacobi_system(hyper2, _trajectory(hyper2, [[0.0, 0.0], [1.2, 0.0]]))
    degenerate = manifold.chart_from_definition(
        {"dim": 2, "coords": ["x", "y"], "metric": [["x", "0"], ["0", "1"]]})
    with pytest.raises(SingularMetric):
        variation.jacobi_system(degenerate, _trajectory(degenerate, [[1.0, 0.0], [-1.0, 0.0]]))


def test_ricci_lower_bound_is_generalized_eigenvalue(chart):
    # the least lambda with Ric - lambda g singular; on this chart g^-1 Ric is
    # far from symmetric, and eigvalsh of it read -0.06461 here
    p = np.array([0.3, 0.2, 0.5])
    md = manifold.metric_at(chart, p)
    ric = tensor.ricci(tensor.curvature(chart, p), md.g).ric
    want = scipy.linalg.eigh(ric, md.g, eigvals_only=True)[0]
    rep = comparison.volume_compare(chart, p, r=0.05, Kref=-1.0, directions=16,
                                    ric_samples=1)
    assert rep["ric_min_eigenvalue"] == pytest.approx(want, abs=TOL)

"""Christoffel symbols, curvature tensor, contractions and decompositions.

Index conventions (pinned once, unit-tested against constant curvature):
  * operator: R_XY = D_[X,Y] - D_X D_Y + D_Y D_X
  * components: R_{e_h e_k} e_j = sum_i up[i,j,h,k] e_i
  * lowered: low[i,j,h,k] = g(R_{e_i e_j} e_h, e_k)
  * Ricci: ric[i,h] = g^{jm} low[i,j,h,m]  (positive (n-1)K g on round spheres)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, BadParam, DegeneratePlane, SingularMetric
from .manifold import MetricChart, gamma_from_stack, koszul, metric_at
from . import expr as _expr


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChristoffelField:
    point: np.ndarray
    gamma: np.ndarray  # gamma[i,j,k] = Gamma^i_jk, symmetric in (j,k)


def christoffel(chart: MetricChart, p) -> ChristoffelField:
    p = np.asarray(p, dtype=float)
    md = metric_at(chart, p)
    return ChristoffelField(point=p, gamma=gamma_from_stack(md.g_inv, md.dg))


_BLOCK = 512  # points per kernel pass; bounds the rank-5 temporaries


def curvature_kernel(g: np.ndarray, dg: np.ndarray, d2g: np.ndarray):
    """(Gamma, up, low), as defined above, from a metric stack whose first axis is the batch."""
    N, n = g.shape[:2]
    g_inv = np.linalg.inv(g)
    G = gamma_from_stack(g_inv, dg)
    Gf = G.reshape(N, n, n * n)
    # dG[l,i,j,k] = d_l Gamma^i_jk = g^-1 (d_l K / 2 - d_l g Gamma)
    dG = g_inv[:, None] @ (0.5 * koszul(d2g).reshape(N, n, n, n * n) - dg @ Gf[:, None])
    # up = S - S.swapaxes(h, k) with S[i,j,h,k] = d_k Gamma^i_hj + Gamma^i_km Gamma^m_hj,
    # built in dG's buffer
    up = dG.reshape(N, n, n, n, n).transpose(0, 2, 4, 3, 1)
    up += (G.reshape(N, n * n, n) @ Gf).reshape(N, n, n, n, n).transpose(0, 1, 4, 3, 2)
    up -= up.swapaxes(-1, -2)
    low = up.transpose(0, 3, 4, 2, 1) @ g[:, None, None]  # low[a,b,c,d] = g_dm up[m,c,a,b]
    return G, up, low


def _positive_stack(chart: MetricChart, X: np.ndarray):
    """stack_batch at X; SingularMetric where g is not positive definite."""
    stack = chart.evaluator.stack_batch(X)
    try:
        np.linalg.cholesky(stack[0])
    except np.linalg.LinAlgError:
        bad = X[np.argmin(np.linalg.eigvalsh(stack[0])[:, 0])]
        raise SingularMetric(f"metric not positive definite at {bad}")
    return stack


def _over_blocks(chart: MetricChart, X, reduce):
    """reduce(slice, Gamma, up, low) over X, _BLOCK points at a time, concatenated."""
    X = np.asarray(X, dtype=float)
    parts = []
    for s in range(0, max(len(X), 1), _BLOCK):  # an empty X makes one empty pass
        sl = slice(s, s + _BLOCK)
        parts.append(reduce(sl, *curvature_kernel(*_positive_stack(chart, X[sl]))))
    return tuple(np.concatenate(a) for a in zip(*parts))


def curvature_low_batch(chart: MetricChart, X: np.ndarray):
    """(gamma, low) at a batch of points; low has shape (N, n, n, n, n)."""
    return _over_blocks(chart, X, lambda sl, G, up, low: (G, low))


def jacobi_driving_batch(chart: MetricChart, X: np.ndarray, V: np.ndarray,
                         Eo: np.ndarray):
    """(C, M) for a batch of rays: C = Gamma(v, .), so C @ w = Gamma(v, w), and
    M[p,q] = low(v, E_q, v, E_p), symmetrised.

    On an evaluator with a closed-form ``jacobi_batch`` (the stereographic
    models of constant curvature K, where B = K mu^2 (|v|^2 I - v v^T)),
    M = E^T B E from its B(w, u) = low(v, w, v, u), in O(n^2) per ray. Every
    other evaluator contracts the rank-4 R of ``curvature_kernel``, which
    stays the reference.
    """
    closed = chart.evaluator.jacobi_batch
    if closed is not None:
        C, B = closed(X, V)
        M = Eo.swapaxes(1, 2) @ B @ Eo
    else:
        n = np.shape(X)[1]

        def drive(sl, G, up, low):
            v, E = V[sl], Eo[sl]
            T = (v[:, None, :] @ low.reshape(-1, n, n ** 3)).reshape(-1, n, n, n)
            T = (v[:, None, None, :] @ T).reshape(-1, n, n)  # T[b,d] = low(v, e_b, v, e_d)
            return (v[:, None, None, :] @ G)[:, :, 0], E.swapaxes(1, 2) @ T.swapaxes(1, 2) @ E

        C, M = _over_blocks(chart, X, drive)
    return C, 0.5 * (M + M.swapaxes(1, 2))


@dataclass(frozen=True)
class CurvatureTensor:
    point: np.ndarray
    up: np.ndarray   # up[i,j,h,k]
    low: np.ndarray  # low[i,j,h,k] = g(R_{e_i e_j} e_h, e_k)


def curvature(chart: MetricChart, p) -> CurvatureTensor:
    p = np.asarray(p, dtype=float)
    md = metric_at(chart, p)
    _, up, low = curvature_kernel(md.g[None], md.dg[None], md.d2g[None])
    return CurvatureTensor(point=p, up=up[0], low=low[0])


# ---------------------------------------------------------------------------
# Symmetries and the Bianchi residual
# ---------------------------------------------------------------------------

def check_symmetries(R: CurvatureTensor | np.ndarray, g=None) -> dict:
    """Residuals of the four curvature symmetries, normalized by max |R|."""
    low = R.low if isinstance(R, CurvatureTensor) else np.asarray(R, dtype=float)
    scale = float(np.max(np.abs(low)))
    if scale == 0.0:
        return {"r1": 0.0, "r2": 0.0, "r3": 0.0, "r4": 0.0}
    r1 = np.max(np.abs(low + low.transpose(1, 0, 2, 3)))
    r2 = np.max(np.abs(low + low.transpose(0, 1, 3, 2)))
    r3 = np.max(np.abs(low + low.transpose(1, 2, 0, 3) + low.transpose(2, 0, 1, 3)))
    r4 = np.max(np.abs(low - low.transpose(2, 3, 0, 1)))
    return {k: float(v) / scale for k, v in
            {"r1": r1, "r2": r2, "r3": r3, "r4": r4}.items()}


def bianchi_residual(chart: MetricChart, p) -> float:
    """Max cyclic covariant-derivative residual, FD for the partials of R."""
    p = np.asarray(p, dtype=float)
    n = chart.dim
    base = curvature(chart, p)
    G = christoffel(chart, p).gamma
    dR = np.zeros((n, n, n, n, n))
    for l in range(n):
        h = np.cbrt(np.finfo(float).eps) * max(1.0, abs(p[l]))
        plus = p.copy(); plus[l] += h
        minus = p.copy(); minus[l] -= h
        dR[l] = (curvature(chart, plus).up - curvature(chart, minus).up) / (2.0 * h)
    # cov[l] = D_l up: + Gamma^i_lm on the upper slot, - Gamma^m_l. on each lower slot
    cov = dR + np.tensordot(G, base.up, (2, 0)).swapaxes(0, 1)
    for s in (1, 2, 3):
        cov -= np.moveaxis(np.tensordot(base.up, G, (s, 0)), (3, 4), (0, s + 1))
    cyc = (cov + np.einsum("hijkl->lijhk", cov) + np.einsum("kijlh->lijhk", cov))
    scale = float(np.max(np.abs(base.up)))
    res = float(np.max(np.abs(cyc)))
    if scale > 1e-10:
        return res / scale
    return res


# ---------------------------------------------------------------------------
# Sectional, Ricci, scalar
# ---------------------------------------------------------------------------

def sectional(R: CurvatureTensor, g: np.ndarray, x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gxx = float(x @ g @ x)
    gyy = float(y @ g @ y)
    gxy = float(x @ g @ y)
    den = gxx * gyy - gxy * gxy
    if den <= 1e-12 * max(gxx * gyy, 1e-300):
        raise DegeneratePlane("plane spanned by x, y is (nearly) degenerate")
    num = float(np.einsum("abcd,a,b,c,d->", R.low, x, y, x, y))
    return num / den


@dataclass(frozen=True)
class RicciData:
    point: np.ndarray
    ric: np.ndarray
    scalar: float


def ricci(R: CurvatureTensor, g: np.ndarray) -> RicciData:
    g_inv = np.linalg.inv(g)
    ric = np.einsum("jm,ajbm->ab", g_inv, R.low)
    ric = 0.5 * (ric + ric.T)
    scalar = float(np.einsum("ab,ab->", g_inv, ric))
    return RicciData(point=R.point, ric=ric, scalar=scalar)


def orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Columns form a g-orthonormal basis: B^T g B = I."""
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularMetric(f"metric not positive definite: {np.asarray(g).tolist()}")
    return np.linalg.inv(L).T


def frame_components(low: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ijhk,ia,jb,hc,kd->abcd", low, B, B, B, B)


# ---------------------------------------------------------------------------
# The algebraic curvature space and the Weyl decomposition
# ---------------------------------------------------------------------------

def curvature_space_dim(n: int) -> int:
    """Dimension of the space of algebraic curvature tensors in dimension n."""
    if n < 1:
        raise BadParam("n must be >= 1")
    return (n * n * (n * n - 1)) // 12


@dataclass
class CurvatureAlgebraElement:
    """Covariant curvature-type tensor w.r.t. an orthonormal frame."""

    n: int
    components: np.ndarray

    SYM_TOL = 1e-10

    @classmethod
    def from_array(cls, T: np.ndarray, require_cyclic: bool = True):
        T = np.asarray(T, dtype=float)
        n = T.shape[0]
        res = check_symmetries(T)
        tol = cls.SYM_TOL
        if res["r1"] > tol or res["r2"] > tol or res["r4"] > tol:
            raise BadParam(f"array lacks pair symmetries: {res}")
        if require_cyclic and res["r3"] > tol:
            raise BadParam(f"array violates the cyclic symmetry: {res}")
        return cls(n=n, components=T)

    @classmethod
    def constant_curvature(cls, n: int, K: float):
        eye = np.eye(n)
        T = K * (np.einsum("ac,bd->abcd", eye, eye) - np.einsum("ad,bc->abcd", eye, eye))
        return cls(n=n, components=T)

    def cyclic_residual(self) -> float:
        return check_symmetries(self.components)["r3"]


def wedge_pair(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Curvature-type realization of A^B + B^A for symmetric A, B.

    Normalization pinned by the contraction identity
    ric_contraction(wedge_pair(A, I)) = (n-2)A + (tr A)I.
    """
    return (np.einsum("ih,jk->ijhk", A, B) + np.einsum("jk,ih->ijhk", A, B)
            - np.einsum("ik,jh->ijhk", A, B) - np.einsum("jh,ik->ijhk", A, B))


def ric_contraction(T: np.ndarray) -> np.ndarray:
    """Ricci contraction w.r.t. the identity metric of the frame."""
    return np.einsum("ajbj->ab", T)


def det_inner(T: np.ndarray, S: np.ndarray) -> float:
    """Determinant inner product on bivector forms (each i<j pair counted once)."""
    return 0.25 * float(np.einsum("ijhk,ijhk->", T, S))


def det_norm(T: np.ndarray) -> float:
    return math.sqrt(max(det_inner(T, T), 0.0))


def _ricci_realization(A: np.ndarray, n: int) -> np.ndarray:
    eye = np.eye(n)
    return (wedge_pair(A, eye)
            - (np.trace(A) / (n - 1)) * 0.5 * wedge_pair(eye, eye)) / (n - 2)


def weyl_decompose(R: CurvatureAlgebraElement | np.ndarray, g=None) -> dict:
    """Orthogonal split into Weyl, traceless-Ricci and scalar blocks."""
    T = R.components if isinstance(R, CurvatureAlgebraElement) else np.asarray(R, dtype=float)
    n = T.shape[0]
    if n < 3:
        raise BadDimension("Weyl decomposition needs n >= 3")
    ric = ric_contraction(T)
    S = float(np.trace(ric))
    eye = np.eye(n)
    scalar_part = _ricci_realization((S / n) * eye, n)
    traceless_part = _ricci_realization(ric - (S / n) * eye, n)
    weyl = T - scalar_part - traceless_part
    return {
        "weyl": weyl,
        "traceless_ricci_part": traceless_part,
        "scalar_part": scalar_part,
        "norms": {
            "weyl": det_norm(weyl),
            "traceless_ricci_part": det_norm(traceless_part),
            "scalar_part": det_norm(scalar_part),
            "total": det_norm(T),
        },
    }


# ---------------------------------------------------------------------------
# Normal-coordinate Taylor check
# ---------------------------------------------------------------------------

def normal_taylor_check(chart: MetricChart, p, frame=None, eps: float = 0.2,
                        ode_step: float = 0.01) -> dict:
    """Fit the quadratic metric coefficients in normal coordinates at p.

    Compares the fitted second derivatives of g_ij against the curvature
    prediction, checks that the Christoffel symbols vanish at the origin,
    and in 2-D recovers the Gaussian curvature from the fitted E_yy.
    g at x in normal coordinates is F(1)^T F(1): the exact d(exp_p), as Jacobi
    fields along exp_p(tBx), in the parallel orthonormal frame (do Carmo, ch. 5).
    """
    from . import transport, variation

    p = np.asarray(p, dtype=float)
    n = chart.dim
    md = metric_at(chart, p)
    B = orthonormal_frame(md.g) if frame is None else np.asarray(frame, dtype=float)
    settings = transport.OdeSettings(step=ode_step)

    def g_normal(x):
        geo = transport.integrate_geodesic(chart, p, B @ x, 1.0, settings=settings)
        F = variation.jacobi_solve(chart, geo, np.zeros((n, n)), B).f[-1]
        return F.T @ F

    def quad_coeffs(radius):
        g0 = g_normal(np.zeros(n))
        C = np.zeros((n, n, n, n))  # C[h,k,i,j] = d^2 g_ij / dx^h dx^k
        for h in range(n):
            e = np.zeros(n); e[h] = radius
            C[h, h] = (g_normal(e) - 2.0 * g0 + g_normal(-e)) / radius**2
            for k in range(h + 1, n):
                f = np.zeros(n); f[k] = radius
                mixed = (g_normal(e + f) - g_normal(e - f)
                         - g_normal(-e + f) + g_normal(-e - f)) / (4.0 * radius**2)
                C[h, k] = C[k, h] = mixed
        return C

    C = (4.0 * quad_coeffs(eps / 2) - quad_coeffs(eps)) / 3.0

    Rf = frame_components(curvature(chart, p).low, B)
    # g_ij = delta_ij - (1/3) R_ihjk x^h x^k  =>  d^2 g_ij/dx^h dx^k
    predicted = -(np.einsum("ihjk->hkij", Rf) + np.einsum("ikjh->hkij", Rf)) / 3.0
    max_dev = float(np.max(np.abs(C - predicted)))

    def dg_normal(radius):
        D = np.zeros((n, n, n))
        for k in range(n):
            e = np.zeros(n); e[k] = radius
            D[k] = (g_normal(e) - g_normal(-e)) / (2.0 * radius)
        return D

    D = (4.0 * dg_normal(eps / 4) - dg_normal(eps / 2)) / 3.0
    gamma0 = 0.5 * koszul(D)
    report = {
        "quadratic": C,
        "predicted": predicted,
        "max_deviation": max_dev,
        "gamma_origin_max": float(np.max(np.abs(gamma0))),
    }
    if n == 2:
        e_yy = C[1, 1, 0, 0]
        report["E_yy"] = float(e_yy)
        report["K_fitted"] = float(-1.5 * e_yy)
    return report


# ---------------------------------------------------------------------------
# Killing residual
# ---------------------------------------------------------------------------

def killing_residual(chart: MetricChart, J_components, points) -> float:
    """Max deviation from skew-adjointness of D J over sample points.

    ``J_components`` is a tuple of expression ASTs (or source strings) giving
    the vector field components in chart coordinates.
    """
    asts = []
    for comp in J_components:
        if isinstance(comp, str):
            asts.append(_expr.parse(comp, chart.coords))
        else:
            asts.append(comp)
    if len(asts) != chart.dim:
        raise BadParam("J must have one component per coordinate")
    field = _expr.compile_tensor(asts, chart.dim, 1)
    worst = 0.0
    for p in np.atleast_2d(np.asarray(points, dtype=float)):
        md = metric_at(chart, p)
        G = gamma_from_stack(md.g_inv, md.dg)
        vals, grads = field(p)  # grads[a,i] = d_a J^i
        DJ = grads + (G @ vals).T  # DJ[a,i] = (D_a J)^i
        M = DJ @ md.g  # M[a,b] = g(D_a J, e_b)
        worst = max(worst, float(np.max(np.abs(M + M.T))))
    return worst


# ---------------------------------------------------------------------------
# Left-invariant curvatures on the rotation group
# ---------------------------------------------------------------------------

def berger_curvatures(a: float, b: float, c: float) -> dict:
    """Sectional curvatures of the left-invariant metric with axis lengths a,b,c.

    Evaluates both closed forms (the connection-coefficient route and the
    squared-parameter route) and reports their maximum discrepancy.
    """
    if a <= 0 or b <= 0 or c <= 0:
        raise BadParam("axis lengths must be positive")
    A = (b * b + c * c - a * a) / (2 * a * b * c)
    Bc = (c * c + a * a - b * b) / (2 * a * b * c)
    Cc = (a * a + b * b - c * c) / (2 * a * b * c)
    K12 = A * Cc + Bc * Cc - A * Bc
    K23 = Bc * A + Cc * A - Bc * Cc
    K31 = Cc * Bc + A * Bc - Cc * A
    u, v, w = a * a, b * b, c * c

    def closed(u, v, w):
        return (3 * (u - v) ** 2 + (u + v) ** 2 - (3 * w - u - v) ** 2) / (12 * u * v * w)

    K12f, K23f, K31f = closed(u, v, w), closed(v, w, u), closed(w, u, v)
    cross = max(abs(K12 - K12f), abs(K23 - K23f), abs(K31 - K31f))
    return {"K12": K12, "K23": K23, "K31": K31,
            "A": A, "B": Bc, "C": Cc, "cross_check": cross}

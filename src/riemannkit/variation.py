"""Jacobi fields, conjugate points, index forms and variation formulas.

All second-order machinery works in a parallel g-orthonormal frame along a
geodesic, with the (normalized) tangent as the last frame vector, so the
Jacobi equation reads f'' = -M(t) f with M symmetric. Every Jacobi field
advances by one RK4 transition matrix per geodesic step, built from M at
the step's ends and at its cubic Hermite midpoint, so it keeps RK4's order;
the builder, ``transport._transition``, also carries the parallel frame.

Conjugate points are counted from those transitions: the orthogonal fields
F (F(0) = 0, F'(0) = I) are a conjoined basis of the discrete symplectic
system they define, and the number of conjugate points in a step, with
multiplicity, is its number of focal points (Kratz 2003), as in the Morse
index theorem. A step with a count holds one point, refined on the dense F:
by bisection of det F for an odd count, by minimising the least singular
value for an even one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadParam, ConjugateNotFound, ConjugatePresent
from .manifold import (MetricChart, SampledCurve, _bisect, _dense, _finite, _hermite,
                       _positive, _require_three_samples)
from .manifold import energy as curve_energy
from .tensor import jacobi_driving_batch
from .transport import (DEFAULT_SETTINGS, OdeSettings, Trajectory, _advance,
                        _exp_rays, _ray_slopes, _transition, integrate_geodesic)


# ---------------------------------------------------------------------------
# The curvature driving matrix along a geodesic
# ---------------------------------------------------------------------------

def _driving(chart: MetricChart, Y: np.ndarray, cols: int) -> np.ndarray:
    """``jacobi_driving_batch``'s M of the ray rows Y in their first cols frame columns."""
    n = chart.dim
    V, E = Y[:, n:2 * n], Y[:, 2 * n:].reshape(len(Y), n, Y.shape[1] // n - 2)[:, :, :cols]
    return jacobi_driving_batch(chart, Y[:, :n], V, E)


@dataclass
class JacobiSystem:
    """Samples of position, velocity, parallel frame and M along a geodesic."""

    chart: MetricChart
    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    frame: np.ndarray
    M: np.ndarray      # (m+1, n, n), symmetric
    M_mid: np.ndarray  # (m, n, n), M at the Hermite midpoint of each step

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def m_symmetry_residual(self) -> float:
        res = np.max(np.abs(self.M - np.transpose(self.M, (0, 2, 1))))
        scale = max(float(np.max(np.abs(self.M))), 1e-30)
        return float(res) / scale


def jacobi_system(chart: MetricChart, geo: Trajectory) -> JacobiSystem:
    """M at every sample of a framed geodesic and at the cubic Hermite midpoint
    of (x, v, E) in every step, the slopes from ``transport._ray_slopes``."""
    if geo.frame is None:
        raise BadParam("geodesic must carry a parallel frame")
    chart.require_inside(geo.x)
    n, t = chart.dim, geo.t
    Y = np.hstack([geo.x, geo.v, geo.frame.reshape(len(t), -1)])
    M, dY = _driving(chart, Y, n), _ray_slopes(chart, Y)
    t0, t1 = t[:-1, None], t[1:, None]
    Y_mid = _hermite(t0, t1, Y[:-1], Y[1:], dY[:-1], dY[1:], 0.5 * (t0 + t1))
    M_mid = _driving(chart, Y_mid, n)
    return JacobiSystem(chart=chart, t=t.copy(), x=geo.x, v=geo.v,
                        frame=geo.frame, M=M, M_mid=M_mid)


# ---------------------------------------------------------------------------
# Jacobi field integration
# ---------------------------------------------------------------------------

def _jacobi_transition(M0: np.ndarray, Mh: np.ndarray, M1: np.ndarray, h) -> np.ndarray:
    """RK4 transition matrices (B, 2k, 2k) of y' = [[0, I], [-M(t), 0]] y.

    Row b of M0, Mh and M1 (B, k, k) is M at the start, middle and end of step
    b, of width h[b] (< 0 steps backward); both middle stages take Mh.
    """
    B, k, _ = M0.shape
    A = np.zeros((3, B, 2 * k, 2 * k))
    A[:, :, :k, k:] = np.eye(k)
    A[:, :, k:, :k] = -np.stack([M0, Mh, M1])
    return _transition((A[0], A[1], A[1], A[2]), h)


def _fields(sys: JacobiSystem, F0: np.ndarray, Fp0: np.ndarray, backward: bool = False):
    """(F, F') at every sample for F'' = -M(t) F, a matrix of columns.

    F0 and Fp0 give the start values (the end values when ``backward``).
    F has as many rows as F0 and is driven by that leading block of M, so
    orthogonal fields (n-1 rows) leave out the tangent direction.
    """
    k = len(F0)
    M0, Mh, M1 = sys.M[:-1, :k, :k], sys.M_mid[:, :k, :k], sys.M[1:, :k, :k]
    h = np.diff(sys.t)
    if backward:
        M0, Mh, M1, h = M1[::-1], Mh[::-1], M0[::-1], -h[::-1]
    Y = _advance(np.concatenate([F0, Fp0]), len(h), lambda s, e: _jacobi_transition(
        M0[s:e], Mh[s:e], M1[s:e], h[s:e]))
    Y = Y[::-1] if backward else Y
    return Y[:, :k], Y[:, k:]


@dataclass
class JacobiSolution:
    t: np.ndarray
    f: np.ndarray   # (m+1, n) frame components of J
    fp: np.ndarray  # (m+1, n) frame components of D_t J
    system: JacobiSystem

    def coordinate_field(self) -> np.ndarray:
        """J in chart coordinates at every sample."""
        return np.einsum("tia,ta->ti", self.system.frame, self.f)


def jacobi_solve(chart: MetricChart, geo: Trajectory, J0, J0p) -> JacobiSolution:
    """Solve J'' = -M J along geo from coordinate initial data (J0, D_t J at 0)."""
    J0 = _finite("J0", J0, (chart.dim,) + np.shape(J0)[1:2])  # a vector, or columns of them
    J0p = _finite("J0p", J0p, J0.shape)
    sys = jacobi_system(chart, geo)
    g0 = chart.evaluator.metric(geo.x[0])
    E0 = geo.frame[0]
    f0 = E0.T @ g0 @ J0
    fp0 = E0.T @ g0 @ J0p
    f, fp = _fields(sys, f0, fp0)
    return JacobiSolution(t=sys.t, f=f, fp=fp, system=sys)


def _exp_differential(chart: MetricChart, geo: Trajectory) -> np.ndarray:
    """d(exp_p) at the initial velocity of geo on [0, 1], in coordinates: column k
    is J(1) for the Jacobi field with J(0) = 0 and J'(0) = e_k (do Carmo, ch. 5)."""
    n = chart.dim
    return geo.frame[-1] @ jacobi_solve(chart, geo, np.zeros((n, n)), np.eye(n)).f[-1]


def orthogonal_fundamental(sys: JacobiSystem):
    """Fundamental matrix of orthogonal Jacobi fields with F(0)=0, F'(0)=I.

    Components are taken in the first n-1 frame directions (the tangent is
    the last frame vector); returns (F, Fp) with shape (m+1, n-1, n-1).
    """
    d = sys.dim - 1
    return _fields(sys, np.zeros((d, d)), np.eye(d))


# ---------------------------------------------------------------------------
# Conjugate points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugatePoint:
    t: float
    multiplicity: int
    sigma_min: float


@dataclass
class ConjugateReport:
    points: list
    t: np.ndarray
    det: np.ndarray
    sigma_min: np.ndarray


def conjugate_points(chart: MetricChart, p, v, tmax: float,
                     settings: OdeSettings = DEFAULT_SETTINGS,
                     mult_tol: float = 1e-7) -> ConjugateReport:
    """Conjugate parameters of gamma(0)=p along exp(t v), with multiplicities.

    The multiplicities come from the focal-point count of ``_conjugate_search``;
    ``mult_tol`` stays accepted for API stability and has no effect.
    """
    geo = integrate_geodesic(chart, p, v, tmax, settings=settings)
    return conjugate_points_from(chart, geo)


def conjugate_points_from(chart: MetricChart, geo: Trajectory,
                          mult_tol: float = 1e-7) -> ConjugateReport:
    """``conjugate_points`` along a framed geodesic; ``mult_tol`` has no effect."""
    sys = jacobi_system(chart, geo)
    return _conjugate_search(sys, *orthogonal_fundamental(sys))


def _conjugate_search(sys: JacobiSystem, F: np.ndarray, Fp: np.ndarray) -> ConjugateReport:
    """The conjugate points of the fields F (F(0) = 0, F'(0) = I) with Fp = F'.

    Step k holds as many as ``_focal_counts`` gives it, with B_k = h I - (h^3/6) M_mid,
    the upper-right block of its RK4 transition. Each step with a count is one
    point of that multiplicity, located on the dense F: by bisection of det F
    where the count is odd, at the least singular value's minimum where it is even.
    """
    d = F.shape[1]
    det = np.linalg.det(F)
    sig = np.min(np.linalg.svd(F, compute_uv=False), axis=1, initial=np.inf)  # inf at d = 0
    h = np.diff(sys.t)[:, None, None]
    counts = _focal_counts(F, h * np.eye(d) - h ** 3 / 6.0 * sys.M_mid[:, :d, :d])

    found = []
    for k in np.flatnonzero(counts):
        a, b = sys.t[k], sys.t[k + 1]

        def F_at(s):  # the dense F on step k
            return _hermite(a, b, F[k], F[k + 1], Fp[k], Fp[k + 1], s)

        if counts[k] % 2:
            t_star = _bisect(lambda s: np.linalg.det(F_at(s)), a, b)
        else:
            t_star = _golden_min(lambda s: _least_singular(F_at(s)), a, b)
        found.append(ConjugatePoint(t=float(t_star), multiplicity=int(counts[k]),
                                    sigma_min=_least_singular(F_at(t_star))))
    return ConjugateReport(points=found, t=sys.t, det=det, sigma_min=sig)


def _first_interior(sys: JacobiSystem, F: np.ndarray, Fp: np.ndarray):
    """The first conjugate point of F short of the geodesic's end, or None."""
    return next((c for c in _conjugate_search(sys, F, Fp).points
                 if c.t < sys.t[-1] * (1.0 - 1e-9)), None)


def _least_singular(A: np.ndarray) -> float:
    return float(np.linalg.svd(A, compute_uv=False)[-1])


def _focal_counts(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The focal points in each step (k, k+1] of the conjoined basis X of a discrete
    symplectic system whose transitions have upper-right blocks B (Kratz 2003).

    Where X_{k+1} is invertible the count is ind P_k, the number of negative
    eigenvalues of P_k = X_k X_{k+1}^-1 B_k, symmetrised; ``eigvalsh`` runs only
    on the P_k that Gershgorin's discs leave unsure. Where it is singular the
    count is ``_kratz_count``'s.
    """
    X0, X1 = X[:-1], X[1:]
    try:
        P, singular = X0 @ np.linalg.solve(X1, B), np.zeros(len(B), dtype=bool)
    except np.linalg.LinAlgError:  # a zero pivot, which det reads as det X_{k+1} = 0
        singular = np.linalg.det(X1) == 0.0
        P = X0 @ np.linalg.solve(np.where(singular[:, None, None], np.eye(X.shape[1]), X1), B)
    P = 0.5 * (P + np.swapaxes(P, 1, 2))
    diag = np.diagonal(P, axis1=1, axis2=2)
    unsure = np.flatnonzero(np.any(2.0 * diag < np.sum(np.abs(P), axis=2), axis=1) & ~singular)
    counts = np.zeros(len(B), dtype=int)
    counts[unsure] = np.sum(np.linalg.eigvalsh(P[unsure]) < 0.0, axis=1)
    for k in np.flatnonzero(singular):
        counts[k] = _kratz_count(X0[k], X1[k], B[k])
    return counts


def _kratz_count(X0: np.ndarray, X1: np.ndarray, B: np.ndarray) -> int:
    """rank M + ind(T P T) for one step with X1 singular, where M = (I - X1 X1^+) B,
    T projects onto ker M and P = X0 X1^+ B; M is taken as U'^T B, of the same rank
    and kernel, with U' the left singular vectors that X1^+ drops."""
    U, s, _ = np.linalg.svd(X1)
    M = U[:, np.sum(s > 1e-15 * s[0]):].T @ B  # pinv's cutoff
    rank = np.linalg.matrix_rank(M)
    N = np.linalg.svd(M)[2][rank:].T
    Q = N.T @ X0 @ np.linalg.pinv(X1) @ B @ N
    return int(rank + np.sum(np.linalg.eigvalsh(0.5 * (Q + Q.T)) < 0.0))


def _golden_min(f, a, b, iters: int = 60):
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Fields along geodesics and the index form
# ---------------------------------------------------------------------------

@dataclass
class FieldAlongGeodesic:
    """Frame components of a piecewise-smooth field along a geodesic.

    ``comps[i]`` are the components in the parallel orthonormal frame at
    sample i of the carrying geodesic; breakpoints list the corner parameters.
    """

    t: np.ndarray
    comps: np.ndarray
    breakpoints: list = field(default_factory=list)

    def derivative(self) -> np.ndarray:
        """Componentwise derivative, piecewise between breakpoints."""
        d = np.empty_like(self.comps)
        for idx in _pieces(self.t, self.breakpoints):
            d[idx] = np.gradient(self.comps[idx], self.t[idx], axis=0, edge_order=2)
        return d


def field_from_function(sys: JacobiSystem, func: Callable,
                        breakpoints=()) -> FieldAlongGeodesic:
    comps = np.array([func(t) for t in sys.t], dtype=float)
    return FieldAlongGeodesic(t=sys.t.copy(), comps=comps,
                              breakpoints=list(breakpoints))


def index_form(sys: JacobiSystem, V: FieldAlongGeodesic,
               Z: Optional[FieldAlongGeodesic] = None) -> float:
    """I(V, Z) = int_0^L [ g(V', Z') - g(R_{X V} X, Z) ] ds, no factor 2.

    The geodesic is assumed parametrized proportionally to arclength; the
    frame is orthonormal, so all inner products are Euclidean on components.
    """
    if Z is None:
        Z = V
    _require_on_grid(sys, V)
    _require_on_grid(sys, Z)
    Vp = V.derivative()
    Zp = Z.derivative()
    MV = np.einsum("tab,tb->ta", sys.M, V.comps)
    integrand = np.einsum("ta,ta->t", Vp, Zp) - np.einsum("ta,ta->t", MV, Z.comps)
    return _piecewise_simpson(sys.t, integrand, [*V.breakpoints, *Z.breakpoints])


def _require_on_grid(sys: JacobiSystem, V: FieldAlongGeodesic) -> None:
    """BadParam unless V is sampled on the geodesic's grid with finite
    components; BadDimension unless it has one per frame vector."""
    if len(V.t) != len(sys.t) or not np.allclose(V.t, sys.t):
        raise BadParam("field grid must match the geodesic sample grid")
    _finite("field components", V.comps, (len(sys.t), sys.dim))


def _pieces(t: np.ndarray, breakpoints) -> list:
    """The sample indices of each piece of t between the breakpoints inside it,
    a sample within 1e-12 of a breakpoint in both pieces; a piece with no sample
    is left out, and one with a single sample is a BadParam."""
    edges = [t[0]] + sorted({b for b in breakpoints if t[0] < b < t[-1]}) + [t[-1]]
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        idx = np.flatnonzero((t >= a - 1e-12) & (t <= b + 1e-12))
        if len(idx) == 1:
            raise BadParam(f"the piece [{a:.6g}, {b:.6g}] between breakpoints holds one sample")
        if len(idx):
            pieces.append(idx)
    return pieces


def _piecewise_simpson(t, y, breakpoints):
    pieces = _pieces(t, breakpoints)
    return float(sum((_simpson_nonuniform(t[idx], y[idx]) for idx in pieces), 0.0))


def _simpson_nonuniform(x, y):
    # composite Simpson on (possibly) nonuniform grids, trapezoid tail
    n = len(x)
    total = 0.0
    i = 0
    while i + 2 < n:
        h0 = x[i + 1] - x[i]
        h1 = x[i + 2] - x[i + 1]
        hs = h0 + h1
        total += (hs / 6.0) * ((2.0 - h1 / h0) * y[i]
                               + (hs * hs / (h0 * h1)) * y[i + 1]
                               + (2.0 - h0 / h1) * y[i + 2])
        i += 2
    if i + 1 < n:
        total += 0.5 * (x[i + 1] - x[i]) * (y[i] + y[i + 1])
    return total


# ---------------------------------------------------------------------------
# Basic inequality
# ---------------------------------------------------------------------------

@dataclass
class BasicInequalityReport:
    I_V: float
    I_Y: float
    gap: float
    lagrange_drift: float
    tangential_max: float


def basic_inequality_check(chart: MetricChart, geo: Trajectory,
                           V: FieldAlongGeodesic,
                           conjugate_guard: bool = True) -> BasicInequalityReport:
    """Compare I(V,V) against the Jacobi field with the same endpoint value.

    V must vanish at the start; its orthogonal part at the far end selects the
    comparison field Y built from the fundamental system. Raises
    ConjugatePresent when a conjugate parameter lies inside the interval.
    """
    sys = jacobi_system(chart, geo)
    _require_on_grid(sys, V)
    n = sys.dim
    d = n - 1
    if float(np.linalg.norm(V.comps[0])) > 1e-10:
        raise BadParam("V must vanish at the start of the geodesic")
    tangential_max = float(np.max(np.abs(V.comps[:, d])))

    F, Fp = orthogonal_fundamental(sys)
    first = _first_interior(sys, F, Fp) if conjugate_guard else None
    if first is not None:
        raise ConjugatePresent(f"conjugate parameter at t={first.t:.6g} inside the interval")

    end_val = V.comps[-1, :d]
    alpha = np.linalg.solve(F[-1], end_val)
    Y = FieldAlongGeodesic(t=sys.t.copy(),
                           comps=np.pad(np.einsum("tab,b->ta", F, alpha),
                                        ((0, 0), (0, 1))))
    I_V = index_form(sys, V)
    I_Y = index_form(sys, Y)

    # internal Lagrange-identity check on the fundamental columns:
    # c_ab = F'^T F - F^T F' must stay constant (zero here)
    c = np.einsum("tca,tcb->tab", Fp, F) - np.einsum("tca,tcb->tab", F, Fp)
    drift = float(np.max(np.abs(c)))
    return BasicInequalityReport(I_V=I_V, I_Y=I_Y, gap=I_V - I_Y,
                                 lagrange_drift=drift,
                                 tangential_max=tangential_max)


# ---------------------------------------------------------------------------
# Beyond-conjugate nonminimality witness
# ---------------------------------------------------------------------------

@dataclass
class WitnessReport:
    s1: float
    s2: float
    index_value: float
    field: FieldAlongGeodesic
    I_Y: float


def nonminimality_witness(chart: MetricChart, geo: Trajectory,
                          margin_factor: float = 1.0) -> WitnessReport:
    """Broken field with negative index form past the first conjugate point.

    Uses the Jacobi field Y vanishing at 0 and at the first conjugate s2,
    cut off at s2, plus a connecting Jacobi field W on [s1, L] with
    W(s1) = Y(s1), W(L) = 0, where s1 = s2 - (L - s2) * margin_factor.
    The returned field is Y + W-correction as frame components with
    breakpoints at s1 and s2; its index form should be negative.
    """
    margin_factor = _positive("margin_factor", margin_factor)
    sys = jacobi_system(chart, geo)
    n = sys.dim
    d = n - 1
    L = float(sys.t[-1])
    F, Fp = orthogonal_fundamental(sys)
    first = _first_interior(sys, F, Fp)
    if first is None:
        raise ConjugateNotFound("no conjugate parameter inside (0, L)")
    s2 = first.t
    eps = (L - s2) * margin_factor
    s1 = s2 - eps
    if s1 <= 0.0:
        raise BadParam("first conjugate point too close to the start")

    # Y = F alpha with F(s2) alpha = 0, alpha from the smallest singular vector
    U, svals, Vt = np.linalg.svd(_dense(sys.t, F, s2, Fp))
    alpha = Vt[-1]
    # normalize so that |Y| peaks near 1
    Ycomps = np.einsum("tab,b->ta", F, alpha)
    peak = float(np.max(np.linalg.norm(Ycomps, axis=1)))
    if peak > 0:
        alpha = alpha / peak
        Ycomps = Ycomps / peak

    # the connector W = B c on [s1, L]: the basis B (B(L) = 0, B'(L) = I) is
    # carried backward over the samples, and W(s1) = Y(s1) by Hermite
    Bm, Bmp = _fields(sys, np.zeros((d, d)), np.eye(d), backward=True)
    w0 = _dense(sys.t, Ycomps, s1, np.einsum("tab,b->ta", Fp, alpha))
    c = np.linalg.solve(_dense(sys.t, Bm, s1, Bmp), w0)

    # assemble the witness: Y before the corner at s1, the connector W after
    comps = np.zeros((len(sys.t), n))
    comps[:, :d] = np.where((sys.t < s1 - 1e-12)[:, None], Ycomps, Bm @ c)
    witness = FieldAlongGeodesic(t=sys.t.copy(), comps=comps,
                                 breakpoints=[s1])
    I_total = index_form(sys, witness)
    # diagnostic pieces: Y on [0, s2] cut off, and the connector
    Yfield = FieldAlongGeodesic(
        t=sys.t.copy(),
        comps=np.pad(np.where((sys.t <= s2)[:, None], Ycomps, 0.0),
                     ((0, 0), (0, 1))),
        breakpoints=[s2])
    I_Y = index_form(sys, Yfield)
    return WitnessReport(s1=float(s1), s2=float(s2), index_value=I_total,
                         field=witness, I_Y=I_Y)


# ---------------------------------------------------------------------------
# First variation of energy
# ---------------------------------------------------------------------------

@dataclass
class RectangleSpec:
    """One-parameter variation Q(t, s) = exp_{base(s)}(t V(s))."""

    base: SampledCurve
    V: np.ndarray  # (m+1, n) coordinate components along the base
    end_condition: str = "fixed_ends"

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)
        if self.V.shape != self.base.points.shape:
            raise BadParam("V must be sampled on the base grid")
        _finite("V", self.V, self.V.shape)
        if self.end_condition not in ("fixed_ends", "free_ends"):
            raise BadParam(f"unknown end condition {self.end_condition!r}")
        if self.end_condition == "fixed_ends":
            if (np.linalg.norm(self.V[0]) > 1e-12
                    or np.linalg.norm(self.V[-1]) > 1e-12):
                raise BadParam("fixed_ends requires V = 0 at both endpoints")


@dataclass
class FirstVariationReport:
    analytic: float
    finite_difference: float
    mismatch: float
    boundary_term: float
    acceleration_term: float


def first_variation(chart: MetricChart, rect: RectangleSpec,
                    t_step: float = 1e-4,
                    exp_settings: Optional[OdeSettings] = None) -> FirstVariationReport:
    """dE/dt at t=0, analytically and by central differences of the energy.

    Analytic value: 2 [g(V, c')]_a^b - 2 int g(V, D_{c'} c') ds.
    """
    t_step = _positive("t_step", t_step)
    base = rect.base
    _require_three_samples(base.t)
    base.ensure_velocities()
    ts = base.t
    if exp_settings is None:
        exp_settings = OdeSettings(step=0.02)

    # analytic side
    X, W = base.points, base.velocities
    dv = np.gradient(W, ts, axis=0, edge_order=2)
    accel = dv + chart.evaluator.spray_batch(X, W)
    g = chart.evaluator.metric_batch(X)
    integrand = np.einsum("bi,bij,bj->b", rect.V, g, accel)
    boundary_term = 2.0 * (float(rect.V[-1] @ g[-1] @ W[-1])
                           - float(rect.V[0] @ g[0] @ W[0]))
    accel_term = -2.0 * _simpson_nonuniform(ts, integrand)
    analytic = boundary_term + accel_term

    # finite-difference side: the samples that move integrate as one batch
    def energy_at(tau):
        V = tau * rect.V
        moving = np.any(V, axis=1)
        pts = base.points.copy()
        if moving.any():
            pts[moving] = _exp_rays(chart, pts[moving], V[moving], exp_settings)
        curve = SampledCurve(ts.copy(), pts)
        return curve_energy(chart, curve, rel_tol=1e-10)

    fd = (energy_at(t_step) - energy_at(-t_step)) / (2.0 * t_step)
    return FirstVariationReport(analytic=analytic, finite_difference=fd,
                                mismatch=abs(analytic - fd),
                                boundary_term=boundary_term,
                                acceleration_term=accel_term)

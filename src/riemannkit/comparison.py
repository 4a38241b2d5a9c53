"""Riccati comparison, Sturm/Rauch/Myers checks, volume comparison.

The scalar Riccati equation f' = -f^2 - H(t) is solved as the log-derivative
f = j'/j of the linear Jacobi equation j'' = -H(t) j, stepped by the same RK4
transition matrices as every Jacobi field. A pole of f is a zero of j, which
j crosses smoothly, so poles are passed with no change of variable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (BadParam, ConjugateNotFound, DegeneratePlane,
                     InputOrderViolated)
from .manifold import MetricChart, _bisect, _finite, _hermite, _positive, _write_csv, metric_at
from .tensor import (curvature, curvature_low_batch, jacobi_driving_batch,
                     orthonormal_frame, ricci)
from .transport import (DEFAULT_SETTINGS, OdeSettings, Trajectory,
                        _adapted_frames, _rays_rhs, _step_rays, integrate_geodesic)
from .variation import (_driving, _jacobi_transition, conjugate_points_from,
                        jacobi_system, orthogonal_fundamental)


# ---------------------------------------------------------------------------
# Curvature profiles
# ---------------------------------------------------------------------------

@dataclass
class CurvatureProfile:
    """Scalar driving term H(t) for the comparison ODEs."""

    H: Callable
    label: str = ""

    @staticmethod
    def constant(K: float) -> "CurvatureProfile":
        return CurvatureProfile(H=lambda t: K, label=f"const({K})")

    @staticmethod
    def from_sectional(chart: MetricChart, geo: Trajectory,
                       direction: int = 0) -> "CurvatureProfile":
        """Sectional curvature of span(gamma', E_direction) along a geodesic."""
        if geo.frame is None:
            raise BadParam("geodesic must carry a parallel frame")
        chart.require_inside(geo.x)
        ts = geo.t
        y = geo.frame[:, :, _index("direction", direction, chart.dim)]
        # numerator low(v, y, v, y) is the driving matrix of the one-column frame y;
        # denominator and degeneracy test as in tensor.sectional
        M = jacobi_driving_batch(chart, geo.x, geo.v, y[:, :, None])
        g = chart.evaluator.metric_batch(geo.x)
        gxx = np.einsum("bi,bij,bj->b", geo.v, g, geo.v)
        gyy = np.einsum("bi,bij,bj->b", y, g, y)
        gxy = np.einsum("bi,bij,bj->b", geo.v, g, y)
        den = gxx * gyy - gxy * gxy
        if np.any(den <= 1e-12 * np.maximum(gxx * gyy, 1e-300)):
            raise DegeneratePlane("plane spanned by x, y is (nearly) degenerate")
        vals = M[:, 0, 0] / den

        def H(t):
            return float(np.interp(t, ts, vals))
        return CurvatureProfile(H=H, label=f"sectional@{chart.label}")

    def __call__(self, t: float) -> float:
        return float(self.H(t))


def _index(name: str, value, count: int) -> int:
    """value as an index into ``count`` items; BadParam otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < count:
        raise BadParam(f"{name} must be an integer in [0, {count}), got {value!r}")
    return int(value)


def _as_profile(H) -> CurvatureProfile:
    if isinstance(H, CurvatureProfile):
        return H
    if callable(H):
        return CurvatureProfile(H=H)
    return CurvatureProfile.constant(float(H))


# ---------------------------------------------------------------------------
# Riccati integration with pole passage
# ---------------------------------------------------------------------------

@dataclass
class RiccatiTrace:
    """Solution samples split into segments separated by poles."""

    t: np.ndarray
    f: np.ndarray           # +/- inf at masked pole neighborhoods is avoided:
    valid: np.ndarray       # mask of samples where |f| is finite and recorded
    poles: list             # pole parameters in increasing order
    f0: float
    tmax: float
    step: float

    def segments(self):
        """Yield (t_array, f_array) pieces between consecutive poles."""
        edges = [self.t[0] - 1.0] + list(self.poles) + [self.t[-1] + 1.0]
        for a, b in zip(edges[:-1], edges[1:]):
            mask = self.valid & (self.t > a) & (self.t < b)
            if np.any(mask):
                yield self.t[mask], self.f[mask]

    def first_pole(self) -> Optional[float]:
        return self.poles[0] if self.poles else None

    def to_csv(self, path: str):
        _write_csv(path, ["t", "f"], zip(self.t[self.valid], self.f[self.valid]))


_F_RECORD = 1e8   # samples with |f| above this are masked out


def riccati_solve(H, f0: float, tmax: float, step: float = 1e-3) -> RiccatiTrace:
    """Integrate f' = -f^2 - H(t) on [0, tmax], passing through poles.

    f = j'/j for j'' = -H(t) j from (j, j') = (1, f0), chained from sample to
    sample by RK4 transition matrices and reset to unit scale after every
    step, which changes neither f nor the zeros of j. A pole of f is a zero
    of j, the root of j's cubic Hermite interpolant on the step where j
    changes sign. ``f0`` may be ``math.inf`` (or ``-math.inf``) for the
    blowup condition f(0+) = +inf: j then starts exactly at (0, 1). BadParam
    unless tmax and step are positive and finite, tmax / step is at most the
    default ``max_steps``, f0 is not NaN and H is finite at every sample.
    """
    prof = _as_profile(H)
    if not (0.0 < tmax < math.inf and 0.0 < step < math.inf):
        raise BadParam(f"tmax and step must be positive and finite, not {tmax!r} and {step!r}")
    if tmax / step > DEFAULT_SETTINGS.max_steps:
        raise BadParam(f"tmax / step = {tmax / step:.6g} exceeds {DEFAULT_SETTINGS.max_steps} steps")
    if math.isnan(f0):
        raise BadParam("f0 must be a number or an infinity, not nan")
    ts = np.arange(0.0, tmax + 0.5 * step, step)
    ts[-1] = min(ts[-1], tmax)
    t, h = ts.tolist(), np.diff(ts)
    mid = ts[:-1] + 0.5 * h
    H_at = np.array([prof(s) for s in t]).reshape(-1, 1, 1)
    H_mid = np.array([prof(s) for s in mid.tolist()]).reshape(-1, 1, 1)
    for times, values in ((ts, H_at), (mid, H_mid)):
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise BadParam(f"H is not finite at t={times[bad[0]]:.6g}")
    steps = _jacobi_transition(H_at[:-1], H_mid, H_at[1:], h).tolist()
    j, jp = (0.0, 1.0) if math.isinf(f0) else (1.0, float(f0))
    J, poles = [(j, jp)], []
    for i, ((a, b), (c, d)) in enumerate(steps, 1):
        j1, jp1 = a * j + b * jp, c * j + d * jp
        if j * j1 < 0.0 or j1 == 0.0:
            t0, t1 = t[i - 1], t[i]
            poles.append(_bisect(lambda s: _hermite(t0, t1, j, j1, jp, jp1, s), t0, t1))
        scale = abs(j1) + abs(jp1)
        j, jp = j1 / scale, jp1 / scale
        J.append((j, jp))
    j, jp = np.array(J).T
    valid = np.abs(jp) <= _F_RECORD * np.abs(j)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(valid, jp / j, np.nan)
    f[0], valid[0] = (math.inf, False) if math.isinf(f0) else (f0, True)
    return RiccatiTrace(t=ts, f=f, valid=valid, poles=poles,
                        f0=f0, tmax=tmax, step=step)


# ---------------------------------------------------------------------------
# Scalar comparison checks
# ---------------------------------------------------------------------------

def _require_above(profH: CurvatureProfile, profK: CurvatureProfile, tmax: float):
    """InputOrderViolated unless H >= K on a 257-point grid of [0, tmax]."""
    grid = np.linspace(0.0, tmax, 257)
    gap = np.array([profH(t) - profK(t) for t in grid])
    if np.min(gap) < -1e-12:
        raise InputOrderViolated(
            f"H < K at t={grid[int(np.argmin(gap))]:.6g} (gap {np.min(gap):.3g})")


def _max_excess(lo: RiccatiTrace, hi: RiccatiTrace) -> float:
    """Largest lo.f - hi.f (0 for none) over the samples valid in both, up to
    one step before lo's first pole."""
    pole = lo.first_pole()
    stop = pole if pole is not None else lo.tmax + 1.0
    mask = lo.valid & hi.valid & (lo.t < stop - lo.step)
    return float(np.max(lo.f[mask] - hi.f[mask])) if mask.any() else 0.0


def compare_driving(H, K, f0: float, tmax: float, step: float = 1e-3,
                    tol: float = 1e-8) -> dict:
    """With H >= K and equal initial values, check f_H <= f_K and pole order."""
    profH, profK = _as_profile(H), _as_profile(K)
    _require_above(profH, profK, tmax)
    trH = riccati_solve(profH, f0, tmax, step)
    trK = riccati_solve(profK, f0, tmax, step)
    worst = _max_excess(trH, trK)
    pH, pK = trH.first_pole(), trK.first_pole()
    pole_ordered = pH is None or pK is None or pH <= pK + tol
    return {"ordered": worst <= tol, "max_violation": worst,
            "pole_H": pH, "pole_K": pK, "pole_ordered": pole_ordered,
            "trace_H": trH, "trace_K": trK}


def value_compare(H, f0: float, g0: float, tmax: float, step: float = 1e-3,
                  tol: float = 1e-8) -> dict:
    """Same driving term, ordered initial values: f stays below g."""
    if -math.inf in (f0, g0):
        raise BadParam("value_compare: a start of -inf has no solution on t > 0")
    if not f0 <= g0:
        raise InputOrderViolated("need f0 <= g0")
    trF = riccati_solve(H, f0, tmax, step)
    trG = riccati_solve(H, g0, tmax, step)
    worst = _max_excess(trF, trG)
    return {"ordered": worst <= tol, "max_violation": worst,
            "trace_f": trF, "trace_g": trG}


def sturm_check(H, K, tmax: float, step: float = 1e-3, tol: float = 1e-8) -> dict:
    """First zeros of j'' = -H j and k'' = -K k with unit-slope starts: the
    first poles of the Riccati traces from f0 = inf.

    With H >= K, the H-zero must come first (vacuous when k has no zero).
    """
    profH, profK = _as_profile(H), _as_profile(K)
    _require_above(profH, profK, tmax)
    zH = riccati_solve(profH, math.inf, tmax, step).first_pole()
    zK = riccati_solve(profK, math.inf, tmax, step).first_pole()
    verdict = zK is None or (zH is not None and zH <= zK + tol)
    return {"zero_H": zH, "zero_K": zK, "ordered": verdict}


# ---------------------------------------------------------------------------
# Rauch ratio
# ---------------------------------------------------------------------------

def rauch_ratio(chart_lo: MetricChart, p_lo, v_lo,
                chart_hi: MetricChart, p_hi, v_hi, tmax: float,
                settings: OdeSettings = DEFAULT_SETTINGS,
                direction: int = 0, tol: float = 1e-8) -> dict:
    """Ratio |J_lo|^2 / |J_hi|^2 for Jacobi fields with matched initial slope.

    At every sample, ``chart_lo``'s largest sectional curvature on a plane
    through the tangent must be at most ``chart_hi``'s least (Eschenburg and
    Heintze, Manuscripta Math. 68, 1990), else InputOrderViolated; the ratio
    is then nondecreasing and the lo-field dominates.
    """
    direction = _index("direction", direction, chart_lo.dim - 1)
    geo_lo = integrate_geodesic(chart_lo, p_lo, v_lo, tmax, settings=settings)
    geo_hi = integrate_geodesic(chart_hi, p_hi, v_hi, tmax, settings=settings)
    sys_lo = jacobi_system(chart_lo, geo_lo)
    sys_hi = jacobi_system(chart_hi, geo_hi)
    # eigenvalues of M on the frame block orthogonal to the tangent, the last vector
    k_lo = np.linalg.eigvalsh(sys_lo.M[:, :-1, :-1])[:, -1]
    k_hi = np.linalg.eigvalsh(sys_hi.M[:, :-1, :-1])[:, 0]
    if np.min(k_hi - k_lo) < -1e-9:
        raise InputOrderViolated("curvature order violated along the geodesics")
    F_lo, _ = orthogonal_fundamental(sys_lo)
    F_hi, _ = orthogonal_fundamental(sys_hi)
    j_lo = F_lo[:, :, direction]
    j_hi = F_hi[:, :, direction]
    norm_lo = np.einsum("ta,ta->t", j_lo, j_lo)
    norm_hi = np.einsum("ta,ta->t", j_hi, j_hi)
    start = max(1, int(0.01 * len(sys_lo.t)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = norm_lo[start:] / norm_hi[start:]
    ts = sys_lo.t[start:]
    finite = np.isfinite(ratio)
    ratio, ts = ratio[finite], ts[finite]
    steps = np.diff(ratio)
    monotone = bool(len(steps) == 0 or float(np.min(steps)) >= -tol * max(1.0, float(np.max(np.abs(ratio)))))
    dominated = bool(np.all(norm_lo[start:][finite] >= norm_hi[start:][finite] - tol))
    return {"t": ts, "ratio": ratio, "monotone": monotone,
            "dominates": dominated}


# ---------------------------------------------------------------------------
# Myers diameter check
# ---------------------------------------------------------------------------

def _ricci_floor(chart: MetricChart, X) -> float:
    """Least eigenvalue of Ric relative to g over the points X; inf for none.

    These are the eigenvalues of the symmetric L^-1 Ric L^-T with g = L L^T
    (g^-1 Ric has the same ones but is not symmetric, so eigvalsh cannot
    take it).
    """
    X = np.asarray(X, dtype=float).reshape(-1, chart.dim)
    if len(X) == 0:
        return math.inf
    _, low = curvature_low_batch(chart, X)
    g = chart.evaluator.metric_batch(X)
    ric = np.einsum("bjm,bajcm->bac", np.linalg.inv(g), low)
    L_inv = np.linalg.inv(np.linalg.cholesky(g))
    return float(np.min(np.linalg.eigvalsh(L_inv @ ric @ L_inv.swapaxes(1, 2))))


def myers_check(chart: MetricChart, p, v, c: float, margin: float = 0.1,
                settings: OdeSettings = DEFAULT_SETTINGS) -> dict:
    """Under Ric >= (n-1) c g (sampled), find a conjugate point by pi/sqrt(c).

    ``v`` should be unit speed; the geodesic is integrated slightly past the
    bound so the bisection can bracket the conjugate parameter.
    """
    if c <= 0:
        raise BadParam("myers_check needs a positive Ricci lower bound c")
    n = chart.dim
    bound = math.pi / math.sqrt(c)
    geo = integrate_geodesic(chart, p, v, bound + margin, settings=settings)
    # Ricci hypothesis, sampled along the geodesic
    worst = _ricci_floor(chart, geo.x[::max(1, len(geo.t) // 64)])
    if worst < (n - 1) * c - 1e-9:
        raise InputOrderViolated(
            f"Ric lower bound violated: min eigenvalue {worst:.6g} < (n-1)c")
    rep = conjugate_points_from(chart, geo)
    if not rep.points:
        raise ConjugateNotFound("no conjugate parameter found within the bound")
    t_star = rep.points[0].t
    return {"bound": bound, "t_conjugate": t_star,
            "within_bound": t_star <= bound + 1e-4,
            "ric_min_eigenvalue": worst}


# ---------------------------------------------------------------------------
# Volume comparison
# ---------------------------------------------------------------------------

def _sphere_directions(n: int, count: int) -> np.ndarray:
    if n == 2:
        th = 2.0 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(th), np.sin(th)])
    if n == 3:
        # Fibonacci lattice on S^2
        i = np.arange(count) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / count
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raise BadParam("direction sweeps support n = 2 and n = 3 only")


def _unit_sphere_area(n: int) -> float:
    # area of S^{n-1}
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def s_K(r: float, K: float) -> float:
    """Solution of s'' = -K s with s(0)=0, s'(0)=1."""
    if K > 0:
        rk = math.sqrt(K)
        return math.sin(rk * r) / rk
    if K < 0:
        rk = math.sqrt(-K)
        return math.sinh(rk * r) / rk
    return r


def _batched_sphere_sweep(chart: MetricChart, p, r: float, n_dirs: int,
                          step: float, radii=None):
    """det F at each of ``radii`` (default [r]) for the orthogonal Jacobi
    fields F of n_dirs unit-speed rays from p, F(0) = 0 and F'(0) = I: the
    transversal factor of det(d exp), one value per direction and radius.

    One row per ray holds x, v and the first n - 1 columns of its frame,
    adapted so that the ray is the left-out last column; the rows step
    together by ``transport._step_rays``. (F, F') advances by the RK4
    transition of each step, with M at both ends and at the Hermite midpoint.
    """
    radii = sorted(radii or [r])
    if not isinstance(n_dirs, numbers.Integral) or n_dirs < 1:
        raise BadParam(f"directions must be a positive integer, not {n_dirs!r}")
    if not (0.0 < step < math.inf and all(0.0 < s < math.inf for s in radii)):
        raise BadParam("step and radii must be positive and finite")
    if radii[-1] / step > DEFAULT_SETTINGS.max_steps:
        raise BadParam(f"radius / step = {radii[-1] / step:.6g} exceeds "
                       f"{DEFAULT_SETTINGS.max_steps} steps")
    p = np.asarray(p, dtype=float)
    n = chart.dim
    d = n - 1
    md = metric_at(chart, p)
    B = orthonormal_frame(md.g)
    V0 = _sphere_directions(n, n_dirs) @ B.T  # coordinate components of unit-speed starts
    N = len(V0)
    E0 = _adapted_frames(md.g, B, V0)

    rhs = _rays_rhs(chart)
    Y = np.hstack([np.tile(p, (N, 1)), V0, E0[:, :, :d].reshape(N, -1)])
    M, dY = _driving(chart, Y, d), rhs(0.0, Y)
    FF = np.tile(np.vstack([np.zeros((d, d)), np.eye(d)]), (N, 1, 1))
    t = 0.0
    out = {}
    for target in radii:
        n_steps = max(1, int(math.ceil((target - t) / step - 1e-12)))
        h = (target - t) / n_steps
        for _ in range(n_steps):
            Y1 = _step_rays(chart, rhs, t, Y, h, t + h, dY)
            t += h
            M1, dY1 = _driving(chart, Y1, d), rhs(t, Y1)
            Mh = _driving(chart, _hermite(0.0, h, Y, Y1, dY, dY1, 0.5 * h), d)
            FF = _jacobi_transition(M, Mh, M1, h) @ FF
            Y, M, dY = Y1, M1, dY1
        out[target] = np.linalg.det(FF[:, :d])
    return out


def volume_compare(chart: MetricChart, p, r: float, Kref: float,
                   directions: Optional[int] = None, step: float = 1e-2,
                   ric_samples: int = 32, seed: int = 0, jobs: int = 1) -> dict:
    """Geodesic-sphere area versus the constant-curvature reference.

    Requires Ric >= (n-1) Kref g at seeded sample points (else
    InputOrderViolated). Reports the area ratio and a pointwise verdict on
    the Jacobian determinants. ``jobs`` is accepted and has no effect.
    """
    p = np.asarray(p, dtype=float)
    n = chart.dim
    if directions is None:
        directions = 512 if n == 2 else 2048
    if not 0.0 < r < math.inf:
        raise BadParam("radius must be positive and finite")
    Kref = float(_finite("Kref", Kref))
    # sampled Ricci hypothesis near p
    rng = np.random.default_rng(seed)
    samples = [p + rng.uniform(-r, r, n) if k else p for k in range(ric_samples)]
    worst = _ricci_floor(chart, [q for q in samples if chart.contains(q)])
    if worst < (n - 1) * Kref - 1e-9:
        raise InputOrderViolated(
            f"Ric >= (n-1) Kref fails near p: min eigenvalue {worst:.6g}")

    dets = _batched_sphere_sweep(chart, p, r, directions, step)[r]
    if np.min(dets) <= 0.0:
        raise BadParam("radius reaches past a conjugate point (det <= 0)")
    omega = _unit_sphere_area(n)
    area = float(np.mean(dets)) * omega
    ref_det = s_K(r, Kref) ** (n - 1)
    reference = ref_det * omega
    if reference == 0.0:
        raise BadParam(f"the reference area at radius {r!r} underflows to 0")
    ratio = area / reference
    pointwise = bool(np.all(dets <= ref_det + 1e-8 * max(1.0, ref_det)))
    return {"area": area, "reference": reference, "ratio": ratio,
            "ratio_at_most_one": ratio <= 1.0 + 1e-10,
            "pointwise": pointwise, "dets": dets,
            "ric_min_eigenvalue": worst, "directions": directions}


def scalar_expansion_fit(chart: MetricChart, p, radii=(0.2, 0.1, 0.05),
                         directions: Optional[int] = None,
                         step: float = 2e-3, jobs: int = 1) -> dict:
    """Fit the r^2 deficit of geodesic-sphere area against scalar curvature.

    area(r) / (r^{n-1} Omega) = 1 - a r^2 + O(r^4) with a = S / (6 n);
    Richardson extrapolation over the two finest radius pairs removes the
    r^2 error in the fitted coefficient. ``jobs`` is accepted and has no
    effect.
    """
    p = np.asarray(p, dtype=float)
    n = chart.dim
    if directions is None:
        directions = 512 if n == 2 else 2048
    radii = sorted({_positive("radius", r) for r in radii}, reverse=True)
    if len(radii) < 2:
        raise BadParam("scalar_expansion_fit needs at least two distinct radii")
    dets = _batched_sphere_sweep(chart, p, radii[-1], directions, step, radii=radii)
    coeffs = {}
    for rr in radii:
        ratio = float(np.mean(dets[rr])) / rr ** (n - 1)
        coeffs[rr] = (1.0 - ratio) / rr**2
    a_vals = [coeffs[rr] for rr in radii]
    rich = (4.0 * a_vals[-1] - a_vals[-2]) / 3.0
    md = metric_at(chart, p)
    S = ricci(curvature(chart, p), md.g).scalar
    predicted = S / (6.0 * n)
    return {"fitted": rich, "raw": coeffs, "scalar": S,
            "predicted": predicted,
            "mismatch": abs(rich - predicted)}

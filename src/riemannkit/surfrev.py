"""Surfaces of revolution: profiles, Clairaut constant, barriers, Delta-theta.

An arclength profile (f, h) of the axis distance and height yields the chart
(u, theta) with ds^2 = du^2 + f(u)^2 dtheta^2; non-arclength profiles are
re-parametrized numerically (trapezoid arclength and its piecewise-linear
inverse) before chart construction. Barriers are found by bisection. The
module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import expr
from .errors import (BadParam, BadProfile, BarrierNotTransversal, DomainExit, DomainFault)
from .manifold import MetricChart, MetricEvaluator, _batch, _bisect, _finite, _read_definition, _sum


# ---------------------------------------------------------------------------
# Smooth scalar functions of u with two derivatives
# ---------------------------------------------------------------------------

class SmoothFunc:
    """Wraps an expression AST (or a raw callable) as u -> (value, d1, d2).

    An expression is compiled once to a function of a float returning three
    floats (see ``expr._compile_profile``). ``batch(U)`` gives the three as
    arrays over a 1-D array U of parameters, equal element for element to a
    call at each u, by the batch rule of ``manifold.MetricEvaluator``: the
    array form of the compiled expression from ``BATCH_ROWS`` elements on,
    and otherwise (or for a callable) a loop of the calls, whose fault names
    the failing element as its ``point``.
    """

    def __init__(self, source, label=""):
        self.label = label
        if callable(source):
            self.ast = self.source = self._compiled = None
            self._call = source
            return
        if isinstance(source, str):
            self.ast = expr.parse(source, ["u"])
            self.source = source
        else:  # assume a parsed AST node
            self.ast = source
            self.source = expr.to_source(source)
        self._call = self._compiled = expr._compile_profile(self.ast)

    def __call__(self, u: float):
        return self._call(float(u))

    def value(self, u: float) -> float:
        return self(u)[0]

    def array_form(self, U):
        """(f, f', f'') over the 1-D array U, or None where a check fails or nothing is compiled."""
        # ``batch`` is looked up at each call: it compiles itself on the first
        return None if self._compiled is None else self._compiled.batch(U)

    def batch(self, U):
        return _batch(self.array_form, self, [(), (), ()], U)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

@dataclass
class Profile:
    f: SmoothFunc
    h: SmoothFunc
    u_range: tuple
    arclength: bool = True
    label: str = ""
    periodic: Optional[float] = None  # period in u (torus); None otherwise

    def __post_init__(self):
        if not isinstance(self.f, SmoothFunc):
            self.f = SmoothFunc(self.f, "f")
        if not isinstance(self.h, SmoothFunc):
            self.h = SmoothFunc(self.h, "h")
        a, b = self.u_range
        if not (b > a):
            raise BadProfile("u_range must be a nonempty interval")

    def sample_u(self, count: int = 512) -> np.ndarray:
        a, b = self.u_range
        pad = 1e-9 * (b - a)
        return np.linspace(a + pad, b - pad, count)

    def validate(self, samples: int = 512, arc_tol: float = 1e-9):
        """BadProfile at the first sample where f is not positive or, for an
        arclength profile, f'^2 + h'^2 is not 1 to ``arc_tol``."""
        us = self.sample_u(samples)
        fv, f1, _ = self.f.batch(us)
        bad = ~(fv > 0.0)
        if self.arclength:
            h1 = self.h.batch(us)[1]
            res = np.abs(f1 * f1 + h1 * h1 - 1.0)
            bad |= res > arc_tol
        if bad.any():
            k = int(np.argmax(bad))
            u = us[k]
            if not (fv[k] > 0.0):
                raise BadProfile(f"f(u) must stay positive; f({u:.6g}) = {fv[k]:.6g}")
            raise BadProfile(
                f"profile not by arclength: |f'^2+h'^2-1| = {res[k]:.3g} at u={u:.6g}")
        return self

    def gauss_curvature(self, u: float) -> float:
        fv, _, f2 = self.f(u)
        try:
            return -f2 / fv
        except ZeroDivisionError:
            raise _axis_fault([u]) from None


def profile_from_definition(doc: dict) -> Profile:
    """A validated profile from a JSON object with the expression strings f
    and h, u_range [a, b] and optional arclength and label; BadParam where
    the object is malformed."""
    if not isinstance(doc, dict):
        raise BadParam("a profile definition must be a JSON object")
    f, h, u_range = doc.get("f"), doc.get("h"), doc.get("u_range")
    arclength = doc.get("arclength", True)
    if not (isinstance(f, str) and isinstance(h, str)):
        raise BadParam("profile f and h must be expression strings")
    if not (isinstance(u_range, (list, tuple)) and len(u_range) == 2 and all(
            isinstance(a, (int, float)) and not isinstance(a, bool) and math.isfinite(a)
            for a in u_range)):
        raise BadParam(f"profile u_range must be two finite numbers, got {u_range!r}")
    if not isinstance(arclength, bool):
        raise BadParam(f"profile arclength must be true or false, got {arclength!r}")
    return Profile(f=f, h=h, u_range=tuple(u_range), arclength=arclength,
                   label=doc.get("label", "profile")).validate()


def load_profile(path: str) -> Profile:
    return profile_from_definition(_read_definition(path, "profile"))


def reparametrize_arclength(profile: Profile, grid: int = 8193) -> Profile:
    """Numerically re-parametrize a profile by arclength.

    The arclength s(u) is the cumulative trapezoid rule of the speed on a
    uniform grid of u; u(s) inverts that piecewise-linear s(u) exactly by
    linear interpolation (clamped to the range). f, h and their derivatives
    are then the profile's own, evaluated at u(s) by the chain rule.
    """
    a, b = profile.u_range
    us = np.linspace(a, b, grid)
    sp = np.array(list(map(math.hypot, profile.f.batch(us)[1].tolist(),
                           profile.h.batch(us)[1].tolist())))
    if np.min(sp) <= 1e-12:
        raise BadProfile("profile speed vanishes; cannot re-parametrize")
    s = np.concatenate([[0.0], np.cumsum(np.diff(us) * (sp[1:] + sp[:-1]) / 2.0)])
    total = float(s[-1])

    def u_of_s(sv: float) -> float:
        return float(np.interp(min(max(sv, 0.0), total), s, us))

    def chain(base: SmoothFunc):
        def call(sv):
            u = u_of_s(sv)
            v, d1, d2 = base(u)
            _, f1, f2 = profile.f(u)
            _, h1, h2 = profile.h(u)
            sig = math.hypot(f1, h1)
            up = 1.0 / sig
            sig1 = (f1 * f2 + h1 * h2) / sig
            upp = -sig1 * up**3
            return v, d1 * up, d2 * up * up + d1 * upp
        return SmoothFunc(call, base.label)

    return Profile(f=chain(profile.f), h=chain(profile.h),
                   u_range=(0.0, total), arclength=True,
                   label=profile.label + "@arclength",
                   periodic=profile.periodic)


# ---------------------------------------------------------------------------
# Chart construction
# ---------------------------------------------------------------------------

class SurfRevEvaluator(MetricEvaluator):
    """ds^2 = du^2 + f(u)^2 dtheta^2 on the (u, theta) chart.

    Every form of the connection is emitted from ``connection_fragment``; the
    array forms call the profile's ``array_form`` where the per-point ones
    call f, and a profile without one loops (see ``MetricEvaluator``).
    """

    def __init__(self, ffun: SmoothFunc):
        self.dim = 2
        self.ffun = ffun
        self._f = ffun._call  # u -> (f, f', f'') of a float, without SmoothFunc's call

    @staticmethod
    def _stack_of(F, N):
        """(g, dg, d2g) of N points from (f, f', f'') there, floats or arrays."""
        fv, f1, f2 = F
        g = np.zeros((N, 2, 2))
        g[:, 0, 0] = 1.0
        g[:, 1, 1] = fv * fv
        dg = np.zeros((N, 2, 2, 2))
        dg[:, 0, 1, 1] = 2.0 * fv * f1
        d2g = np.zeros((N, 2, 2, 2, 2))
        d2g[:, 0, 0, 1, 1] = 2.0 * (f1 * f1 + fv * f2)
        return g, dg, d2g

    def _stack_rows(self, X):
        F = self.ffun.array_form(X[:, 0])
        return None if F is None else self._stack_of(F, len(X))

    def _metric_rows(self, X):
        stack = self._stack_rows(X)
        return None if stack is None else stack[0]

    def stack(self, x):
        g, dg, d2g = self._stack_of(self.ffun(x[0]), 1)
        return g[0], dg[0], d2g[0]

    def connection_fragment(self, x, terms, rows=False):
        """Gamma(v, w) = (-f f' v_1 w_1, (f'/f)(v_0 w_1 + v_1 w_0)) after one
        call of f (None where ``rows`` and it has no array form); where f = 0,
        the axis fault at x."""
        lines = ([f"f = _f({x[0]})", "if f is None: return None", "fv, f1, _ = f"] if rows
                 else [f"fv, f1, _ = _f({x[0]})"]) + ["try:"]
        for v, w, q in terms:
            if w is v:
                lines += [f"    {q[0]} = -fv * f1 * {v[1]} * {v[1]}",
                          f"    {q[1]} = 2.0 * (f1 / fv) * {v[0]} * {v[1]}"]
            else:
                vw = _sum((v[0], w[1]), (v[1], w[0]))
                lines += [f"    {q[0]} = {_sum(('-fv', 'f1', v[1], w[1]))}",
                          f"    {q[1]} = {_sum(('(f1 / fv)', vw))}"]
        lines += ["except ZeroDivisionError:", f"    raise _axis_fault([{', '.join(x)}]) from None"]
        return lines, {"_f": self.ffun.array_form if rows else self._f, "_axis_fault": _axis_fault}


def _axis_fault(x) -> DomainFault:
    """The fault at a point x = (u, ...) where f(u) = 0, where the surface meets its axis."""
    return DomainFault(f"f(u) = 0 at u = {x[0]:.6g}", point=np.array(x, dtype=float))


def surface_of_revolution(profile: Profile) -> MetricChart:
    if not profile.arclength:
        profile = reparametrize_arclength(profile)
    profile.validate()
    a, b = profile.u_range
    if profile.periodic is not None:
        domain = None
        low = np.array([a, -math.pi])
        high = np.array([b, math.pi])
    else:
        pad = 1e-12 * (b - a)
        domain = lambda X: (((a + pad) < X[:, 0]) & (X[:, 0] < (b - pad))
                            & np.isfinite(X[:, 1]))
        low = np.array([a + 0.05 * (b - a), -math.pi])
        high = np.array([b - 0.05 * (b - a), math.pi])
    return MetricChart(
        dim=2, coords=["u", "theta"],
        evaluator=SurfRevEvaluator(profile.f),
        label=f"surfrev({profile.label or 'profile'})",
        domain=domain, sample_box=(low, high),
        source={"surfrev": {"f": profile.f.source, "h": profile.h.source,
                            "u_range": list(profile.u_range),
                            "arclength": profile.arclength}},
        profile=profile)


def torus_chart(R: float, r: float) -> MetricChart:
    """Donut torus: the expression profile f(u) = R + r cos(u/r),
    h(u) = r sin(u/r), arclength in u and periodic with period 2 pi r."""
    R, r = float(R), float(r)  # repr of a numpy float does not parse
    if not (math.isfinite(R) and R > r > 0):
        raise BadParam("torus: need finite R > r > 0")
    prof = Profile(
        f=f"{R!r} + {r!r}*cos(u/{r!r})", h=f"{r!r}*sin(u/{r!r})",
        u_range=(-math.pi * r, math.pi * r), label=f"torus({R},{r})",
        periodic=2.0 * math.pi * r)
    chart = surface_of_revolution(prof)  # validates the profile
    chart.label = f"torus({R},{r})"
    chart.source = {"builtin": "torus", "params": {"R": R, "r": r}}
    return chart


# ---------------------------------------------------------------------------
# Clairaut constant
# ---------------------------------------------------------------------------

def _profile_of(chart: MetricChart) -> Profile:
    if chart.profile is None:
        raise BadParam("chart was not built by surface_of_revolution")
    return chart.profile


def clairaut_constant(chart: MetricChart, traj) -> dict:
    """Samples of c(t) = f(u)^2 theta' along a trajectory, with drift."""
    prof = _profile_of(chart)
    fv = prof.f.batch(traj.x[:, 0])[0]
    c = np.array([f ** 2 for f in fv.tolist()]) * traj.v[:, 1]  # float powers, as per sample
    return {"t": traj.t.copy(), "c": c, "c0": float(c[0]),
            "drift": float(np.max(np.abs(c - c[0])))}


# ---------------------------------------------------------------------------
# Barriers
# ---------------------------------------------------------------------------

CRITICAL_TOL = 1e-8


def barriers(profile: Profile, c: float, grid: int = 2048,
             tol: float = 1e-10) -> list:
    """All roots of f(u) = |c| in u_range, tagged by the f' dichotomy."""
    target = abs(float(_finite("c", c)))
    us = profile.sample_u(grid)
    fv, d1, _ = profile.f.batch(us)
    phi = fv - target
    sign, sign1 = np.sign(phi), np.sign(d1)  # whose products do not overflow
    roots = []
    for i in range(len(us) - 1):
        if phi[i] == 0.0:
            roots.append(us[i])
        elif sign[i] * sign[i + 1] < 0.0:
            roots.append(_bisect(lambda u: profile.f.value(u) - target,
                                 us[i], us[i + 1], tol))
    if phi[-1] == 0.0:
        roots.append(us[-1])
    # tangential touches at critical parallels produce no sign change
    for i in range(len(us) - 1):
        if sign1[i] * sign1[i + 1] < 0.0:
            crit = _bisect(lambda u: profile.f(u)[1], us[i], us[i + 1], tol)
            if abs(profile.f.value(crit) - target) < 1e-9:
                roots.append(crit)
    out = []
    for u0 in sorted(roots):
        if out and abs(u0 - out[-1]["u"]) < 10.0 * tol:
            continue
        slope = profile.f(u0)[1]
        tag = "parallel_geodesic" if abs(slope) < CRITICAL_TOL else "transversal"
        out.append({"u": float(u0), "tag": tag})
    return out


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def initial_velocity(profile: Profile, u0: float, phi0: float) -> np.ndarray:
    """Unit-speed start; phi0 is the angle measured from the meridian."""
    fv = profile.f.value(u0)
    try:
        return np.array([math.cos(phi0), math.sin(phi0) / fv])
    except ZeroDivisionError:
        raise _axis_fault([u0]) from None


def classify_geodesic(profile: Profile, init, confirm: bool = True,
                      confirm_T: float = 100.0, confirm_step: float = 5e-3) -> dict:
    """Barrier-based classification of the geodesic from (u0, theta0, phi0).

    phi0 = 0 points along the meridian; phi0 = pi/2 is tangent to the
    parallel through u0. Tags follow the turning behavior of u.
    """
    u0, theta0, phi0 = _finite("init", init, (3,)).tolist()
    fv, f1, _ = profile.f(u0)
    c = fv * math.sin(phi0)
    report = {"c": float(c), "u0": u0, "phi0": phi0}

    if abs(math.sin(phi0)) < 1e-12:
        report["class"] = "meridian"
        report["barriers"] = []
        return report
    if abs(math.cos(phi0)) < 1e-12 and abs(f1) < CRITICAL_TOL:
        report["class"] = "parallel_geodesic"
        report["barriers"] = [{"u": u0, "tag": "parallel_geodesic"}]
        return report

    bars = barriers(profile, c)
    report["barriers"] = bars
    below = [b for b in bars if b["u"] < u0 - 1e-12]
    above = [b for b in bars if b["u"] > u0 + 1e-12]
    here = [b for b in bars if abs(b["u"] - u0) <= 1e-12]
    if here and abs(math.cos(phi0)) < 1e-12:
        # tangent to a noncritical parallel: u has a nondegenerate extremum here
        if here[0]["tag"] == "transversal":
            below = below + here
            above = here + above
    lower = below[-1] if below else None
    upper = above[0] if above else None

    if lower is None or upper is None:
        report["class"] = "unbounded"
    elif (lower["tag"] == "parallel_geodesic"
          or upper["tag"] == "parallel_geodesic"):
        report["class"] = "asymptotic_to_parallel"
    else:
        report["class"] = "oscillating"

    if confirm and report["class"] in ("oscillating", "asymptotic_to_parallel"):
        report["confirmation"] = _confirm_bounds(
            profile, (u0, theta0, phi0), lower, upper, confirm_T, confirm_step)
    if report["class"] == "oscillating":
        try:
            dth = delta_theta(profile, c)
            report["delta_theta"] = dth
            report["winding"] = rationality_flag(dth / (2.0 * math.pi))
        except BarrierNotTransversal:
            pass
    return report


def _confirm_bounds(profile, init, lower, upper, T, step) -> dict:
    chart = surface_of_revolution(profile)
    u0, theta0, phi0 = init
    v0 = initial_velocity(profile, u0, phi0)
    from .transport import OdeSettings, integrate_geodesic
    try:
        traj = integrate_geodesic(chart, np.array([u0, theta0]), v0, T,
                                  settings=OdeSettings(step=step),
                                  with_frame=False)
    except DomainExit as exc:
        return {"confirmed": False, "exit_t": exc.t_exit}
    u = traj.x[:, 0]
    lo = lower["u"] - 1e-6 if lower else -math.inf
    hi = upper["u"] + 1e-6 if upper else math.inf
    inside = bool(np.all((u >= lo) & (u <= hi)))
    theta_rate = traj.v[:, 1]
    monotone = bool(np.all(theta_rate > 0) or np.all(theta_rate < 0))
    return {"confirmed": inside, "u_min": float(np.min(u)),
            "u_max": float(np.max(u)), "theta_monotone": monotone}


def rationality_flag(x: float, max_den: int = 64, tol: float = 1e-6) -> dict:
    """Report the best small-denominator rational nearby; never asserts it."""
    frac = Fraction(x).limit_denominator(max_den)
    err = abs(x - float(frac))
    return {"value": x, "nearest": f"{frac.numerator}/{frac.denominator}",
            "distance": err, "within_window": err <= tol}


# ---------------------------------------------------------------------------
# Delta-theta between barriers
# ---------------------------------------------------------------------------

def _gauss_legendre(fn, a, b, nodes=96):
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(sum(wi * fn(mid + half * xi) for xi, wi in zip(x, w)))


def _barrier_gap(profile: Profile, c: float):
    """The first two consecutive barriers with f > |c| between them."""
    bars = barriers(profile, c)
    for bl, bu in zip(bars[:-1], bars[1:]):
        if profile.f.value(0.5 * (bl["u"] + bu["u"])) > abs(c):
            return bl, bu
    raise BadParam("no barrier gap with f > |c| found")


def delta_theta(profile: Profile, c: float, nodes: int = 96) -> float:
    """Angular advance between successive barrier collisions.

    Delta-theta = int_{u-}^{u+} c / (f sqrt(f^2 - c^2)) du with the
    inverse-square-root endpoint singularities removed by u = u_-+xi^2 /
    u_+-xi^2 substitutions on each half.
    """
    if c == 0.0:
        raise BadParam("delta_theta undefined for meridians (c = 0)")
    target = abs(c)
    bl, bu = _barrier_gap(profile, c)
    if bl["tag"] != "transversal" or bu["tag"] != "transversal":
        raise BarrierNotTransversal(
            "Delta-theta diverges at a critical (geodesic) parallel")
    um, up = bl["u"], bu["u"]
    mid = 0.5 * (um + up)

    def integrand(u):
        fv = profile.f.value(u)
        return target / (fv * math.sqrt(max(fv * fv - target * target, 0.0)))

    def left(xi):
        u = um + xi * xi
        return integrand(u) * 2.0 * xi

    def right(xi):
        u = up - xi * xi
        return integrand(u) * 2.0 * xi

    total = (_gauss_legendre(left, 0.0, math.sqrt(mid - um), nodes)
             + _gauss_legendre(right, 0.0, math.sqrt(up - mid), nodes))
    return math.copysign(total, c)


def delta_theta_measured(profile: Profile, c: float, step: float = 1e-3,
                         tmax: float = 50.0) -> float:
    """Delta-theta from an actual geodesic between consecutive u-turning points."""
    chart = surface_of_revolution(profile)
    # start at a point with f > |c|, moving with the prescribed Clairaut constant
    bl, bu = _barrier_gap(profile, c)
    u0 = 0.5 * (bl["u"] + bu["u"])
    fv = profile.f.value(u0)
    sphi = c / fv
    phi0 = math.asin(min(max(sphi, -1.0), 1.0))
    from .transport import OdeSettings, integrate_geodesic
    traj = integrate_geodesic(chart, np.array([u0, 0.0]),
                              initial_velocity(profile, u0, phi0), tmax,
                              settings=OdeSettings(step=step), with_frame=False)
    du = traj.v[:, 0]
    turns = []
    for i in range(len(traj.t) - 1):
        if du[i] * du[i + 1] < 0.0:
            # linear time estimate of the turning parameter, then theta there
            w = du[i] / (du[i] - du[i + 1])
            t_turn = traj.t[i] + w * (traj.t[i + 1] - traj.t[i])
            turns.append(t_turn)
        if len(turns) == 2:
            break
    if len(turns) < 2:
        raise BadParam("geodesic produced fewer than two turning points")
    th = [float(traj.position(t)[1]) for t in turns]
    return th[1] - th[0]

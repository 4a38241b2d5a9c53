"""Coordinate charts with metric coefficients, curve length, Finsler tools.

A chart is a single coordinate system; the builtin catalog provides the
constant-curvature model spaces and the torus used for validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr
from .errors import (_POINT_FAULTS, BadDimension, BadParam, DomainExit,
                     SingularMetric, UnknownBuiltin)


# ---------------------------------------------------------------------------
# Metric evaluators
# ---------------------------------------------------------------------------

class MetricEvaluator:
    """Supplies g, its coordinate derivatives, and Christoffel symbols.

    ``connection(x, v)`` is the matrix C = Gamma(v, .), C[i, k] = Gamma^i_jk v^j,
    so C @ w = Gamma(v, w); every geodesic, frame and transport right-hand side
    uses it. The defaults contract ``gamma``; an evaluator with a cheaper
    closed form for C (as ``ConformalEvaluator``) overrides ``connection``
    and ``connection_batch``. The default ``gamma`` inverts g from
    ``first_order``, so an evaluator that supplies only ``stack`` is complete;
    one with a cheaper Gamma (as ``ExpressionEvaluator``) overrides it.

    ``spray(x, v)`` is the geodesic spray Gamma(v, v) on sequences of Python
    floats, returned as a list of n floats; the float geodesic integrators
    step (x, v) with it alone. The default takes it from ``connection``; the
    builtin evaluators and ``ExpressionEvaluator`` have float closed forms,
    with no array in them, and each carries its source fragment as
    ``spray.fragment(owner, x, v, q)``: owner is the evaluator the spray is
    a method of (None for a plain function), x, v and q are lists of n
    variable names, and it returns the statements that set the names q to
    Gamma(v, v) at the point held in the names x and v, with the spray's
    arithmetic and faults, and a dict of the globals they use. Their local
    names begin with a lower-case letter and their globals with ``_``.
    ``transport`` writes them into one float step per method, emitted on
    first use; for a spray without a fragment, as a wrapper's that overrides
    ``spray``, that step calls the spray once per stage instead.

    ``jacobi_batch(X, V)``, where an evaluator has one, returns the closed-form
    Jacobi operator of the rays (X, V) (see ``ConformalEvaluator``);
    ``tensor.jacobi_driving_batch`` uses it in place of the curvature kernel.

    The batches ``metric_batch``, ``stack_batch``, ``gamma_batch`` and
    ``connection_batch`` take an (N, n) array of points and return the
    per-point values with a leading batch axis. The builtin evaluators
    override them with closed forms on arrays. The defaults follow one rule,
    ``_batch``: from ``BATCH_ROWS`` rows on they take an evaluator's array
    form ``_metric_rows``, ``_stack_rows``, ``_gamma_rows`` or
    ``_connection_rows`` (expression charts and surfaces of revolution have
    them), whose rows equal the per-point values bitwise. Below it, without
    an array form, or where a check of the array form fails at some row or a
    value is not finite, they loop the per-point function, so a fault has
    the loop's class and message, and a DomainFault or SingularMetric names
    the failing row as its ``point``.
    """

    dim: int
    jacobi_batch: Optional[Callable] = None
    # array forms X -> batch, or None where a check fails at some row
    _metric_rows = _stack_rows = _gamma_rows = _connection_rows = None

    def stack(self, x: np.ndarray):
        """Return (g, dg, d2g); dg[k,i,j] = d_k g_ij, d2g[k,l,i,j] = d_k d_l g_ij."""
        raise NotImplementedError

    def metric(self, x: np.ndarray) -> np.ndarray:
        return self.stack(x)[0]

    def metric_batch(self, X: np.ndarray) -> np.ndarray:
        """g at every row of X, shape (N, n, n)."""
        return _batch(self._metric_rows, self.metric, [(self.dim,) * 2], X)

    def first_order(self, x: np.ndarray):
        """(g, dg) only; override where a cheaper path exists."""
        g, dg, _ = self.stack(x)
        return g, dg

    def gamma(self, x: np.ndarray) -> np.ndarray:
        """Levi-Civita Christoffel symbols Gamma[i,j,k] = Gamma^i_jk."""
        g, dg = self.first_order(x)
        try:
            g_inv = np.linalg.inv(g)
        except np.linalg.LinAlgError:
            raise SingularMetric(f"metric singular at {x}")
        return gamma_from_stack(g_inv, dg)

    def gamma_batch(self, X: np.ndarray) -> np.ndarray:
        """Christoffel symbols at every row of X, shape (N, n, n, n)."""
        return _batch(self._gamma_rows, self.gamma, [(self.dim,) * 3], X)

    def connection(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """C = Gamma(v, .) at x, an (n, n) matrix with C @ w = Gamma(v, w)."""
        return v @ self.gamma(x)

    def connection_batch(self, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Gamma(V[b], .) at every row X[b], shape (N, n, n)."""
        return _batch(self._connection_rows, self.connection, [(self.dim,) * 2], X, V)

    def spray(self, x, v) -> list:
        """Gamma(v, v) at x, a list of n floats."""
        v = np.asarray(v, dtype=float)
        return (self.connection(np.asarray(x, dtype=float), v) @ v).tolist()

    def stack_batch(self, X: np.ndarray):
        """(g, dg, d2g) at every row of X."""
        return _batch(self._stack_rows, self.stack, [(self.dim,) * k for k in (2, 3, 4)], X)


# Rows from which a batch takes an array form over the per-point loop. An
# array form has a fixed cost of tens of microseconds and is several times
# cheaper per row than the loop, which costs a few microseconds a point; the
# two cross between 4 and 16 rows on the torus and on the expression sphere,
# paraboloid and H^3. The row count is tested before any call, so that a
# batch of one ray costs what the loop costs.
BATCH_ROWS = 16


def _batch(rows, each, shapes, X, *rest):
    """The batch of the per-point function ``each`` over the rows of X, and
    row for row of the arrays ``rest``, by the rule of ``MetricEvaluator``:
    ``rows(X, *rest)``, the array form (None where there is none), or the
    loop of ``each(x, *r)``. Arrays of the per-row ``shapes`` with a leading
    batch axis, a tuple of them where there are several; an array form
    returns None where one of its checks fails at some row, and an
    ArithmeticError or ValueError from it (an elementwise ``math`` call)
    sends the batch to the loop too.
    """
    X = np.asarray(X, dtype=float)
    if rows is not None and len(X) >= BATCH_ROWS:
        try:
            with np.errstate(all="ignore"):
                out = rows(X, *rest)
        except (ArithmeticError, ValueError):
            out = None
        if out is not None and all(np.isfinite(a).all() for a in
                                   (out if len(shapes) > 1 else (out,))):
            return out
    outs = [np.empty((len(X),) + shape) for shape in shapes]
    for b, args in enumerate(zip(X, *rest)):
        try:
            values = each(*args)
        except _POINT_FAULTS as exc:
            exc.point = np.array(args[0])
            raise
        for out, value in zip(outs, values if len(outs) > 1 else (values,)):
            out[b] = value
    return tuple(outs) if len(outs) > 1 else outs[0]


def _squares(X: np.ndarray) -> np.ndarray:
    """x @ x for every row x of X, rounded as the 1-D product; inf or nan
    where x is not finite, so ``_squares(X) < c`` is a whole domain mask."""
    return (X[:, None, :] @ X[:, :, None])[:, 0, 0]


def koszul(dg: np.ndarray) -> np.ndarray:
    """K[..., m, j, k] = d_j g_mk - d_m g_jk + d_k g_mj over the last three axes.

    ``dg[..., a, i, j] = d_a g_ij`` is symmetric in (i, j). Applied to d2g,
    whose extra derivative axis comes first, it gives the derivative of K.
    """
    return dg.swapaxes(-3, -2) - dg + dg.swapaxes(-3, -1)


def gamma_from_stack(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^i_jk = (1/2) g^im K_mjk; any leading axes are batch axes."""
    n = dg.shape[-1]
    K = koszul(dg).reshape(dg.shape[:-3] + (n, n * n))
    return 0.5 * (g_inv @ K).reshape(dg.shape)


class ConformalEvaluator(MetricEvaluator):
    """g_ij = mu(|x|^2) * delta_ij for a smooth positive profile mu.

    mu and its derivatives must also act elementwise on arrays, since the
    batches evaluate them on every |x|^2 of a batch at once; where they round
    on arrays as on floats (products, not numpy powers), every batch is
    bitwise its per-point function.
    Gamma(v, .) and the Jacobi operator have O(n^2) closed forms in mu
    (``connection`` and ``jacobi_batch``, after Besse, Einstein Manifolds,
    1987, Thm 1.159).
    """

    def __init__(self, n: int, mu: Callable, dmu: Callable, d2mu: Callable):
        self.dim = n
        self.mu = mu
        self.dmu = dmu
        self.d2mu = d2mu
        self._eye = np.eye(n)

    def metric(self, x):
        return self.mu(float(x @ x)) * self._eye

    def metric_batch(self, X):
        return self.mu(_squares(np.asarray(X, dtype=float)))[:, None, None] * self._eye

    def stack(self, x):
        g, dg, d2g = self.stack_batch(np.asarray(x, dtype=float)[None])
        return g[0], dg[0], d2g[0]

    def gamma(self, x):
        q = float(x @ x)
        return self._gamma(self.dmu(q) / self.mu(q) * np.asarray(x, dtype=float))

    # Gamma(v, .)^i_k = v^i d_k phi - d_i phi v^k + (d phi . v) delta_ik with
    # d phi = (mu' / mu) x: O(n^2), where contracting gamma is O(n^3)
    def connection(self, x, v):
        q = float(x.dot(x))  # at n <= 3, ndarray.dot costs about half of what @ does
        dphi = (self.dmu(q) / self.mu(q)) * x
        o = v[:, None] * dphi
        return o - o.T + float(v.dot(dphi)) * self._eye

    def connection_batch(self, X, V):
        X = np.asarray(X, dtype=float)
        q = _squares(X)
        return self._connection_batch(V, (self.dmu(q) / self.mu(q))[:, None] * X)

    # Gamma(v, v) = 2 (d phi . v) v - |v|^2 d phi, in floats
    def spray(self, x, v):
        q = xv = vv = 0.0
        for a, b in zip(x, v):
            q += a * a
            xv += a * b
            vv += b * b
        s = self.dmu(q) / self.mu(q)  # d phi = s x
        xv *= 2.0 * s
        vv *= s
        return [xv * b - vv * a for a, b in zip(x, v)]

    def _spray_fragment(self, x, v, q):
        """``spray``'s statements on the names x and v, setting the names q."""
        def dot(a, b):
            return "0.0" + "".join(f" + {i} * {j}" for i, j in zip(a, b))
        lines = [f"sq = {dot(x, x)}", f"xv = {dot(x, v)}", f"vv = {dot(v, v)}",
                 "s = _dmu(sq) / _mu(sq)", "xv *= 2.0 * s", "vv *= s",
                 *(f"{qi} = xv * {b} - vv * {a}" for qi, a, b in zip(q, x, v))]
        return lines, {"_mu": self.mu, "_dmu": self.dmu}

    spray.fragment = _spray_fragment

    def _connection_batch(self, V, dphi):
        o = V[:, :, None] * dphi[:, None, :]
        return o - o.swapaxes(1, 2) + (V[:, None, :] @ dphi[:, :, None]) * self._eye

    def jacobi_batch(self, X, V):
        """(C, B) for the rays (X[b], V[b]): C = Gamma(v, .), as from
        ``connection_batch``, and the symmetric (N, n, n) B with
        B(w, u) = low(v, w, v, u), in O(n^2) per ray.

        With phi = (1/2) log mu, q = |x|^2, s = mu'/mu and s' = ds/dq,
        g = e^(2 phi) delta has low = -mu (T owedge delta), the Kulkarni-Nomizu
        product of delta with T = Hess phi - dphi dphi^T + (1/2)|dphi|^2 I
        = alpha I + beta x x^T, alpha = s + s^2 q / 2, beta = 2 s' - s^2
        (Besse, Einstein Manifolds, 1987, Thm 1.159). In Euclidean dot products,
        B = -mu [(v.Tv) I + |v|^2 T - (Tv) v^T - v (Tv)^T].
        SingularMetric names the first point where mu is not positive and finite.
        """
        X = np.asarray(X, dtype=float)
        q = _squares(X)
        m, m1, m2 = self.mu(q), self.dmu(q), self.d2mu(q)
        bad = ~(np.isfinite(m) & (m > 0.0))
        if bad.any():
            point = X[np.argmax(bad)]
            raise SingularMetric(f"metric not positive definite at {point}", point=point)
        s = m1 / m
        alpha = (s + 0.5 * s * s * q)[:, None, None]
        beta = (2.0 * (m2 / m - s * s) - s * s)[:, None, None]
        x, v = X[:, :, None], V[:, :, None]  # columns
        vT = v.swapaxes(1, 2)
        T = alpha * self._eye + beta * x * x.swapaxes(1, 2)
        Tv = T @ v
        o = Tv * vT
        B = (vT @ Tv) * self._eye + (vT @ v) * T - (o + o.swapaxes(1, 2))
        return self._connection_batch(V, s[:, None] * X), -m[:, None, None] * B

    def _gamma(self, dphi):
        # Gamma^i_jk = d_k phi delta_ij + d_j phi delta_ik - d_i phi delta_jk
        # with phi = (1/2) log mu; dphi may carry leading batch axes
        eye = self._eye
        return (dphi[..., None, None, :] * eye[:, :, None]
                + dphi[..., None, :, None] * eye[:, None, :]
                - dphi[..., :, None, None] * eye)

    def stack_batch(self, X):
        X = np.asarray(X, dtype=float)
        q = _squares(X)
        m, m1, m2 = self.mu(q), self.dmu(q), self.d2mu(q)
        eye = self._eye
        dg = (2.0 * m1)[:, None, None, None] * (X[:, :, None, None] * eye)
        kern = ((4.0 * m2)[:, None, None] * (X[:, :, None] * X[:, None, :])
                + (2.0 * m1)[:, None, None] * eye)
        return m[:, None, None] * eye, dg, kern[..., None, None] * eye


class ExpressionEvaluator(MetricEvaluator):
    """Free-form metric whose coefficients are expression ASTs.

    ``metric``, ``first_order`` and ``stack`` are straight-line functions
    compiled from the upper triangle of ``asts`` by ``expr.compile_tensor``,
    and ``gamma`` and ``spray`` are two compiled by ``expr.compile_gamma``,
    with no matrix inverse. Their array forms, compiled from the same
    statements, serve ``metric_batch``, ``stack_batch`` and ``gamma_batch``
    (see ``MetricEvaluator``); ``connection`` contracts ``gamma``, and the
    array form of ``connection_batch`` contracts that of ``gamma``.
    """

    def __init__(self, asts, n: int):
        self.dim = n
        self.asts = asts  # n x n nested list of AST nodes
        upper = [[asts[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        self.metric, self.first_order, self.stack = (
            expr.compile_tensor(upper, n, order) for order in range(3))
        self.gamma, self.spray = expr.compile_gamma(upper, n)

    def _metric_rows(self, X):
        return self.metric.batch(X)

    def _stack_rows(self, X):
        return self.stack.batch(X)

    def _gamma_rows(self, X):
        return self.gamma.batch(X)

    def _connection_rows(self, X, V):
        G = self.gamma.batch(X)
        return None if G is None else (V[:, None, None] @ G)[:, :, 0]


# ---------------------------------------------------------------------------
# Chart
# ---------------------------------------------------------------------------

@dataclass
class MetricChart:
    dim: int
    coords: list
    evaluator: MetricEvaluator
    label: str = ""
    domain: Optional[Callable] = None  # (N, n) points -> (N,) mask, False where not finite
    sample_box: Optional[tuple] = None  # (low, high) arrays for seeded sampling
    source: Optional[dict] = None  # JSON definition for --print-manifold echo
    profile: Optional[object] = None  # surfrev.Profile of a surface of revolution

    def inside(self, X) -> np.ndarray:
        """(N,) mask of the rows of X that are finite and in the domain."""
        X = np.asarray(X, dtype=float)
        return np.isfinite(X).all(axis=1) if self.domain is None else self.domain(X)

    def contains(self, p) -> bool:
        return bool(self.inside(np.asarray(p, dtype=float)[None])[0])

    def require_inside(self, p):
        """DomainExit naming p, or the first row of a batch p, outside the domain;
        BadDimension when p is not one point or a batch of points of the chart."""
        P = np.asarray(p)
        if P.ndim not in (1, 2) or P.shape[-1] != self.dim:
            raise BadDimension(f"chart '{self.label}' has {self.dim} coordinates; "
                               f"got an array of shape {P.shape}")
        P = P.reshape(-1, self.dim)
        inside = self.inside(P)
        if not inside.all():
            bad = P[np.argmin(inside)]
            raise DomainExit(f"point {bad} outside domain of chart '{self.label}'",
                             point=np.asarray(bad, dtype=float))

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        """Seeded random interior points, reproducible across runs."""
        if count < 0:
            raise BadParam(f"sample count must be nonnegative, not {count}")
        rng = np.random.default_rng(seed)
        low, high = self.sample_box if self.sample_box is not None else (
            -np.ones(self.dim), np.ones(self.dim))
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        points = np.empty((0, self.dim))
        for _ in range(1000):  # the same draws, in order, as one point per call
            P = rng.uniform(low, high, (count, self.dim))
            points = np.vstack([points, P[self.inside(P)]])
            if len(points) >= count:
                return points[:count]
        raise BadParam("sample_box rejection rate too high")


@dataclass(frozen=True)
class MetricData:
    """Metric matrix with inverse and derivative stack at one point."""

    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    chol: np.ndarray


def metric_at(chart: MetricChart, p) -> MetricData:
    p = np.asarray(p, dtype=float)
    chart.require_inside(p)
    g, dg, d2g = chart.evaluator.stack(p)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularMetric(f"metric not positive definite at {p}")
    g_inv = np.linalg.inv(g)
    return MetricData(g=g, g_inv=g_inv, dg=dg, d2g=d2g, chol=chol)


def inner(chart: MetricChart, p, v, w) -> float:
    g = chart.evaluator.metric(np.asarray(p, dtype=float))
    return float(np.asarray(v) @ g @ np.asarray(w))


def norm(chart: MetricChart, p, v) -> float:
    return math.sqrt(max(inner(chart, p, v, v), 0.0))


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------

def builtin(name: str, params: Optional[dict] = None) -> MetricChart:
    params = dict(params or {})
    if name == "euclidean":
        n = _count(f"{name}: n", params.pop("n", 2))
        _reject_extra(name, params)
        delta = [[expr.Num(float(i == j)) for j in range(n)] for i in range(n)]
        return MetricChart(
            dim=n, coords=[f"x{i+1}" for i in range(n)],
            evaluator=ExpressionEvaluator(delta, n), label=f"euclidean({n})",
            sample_box=(-2.0 * np.ones(n), 2.0 * np.ones(n)),
            source={"builtin": "euclidean", "params": {"n": n}})
    if name == "sphere_stereo":
        n = _count(f"{name}: n", params.pop("n", 2))
        R = _number(name, params, "R", 1.0)
        if not R > 0:
            raise BadParam("sphere_stereo: R must be positive")
        _reject_extra(name, params)
        R2 = R * R
        # mu(q) = (2 R^2 / (R^2 + q))^2; powers of q are written as products,
        # which round alike on floats and on arrays (numpy's power does not)
        ev = ConformalEvaluator(
            n,
            mu=lambda q: _square(2.0 * R2 / (R2 + q)),
            dmu=lambda q: -2.0 * (2.0 * R2) ** 2 / (_square(R2 + q) * (R2 + q)),
            d2mu=lambda q: 6.0 * (2.0 * R2) ** 2 / _square(_square(R2 + q)),
        )
        # chart covers the sphere minus one pole; cap the radius so that
        # geodesics heading to the pole image exit cleanly
        cap2 = (1e6 * R) ** 2
        return MetricChart(
            dim=n, coords=[f"x{i+1}" for i in range(n)], evaluator=ev,
            label=f"sphere_stereo({n},R={R})",
            domain=lambda X: _squares(X) < cap2,
            sample_box=(-2.0 * R * np.ones(n), 2.0 * R * np.ones(n)),
            source={"builtin": "sphere_stereo", "params": {"n": n, "R": R}})
    if name == "hyperbolic_ball":
        n = _count(f"{name}: n", params.pop("n", 2))
        _reject_extra(name, params)
        ev = ConformalEvaluator(
            n,
            mu=lambda q: _square(2.0 / (1.0 - q)),
            dmu=lambda q: 8.0 / (_square(1.0 - q) * (1.0 - q)),
            d2mu=lambda q: 24.0 / _square(_square(1.0 - q)),
        )
        return MetricChart(
            dim=n, coords=[f"x{i+1}" for i in range(n)], evaluator=ev,
            label=f"hyperbolic_ball({n})",
            domain=lambda X: _squares(X) < 1.0,
            sample_box=(-0.65 * np.ones(n), 0.65 * np.ones(n)),
            source={"builtin": "hyperbolic_ball", "params": {"n": n}})
    if name == "torus":
        R = _number(name, params, "R", 2.0)
        r = _number(name, params, "r", 1.0)
        _reject_extra(name, params)
        from . import surfrev
        return surfrev.torus_chart(R, r)
    raise UnknownBuiltin(f"no builtin chart named '{name}'")


def _square(a):
    return a * a


def _number(name, params, key, default) -> float:
    """params[key], or default where it is absent, as a float; BadParam if no finite number."""
    raw = params.pop(key, default)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise BadParam(f"{name}: parameter {key} must be a finite number, got {raw!r}")
    return value


def _count(label: str, raw) -> int:
    """raw as an integer >= 1 (2, 2.0 or "2"); BadParam naming label otherwise."""
    try:
        n = float(raw)
    except (TypeError, ValueError):
        n = math.nan
    if isinstance(raw, bool) or not (n >= 1 and n.is_integer()):
        raise BadParam(f"{label} must be an integer >= 1, got {raw!r}")
    return int(n)


def _reject_extra(name, params):
    if params:
        raise BadParam(f"{name}: unknown parameters {sorted(params)}")


# ---------------------------------------------------------------------------
# Manifold definition files
# ---------------------------------------------------------------------------

def chart_from_definition(doc: dict) -> MetricChart:
    """Build a chart from a manifold JSON document (builtin or free-form)."""
    if not isinstance(doc, dict):
        raise BadParam("a manifold definition must be a JSON object")
    if "builtin" in doc:
        params = doc.get("params") or {}
        if not isinstance(params, dict):
            raise BadParam("builtin params must be a JSON object")
        return builtin(doc["builtin"], params)
    missing = [key for key in ("dim", "coords", "metric") if key not in doc]
    if missing:
        raise BadParam(f"manifold definition lacks {missing}")
    dim = _count("dim", doc["dim"])
    coords, rows = doc["coords"], doc["metric"]
    if not isinstance(coords, (list, tuple)) or not all(isinstance(c, str) for c in coords):
        raise BadParam("coords must be a list of names")
    coords = list(coords)
    if len(coords) != dim:
        raise BadParam("coords length must equal dim")
    if (not isinstance(rows, (list, tuple)) or len(rows) != dim
            or any(not isinstance(r, (list, tuple)) or len(r) != dim for r in rows)):
        raise BadParam("metric must be a dim x dim array of expressions")
    if not all(isinstance(entry, str) for r in rows for entry in r):
        raise BadParam("metric entries must be expression strings")
    asts = [[expr.parse(rows[i][j], coords) for j in range(dim)] for i in range(dim)]
    domain = None
    if doc.get("domain"):
        if not isinstance(doc["domain"], str):
            raise BadParam("domain must be an expression string")
        positive = expr.compile_tensor(expr.parse(doc["domain"], coords), dim, 0)

        def domain(X):
            ok = np.isfinite(X).all(axis=1)
            ok[ok] = _batch(positive.batch, positive, [()], X[ok]) > 0.0
            return ok
    chart = MetricChart(
        dim=dim, coords=coords,
        evaluator=ExpressionEvaluator(asts, dim),
        label=doc.get("label", "custom"),
        domain=domain,
        sample_box=(-np.ones(dim), np.ones(dim)),
        source=dict(doc))
    _check_supplied_symmetry(chart, asts)
    return chart


def load_manifold(path: str) -> MetricChart:
    return chart_from_definition(_read_definition(path, "manifold"))


def _read_definition(path: str, kind: str):
    """The JSON document in the file at path; BadParam where it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise BadParam(f"cannot read {kind} definition {path}: {exc}") from None


def _check_supplied_symmetry(chart: MetricChart, asts, seed: int = 20260823,
                             samples: int = 100, tol: float = 1e-12):
    """BadParam where g[i][j] and g[j][i] differ at a seeded sample point. Only
    the differing off-diagonal ASTs are compiled: a diagonal one may fault there."""
    n = chart.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if asts[i][j] != asts[j][i]]
    if not pairs:
        return
    try:
        pts = chart.sample_points(samples, seed)
    except BadParam:
        return
    upper = expr.compile_tensor([asts[i][j] for i, j in pairs], n, 0)
    lower = expr.compile_tensor([asts[j][i] for i, j in pairs], n, 0)
    for p in pts:
        for (i, j), a, b in zip(pairs, upper(p), lower(p)):
            scale = max(1.0, abs(a), abs(b))
            if abs(a - b) > tol * scale:
                raise BadParam(
                    f"metric not symmetric: g[{i}][{j}] != g[{j}][{i}] at {p}")


# ---------------------------------------------------------------------------
# Sampled curves
# ---------------------------------------------------------------------------

@dataclass
class SampledCurve:
    t: np.ndarray
    points: np.ndarray
    velocities: Optional[np.ndarray] = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if np.any(np.diff(self.t) <= 0):
            raise BadParam("curve parameter grid must be strictly increasing")
        if self.velocities is not None:
            self.velocities = np.asarray(self.velocities, dtype=float)

    def ensure_velocities(self) -> np.ndarray:
        if self.velocities is None:
            _require_three_samples(self.t)
            self.velocities = np.gradient(self.points, self.t, axis=0, edge_order=2)
        return self.velocities

    def position(self, s: float) -> np.ndarray:
        return _dense(self.t, self.points, s, self.ensure_velocities())

    def velocity(self, s: float) -> np.ndarray:
        return _dense(self.t, self.points, s, self.ensure_velocities(), deriv=True)


def _require_three_samples(t) -> None:
    """BadParam for fewer samples than a second-order ``np.gradient`` needs."""
    if len(t) < 3:
        raise BadParam(f"a sampled curve needs at least 3 samples, not {len(t)}")


def _dense(t, y, s, dy, deriv: bool = False):
    """Cubic Hermite dense output of samples y with slopes dy on the increasing
    grid t, at a parameter s or an array of them (its s-derivative when
    ``deriv``); parameters outside the grid use the end interval.
    """
    k = np.minimum(np.maximum(np.searchsorted(t, s, side="right") - 1, 0), len(t) - 2)
    w = (...,) + (None,) * (np.ndim(y) - 1)  # weights broadcast over y's value axes
    basis = _hermite_deriv if deriv else _hermite
    return basis(t[k][w], t[k + 1][w], y[k], y[k + 1], dy[k], dy[k + 1], np.asarray(s)[w])


def _hermite(t0, t1, p0, p1, v0, v1, s):
    h = t1 - t0
    u = (s - t0) / h
    h00 = (1 + 2 * u) * (1 - u) ** 2
    h10 = u * (1 - u) ** 2
    h01 = u * u * (3 - 2 * u)
    h11 = u * u * (u - 1)
    return h00 * p0 + h10 * h * v0 + h01 * p1 + h11 * h * v1


def _hermite_deriv(t0, t1, p0, p1, v0, v1, s):
    h = t1 - t0
    u = (s - t0) / h
    d00 = 6 * u * (u - 1) / h
    d10 = (1 - u) * (1 - 3 * u)
    d01 = -6 * u * (u - 1) / h
    d11 = u * (3 * u - 2)
    return d00 * p0 + d10 * v0 + d01 * p1 + d11 * v1


def _write_csv(path: str, cols, rows):
    """A header line, then one line per row with every value at 17 digits."""
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(f"{val:.17g}" for val in row) + "\n")


# ---------------------------------------------------------------------------
# Quadrature and root finding
# ---------------------------------------------------------------------------

def _bisect(fn: Callable, lo: float, hi: float, tol: float = 0.0) -> float:
    """A root of fn in [lo, hi], where fn changes sign: the midpoint of a
    bracket halved until it is at most tol wide or cannot shrink further."""
    f_lo = fn(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            return mid
        f_mid = fn(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid


def refine_simpson(f: Callable, a: float, b: float, rel_tol: float = 1e-8,
                   abs_floor: float = 1e-14, max_level: int = 16,
                   start_segments: int = 8) -> float:
    """Composite Simpson with dyadic refinement to a relative tolerance.

    f takes the whole grid of a level, an array of parameters, at once.
    """
    prev = None
    segments = start_segments
    for _ in range(max_level):
        ys = f(np.linspace(a, b, 2 * segments + 1))
        h = (b - a) / (2 * segments)
        val = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())
        if prev is not None:
            if abs(val - prev) <= max(rel_tol * abs(val), abs_floor):
                return val
        prev = val
        segments *= 2
    return prev


def _sq_speed(chart: MetricChart, curve: SampledCurve) -> Callable:
    """g(c', c') of a sampled curve on a grid, from one domain check and one metric batch."""
    t, x, v = curve.t, curve.points, curve.ensure_velocities()

    def sq_speed(s):
        X = _dense(t, x, s, v)
        chart.require_inside(X)
        V = _dense(t, x, s, v, deriv=True)
        return np.einsum("bi,bij,bj->b", V, chart.evaluator.metric_batch(X), V)
    return sq_speed


def curve_length(chart: MetricChart, curve: SampledCurve, rel_tol: float = 1e-8) -> float:
    """Length of a sampled curve by refined Simpson quadrature of the speed."""
    sq_speed = _sq_speed(chart, curve)
    return refine_simpson(lambda s: np.sqrt(np.maximum(sq_speed(s), 0.0)),
                          curve.t[0], curve.t[-1], rel_tol,
                          start_segments=max(8, len(curve.t) - 1))


def energy(chart: MetricChart, curve: SampledCurve, rel_tol: float = 1e-8) -> float:
    """Integral of g(velocity, velocity) over the parameter interval."""
    return refine_simpson(_sq_speed(chart, curve), curve.t[0], curve.t[-1],
                          rel_tol, start_segments=max(8, len(curve.t) - 1))


# ---------------------------------------------------------------------------
# Finsler norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentVector:
    base: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))


@dataclass
class FinslerNorm:
    dim: int
    L: Callable  # components -> nonnegative real
    label: str = ""
    homogeneity_checked: bool = False

    @staticmethod
    def euclidean(n: int) -> "FinslerNorm":
        return FinslerNorm(n, lambda v: float(np.linalg.norm(v)), "euclidean")

    @staticmethod
    def max_norm(n: int) -> "FinslerNorm":
        return FinslerNorm(n, lambda v: float(np.max(np.abs(v))), "max")

    @staticmethod
    def from_metric(chart: MetricChart, base) -> "FinslerNorm":
        g = chart.evaluator.metric(np.asarray(base, dtype=float))
        return FinslerNorm(chart.dim,
                           lambda v: math.sqrt(max(float(np.asarray(v) @ g @ np.asarray(v)), 0.0)),
                           f"sqrt-g@{chart.label}")

    def check_homogeneity(self, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> float:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(samples):
            v = rng.uniform(-1.0, 1.0, self.dim)
            a = rng.uniform(-3.0, 3.0)
            worst = max(worst, abs(self.L(a * v) - abs(a) * self.L(v)))
        self.homogeneity_checked = worst <= tol
        return worst


@dataclass(frozen=True)
class ParallelogramReport:
    max_violation: float
    witness_v: np.ndarray
    witness_w: np.ndarray
    samples: int
    seed: int


def parallelogram_check(Lnorm: FinslerNorm, samples: int, seed: int) -> ParallelogramReport:
    """Evaluate L^2(v+w) + L^2(v-w) - 2L^2(v) - 2L^2(w) on random pairs."""
    if samples < 1:
        raise BadParam("samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = -1.0
    wv = ww = np.zeros(Lnorm.dim)
    for _ in range(samples):
        v = rng.uniform(-1.0, 1.0, Lnorm.dim)
        w = rng.uniform(-1.0, 1.0, Lnorm.dim)
        viol = abs(Lnorm.L(v + w) ** 2 + Lnorm.L(v - w) ** 2
                   - 2.0 * Lnorm.L(v) ** 2 - 2.0 * Lnorm.L(w) ** 2)
        if viol > worst:
            worst, wv, ww = viol, v, w
    return ParallelogramReport(worst, wv, ww, samples, seed)


def polarize(Lnorm: FinslerNorm, v: TangentVector, w: TangentVector) -> float:
    """Candidate inner product g(v, w) from the polarization identity."""
    if not np.allclose(v.base, w.base):
        raise BadParam("polarize: vectors must share a base point")
    a, b = v.components, w.components
    return 0.5 * (Lnorm.L(a + b) ** 2 - Lnorm.L(a) ** 2 - Lnorm.L(b) ** 2)

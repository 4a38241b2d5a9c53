"""Coordinate charts with metric coefficients, curve length, Finsler tools.

A chart is a single coordinate system; the builtin catalog provides the
constant-curvature model spaces and the torus used for validation.
``_first_indefinite`` is the one scan of a stack of g for the first matrix
that is not positive definite, for the curvature kernel and the ray checks.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr
from .errors import (_POINT_FAULTS, BadDimension, BadParam, DomainExit,
                     DomainFault, SingularMetric, UnknownBuiltin)


# ---------------------------------------------------------------------------
# Metric evaluators
# ---------------------------------------------------------------------------

def _emitted(kind: str, rows: bool = False):
    """An evaluator's ``kind`` of connection, emitted from the terms (v, v),
    (v, e_k) or (e_j, e_k) of its ``connection_fragment``, or its Jacobi
    operator from the term (v, None), on first use and then kept on it; where
    ``rows``, on the columns of (N, n) arrays."""
    def emit(ev):
        n = ev.dim
        x, v = ([f"{c}{i}" for i in range(n)] for c in "xv")
        unit = [[repr(float(i == k)) for i in range(n)] for k in range(n)]
        pairs = {"spray": [(v, v)], "connection": [(v, e) for e in unit],  # only the spray's w is its v
                 "gamma": [(e, list(f)) for e in unit for f in unit], "jacobi": [(v, None)]}[kind]
        terms = [(a, b, [f"q{t}_{i}" for i in range(n * n if b is None else n)])
                 for t, (a, b) in enumerate(pairs)]
        body, env = ev.connection_fragment(x, terms, rows)
        flat = terms[0][2] if kind == "jacobi" else [q[i] for i in range(n) for *_, q in terms]
        shape = (n,) * {"spray": 1, "connection": 2, "gamma": 3, "jacobi": 2}[kind]
        inputs = {"x": x, "v": v} if kind != "gamma" else {"x": x}  # the spray's are sequences
        head = [f"{', '.join(names)}, = {p}{'.T' if rows else '.tolist()' * (kind != 'spray')}"
                for p, names in inputs.items()]
        if rows:
            body += [f"r = _empty((len(x), {len(flat)}))", *(f"r[:, {k}] = {q}" for k, q in enumerate(flat))]
        result = (f"r.reshape((len(x),) + {shape})" if rows else f"[{', '.join(flat)}]" if kind == "spray"
                  else f"_array([{', '.join(flat)}]).reshape({shape})")
        return expr._define(kind, ", ".join(inputs), [*head, *body, f"return {result}"], env)
    return functools.cached_property(emit)


def _sum(*products) -> str:
    """Source of a sum of products of factors, less where the first is "-",
    without 1.0 factors and 0.0 products; "0.0" if empty, "(...)" if a sum."""
    text = ""
    for factors in products:
        kept = [f for f in factors if f not in ("-", "1.0")]
        if "0.0" not in kept:
            text += f" {'-' if factors[0] == '-' else '+'} {' * '.join(kept) or '1.0'}"
    text = (text[3:] if text[1] == "+" else "-" + text[3:]) if text else "0.0"
    return f"({text})" if " " in text else text


class MetricEvaluator:
    """Supplies g, its coordinate derivatives, and Christoffel symbols.

    The connection Gamma(v, w)^i = Gamma^i_jk v^j w^k has three forms:
    ``spray(x, v)`` = Gamma(v, v), a list of n floats from sequences of
    floats; ``connection(x, v)`` = C = Gamma(v, .), with C @ w = Gamma(v, w);
    and ``gamma(x)``[i, j, k] = Gamma^i_jk. An evaluator supplies ``stack``,
    and optionally writes Gamma once, as ``connection_fragment(x, terms,
    rows)``: for the names x of a point and terms (v, w, q), v and w lists of
    names or of the literals "0.0" and "1.0", the statements that set the
    names q to Gamma(v, w), on + - * / and calls of their globals alone
    (array forms where ``rows``), and a dict of those globals; local names
    begin with a lower-case letter, globals with ``_``. A term whose w is its
    v is the spray, written as the float step has it. Every form and array
    form is ``_emitted`` from the fragment, and ``transport`` inlines the
    spray's term into its float steps, so that they compile no per-point
    spray. The default fragment, for an evaluator that supplies only
    ``stack``, contracts Gamma = ``gamma_from_stack`` of g^-1 and dg, from
    one call per point (per batch where ``rows``). An expression fragment
    has one more term kind, (v, None, q) with n * n names q: the Jacobi
    operator B (below), row by row.

    ``jacobi_batch(X, V)``, where an evaluator has one, returns B(w, u) =
    low(v, w, v, u), (N, n, n), of the rays (X, V), which
    ``tensor.jacobi_driving_batch`` uses in place of the curvature kernel:
    in closed form on the constant-curvature models, compiled from the
    fragment on an expression chart (None there where it faults, so that the
    kernel says where and why); C = Gamma(v, .) is the connection's alone.

    The batches ``metric_batch``, ``stack_batch``, ``gamma_batch``,
    ``connection_batch`` and ``spray_batch`` take (N, n) arrays of points (and
    vectors) by one rule, ``_batch``: from ``BATCH_ROWS`` rows on they take the
    array form (``_metric_rows``, ``_stack_rows`` and so on), whose rows equal
    the per-point values bitwise. Below it, without an array form, or where a
    check of the array form fails at some row or a value is not finite, they
    loop the per-point function (read only then, so that an emitted one is
    not emitted for nothing), so a fault has the loop's class and message,
    and a DomainFault or SingularMetric names the failing row as its ``point``.
    """

    dim: int
    jacobi_batch: Optional[Callable] = None
    # array forms X -> batch, or None where a check fails at some row
    _metric_rows = _stack_rows = None
    spray, _spray_rows = _emitted("spray"), _emitted("spray", rows=True)
    connection, _connection_rows = _emitted("connection"), _emitted("connection", rows=True)
    gamma, _gamma_rows = _emitted("gamma"), _emitted("gamma", rows=True)

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

    def connection_fragment(self, x, terms, rows=False):
        """Gamma(v, w)^i = Gamma^i_jk v^j w^k, after one call of ``_symbols``
        at the point (on its columns where ``rows``)."""
        n = len(x)
        c = [[[f"c{i}_{j}_{k}" for k in range(n)] for j in range(n)] for i in range(n)]
        return [f"{', '.join(np.ravel(c))}, = _symbols({rows}, {', '.join(x)})",
                *(f"{qi} = {_sum(*[(ci[j][k], v[j], w[k]) for j in range(n) for k in range(n)])}"
                  for v, w, q in terms for qi, ci in zip(q, c))], {"_symbols": self._symbols}

    def _symbols(self, rows, *x):
        """Gamma^i_jk from ``first_order`` at the point x, a flat list, or
        from ``stack_batch`` at the rows of the columns x, n^3 columns;
        SingularMetric where g is singular (on rows, it sends a batch to the
        loop, which names the row)."""
        p = np.array(x)
        g, dg = self.stack_batch(p.T)[:2] if rows else self.first_order(p)
        try:
            G = gamma_from_stack(np.linalg.inv(g), dg)
        except np.linalg.LinAlgError:
            raise SingularMetric(f"metric singular at {p}", point=p) from None
        return G.reshape(len(g), -1).T if rows else G.ravel().tolist()

    def gamma_batch(self, X: np.ndarray) -> np.ndarray:
        """Christoffel symbols at every row of X, shape (N, n, n, n)."""
        return _batch(self._gamma_rows, lambda x: self.gamma(x), [(self.dim,) * 3], X)

    def connection_batch(self, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Gamma(V[b], .) at every row X[b], shape (N, n, n)."""
        return _batch(self._connection_rows, lambda x, v: self.connection(x, v), [(self.dim,) * 2], X, V)

    def spray_batch(self, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Gamma(V[b], V[b]) at every row X[b], shape (N, n)."""
        return _batch(self._spray_rows, lambda x, v: self.spray(x.tolist(), v.tolist()), [(self.dim,)], X, V)

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
    ArithmeticError or ValueError from it (an elementwise ``math`` call), or
    a DomainFault or SingularMetric, whose point is not its row, sends the
    batch to the loop too.
    """
    X = np.asarray(X, dtype=float)
    if rows is not None and len(X) >= BATCH_ROWS:
        try:
            with np.errstate(all="ignore"):
                out = rows(X, *rest)
        except (ArithmeticError, ValueError, *_POINT_FAULTS):
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
    where x is not finite or the square overflows, without a warning, so
    ``_squares(X) < c`` is a whole domain mask."""
    with np.errstate(over="ignore", invalid="ignore"):
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
    """The stereographic model of curvature K = sign / c: g = mu(|x|^2) delta
    with mu = (2c / a)^2 and a = c + sign |x|^2, for c > 0 and sign = +-1
    (Lee, Introduction to Riemannian Manifolds, 2018, ch. 3).

    Every closed form is a function of a: s = mu'/mu = -2 sign / a, mu' = s mu
    and mu'' = 6 mu / a^2. Gamma(v, .) is O(n^2), and so is the Jacobi
    operator (``jacobi_batch``). c, sign and K are read-only, since the forms
    emitted from ``connection_fragment`` inline them.
    """

    def __init__(self, n: int, c: float, sign: float):
        self.dim = n
        self._c, self._sign = float(c), float(sign)
        self._eye = np.eye(n)

    c = property(lambda self: self._c)
    sign = property(lambda self: self._sign)
    K = property(lambda self: self._sign / self._c)

    def _profile(self, q):
        """(a, mu, s) at |x|^2 = q, on floats or elementwise on arrays."""
        a = self._c + self._sign * q
        m = 2.0 * self._c / a
        return a, m * m, -2.0 * self._sign / a

    def metric(self, x):
        return self._profile(float(x @ x))[1] * self._eye

    def metric_batch(self, X):
        return self._profile(_squares(np.asarray(X, dtype=float)))[1][:, None, None] * self._eye

    def stack(self, x):
        g, dg, d2g = self.stack_batch(np.asarray(x, dtype=float)[None])
        return g[0], dg[0], d2g[0]

    def connection_fragment(self, x, terms, rows=False):
        """Gamma(v, w) = A w + (d phi . v) w, A = v d phi^T - d phi v^T written once
        per v, phi = (1/2) log mu, d phi = s x; for w = v, 2 s (x . v) v - s |v|^2 x."""
        def dot(a, b):  # the spray's sums, from 0.0
            return "0.0" + "".join(f" + {i} * {j}" for i, j in zip(a, b))
        n, d = len(x), [f"d{i}" for i in range(len(x))]  # d phi, where a term is not the spray
        lines = [f"sq = {dot(x, x)}",
                 f"s = {-2.0 * self._sign!r} / ({self._c!r} + {self._sign!r} * sq)",
                 *[f"{di} = s * {a}" for di, a in zip(d, x)] * any(w is not v for v, w, _ in terms)]
        written = {}  # the prefix of the names of A and d phi . v, for each v
        for t, (v, w, q) in enumerate(terms):
            if w is v:
                lines += [f"xv{t} = {dot(x, v)}", f"vv{t} = {dot(v, v)}",
                          f"xv{t} *= 2.0 * s", f"vv{t} *= s",
                          *(f"{qi} = xv{t} * {b} - vv{t} * {a}" for qi, a, b in zip(q, x, v))]
                continue
            a = written.setdefault(tuple(v), f"a{t}_")
            if a == f"a{t}_":
                lines += [f"{a}dv = {_sum(*zip(d, v))}",
                          *(f"{a}{i}_{j} = {_sum((v[i], d[j]), ('-', v[j], d[i]))}"
                            for i in range(n) for j in range(i + 1, n))]
            lines += [f"{qi} = " + _sum(*[(f"{a}{i}_{j}", w[j]) if i < j else ("-", f"{a}{j}_{i}", w[j])
                                          for j in range(n) if j != i], (f"{a}dv", w[i]))
                      for i, qi in enumerate(q)]
        return lines, {}

    def jacobi_batch(self, X, V):
        """B(w, u) = low(v, w, v, u) = K mu^2 (|v|^2 w.u - (v.w)(v.u)) for the rays
        (X[b], V[b]), (N, n, n); SingularMetric names the first point where mu
        is not positive and finite."""
        X = np.asarray(X, dtype=float)
        with np.errstate(all="ignore"):  # where a = 0 or x is not finite, mu fails the check
            m = self._profile(_squares(X))[1]
        bad = ~(np.isfinite(m) & (m > 0.0))
        if bad.any():
            point = X[np.argmax(bad)]
            raise SingularMetric(f"metric not positive definite at {point}", point=point)
        v = V[:, :, None]
        B = (v.swapaxes(1, 2) @ v) * self._eye - v * v.swapaxes(1, 2)
        return (self.K * m * m)[:, None, None] * B

    def stack_batch(self, X):
        X = np.asarray(X, dtype=float)
        a, m, s = self._profile(_squares(X))
        m1, m2 = s * m, 6.0 * m / (a * a)
        eye = self._eye
        dg = (2.0 * m1)[:, None, None, None] * (X[:, :, None, None] * eye)
        kern = ((4.0 * m2)[:, None, None] * (X[:, :, None] * X[:, None, :])
                + (2.0 * m1)[:, None, None] * eye)
        return m[:, None, None] * eye, dg, kern[..., None, None] * eye


class ExpressionEvaluator(MetricEvaluator):
    """Free-form metric whose coefficients are expression ASTs.

    ``metric``, ``first_order`` and ``stack`` are straight-line functions
    compiled from the upper triangle of ``asts`` by ``expr.compile_tensor``,
    with array forms from the same statements; every form of the connection
    is emitted on first use from ``connection_fragment``, which
    ``expr.compile_gamma`` writes by an LDL^T solve with no matrix inverse.
    So is the compiled Jacobi operator: ``jacobi(x, v)``, B = low(v, ., v, .)
    as an (n, n) array, built from d^2 g contracted with v and the solved
    Gamma(v, e_j) and Gamma(v, v), and its array form, which
    ``jacobi_batch`` takes by the batch rule. Squares in every form are
    products (see ``expr._Emitter``).
    """

    jacobi, _jacobi_rows = _emitted("jacobi"), _emitted("jacobi", rows=True)

    def __init__(self, asts, n: int):
        self.dim = n
        self.asts = asts  # n x n nested list of AST nodes
        upper = [[asts[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        self.metric, self.first_order, self.stack = (
            expr.compile_tensor(upper, n, order) for order in range(3))
        self.connection_fragment = expr.compile_gamma(upper, n)

    def _metric_rows(self, X):
        return self.metric.batch(X)

    def _stack_rows(self, X):
        return self.stack.batch(X)

    def jacobi_batch(self, X, V):
        """B of the rays (X[b], V[b]), (N, n, n), each row bitwise ``jacobi``
        there, by the batch rule; None where some row has a zero or negative
        pivot of g, another fault or a value that is not finite."""
        try:
            B = _batch(self._jacobi_rows, lambda x, v: self.jacobi(x, v), [(self.dim,) * 2], X, V)
        except (*_POINT_FAULTS, ArithmeticError):
            return None
        return B if np.isfinite(B).all() else None


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
        count = _count("sample count", count, 0)
        rng = np.random.default_rng(_count("seed", seed, 0))
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


def _require_finite(X: np.ndarray, stack) -> None:
    """DomainFault naming the first row of X where g, dg or d2g of the metric
    stack (each with a leading batch axis) is not finite."""
    g, dg, d2g = stack
    if np.isfinite(g).all() and np.isfinite(dg).all() and np.isfinite(d2g).all():
        return
    rows = [np.isfinite(a).all(axis=tuple(range(1, a.ndim))) for a in stack]
    b = int(np.argmin(np.logical_and.reduce(rows)))
    which = ", ".join(name for name, ok in zip(("g", "dg", "d2g"), rows) if not ok[b])
    raise DomainFault(f"metric {which} not finite at {X[b]}", point=X[b].copy())


def _first_indefinite(G: np.ndarray):
    """Index of the first matrix of the stack G that is not positive definite
    (to working precision), or None when one Cholesky of the stack passes:
    the one scan of a stack of g for definiteness."""
    try:
        np.linalg.cholesky(G)
        return None
    except np.linalg.LinAlgError:
        lam = np.linalg.eigvalsh(G)
        return int(np.argmin(lam[:, 0] > 1e-14 * lam[:, -1]))


def _finite(name: str, value, shape=()) -> np.ndarray:
    """value as a float array of the given shape; BadDimension for another
    shape, BadParam where it holds anything but finite numbers."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise BadParam(f"{name} must hold numbers, got {value!r}") from None
    if a.shape != tuple(shape):
        raise BadDimension(f"{name} has shape {a.shape}, not {tuple(shape)}")
    if not np.isfinite(a).all():
        raise BadParam(f"{name} must be finite, got {a.tolist()}")
    return a


def _positive(name: str, value) -> float:
    """value as a float; BadParam unless it is a finite number > 0."""
    x = float(_finite(name, value))
    if not x > 0.0:
        raise BadParam(f"{name} must be positive, got {value!r}")
    return x


def metric_at(chart: MetricChart, p) -> MetricData:
    """g, its inverse, its derivatives and its Cholesky factor at p; a
    DomainFault or SingularMetric there names p as its ``point``."""
    p = np.asarray(p, dtype=float)
    chart.require_inside(p)
    try:
        g, dg, d2g = chart.evaluator.stack(p)
    except _POINT_FAULTS as exc:
        if exc.point is None:
            exc.point = p.copy()
        raise
    _require_finite(p[None], (g[None], dg[None], d2g[None]))
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularMetric(f"metric not positive definite at {p}", point=p.copy())
    g_inv = np.linalg.inv(g)
    return MetricData(g=g, g_inv=g_inv, dg=dg, d2g=d2g, chol=chol)


def inner(chart: MetricChart, p, v, w) -> float:
    g = chart.evaluator.metric(np.asarray(p, dtype=float))
    return float(np.asarray(v) @ g @ np.asarray(w))


def norm(chart: MetricChart, p, v) -> float:
    """|v|_g at p, from v scaled by a power of two, which rounds nothing, so
    that g(v, v) overflows or underflows only where |v|_g does."""
    v = np.asarray(v, dtype=float)
    e = math.frexp(float(np.max(np.abs(v), initial=0.0)))[1]
    u = np.ldexp(v, -e)
    return math.ldexp(math.sqrt(max(inner(chart, p, u, u), 0.0)), e)


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
    if name in ("sphere_stereo", "hyperbolic_ball"):
        n = _count(f"{name}: n", params.pop("n", 2))
        if name == "sphere_stereo":
            # the chart covers the sphere minus one pole; the radius is capped
            # so that geodesics heading to the pole's image exit cleanly
            R = _number(name, params, "R", 1.0)
            c, cap = R * R, 1e6 * R
            if not (R > 0 and c >= np.finfo(float).tiny and math.isfinite(cap * cap)):
                raise BadParam(f"sphere_stereo: R must be positive, with R*R a normal "
                               f"float and (1e6 R)^2 finite, got R={R!r}")
            sign, cap2, half, label = 1.0, cap * cap, 2.0 * R, f"sphere_stereo({n},R={R})"
            source = {"n": n, "R": R}
        else:
            c, sign, cap2, half, label = 1.0, -1.0, 1.0, 0.65, f"hyperbolic_ball({n})"
            source = {"n": n}
        _reject_extra(name, params)
        return MetricChart(
            dim=n, coords=[f"x{i+1}" for i in range(n)],
            evaluator=ConformalEvaluator(n, c, sign), label=label,
            domain=lambda X: _squares(X) < cap2,
            sample_box=(-half * np.ones(n), half * np.ones(n)),
            source={"builtin": name, "params": source})
    if name == "torus":
        R = _number(name, params, "R", 2.0)
        r = _number(name, params, "r", 1.0)
        _reject_extra(name, params)
        from . import surfrev
        return surfrev.torus_chart(R, r)
    raise UnknownBuiltin(f"no builtin chart named '{name}'")


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


def _count(label: str, raw, least: int = 1) -> int:
    """raw as an integer >= least (2, 2.0 or "2"; an integer exactly, however
    large); BadParam naming label otherwise."""
    try:
        n = raw if isinstance(raw, numbers.Integral) else float(raw)
    except (TypeError, ValueError):
        n = math.nan
    if isinstance(raw, bool) or not (n >= least and n % 1 == 0):
        raise BadParam(f"{label} must be an integer >= {least}, got {raw!r}")
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
    twice = next((c for k, c in enumerate(coords) if c in coords[:k]), None)
    if twice is not None:
        raise BadParam(f"coords name {twice!r} more than once")
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
        sample_box=_sample_box(doc["sample_box"], dim) if "sample_box" in doc
        else (-np.ones(dim), np.ones(dim)),
        source=dict(doc))
    _check_supplied_symmetry(chart, asts)
    return chart


def _sample_box(box, dim: int) -> tuple:
    """A document's sample_box, two lists of dim finite numbers [low, high]
    with low < high and high - low finite, which ``sample_points`` draws
    from, as (low, high) arrays; BadParam for anything else."""
    def finite(a):
        try:
            return isinstance(a, (int, float)) and not isinstance(a, bool) and math.isfinite(a)
        except OverflowError:  # an integer beyond any float
            return False

    def numbers(side):
        return isinstance(side, (list, tuple)) and len(side) == dim and all(map(finite, side))
    if not (isinstance(box, (list, tuple)) and len(box) == 2 and all(map(numbers, box))
            and all(a < b and math.isfinite(float(b) - float(a)) for a, b in zip(*box))):
        raise BadParam(f"sample_box must be [low, high], two lists of {dim} finite "
                       f"numbers with low < high and a finite width, got {box!r}")
    return np.array(box[0], dtype=float), np.array(box[1], dtype=float)


def load_manifold(path: str) -> MetricChart:
    return chart_from_definition(_read_definition(path, "manifold"))


def _read_definition(path: str, kind: str):
    """The JSON document in the file at path; BadParam where it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise BadParam(f"cannot read {kind} definition {path}: {exc}") from None


def _check_supplied_symmetry(chart: MetricChart, asts):
    """BadParam where g[i][j] and g[j][i] differ, relative to 1e-12, at one of
    100 seeded sample points. Only the differing off-diagonal ASTs are
    compiled: a diagonal one may fault there."""
    n = chart.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if asts[i][j] != asts[j][i]]
    if not pairs:
        return
    try:
        pts = chart.sample_points(100, 20260823)
    except BadParam:
        return
    upper = expr.compile_tensor([asts[i][j] for i, j in pairs], n, 0)
    lower = expr.compile_tensor([asts[j][i] for i, j in pairs], n, 0)
    for p in pts:
        for (i, j), a, b in zip(pairs, upper(p), lower(p)):
            scale = max(1.0, abs(a), abs(b))
            if abs(a - b) > 1e-12 * scale:
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
        if not (np.isfinite(self.t).all() and np.all(np.diff(self.t) > 0)):
            raise BadParam("curve parameter grid must be finite and strictly increasing")
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
    d01 = -6 * u * (u - 1) / h  # the weight of p1, and minus that of p0: one product of p1 - p0
    d10 = (1 - u) * (1 - 3 * u)
    d11 = u * (3 * u - 2)
    return d01 * (p1 - p0) + d10 * v0 + d11 * v1


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
                   start_segments: int = 8) -> float:
    """Composite Simpson with dyadic refinement to a relative tolerance, with
    an absolute floor of 1e-14, over at most 16 levels.

    f takes the whole grid of a level, an array of parameters, at once.
    """
    prev = None
    segments = start_segments
    for _ in range(16):
        ys = f(np.linspace(a, b, 2 * segments + 1))
        h = (b - a) / (2 * segments)
        val = h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())
        if prev is not None:
            if abs(val - prev) <= max(rel_tol * abs(val), 1e-14):
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

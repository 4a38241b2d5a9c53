"""Closed forms the benchmark checks riemannkit's answers against.

Each model space is written in the chart riemannkit uses for it, so inputs
can be generated and answers checked without calling the library:

* ``StereoSphere``: the round sphere of radius R in the stereographic chart
  of ``sphere_stereo``, g = (2R^2 / (R^2 + |x|^2))^2 delta.
* ``PoincareBall``: curvature -1 in the ball chart of ``hyperbolic_ball``,
  g = (2 / (1 - |x|^2))^2 delta.
* ``Horospherical``: curvature -1 in the chart dz^2 + exp(2z)(dx^2 + dy^2).
* ``Paraboloid``: the graph z = x^2 + y^2, g = I + 4 x x^T, with curvature
  K = 4 / (1 + 4 r^2)^2 and the rotation Killing field (-y, x).
* ``Torus``: ds^2 = du^2 + f(u)^2 dtheta^2 with f = R + r cos(u / r).

Tolerances are those of the acceptance gates in tests/test_acceptance.py.
"""

from __future__ import annotations

import math

import numpy as np

TOL_DISTANCE = 1e-4      # gate 02: conjugate location and geodesic distance
TOL_CONJUGATE = 1e-4     # gate 02
TOL_VOLUME = 1e-4        # gate 10: geodesic-sphere area against the model
TOL_SCALAR_FIT = 1e-4    # gate 11
TOL_DRIFT = 1e-6         # gate 12: Clairaut drift (also used for speed)
TOL_VARIATION = 1e-5     # gate 14: first-variation mismatch
TOL_SECTIONAL = 1e-8     # gate 01
TOL_RICCATI = 1e-4       # gate 07: Riccati pole and Sturm zero locations
TOL_SYMMETRY = 1e-8      # gate 05
TOL_BIANCHI = 1e-5       # gate 05


def unit_sphere_area(n: int) -> float:
    """Area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


class StereoSphere:
    def __init__(self, n: int, R: float):
        self.n, self.R = n, R
        self.K = 1.0 / (R * R)
        self.injectivity = math.pi * R

    def factor(self, x) -> float:
        """g = factor(x) * identity."""
        lam = 2.0 * self.R ** 2 / (self.R ** 2 + float(x @ x))
        return lam * lam

    def metric(self, x):
        return self.factor(x) * np.eye(self.n)

    def embed(self, x):
        R = self.R
        lam = 2.0 * R * R / (R * R + float(x @ x))
        return np.concatenate([lam * x, [R - R * lam]])

    def jacobian(self, x):
        R = self.R
        lam = 2.0 * R * R / (R * R + float(x @ x))
        top = lam * np.eye(self.n) - (lam * lam / (R * R)) * np.outer(x, x)
        return np.vstack([top, (lam * lam / R) * x])

    def chart(self, X):
        return self.R * X[:-1] / (self.R - X[-1])

    def exp(self, p, v):
        X, W = self.embed(p), self.jacobian(p) @ v
        s = float(np.linalg.norm(W))
        if s == 0.0:
            return np.array(p, dtype=float)
        Y = math.cos(s / self.R) * X + self.R * math.sin(s / self.R) * (W / s)
        return self.chart(Y)

    def dist(self, p, q) -> float:
        chord = float(np.linalg.norm(self.embed(p) - self.embed(q)))
        return 2.0 * self.R * math.asin(min(1.0, chord / (2.0 * self.R)))

    def sphere_area(self, r: float) -> float:
        return unit_sphere_area(self.n) * (self.R * math.sin(r / self.R)) ** (self.n - 1)

    def pole_gap(self, p, v, T: float) -> float:
        """Least angle between the chart's pole and exp_p(t v), 0 <= t <= T.

        The pole (0, ..., R) is where |x| goes to infinity; a point at angle a
        from it has |x| = R cot(a / 2).  The height of the great circle is
        R (a cos(phi) + b sin(phi)) at angle phi = s t / R along it.
        """
        X, W = self.embed(p), self.jacobian(p) @ v
        s = float(np.linalg.norm(W))
        a, b = X[-1] / self.R, W[-1] / s
        span = s * T / self.R
        peak = math.atan2(b, a) % (2.0 * math.pi)
        phis = (0.0, span, peak) if peak <= span else (0.0, span)
        top = max(a * math.cos(phi) + b * math.sin(phi) for phi in phis)
        return math.acos(max(-1.0, min(1.0, top)))

    def geodesic(self, p, u, ts):
        """Samples and velocities of t -> exp_p(t u) for a g-unit vector u."""
        X, W = self.embed(p), self.jacobian(p) @ u
        c, s = np.cos(ts / self.R)[:, None], np.sin(ts / self.R)[:, None]
        Y = c * X + self.R * s * W
        dY = -(s / self.R) * X + c * W
        den = (self.R - Y[:, -1])[:, None]
        xs = self.R * Y[:, :-1] / den
        vs = self.R * dY[:, :-1] / den + self.R * Y[:, :-1] * dY[:, -1:] / den ** 2
        return xs, vs


class PoincareBall:
    def __init__(self, n: int):
        self.n = n
        self.K = -1.0

    def factor(self, x) -> float:
        mu = 2.0 / (1.0 - float(x @ x))
        return mu * mu

    def metric(self, x):
        return self.factor(x) * np.eye(self.n)

    def embed(self, x):
        """Point on the hyperboloid <X, X> = -1, time coordinate last."""
        mu = 2.0 / (1.0 - float(x @ x))
        return np.concatenate([mu * x, [mu - 1.0]])

    def jacobian(self, x):
        mu = 2.0 / (1.0 - float(x @ x))
        top = mu * np.eye(self.n) + mu * mu * np.outer(x, x)
        return np.vstack([top, mu * mu * x])

    @staticmethod
    def minkowski(A, B) -> float:
        return float(A[:-1] @ B[:-1] - A[-1] * B[-1])

    def exp(self, p, v):
        X, W = self.embed(p), self.jacobian(p) @ v
        s = math.sqrt(max(self.minkowski(W, W), 0.0))
        if s == 0.0:
            return np.array(p, dtype=float)
        Y = math.cosh(s) * X + math.sinh(s) * (W / s)
        return Y[:-1] / (1.0 + Y[-1])

    def dist(self, p, q) -> float:
        den = math.sqrt((1.0 - float(p @ p)) * (1.0 - float(q @ q)))
        return 2.0 * math.asinh(float(np.linalg.norm(p - q)) / den)

    def sphere_area(self, r: float) -> float:
        return unit_sphere_area(self.n) * math.sinh(r) ** (self.n - 1)

    def geodesic(self, p, u, ts):
        """Samples and velocities of t -> exp_p(t u) for a g-unit vector u."""
        X, W = self.embed(p), self.jacobian(p) @ u
        c, s = np.cosh(ts)[:, None], np.sinh(ts)[:, None]
        Y = c * X + s * W
        dY = s * X + c * W
        den = (1.0 + Y[:, -1])[:, None]
        xs = Y[:, :-1] / den
        vs = dY[:, :-1] / den - Y[:, :-1] * dY[:, -1:] / den ** 2
        return xs, vs


class Horospherical:
    """H^3 as dz^2 + exp(2z)(dx^2 + dy^2); h = exp(-z) is the half-space height."""

    n = 3
    K = -1.0
    METRIC = [["exp(2*z)", "0", "0"], ["0", "exp(2*z)", "0"], ["0", "0", "1"]]

    @staticmethod
    def metric(x):
        e = math.exp(2.0 * x[2])
        return np.diag([e, e, 1.0])

    @staticmethod
    def dist(p, q) -> float:
        h1, h2 = math.exp(-p[2]), math.exp(-q[2])
        gap = math.sqrt(float((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2) + (h1 - h2) ** 2)
        return 2.0 * math.asinh(gap / (2.0 * math.sqrt(h1 * h2)))


class Paraboloid:
    n = 2
    METRIC = [["1+4*x^2", "4*x*y"], ["4*x*y", "1+4*y^2"]]

    @staticmethod
    def metric(x):
        return np.eye(2) + 4.0 * np.outer(x, x)

    @staticmethod
    def K(x) -> float:
        return 4.0 / (1.0 + 4.0 * float(x @ x)) ** 2

    @staticmethod
    def killing(x, v) -> float:
        """g(v, (-y, x)); the x x^T part of g drops out because x . (-y, x) = 0."""
        return float(-x[1] * v[0] + x[0] * v[1])


class Torus:
    n = 2

    def __init__(self, R: float, r: float):
        self.R, self.r = R, r

    def f(self, u: float) -> float:
        return self.R + self.r * math.cos(u / self.r)

    def metric(self, x):
        return np.diag([1.0, self.f(x[0]) ** 2])

    def K(self, x) -> float:
        return math.cos(x[0] / self.r) / (self.r * self.f(x[0]))

    def killing(self, x, v) -> float:
        """Clairaut constant f(u)^2 theta'."""
        return self.f(x[0]) ** 2 * float(v[1])


def stereo_sphere_metric(R: float):
    """The sphere_stereo metric written as an expression chart."""
    a = repr(4.0 * R ** 4)
    b = repr(R * R)
    comp = f"{a}/({b}+x^2+y^2)^2"
    return [[comp, "0"], ["0", comp]]


def speed(metric, x, v) -> float:
    return math.sqrt(max(float(v @ metric(x) @ v), 0.0))


def invariant_drift(fn, xs, vs) -> float:
    """Largest change of a first integral fn(x, v) along samples."""
    vals = np.array([fn(x, v) for x, v in zip(xs, vs)])
    return float(np.max(np.abs(vals - vals[0])))

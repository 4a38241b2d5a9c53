"""Per-layer counts and busy times, measured from outside the library.

Nothing in riemannkit is edited.  While a ``Tracer`` is installed:

* each chart's ``evaluator`` is wrapped in an ``EvaluatorProxy`` that counts
  and times ``stack``/``gamma``/``metric``/``first_order``/``stack_batch``;
  the evaluator class decides the layer (``manifold`` for the builtin
  conformal charts, ``expr`` for expression charts, ``surfrev`` for the
  torus);
* the public functions listed in ``PUBLIC`` are replaced, in every
  riemannkit module that holds a reference to them, by a wrapper that
  records a span.  Calls between modules (``variation`` calling
  ``tensor.curvature``, ``log_map`` calling ``exp_map``) are therefore seen.

Spans nest on a stack, so a span's self time is its duration minus the
time of the spans it caused.  The evaluator is called about 14k times per
geodesic, so spans are aggregated into counts and busy times at once rather
than stored one by one.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

PUBLIC = {
    "manifold": ("metric_at", "builtin", "chart_from_definition"),
    "tensor": ("curvature", "ricci", "jacobi_driving_batch"),
    "transport": ("integrate_geodesic", "exp_map", "log_map"),
    "variation": ("conjugate_points", "conjugate_points_from", "jacobi_system",
                  "first_variation"),
    "comparison": ("volume_compare", "scalar_expansion_fit"),
}

EVALUATOR_METHODS = ("stack", "gamma", "metric", "first_order", "stack_batch")

RICCI_SAMPLING = {"tensor.curvature", "tensor.ricci", "manifold.metric_at"}


def _evaluator_layer(ev) -> str:
    name = type(ev).__name__
    if name == "ExpressionEvaluator":
        return "expr"
    if name == "SurfRevEvaluator":
        return "surfrev"
    return "manifold"


class Tracer:
    def __init__(self):
        self.count = Counter()
        self.busy = Counter()      # ns, inclusive
        self.self_ns = Counter()   # ns, exclusive of child spans
        self._stack = []           # frames [name, child_ns]
        self._patched = []         # (module, attribute, original)
        self._proxied = []         # charts whose evaluator was wrapped

    # -- spans --------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        frame = [name, 0]
        stack = self._stack
        parent = stack[-1] if stack else None
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            stack.pop()
            self.count[name] += 1
            self.busy[name] += dt
            self.self_ns[name] += dt - frame[1]
            if parent is not None:
                parent[1] += dt
                self._attribute(name, parent[0], dt)

    def _attribute(self, name, parent, dt):
        """Counts that depend on which span a call happened inside."""
        if name == "transport.exp_map":
            if parent == "transport.log_map":
                self.count["exp_in_log"] += 1
            elif parent == "variation.first_variation":
                self.count["exp_in_first_variation"] += 1
        elif name in RICCI_SAMPLING and parent.startswith("comparison."):
            self.busy["comparison.ricci_sampling"] += dt

    # -- installation -------------------------------------------------------

    def install(self, rk_modules):
        """Wrap the public functions in every riemannkit module."""
        mods = [m for key, m in sys.modules.items()
                if key == "riemannkit" or key.startswith("riemannkit.")]
        for layer, names in PUBLIC.items():
            home = rk_modules[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in mods:
                    if getattr(mod, fname, None) is original:
                        self._patched.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        if name == "transport.integrate_geodesic":
            def wrapper(*args, **kwargs):
                traj = tracer.call(name, fn, args, kwargs)
                tracer.count["transport.steps"] += len(traj.t) - 1
                return traj
        elif name == "tensor.jacobi_driving_batch":
            def wrapper(*args, **kwargs):
                tracer.count["driving_rays"] += len(args[1])
                return tracer.call(name, fn, args, kwargs)
        elif name in ("manifold.builtin", "manifold.chart_from_definition"):
            def wrapper(*args, **kwargs):
                return tracer.attach(tracer.call(name, fn, args, kwargs))
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def attach(self, chart):
        if not isinstance(chart.evaluator, EvaluatorProxy):
            chart.evaluator = EvaluatorProxy(chart.evaluator, self)
            self._proxied.append(chart)
        return chart

    def uninstall(self):
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()
        for chart in self._proxied:
            chart.evaluator = chart.evaluator.inner
        self._proxied.clear()

    def reset(self):
        self.count.clear()
        self.busy.clear()
        self.self_ns.clear()


class EvaluatorProxy:
    """Counts and times the public evaluator methods of one chart."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.dim = inner.dim
        layer = _evaluator_layer(inner)
        for meth in EVALUATOR_METHODS:
            self._bind(tracer, f"{layer}.ev.{meth}", getattr(inner, meth))

    def _bind(self, tracer, name, fn):
        if name.endswith("stack_batch"):
            def method(X):
                tracer.count[name + ".points"] += len(X)
                return tracer.call(name, fn, (X,), {})
        else:
            def method(x):
                return tracer.call(name, fn, (x,), {})
        setattr(self, name.rsplit(".", 1)[1], method)

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


# ---------------------------------------------------------------------------
# Layer metrics from one traced pass
# ---------------------------------------------------------------------------

LAYERS = ("manifold", "expr", "surfrev")


def _sum(counter, suffix):
    return sum(counter[f"{layer}.ev.{suffix}"] for layer in LAYERS)


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tr: Tracer, op_seconds: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    c, b, s = tr.count, tr.busy, tr.self_ns
    gamma_calls, stack_calls = _sum(c, "gamma"), _sum(c, "stack")
    ev_busy = sum(b[f"{layer}.ev.{m}"] for layer in LAYERS for m in EVALUATOR_METHODS)
    batch_points = _sum(c, "stack_batch.points")
    comp_busy = b["comparison.volume_compare"] + b["comparison.scalar_expansion_fit"]
    ray_steps = c["driving_rays"] / 4.0  # RK4 evaluates M four times per step
    variation_calls = c["variation.conjugate_points"] + c["variation.first_variation"]
    variation_self = sum(v for k, v in s.items() if k.startswith("variation."))
    return {
        "manifold.gamma_calls": gamma_calls,
        "manifold.gamma_us": _per(_sum(b, "gamma"), gamma_calls, 1e-3),
        "manifold.metric_calls": _sum(c, "metric"),
        "manifold.stack_calls": stack_calls,
        "manifold.stack_us": _per(_sum(b, "stack"), stack_calls, 1e-3),
        "manifold.busy_share": _per(ev_busy * 1e-9, op_seconds),
        "manifold.batch_points": batch_points,
        "manifold.batch_us_per_point": _per(_sum(b, "stack_batch"), batch_points, 1e-3),
        "expr.stack_us": _per(b["expr.ev.stack"], c["expr.ev.stack"], 1e-3),
        "expr.gamma_us": _per(b["expr.ev.gamma"], c["expr.ev.gamma"], 1e-3),
        "expr.chart_build_ms": _per(b["manifold.chart_from_definition"],
                                    c["manifold.chart_from_definition"], 1e-6),
        "tensor.curvature_calls": c["tensor.curvature"],
        "tensor.curvature_us": _per(b["tensor.curvature"], c["tensor.curvature"], 1e-3),
        "tensor.driving_calls": c["tensor.jacobi_driving_batch"],
        "tensor.driving_us_per_ray": _per(b["tensor.jacobi_driving_batch"],
                                          c["driving_rays"], 1e-3),
        "transport.steps": c["transport.steps"],
        "transport.self_us_per_step": _per(s["transport.integrate_geodesic"],
                                           c["transport.steps"], 1e-3),
        "transport.exp_calls_per_log": _per(c["exp_in_log"], c["transport.log_map"]),
        "transport.log_s": _per(b["transport.log_map"], c["transport.log_map"], 1e-9),
        "variation.self_ms": _per(variation_self, variation_calls, 1e-6),
        "variation.exp_calls_per_rectangle": _per(c["exp_in_first_variation"],
                                                  c["variation.first_variation"]),
        "comparison.sweep_us_per_ray_step": _per(comp_busy - b["comparison.ricci_sampling"],
                                                 ray_steps, 1e-3),
        "comparison.ricci_sample_ms": _per(b["comparison.ricci_sampling"],
                                           c["comparison.volume_compare"]
                                           + c["comparison.scalar_expansion_fit"], 1e-6),
        "surfrev.gamma_us": _per(b["surfrev.ev.gamma"], c["surfrev.ev.gamma"], 1e-3),
    }


# Counts that must repeat exactly when the same operations are replayed.
EXACT_COUNTS = ("manifold.gamma_calls", "manifold.stack_calls", "manifold.metric_calls",
                "manifold.batch_points", "tensor.curvature_calls", "tensor.driving_calls",
                "transport.steps", "transport.exp_calls_per_log",
                "variation.exp_calls_per_rectangle")

"""riemann-kit benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload single_ray --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the library is imported from ./src.  With
``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics.  ``--smoke`` checks the benchmark
itself: one operation of every kind with its oracle, the seed's known
defects, and a traced replay.  See bench/README.md for the design.
"""

import time

_T0 = time.perf_counter()  # start of a set-up probe's clock

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5       # fresh interpreters per run, spread over it; setup_s is their median
FLOOR_PROBES = 3       # `riemannkit --version` calls per traced run
MAX_WALL_FACTOR = 4    # a run stops early past this many times --seconds
CLI_SHIM = "import sys; from riemannkit.cli import main; sys.exit(main())"

for _var in THREAD_VARS:  # single-threaded BLAS, before numpy is imported
    os.environ[_var] = "1"


def _pin_cpu():
    """Keep this process and its children on one CPU, so none migrates mid-run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _import_library():
    """riemannkit from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "riemannkit", "__init__.py")):
        sys.exit(f"bench: no riemannkit sources under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    import riemannkit
    from riemannkit import (cli, comparison, errors, manifold, tensor, transport,
                            variation)
    if not os.path.abspath(riemannkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: riemannkit imported from {riemannkit.__file__}, not {SRC}")
    return argparse.Namespace(
        cli=cli, comparison=comparison, errors=errors, manifold=manifold, tensor=tensor,
        transport=transport, variation=variation, OdeSettings=transport.OdeSettings)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _run_child(argv, cwd):
    """Run a process to completion; returns (exit code, stdout, seconds, peak RSS MB)."""
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=subprocess.PIPE,
                                stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, seconds, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Outcome:
    __slots__ = ("op", "ok", "seconds", "detail", "defect")

    def __init__(self, op, ok, seconds, detail="", defect=None):
        self.op, self.ok, self.seconds, self.detail = op, ok, seconds, detail
        self.defect = defect  # the known seed defect a failure belongs to, if any


class Runner:
    """Executes one workload's operations and checks each against its oracle."""

    def __init__(self, rk, workload, workdir):
        self.rk = rk
        self.workload = workload
        self.workdir = workdir
        self.charts = None
        self.peak_child_rss = 0.0
        self.last_report_bytes = 0

    def build(self):
        self.charts = self.workload.build_charts(self.rk)

    def attempt(self, op, in_process=False) -> Outcome:
        """Run and check one operation; every raise or wrong answer is a failure."""
        wl = self.workload
        t0 = time.perf_counter()
        try:
            if wl.name != "cli":
                out = wl.execute(self.rk, self.charts, op)
            elif in_process:
                out = self._cli_in_process(op)
            else:
                out = self._cli_subprocess(op)
        except Exception as exc:  # counted, never filtered out
            return Outcome(op, False, time.perf_counter() - t0, _describe(exc),
                           wl.classify(op, exc))
        seconds = time.perf_counter() - t0
        try:
            wl.check(self.rk, self.charts, op, out)
        except Exception as exc:
            return Outcome(op, False, seconds, _describe(exc), wl.classify(op, exc))
        return Outcome(op, True, seconds)

    def _cli_argv(self, op):
        argv = list(op.argv)
        if op.csv:
            argv += ["--csv", os.path.join(self.workdir, "traj.csv")]
        return argv

    def _take_csv(self, op):
        """(lines, bytes) of the CSV an operation wrote; the file is removed."""
        path = os.path.join(self.workdir, "traj.csv")
        if not op.csv or not os.path.exists(path):
            return 0, 0
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return data.count(b"\n"), len(data)

    def _cli_subprocess(self, op):
        code, out, _, rss = _run_child([sys.executable, "-c", CLI_SHIM, *self._cli_argv(op)],
                                       self.workdir)
        self.peak_child_rss = max(self.peak_child_rss, rss)
        lines, size = self._take_csv(op)
        self.last_report_bytes = len(out) + size
        return code, out.decode(), lines

    def _cli_in_process(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.rk.cli.main(self._cli_argv(op))
        return code, out.getvalue(), self._take_csv(op)[0]


def _describe(exc) -> str:
    return f"{type(exc).__name__}: {exc}"[:200]


def _loop(runner, ops, count, outcomes, deadline):
    """Closed loop over `count` operations: each starts when the previous returned.

    Returns the loop's wall time; it stops early at the `deadline`.
    """
    t_start = time.perf_counter()
    for _ in range(count):
        if time.perf_counter() >= deadline:
            break
        outcomes.append(runner.attempt(next(ops)))
    return time.perf_counter() - t_start


def verify(outcomes, wl):
    """Why a run's answers cannot be trusted; empty when they can.

    Every failure is counted in `failed`.  A run is incorrect when a failure
    belongs to no known seed defect, or when some kind of operation of the
    workload's cycle never passed.  A kind whose every input triggers a
    known defect (a `cli` vector with a leading minus) is not required to pass.
    """
    problems = [f"{o.op.describe()} failed outside the known defects: {o.detail}"
                for o in outcomes if not o.ok and o.defect is None]
    kinds = {k if isinstance(k, str) else k[0] for k in wl.cycle}
    excused = ({o.op.kind for o in outcomes}
               - {o.op.kind for o in outcomes if not wl.input_defect(o.op)})
    passed = {o.op.kind for o in outcomes if o.ok}
    problems += [f"no {kind} operation passed" for kind in sorted(kinds - excused - passed)]
    return problems


def _calibrate_ms():
    """A fixed pure-numpy loop; reported as a machine-drift diagnostic only."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((96, 96)) + 96.0 * np.eye(96)
    t0 = time.perf_counter()
    for _ in range(200):
        a = np.linalg.inv(np.linalg.inv(a)) @ np.eye(96)
    return (time.perf_counter() - t0) * 1e3


def _setup_probe_seconds(workload, seed):
    """One fresh interpreter: import + building the workload's charts."""
    code, out, _, _ = _run_child([sys.executable, os.path.join(HERE, "run.py"),
                                  "--setup-probe", "--workload", workload,
                                  "--seed", str(seed)], ROOT)
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}")
    return float(out.decode().split()[-1])


def _setup_probe(workload, seed):
    rk = _import_library()
    from workloads import WORKLOADS
    WORKLOADS[workload](seed).build_charts(rk)
    print(f"{time.perf_counter() - _T0:.6f}")


def _tail(latencies):
    """Highest percentile with at least ten samples beyond it: the 11th largest."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, 0
    return lat[n - 11], 100.0 * (n - 10) / n, 10


def _record(seed):
    import numpy as np
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "seed": seed, "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _print_outcomes(outcomes):
    kinds = {}
    for o in outcomes:
        kinds.setdefault(o.op.describe(), []).append(o)
    for key in sorted(kinds):
        group = kinds[key]
        passed = [o.seconds for o in group if o.ok]
        med = f"{1e3 * statistics.median(passed):.1f} ms" if passed else "-"
        print(f"  {key:<16} {len(group):4d} ops  {len(group) - len(passed):3d} failed"
              f"  median {med}")
        for o in group:
            if not o.ok:
                known = f"known defect: {o.defect}" if o.defect else "NOT A KNOWN DEFECT"
                print(f"      failed after {o.seconds:.2f} s ({known}): {o.detail}")


def _print_problems(problems):
    for msg in problems:
        print(f"incorrect: {msg}")


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def run_untraced(rk, wl_cls, seed, seconds, workdir):
    wl = wl_cls(seed)
    runner = Runner(rk, wl, workdir)
    runner.build()
    cal_start = _calibrate_ms()
    cycles = max(1, round(seconds / wl.cycle_seconds))
    # set-up probes go between cycles, spread from the start to the end of the run
    probe_at = Counter(round(k * cycles / (SETUP_PROBES - 1)) for k in range(SETUP_PROBES))
    setup_vals, outcomes, wall = [], [], 0.0
    ops = wl.ops()
    deadline = time.perf_counter() + MAX_WALL_FACTOR * seconds
    for cycle in range(cycles + 1):
        setup_vals += [_setup_probe_seconds(wl.name, seed) for _ in range(probe_at[cycle])]
        if cycle < cycles:
            wall += _loop(runner, ops, len(wl.cycle), outcomes, deadline)
    setup_s = statistics.median(setup_vals)
    cal_end = _calibrate_ms()
    print(f"setup_s probes: {', '.join(f'{v:.4f}' for v in setup_vals)}")
    print(f"calibration_ms: start {cal_start:.3f}, end {cal_end:.3f} "
          f"(drift diagnostic only, never used to normalise)")
    _print_outcomes(outcomes)
    problems = verify(outcomes, wl)
    _print_problems(problems)

    passed = [o.seconds for o in outcomes if o.ok]
    failed = len(outcomes) - len(passed)
    fail_time = sum(o.seconds for o in outcomes if not o.ok)
    if not passed:
        raise RuntimeError("no operation passed its oracle")
    tail, pct, beyond = _tail(passed)
    if wl.name == "cli":
        rss = runner.peak_child_rss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(passed) / (wall - fail_time), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(passed), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "ops_per_s": f"({len(passed)} passing ops in {wall - fail_time:.3f} s of "
                     f"{wall:.3f} s wall over {cycles} cycles; {fail_time:.3f} s went to "
                     f"failing ops)",
        "latency_tail_ms": f"(p{pct:.1f}, {beyond} of {len(passed)} samples beyond)",
        "setup_s": f"(median of {SETUP_PROBES} fresh interpreters)",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} {notes.get(name, '')}".rstrip())
    print(f"fail_ratio = {failed / len(outcomes):.6g} ({failed} failed / "
          f"{len(outcomes)} attempted)")
    return {"correct": not problems, "attempted": len(outcomes), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _floor_ms(workdir):
    vals = []
    for _ in range(FLOOR_PROBES):
        code, _, sec, _ = _run_child([sys.executable, "-c", CLI_SHIM, "--version"], workdir)
        if code != 0:
            raise RuntimeError(f"riemannkit --version exited {code}")
        vals.append(sec * 1e3)
    return statistics.median(vals)


def _cli_layer(rk, seed, workdir):
    """cli.* metrics from one cycle of `riemannkit` calls, made in every traced run.

    `cli.compute_share` is the time of the calls made in-process through
    `riemannkit.cli.main` over their wall time as processes.
    """
    from workloads import Cli
    runner = Runner(rk, Cli(seed), workdir)
    ops = list(itertools.islice(runner.workload.ops(), len(Cli.cycle)))
    in_process_s = _replay(runner, ops, in_process=True)[1]
    process_s, report_bytes = 0.0, 0
    for op in ops:
        process_s += runner.attempt(op).seconds
        report_bytes += runner.last_report_bytes
    return {"cli.floor_ms": _floor_ms(workdir), "cli.compute_share": in_process_s / process_s,
            "cli.report_bytes": report_bytes / len(ops)}


def _replay(runner, ops, in_process):
    outcomes = [runner.attempt(op, in_process=in_process) for op in ops]
    return outcomes, sum(o.seconds for o in outcomes)


def run_traced(rk, wl_cls, seed, workdir):
    """One cycle of operations replayed traced, untraced, then traced again.

    The first traced replay warms caches; the per-layer metrics come from the
    second, and `trace.overhead_share` compares it with the untraced replay
    between them.  The exact counts of both traced replays must agree.
    """
    import tracing
    wl = wl_cls(seed)
    ops = list(itertools.islice(wl.ops(), len(wl.cycle)))
    cli = wl.name == "cli"
    runner = Runner(rk, wl, workdir)
    tracer = tracing.Tracer()

    def traced_replay():
        tracer.reset()
        tracer.install(vars(rk))
        try:
            runner.build()
            seconds = _replay(runner, ops, in_process=cli)[1]
        finally:
            tracer.uninstall()
        return tracing.layer_metrics(tracer, seconds), seconds

    first, _ = traced_replay()
    runner.build()
    base, base_s = _replay(runner, ops, in_process=cli)
    metrics, traced_s = traced_replay()
    problems = [f"count mismatch between traced replays: {k} {first[k]} != {metrics[k]}"
                for k in tracing.EXACT_COUNTS if first[k] != metrics[k]]
    _print_outcomes(base)
    problems += verify(base, wl)
    _print_problems(problems)

    metrics["trace.overhead_share"] = traced_s / base_s - 1.0
    metrics.update(_cli_layer(rk, seed, workdir))
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    failed = sum(not o.ok for o in base)
    print(f"fail_ratio = {failed / len(base):.6g} ({failed} failed / {len(base)} attempted)")
    return {"correct": not problems, "attempted": len(base), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Smoke mode: the benchmark's own check
# ---------------------------------------------------------------------------

def run_smoke(rk, workdir):
    import numpy as np
    import oracles as O
    import workloads as W
    from workloads import WORKLOADS, Op, Cli, CliOp
    problems = []
    for name, cls in WORKLOADS.items():
        wl = cls(1)
        runner = Runner(rk, wl, workdir)
        runner.build()
        tries = {}
        for op in itertools.islice(wl.ops(), 20 * len(wl.cycle)):
            # the leading-minus defect is checked below; here every oracle must run
            if not wl.input_defect(op):
                tries.setdefault(op.kind, []).append(op)
        for kind, ops in tries.items():
            # a kind passes when one of its first three operations passes, so a
            # known defect hit by a generated input does not fail the check
            for op in ops[:3]:
                o = runner.attempt(op)
                print(f"smoke {name:<11} {op.describe():<16} {'pass' if o.ok else 'fail'}"
                      f"  {o.seconds:.2f} s  {o.detail}")
                if o.ok:
                    break
                if o.defect is None:
                    problems.append(f"{name} {kind}: failed outside the known defects")
            else:
                problems.append(f"{name} {kind}: three operations failed their oracle")
        if not verify([Outcome(ops[0], False, 0.0, "planted failure")], wl):
            problems.append(f"{name}: a failure of no known class leaves the run correct")

    # the seed's known defects must be counted as failures, not filtered out
    wl = WORKLOADS["ray_batch"](1)
    runner = Runner(rk, wl, workdir)
    runner.build()
    s2 = O.StereoSphere(2, 1.0)
    p = np.array([0.3, 0.1])
    for direction, d in (([1.0, 0.4], 1.5), ([0.0, 1.0], 2.0)):
        u = np.array(direction) / O.speed(s2.metric, p, np.array(direction))
        op = Op("log", "s2", {"p": p, "q": s2.exp(p, d * u), "v": d * u, "d": d})
        _expect_failure(runner, op, f"log_map round trip along {direction}", W.DEFECT_LOG,
                        problems)
    op = Op("conj", "s2", {"p": np.array([0.27238192, -0.03892382]),
                           "v": np.array([0.53224198, -0.07749096]), "T": 1.1 * math.pi})
    _expect_failure(runner, op, "conjugate near the stereographic pole", W.DEFECT_POLE,
                    problems)
    if wl.classify(op, rk.errors.DomainExit("planted")) != W.DEFECT_POLE:
        problems.append("a DomainExit near the pole is not classed as the pole defect")
    far = Op("conj", "s2", {"p": np.array([0.3, 0.1]), "v": np.array([0.0, 0.5]),
                            "T": 1.1 * math.pi})
    if wl.classify(far, rk.errors.DomainExit("planted")) is not None:
        problems.append("a DomainExit far from the pole is classed as a known defect")
    sr = Runner(rk, WORKLOADS["single_ray"](1), workdir)
    sr.build()
    op = Op("conj", "s2_0", {"p": np.array([-0.10858696, -0.56540094]),
                             "v": np.array([-0.17478078, -0.9443358]), "T": 1.1 * math.pi * 0.6})
    _expect_failure(sr, op, "wrong conjugate point near the stereographic pole", W.DEFECT_POLE,
                    problems)
    op = Op("geo", "s2_0", {"p": np.array([0.20034185, 0.54929079]),
                            "v": np.array([0.3034519, 0.92636672]), "T": 0.9535108172})
    _expect_failure(sr, op, "geodesic speed drift near the stereographic pole", W.DEFECT_POLE,
                    problems)
    ex = Runner(rk, WORKLOADS["expr_chart"](1), workdir)
    ex.build()
    op = Op("conj", "es2_1", {"p": np.array([-0.78317623, 0.44523317]),
                              "v": np.array([-0.67925129, 0.38708694]), "T": 1.1 * math.pi * 1.2})
    _expect_failure(ex, op, "expression-chart conjugate near the stereographic pole",
                    W.DEFECT_POLE, problems)
    cli = Runner(rk, Cli(1), workdir)
    op = CliOp("exp", ["exp", "--builtin", "sphere_stereo", "--param", "n=2,R=1",
                       "--point", "-0.1,0.2", "--velocity", "0.3,0.2"],
               {"model": s2, "q": s2.exp(np.array([-0.1, 0.2]), np.array([0.3, 0.2]))})
    _expect_failure(cli, op, "cli vector with a leading minus", W.DEFECT_MINUS, problems)

    # a traced replay repeats its counts exactly
    traced = run_traced(rk, WORKLOADS["single_ray"], 1, workdir)
    if not traced["correct"] or not traced["metrics"]["manifold.gamma_calls"]["value"]:
        problems.append("traced counts differ between replays or are empty")
    for msg in problems:
        print(f"SMOKE PROBLEM: {msg}")
    return 1 if problems else 0


def _expect_failure(runner, op, label, defect, problems):
    o = runner.attempt(op)
    print(f"smoke defect {label}: {'counted as failure' if not o.ok else 'PASSED'}"
          f"  {o.seconds:.2f} s  {o.detail}")
    if o.ok:
        problems.append(f"known defect no longer fails ({label}); update the smoke check")
    elif o.defect != defect:
        problems.append(f"defect ({label}) classed as {o.defect!r}, not {defect!r}")


# ---------------------------------------------------------------------------

def main(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="check the benchmark itself")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    rk = _import_library()
    _pin_cpu()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=HERE) as workdir:
        if args.smoke:
            return run_smoke(rk, workdir)
        print(f"riemann-kit benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        print("record: " + json.dumps(_record(args.seed)))
        cls = WORKLOADS[args.workload]
        if args.trace:
            result = run_traced(rk, cls, args.seed, workdir)
        else:
            result = run_untraced(rk, cls, args.seed, args.seconds, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

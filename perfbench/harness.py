"""Set-up, measurement and metrics for one benchmark run (see run.py)."""

import contextlib
import gc
import importlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

import numpy as np

import speed
from tracer import Tracer
from workloads import WORKLOADS

# setup_s is the median of at least this many set-ups, and of as many more
# as fit in SETUP_SECONDS, so that short set-ups get enough samples.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
PROGRAM_MODULES = ("cli", "classifier", "data", "frames", "io", "kernels", "reconstruct")


def unload_program():
    """Forget rwkit, so that the next set-up pays for its imports again."""
    for name in [n for n in sys.modules if n == "rwkit" or n.startswith("rwkit.")]:
        del sys.modules[name]
    # Free the old copy now, so the number of set-ups cannot move peak_rss_mb.
    gc.collect()


def load_program():
    importlib.import_module("rwkit")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"rwkit.{m}") for m in PROGRAM_MODULES}
    )


def _git_commit(root):
    try:
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def environment(rw, root):
    """What the numbers depend on besides the code."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rwkit_backend": rw.kernels.BACKEND,
        "RWKIT_THREADS": os.environ.get("RWKIT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _git_commit(root),
    }


class _Tally:
    def __init__(self):
        self.spans = []  # (start, end) of each call
        self.items = 0
        self.failed = 0


def _items_per_s(items, times):
    # Throughput over the whole run, so that a slow call in N counts.
    return items / sum(times)


def _timed_call(wl, spec, tally, tracer=None):
    """Run one workload call, timing only the program; then check it."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("bench.call"):
                    out = wl.call(spec)
            else:
                out = wl.call(spec)
            error = None
        except Exception:
            error = traceback.format_exc()
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        try:
            bad = wl.check(spec, out)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(f"{wl.name}: call failed\n{error}", file=sys.stderr)
        bad = spec.items
    tally.spans.append((t0, t1))
    tally.items += spec.items
    tally.failed += bad


def run(workload, seed, seconds, trace, root, outdir):
    """One benchmark run; returns (result dict, report lines, tracer or None)."""
    wl = WORKLOADS[workload]()
    workdir = os.path.join(outdir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Untraced runs scale their times to a reference speed (speed.py).
    meter = contextlib.nullcontext() if trace else speed.Meter()
    try:
        with meter:
            setups = []
            while not setups or (
                not trace
                and (
                    len(setups) < SETUP_REPEATS
                    or sum(b - a for a, b in setups) < SETUP_SECONDS
                )
            ):
                unload_program()
                t0 = time.perf_counter()
                rw = load_program()
                wl.setup(rw, seed, workdir)
                setups.append((t0, time.perf_counter()))
            env = environment(rw, root)
            lines = [f"environment: {env}"]
            main, traced = _Tally(), _Tally()
            tracer = Tracer() if trace else None
            deadline = time.perf_counter() + seconds
            i = 0
            while i == 0 or time.perf_counter() < deadline or (trace and i % 2):
                # Traced runs alternate traced and untraced calls (ABBA order).
                use_tracer = tracer if trace and i % 4 in (0, 3) else None
                _timed_call(wl, wl.prepare(i), traced if use_tracer else main, use_tracer)
                i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = main.items + traced.items
    failed = main.failed + traced.failed
    if trace:
        metrics = tracer.layer_metrics(traced.items)
        untraced_ips = _items_per_s(main.items, [b - a for a, b in main.spans])
        traced_ips = _items_per_s(traced.items, [b - a for a, b in traced.spans])
        metrics["trace.untraced_items_per_s"] = (untraced_ips, "1/s")
        metrics["trace.traced_items_per_s"] = (traced_ips, "1/s")
        metrics["trace.overhead_ratio"] = (untraced_ips / traced_ips - 1.0, "ratio")
        lines.append(
            f"trace overhead: {untraced_ips:.4g} items/s untraced vs "
            f"{traced_ips:.4g} traced ({len(main.spans)} and "
            f"{len(traced.spans)} calls)"
        )
        trace_path = os.path.join(outdir, f"trace-{workload}-seed{seed}.npz")
        tracer.save(trace_path, {"workload": workload, "seed": seed, "environment": env})
        lines.append(f"spans: {len(tracer.start)} written to {trace_path}")
    else:
        wall = [meter.wall(*span) for span in main.spans]
        scaled = [meter.scaled(*span) for span in main.spans]
        setup_wall = [meter.wall(*span) for span in setups]
        setup_scaled = [meter.scaled(*span) for span in setups]
        metrics = {
            "items_per_s": (_items_per_s(main.items, scaled), "1/s"),
            "call_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_ratio": (1.0 - failed / attempted, "ratio"),
            "setup_s": (statistics.median(setup_scaled), "s"),
        }
        lines.append(
            f"calls: {len(scaled)} (call_ms_p50 is their median); "
            f"set-ups: {len(setups)} (setup_s is their median); "
            f"speed probes: {len(meter.took)}"
        )
        lines.append(
            "times are at the reference speed (speed.py); by wall clock: "
            f"items_per_s = {_items_per_s(main.items, wall):.6g} 1/s, "
            f"call_ms_p50 = {statistics.median(wall) * 1e3:.6g} ms, "
            f"setup_s = {statistics.median(setup_wall):.6g} s; "
            f"wall / reference time = {sum(wall) / sum(scaled):.4g}"
        )
    lines.append(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} items)")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    return result, lines, tracer

"""Smoke test of the benchmark: each workload for one call, checked.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import signal
import sys
import types
from array import array

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _metric_names(kind):
    return {m["name"] for m in BENCHMARK[kind]}


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0)


def _run(workload, trace, tmp_path):
    # seconds=0: one call (one traced and one untraced with tracing).
    return harness.run(
        workload, seed=3, seconds=0, trace=trace, root=ROOT, outdir=str(tmp_path)
    )


def _leftover_wrappers():
    modules = [m for n, m in sys.modules.items() if n == "rwkit" or n.startswith("rwkit.")]
    return [
        f"{m.__name__}.{attr}"
        for m in modules + [np.fft]
        for attr, value in vars(m).items()
        if "Tracer._wrap" in getattr(value, "__qualname__", "")
    ]


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_output_passes_reference_checks(workload, tmp_path):
    result, lines, _ = _run(workload, False, tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert any(line.startswith("failed_ratio = 0 ") for line in lines)
    assert set(result["metrics"]) == _metric_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_meter_scales_to_the_reference_speed_and_restores_the_signal():
    meter = speed.Meter()
    with meter:
        pass
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.took) >= 2
    # A probe per 0.1 s, each handler run 3 ms, each timed probe 2 ms:
    # the host runs at half the reference speed.
    meter.start = array("d", [100.0 + 0.1 * k for k in range(20)])
    meter.busy = array("d", [0.003] * 20)
    meter.took = array("d", [2 * speed.REFERENCE_S] * 20)
    # Ten handler runs fall inside [100.05, 101.05].
    assert meter.wall(100.05, 101.05) == pytest.approx(1.0 - 0.03)
    assert meter.scaled(100.05, 101.05) == pytest.approx((1.0 - 0.03) / 2)


def test_trace_reports_every_layer_and_does_not_leak(tmp_path):
    result, _, tracer = _run("eval-dft", True, tmp_path)
    assert result["failed"] == 0
    assert set(result["metrics"]) == _metric_names("per_layer")
    assert result["metrics"]["reconstruct.ista_iterations"]["value"] == 2 * 49
    assert result["metrics"]["defect.sparsity_defect.calls"]["value"] == 1
    assert not tracer.installed and not _leftover_wrappers()
    spans = len(tracer.start)
    assert spans > 0
    _run("eval-dft", False, tmp_path)
    assert len(tracer.start) == spans and not _leftover_wrappers()


def test_checks_reject_wrong_outputs(tmp_path):
    wl = WORKLOADS["eval-dft"]()
    wl.workdir = str(tmp_path)
    spec = wl.spec(5)
    rows = [dict(r) for r in wl.reference[5]]
    rows[2]["mean_defect"] = repr(float(rows[2]["mean_defect"]) * (1 + 1e-6))
    with open(spec.out, "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        fh.writelines(",".join(r.values()) + "\n" for r in rows)
    assert wl.check(spec, 0) == wl.config["count"]
    assert wl.check(spec, 3) == spec.items

    radius = WORKLOADS["radius"]()
    ref = radius.reference[7]
    moved = types.SimpleNamespace(
        radius=ref["radius"] + 1.5 * radius.settings["tol"],
        flip_found=ref["flip_found"],
        trials=ref["trials"],
    )
    assert radius.check(radius.spec(7), moved) == 1

    # A purified image that moves one entry, or gains an imaginary part.
    image = WORKLOADS["image-db4"]()
    image.setup(harness.load_program(), 3, str(tmp_path))
    spec = image.prepare(0)
    assert image.check(spec, image.call(spec)) == 0
    with open(spec.out) as fh:
        good = fh.read().splitlines()
    first = next(i for i, ln in enumerate(good) if ln[0].isdigit())
    index, real, imag = good[first].split(",")
    for row in (
        f"{index},{float(real) * (1 + 1e-6) + 1e-6!r},{imag}",
        f"{index},{real},{1e-6!r}",
    ):
        with open(spec.out, "w") as fh:
            fh.write("\n".join(good[:first] + [row] + good[first + 1:]) + "\n")
        assert image.check(spec, 0) == 1

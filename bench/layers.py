"""Per-layer timings of rwkit, written to ``BENCH_<label>.json``.

Run from the repository root, with the rwkit to be timed importable::

    PYTHONPATH=src python3 bench/layers.py --label mylabel

Each layer is one call of the kernel that does its work, on fixed inputs
made from fixed seeds: 64 rows of n = 128, or one 64x64 image, one row of
n = 128 at the ``radius`` workload's settings, and the shipped configs for
``run_eval`` and ``gen_data``.  Every layer is called
once before timing.  Then, for ``--repeats`` rounds, each layer is timed
once per round, forward in even rounds and backward in odd ones, so that a
drift in host speed falls on every layer alike.  A sample is the mean time
of as many calls as fill ``--min-time`` seconds; the file gives each
layer's median and interquartile range over the rounds, in microseconds,
with the host, Python and numpy it ran on.

Why this lives in ``bench/`` and not in ``perfbench/``: ``perfbench/`` is
the benchmark of record, which a change that claims a gain may not edit.
Here, any change that moves a layer can keep this script current, and a
tier-1 test runs it, so renaming a private kernel it names fails in the
same change instead of leaving a metric that reads 0.
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from rwkit import certify, classifier, cli, config, data, defect, frames, reconstruct, sensing

ROWS, N, SIDE = 64, 128, 64


def _cpu():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def layers():
    """(name, what it times, zero-argument call) for every layer."""
    rng = np.random.default_rng(0)
    dataset = data.gen_data(N, ROWS, 4, 0)
    xs = np.asarray(dataset.signals)
    probes = rng.standard_normal((ROWS, N))
    xs_probed = xs + 0.05 * probes / np.linalg.norm(probes, axis=1, keepdims=True)
    states = sensing._states(0, np.stack([np.arange(ROWS), np.zeros(ROWS, dtype=int)], axis=1))
    mask = sensing._masks(states, (N,), 0.5)
    z = rng.standard_normal((ROWS, N)) + 1j * rng.standard_normal((ROWS, N))
    image = rng.standard_normal((1, SIDE, SIDE)) + 0j
    out = []

    def add(name, what, call):
        out.append((name, what, call))

    add("sensing._masks", f"{ROWS} masks of n={N}, q=0.7494", lambda: sensing._masks(states, (N,), 0.7494))
    # One operator: its mask's draw, check and read-only copy.
    add(
        "sensing.make_partial_fourier",
        f"one operator of n={N}, q=0.5, seed 0",
        lambda: sensing.make_partial_fourier(N, 0.5, 0),
    )
    add("frames._fft", f"{ROWS}x{N} complex", lambda: frames._fft(z))
    add("frames._ifft", f"{ROWS}x{N} complex", lambda: frames._ifft(z))
    mag = np.abs(z)
    u, f = np.empty_like(z), np.empty_like(mag)

    def shrink():
        np.copyto(u, z)
        return frames._shrink(u, mag, 0.02, f)

    add("frames._shrink", f"{ROWS}x{N} complex, lam 0.02, with a copy in", shrink)
    for kind in ("haar-dwt", "db4-dwt"):
        for shape, batch in (((N,), z.copy()), ((SIDE, SIDE), image.copy())):
            analyze, synthesize = frames._step_transforms(frames.Frame(kind=kind, levels=3), shape)
            size = "x".join(map(str, batch.shape))
            add(f"frames.analyze.{kind}-3.{len(shape)}d", f"{size}, in place", lambda a=analyze, b=batch: a(b))
            add(f"frames.synthesize.{kind}-3.{len(shape)}d", size, lambda s=synthesize, b=batch: s(b))
    y = sensing._apply_batch(mask, xs_probed)
    # The loop, under the error state its callers hold for it.
    ista = frames._solve_errstate(reconstruct._ista_coefficients)
    for cap in (1, 100):
        params = reconstruct.ReconstructionParams(
            iterations=cap, threshold=0.002, subsample_prob=0.5, frame=frames.Frame(kind="identity")
        )
        add(
            f"reconstruct._ista_coefficients.cap{cap}",
            f"identity, {ROWS} probed rows, lam 0.002, q 0.5, cap {cap}",
            lambda p=params: ista(y, mask, p),
        )
    identity = frames.Frame(kind="identity")
    add("defect._l1_batch", f"identity, {ROWS} rows", lambda: defect._l1_batch(mask, xs, identity))
    dft = frames.Frame(kind="unitary-dft")
    add("defect._l1_batch.unitary-dft", f"unitary-dft, {ROWS} rows", lambda: defect._l1_batch(mask, xs, dft))
    # The label pass of one eval block, and one exact certificate.
    clf_rows = dataset.classifier
    add(
        "classifier.labels",
        f"labels and margins of {ROWS} probed rows of n={N}",
        lambda: classifier._label_margin(clf_rows, xs_probed),
    )
    add(
        "classifier.linear_certificate",
        "one call at a gen_data row: alpha 4, rho 0.05, defect 0.01",
        lambda: classifier.linear_certificate(clf_rows, xs[0], 4.0, 0.05, 0.01),
    )
    add(
        "certify.certify_probabilistic",
        "the shipped constants at epsilon 0.05, defect 0.7",
        lambda: certify.certify_probabilistic(0.99, 4.0, 0.05, 0.5, 0.05, 0.7),
    )
    # One bisection level: the clean label and 5 probes at a radius that
    # flips nothing, through a defend pipeline at the radius workload's
    # settings, so 6 purifies of one row.
    sample = data.gen_data(N, 1, 4, 0, margin_floor=0.1)
    clf, x0 = sample.classifier, sample.signals[0]
    radius_params = reconstruct.ReconstructionParams(
        iterations=100, threshold=0.02, subsample_prob=0.5, frame=identity
    )
    pipeline = lambda v: reconstruct.defend(clf, v, radius_params, 7)
    # One purify of the radius workload, bare: a probe at radius 0.2 through
    # its mask (seed 7), a row that runs every step of the 100-step cap, so
    # that the two caps give the cost of a one-row step.
    one_mask = sensing._masks([sensing._state(7)], (N,), 0.5)
    one_y = sensing._apply_batch(one_mask, np.asarray(x0)[None] + 0.2 * probes[:1] / np.linalg.norm(probes[0]))
    for cap in (1, 100):
        params = reconstruct.ReconstructionParams(iterations=cap, threshold=0.02, subsample_prob=0.5, frame=identity)
        if ista(one_y, one_mask, params)[1][0] != cap:
            raise RuntimeError("the one-row layer's row stops before its cap")
        add(
            f"reconstruct._ista_coefficients.one-row.cap{cap}",
            f"identity, 1 probed row, lam 0.02, q 0.5, cap {cap}",
            lambda p=params: ista(one_y, one_mask, p),
        )
    add(
        "classifier.empirical_robust_radius.level",
        "identity, 100 steps, lam 0.02, q 0.5: the label and 5 probes at radius 1e-3",
        lambda: classifier.empirical_robust_radius(pipeline, x0, probes=5, tol=1e-3, radius_ceiling=1e-3),
    )
    shipped = config.ExperimentConfig()
    eval_identity = config.ExperimentConfig(
        frame="identity", iterations=500, threshold=0.002, subsample_prob=0.5, count=4
    )
    add("cli.run_eval.shipped", "the shipped config, seed 0", lambda: cli.run_eval(shipped, 0))
    add(
        "cli.run_eval.eval-identity",
        "identity, 500 steps, lam 0.002, q 0.5, count 4, seed 0",
        lambda: cli.run_eval(eval_identity, 0),
    )
    add(
        "data.gen_data.shipped",
        "n 128, count 50, k 4, margin floor 1e-3, seed 0",
        lambda: data.gen_data(shipped.n, shipped.count, shipped.sparsity, 0, shipped.margin_floor, 0),
    )
    return out


def _sample(call, number):
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number


def measure(repeats, min_time):
    """{layer: summary} over ``repeats`` alternating rounds."""
    table = layers()
    numbers = {}
    for name, _, call in table:
        first = _sample(call, 1)  # the warm-up call
        numbers[name] = max(1, int(np.ceil(min_time / first))) if first > 0 else 1
    samples = {name: [] for name, _, _ in table}
    for r in range(repeats):
        for name, _, call in table if r % 2 == 0 else table[::-1]:
            samples[name].append(_sample(call, numbers[name]) * 1e6)
    result = {}
    for name, what, _ in table:
        q1, median, q3 = np.percentile(samples[name], [25, 50, 75])
        result[name] = {
            "what": what,
            "median_us": float(median),
            "iqr_us": float(q3 - q1),
            "calls_per_sample": numbers[name],
        }
    return result


def derived(result):
    """Figures read off the layer medians."""
    cap1 = result["reconstruct._ista_coefficients.cap1"]["median_us"]
    cap100 = result["reconstruct._ista_coefficients.cap100"]["median_us"]
    step = (cap100 - cap1) / 99
    one_row = "reconstruct._ista_coefficients.one-row.cap"
    return {
        "ista_step_us": step,
        "ista_setup_us": cap1 - step,
        "ista_step_us_one_row": (result[f"{one_row}100"]["median_us"] - result[f"{one_row}1"]["median_us"]) / 99,
        "gen_data_share_of_shipped_run_eval": (
            result["data.gen_data.shipped"]["median_us"] / result["cli.run_eval.shipped"]["median_us"]
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--repeats", type=int, default=21, help="alternating rounds (default 21)")
    parser.add_argument("--min-time", type=float, default=0.02, help="seconds per sample (default 0.02)")
    parser.add_argument("--out-dir", default=os.path.dirname(os.path.abspath(__file__)))
    args = parser.parse_args(argv)
    if args.repeats < 1 or not args.min_time >= 0:
        parser.error("--repeats must be >= 1 and --min-time >= 0")
    result = measure(args.repeats, args.min_time)
    report = {
        "label": args.label,
        "host": {
            "node": platform.node(),
            "cpu": _cpu(),
            "cpus": os.cpu_count(),
            "system": platform.platform(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": args.repeats,
        "min_time_s": args.min_time,
        "layers": result,
        "derived": derived(result),
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

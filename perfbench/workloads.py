"""The benchmark's workloads.

Every workload pins each config key rwkit knows, so a later change to a
default cannot change what it runs.  It makes its inputs from the run seed and
enters rwkit only through ``rwkit.cli.main`` or through
``rwkit.classifier.empirical_robust_radius`` with a per-signal pipeline.
Each call's output is checked against a reference:

* ``eval-*`` and ``radius`` use a pool of cases whose outputs were recorded
  from rwkit at its first benchmarked commit (``reference/*.json``, written by
  ``make_reference.py``); the run seed picks the order in which cases are run.
* ``image-db4`` makes a fresh image per call and checks it against the
  independent rewrite in ``oracle.py``.

A workload's life is ``setup`` (once per set-up, including one warm-up item)
and then ``prepare`` (untimed input generation), ``call`` (the timed program
call) and ``check`` (untimed; returns the number of failed items) per call.
"""

import contextlib
import functools
import io
import json
import math
import os
import types

import numpy as np

import oracle

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Outputs may move by round-off (a closed-form purifier, another summation
# order) but not more: reconstruction errors, defects and purified arrays
# must agree with the reference to RTOL relative (ATOL absolute near zero).
RTOL = 1e-8
ATOL = 1e-12

# Every key of rwkit's ExperimentConfig, at the values it shipped with.
PINNED_CONFIG = {
    "frame": "unitary-dft",
    "levels": 0,
    "threshold": 0.11,
    "iterations": 49,
    "subsample_prob": 0.7494,
    "defect_bound": 1.0,
    "bregman_lambda": 0.5,
    "defect_tolerance": 1e-06,
    "defect_max_iterations": 10000,
    "defect_operators": 1,
    "alpha": 4.0,
    "rho": 0.05,
    "tau": 0.5,
    "rwp_prob": 0.99,
    "n": 128,
    "count": 50,
    "sparsity": 4,
    "weights_seed": 0,
    "margin_floor": 0.001,
    "master_seed": 0,
    "epsilon_grid": "0.01,0.02,0.05,0.1",
}


def close(a, b):
    """a and b agree to the stated tolerance (NaN matches only NaN)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _write_config(path, config):
    with open(path, "w") as fh:
        fh.write("".join(f"{k}={v}\n" for k, v in config.items()))


def _quiet(fn, *args):
    # rwkit's CLI prints the output path; keep the benchmark's stdout clean.
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def load_reference(name):
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


class _PooledWorkload:
    """A workload whose cases come from a reference pool, in seeded order."""

    pool = 0

    def setup(self, rw, seed, workdir):
        self.rw = rw
        self.workdir = workdir
        self.order = np.random.default_rng(seed).permutation(self.pool)

    @functools.cached_property
    def reference(self):
        ref = load_reference(self.name)
        if ref["config"] != self.describe() or len(ref["cases"]) != self.pool:
            raise RuntimeError(f"{self.name}: reference file does not match the workload")
        return ref["cases"]

    def prepare(self, i):
        return self.spec(int(self.order[i % self.pool]))


class EvalWorkload(_PooledWorkload):
    """``rwkit eval`` through ``rwkit.cli.main``; an item is one report cell."""

    pool = 64

    def __init__(self, name, **overrides):
        self.name = name
        self.config = dict(PINNED_CONFIG, **overrides)
        self.epsilons = self.config["epsilon_grid"].split(",")
        self.items_per_call = self.config["count"] * len(self.epsilons)

    def describe(self):
        return self.config

    @property
    def config_path(self):
        return os.path.join(self.workdir, f"{self.name}.cfg")

    def setup(self, rw, seed, workdir):
        super().setup(rw, seed, workdir)
        _write_config(self.config_path, self.config)
        # The warm-up item: one sample at one epsilon, outside the pool.
        warm = dict(self.config, count=1, epsilon_grid=self.epsilons[0])
        warm_path = os.path.join(workdir, f"{self.name}-warm.cfg")
        _write_config(warm_path, warm)
        out = os.path.join(workdir, "warm.csv")
        argv = ["eval", "--config", warm_path, "--seed", str(seed), "--out", out]
        if _quiet(rw.cli.main, argv) != 0:
            raise RuntimeError(f"{self.name}: warm-up eval failed")

    def spec(self, case):
        out = os.path.join(self.workdir, "report.csv")
        argv = ["eval", "--config", self.config_path, "--seed", str(case), "--out", out]
        return types.SimpleNamespace(case=case, items=self.items_per_call, argv=argv, out=out)

    def call(self, spec):
        return _quiet(self.rw.cli.main, spec.argv)

    def output(self, spec, rc):
        """The report rows, as text by column name."""
        if rc != 0:
            raise RuntimeError(f"{self.name}: rwkit eval exited with {rc}")
        with open(spec.out) as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        header = lines[0].split(",")
        return [dict(zip(header, ln.split(","))) for ln in lines[1:]]

    def check(self, spec, rc):
        """Failed items: every cell of a row that differs from the reference."""
        if rc != 0:
            return spec.items
        rows = self.output(spec, rc)
        ref_rows = self.reference[spec.case]
        per_row = self.config["count"]
        failed = per_row * abs(len(rows) - len(ref_rows))
        for row, ref in zip(rows, ref_rows):
            exact = all(
                float(row[c]) == float(ref[c])
                for c in ("epsilon", "seed", "clean_accuracy", "defended_accuracy_under_probe")
            )
            near = all(
                close(float(row[c]), float(ref[c]))
                for c in ("mean_reconstruction_error", "mean_defect")
            )
            if not (exact and near):
                failed += per_row
        return failed


class ImageWorkload:
    """One ``rwkit purify`` of a fresh 64x64 db4-sparse image per call."""

    name = "image-db4"
    size = 64
    nonzeros = 64

    def __init__(self):
        self.config = dict(
            PINNED_CONFIG,
            frame="db4-dwt",
            levels=3,
            iterations=50,
            threshold=0.01,
            subsample_prob=0.5,
        )

    def setup(self, rw, seed, workdir):
        self.rw = rw
        self.seed = seed
        self.workdir = workdir
        self.dwt = oracle.Db4(self.size, self.config["levels"])
        self.config_path = os.path.join(workdir, f"{self.name}.cfg")
        _write_config(self.config_path, self.config)
        warm = self.prepare(-1)
        if self.call(warm) != 0:
            raise RuntimeError(f"{self.name}: warm-up purify failed")

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, i + 1])
        image = oracle.sparse_image(rng, self.dwt, self.nonzeros)
        operator_seed = int(rng.integers(2**31))
        inp = os.path.join(self.workdir, "image.csv")
        out = os.path.join(self.workdir, "purified.csv")
        self.rw.io.write_signal(inp, image)
        argv = ["purify", "--config", self.config_path, "--in", inp,
                "--seed", str(operator_seed), "--out", out]
        return types.SimpleNamespace(
            items=1, image=image, operator_seed=operator_seed, argv=argv, out=out
        )

    def call(self, spec):
        return _quiet(self.rw.cli.main, spec.argv)

    def check(self, spec, rc):
        if rc != 0:
            return 1
        with open(spec.out) as fh:
            rows = [ln.split(",") for ln in fh if ln[0].isdigit()]
        value = np.array([float(r[1]) for r in rows]).reshape(spec.image.shape)
        imag = np.array([float(r[2]) for r in rows])
        ref = oracle.purify(
            spec.image,
            spec.operator_seed,
            self.config["subsample_prob"],
            self.config["iterations"],
            self.config["threshold"],
            self.dwt,
        )
        # The purified image of a real input is real: its imag column is zero.
        tol = RTOL * np.max(np.abs(ref)) + ATOL
        return int(np.max(np.abs(value - ref)) > tol or np.max(np.abs(imag)) > ATOL)


class RadiusWorkload(_PooledWorkload):
    """``empirical_robust_radius`` over a ``defend`` pipeline on one signal."""

    name = "radius"
    pool = 128
    settings = {
        "n": 128,
        "sparsity": 4,
        "dataset_seed": 0,
        "weights_seed": 0,
        "margin_floor": 0.1,
        "frame": "identity",
        "iterations": 100,
        "threshold": 0.02,
        "subsample_prob": 0.5,
        "probes": 5,
        "tol": 0.02,
        "radius_ceiling": 100.0,
    }

    def describe(self):
        return self.settings

    def setup(self, rw, seed, workdir):
        super().setup(rw, seed, workdir)
        s = self.settings
        self.dataset = rw.data.gen_data(
            s["n"], self.pool, s["sparsity"], s["dataset_seed"],
            margin_floor=s["margin_floor"], weights_seed=s["weights_seed"],
        )
        self.params = rw.reconstruct.ReconstructionParams(
            iterations=s["iterations"],
            threshold=s["threshold"],
            subsample_prob=s["subsample_prob"],
            frame=rw.frames.Frame(kind=s["frame"]),
        )
        # The warm-up item is case 0 for every seed, so that setup_s does not
        # depend on which case a seed puts last (radii take 66 to 101 trials).
        self.call(self.spec(0))

    def spec(self, case):
        return types.SimpleNamespace(case=case, items=1)

    def call(self, spec):
        rw, s = self.rw, self.settings
        clf = self.dataset.classifier
        x = self.dataset.signals[spec.case]
        operator_seed = np.random.SeedSequence(s["dataset_seed"], spawn_key=(7, spec.case))
        params = self.params
        pipeline = lambda z: rw.reconstruct.defend(clf, z, params, operator_seed)
        return rw.classifier.empirical_robust_radius(
            pipeline, x, probes=s["probes"], tol=s["tol"], seed=spec.case,
            radius_ceiling=s["radius_ceiling"],
        )

    def output(self, spec, measured):
        return {
            "radius": float(measured.radius),
            "flip_found": bool(measured.flip_found),
            "trials": int(measured.trials),
        }

    def check(self, spec, measured):
        got, ref = self.output(spec, measured), self.reference[spec.case]
        ok = (
            got["flip_found"] == ref["flip_found"]
            and abs(got["radius"] - ref["radius"]) <= self.settings["tol"]
        )
        return int(not ok)


WORKLOADS = {
    "eval-dft": lambda: EvalWorkload("eval-dft"),
    "eval-identity": lambda: EvalWorkload(
        "eval-identity",
        frame="identity",
        iterations=500,
        threshold=0.002,
        subsample_prob=0.5,
        count=4,
    ),
    "image-db4": ImageWorkload,
    "radius": RadiusWorkload,
}

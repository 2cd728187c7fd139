"""Replay of the benchmark's ``eval-identity`` and ``radius`` reference pools.

``perfbench/reference/eval-identity.json`` holds the report rows that 64
``rwkit eval`` runs gave at the benchmark's first commit.  Each case is run
again through ``rwkit.cli.main`` and held to the benchmark's own rule:
accuracies, epsilons and seeds exactly, reconstruction errors and defects
to 1e-8 relative (1e-12 absolute near zero).

``perfbench/reference/radius.json`` holds the robust radii that 128
``empirical_robust_radius`` runs over a ``defend`` pipeline gave there.
Every 4th case is run again with the benchmark's seeds and held to more
than its rule, which asks for ``flip_found`` exactly and the radius within
the run's ``tol``: ``flip_found``, ``trials`` and the radius must all equal
the pool's, as they do for all 128 cases.  A change that moves the label of one
probe of the bisection then fails here, even where the radius stays within
``tol``.  The files are only read.
"""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rwkit import Frame, ReconstructionParams, defend, empirical_robust_radius, gen_data
from rwkit.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
RTOL = 1e-8
ATOL = 1e-12
EXACT = ("epsilon", "seed", "clean_accuracy", "defended_accuracy_under_probe")
NEAR = ("mean_reconstruction_error", "mean_defect")


@functools.lru_cache(maxsize=None)
def reference(name="eval-identity"):
    return json.loads((REFERENCE / f"{name}.json").read_text())


def close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "eval-identity.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in reference()["config"].items()))
    return path


@pytest.mark.parametrize("case", range(64))
def test_eval_identity_case_matches_the_reference_pool(config_path, tmp_path, case):
    cases = reference()["cases"]
    assert len(cases) == 64
    out = tmp_path / "report.csv"
    assert main(["eval", "--config", str(config_path), "--seed", str(case), "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    columns = lines[0].split(",")
    rows = [dict(zip(columns, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == len(cases[case])
    for row, want in zip(rows, cases[case]):
        for column in EXACT:
            assert float(row[column]) == float(want[column]), column
        for column in NEAR:
            assert close(float(row[column]), float(want[column])), column


@functools.lru_cache(maxsize=None)
def radius_setup():
    # The pool's dataset and reconstruction parameters, one signal per case.
    c = reference("radius")["config"]
    dataset = gen_data(
        c["n"], len(reference("radius")["cases"]), c["sparsity"], c["dataset_seed"],
        margin_floor=c["margin_floor"], weights_seed=c["weights_seed"],
    )
    params = ReconstructionParams(
        iterations=c["iterations"], threshold=c["threshold"],
        subsample_prob=c["subsample_prob"], frame=Frame(kind=c["frame"]),
    )
    return dataset, params


@pytest.mark.parametrize("case", range(0, 128, 4))
def test_radius_case_matches_the_reference_pool(case):
    c = reference("radius")["config"]
    want = reference("radius")["cases"][case]
    dataset, params = radius_setup()
    clf = dataset.classifier
    operator_seed = np.random.SeedSequence(c["dataset_seed"], spawn_key=(7, case))
    measured = empirical_robust_radius(
        lambda z: defend(clf, z, params, operator_seed),
        dataset.signals[case],
        probes=c["probes"],
        tol=c["tol"],
        seed=case,
        radius_ceiling=c["radius_ceiling"],
    )
    assert measured.flip_found == want["flip_found"]
    assert measured.trials == want["trials"]
    assert measured.radius == want["radius"]

"""Replay of the benchmark's ``eval-identity`` reference pool.

``perfbench/reference/eval-identity.json`` holds the report rows that 64
``rwkit eval`` runs gave at the benchmark's first commit.  Each case is run
again through ``rwkit.cli.main`` and held to the benchmark's own rule:
accuracies, epsilons and seeds exactly, reconstruction errors and defects
to 1e-8 relative (1e-12 absolute near zero).  The file is only read.
"""

import functools
import json
import math
from pathlib import Path

import pytest

from rwkit.cli import main

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "eval-identity.json"
RTOL = 1e-8
ATOL = 1e-12
EXACT = ("epsilon", "seed", "clean_accuracy", "defended_accuracy_under_probe")
NEAR = ("mean_reconstruction_error", "mean_defect")


@functools.lru_cache(maxsize=None)
def reference():
    return json.loads(POOL.read_text())


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

"""bench/layers.py names private kernels, and bench/radius_minimiser.py drives
the benchmark's `radius` workload; a short run of each here turns a rename
they depend on into a failure instead of a number that reads 0."""

import importlib.util
import json
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

LAYERS = {
    "sensing._masks",
    "sensing.make_partial_fourier",
    "frames._fft",
    "frames._ifft",
    "frames._shrink",
    *(
        f"frames.{op}.{kind}-3.{d}d"
        for op in ("analyze", "synthesize")
        for kind in ("haar-dwt", "db4-dwt")
        for d in (1, 2)
    ),
    "reconstruct._ista_coefficients.cap1",
    "reconstruct._ista_coefficients.cap100",
    "reconstruct._ista_coefficients.one-row.cap1",
    "reconstruct._ista_coefficients.one-row.cap100",
    "reconstruct.defend",
    "reconstruct._ista_coefficients.labelled",
    "defect._l1_batch",
    "defect._l1_batch.unitary-dft",
    "classifier.labels",
    "classifier.linear_certificate",
    "certify.certify_probabilistic",
    "classifier.empirical_robust_radius.level",
    "cli.run_eval.shipped",
    "cli.run_eval.eval-identity",
    "data.gen_data.shipped",
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_round_times_every_layer(tmp_path, capsys):
    layers = load("layers")
    argv = ["--label", "t", "--repeats", "1", "--min-time", "0", "--out-dir", str(tmp_path)]
    assert layers.main(argv) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "BENCH_t.json")
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(report["layers"]) == LAYERS
    assert all(row["median_us"] > 0 for row in report["layers"].values())
    assert report["derived"]["gen_data_share_of_shipped_run_eval"] > 0
    assert report["derived"]["ista_step_us_one_row"] > 0
    assert {"python", "numpy", "host", "repeats"} <= set(report)


def test_radius_minimiser_measures_one_case(capsys):
    minimiser = load("radius_minimiser")
    assert minimiser.main(["--cases", "1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] > 1
    assert list(summary["caps"]) == [str(cap) for cap in minimiser.CAPS]
    medians = [row["median"] for row in summary["caps"].values()]
    assert 0 < medians[-1] < medians[0]
    # defend's solves stop once the label is proven, short of the full solves.
    assert 0 < summary["defend_steps"] / summary["full_solve_steps"] < 1

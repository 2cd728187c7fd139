"""Acceptance suite.

Each test enforces one of the toolkit's acceptance criteria, including the
stated runtime budgets:

1. frame round-trip/Parseval correctness,
2. sensing algebra (masked-Fourier identity and projection idempotence),
3. sparse recovery at the oracle-calibrated threshold,
4. linear-in-epsilon reconstruction-error growth (rank correlation),
5. the closed-form defect vs. the exhaustive oracle,
6. certification arithmetic,
7. end-to-end defense (robust radius and clean accuracy),
8. byte-identical eval reports: a fixed config must reproduce a recorded
   report, and each recording differs from the one it replaced only as its
   report version says (v1 -> v2: round-off and the v1 defect solver's
   error; v3 -> v4: the dropped cert_radius column).

Criterion 9: large-scale image-classification accuracy tables are out of
scope by design and are replaced by criteria 3-7; nothing to execute.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from rwkit import (
    DefectParams,
    Frame,
    ReconstructionParams,
    adjoint,
    analyze,
    apply,
    certify_probabilistic,
    coefficient_defect,
    defect_budget,
    defend,
    derived_seed,
    empirical_robust_radius,
    gen_data,
    kappa,
    linear_certificate,
    make_partial_fourier,
    margin,
    min_perturbation,
    parse_config,
    partial_fourier_rwp,
    performance_bound,
    predict,
    purify,
    rip_from_rwp,
    robustness_gain,
    synthesize,
)
from rwkit.classifier import LinearClassifier
from rwkit.cli import main as cli_main

from oracles import basis_pursuit, brute_force_defect

IDENTITY = Frame(kind="identity")
DATA_DIR = Path(__file__).parent / "data"


def elapsed_guard(start, budget_seconds):
    assert time.monotonic() - start < budget_seconds


def random_signal(shape, seed):
    rng = np.random.default_rng(derived_seed(seed, 90))
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def sparse_signal(n, k, seed):
    rng = np.random.default_rng(derived_seed(seed, 91))
    x = np.zeros(n)
    x[rng.choice(n, k, replace=False)] = rng.choice([-1.0, 1.0], k)
    return x


def test_criterion_1_frame_correctness():
    start = time.monotonic()
    sizes_1d = (8, 64, 256, 1024)
    sizes_2d = ((16, 16), (64, 64))
    for n in sizes_1d:
        levels = min(3, int(np.log2(n)))
        frames = [Frame(kind="identity"), Frame(kind="unitary-dft"),
                  Frame(kind="haar-dwt", levels=levels)]
        if n >= 16:
            frames.append(Frame(kind="db4-dwt", levels=1))
        for frame in frames:
            for seed in range(100):
                x = random_signal(n, seed)
                back = synthesize(frame, analyze(frame, x))
                assert np.max(np.abs(back - x)) <= 1e-10
                if frame.kind != "identity":
                    assert abs(np.linalg.norm(analyze(frame, x)) - np.linalg.norm(x)) <= 1e-10
    for shape in sizes_2d:
        for frame in (Frame(kind="unitary-dft"), Frame(kind="haar-dwt", levels=2),
                      Frame(kind="db4-dwt", levels=1)):
            for seed in range(100):
                x = random_signal(shape, seed)
                back = synthesize(frame, analyze(frame, x))
                assert np.max(np.abs(back - x)) <= 1e-10
                assert abs(np.linalg.norm(analyze(frame, x)) - np.linalg.norm(x)) <= 1e-10
    elapsed_guard(start, 10.0)


def test_criterion_2_sensing_algebra():
    start = time.monotonic()
    for seed in range(100):
        op = make_partial_fourier(64, 0.6, seed)
        y = op.mask * random_signal(64, seed)
        assert np.max(np.abs(apply(op, adjoint(op, y)) - y)) <= 1e-10
        x = random_signal(64, seed + 1000)
        once = adjoint(op, apply(op, x))
        twice = adjoint(op, apply(op, once))
        assert np.max(np.abs(twice - once)) <= 1e-10
    elapsed_guard(start, 5.0)


# The recovery threshold was calibrated against the LP basis-pursuit oracle
# before freezing: the oracle recovers these instances exactly, and the
# fixed-count iteration's error is linear in the threshold (about 4 * lambda
# at convergence), which puts the calibrated lambda = 0.002 at the 1e-2
# target with T = 500 iterations.
CALIBRATED_LAMBDA = 0.002
RECOVERY_ITERATIONS = 500


def test_criterion_3_sparse_recovery():
    start = time.monotonic()
    params = ReconstructionParams(
        iterations=RECOVERY_ITERATIONS,
        threshold=CALIBRATED_LAMBDA,
        subsample_prob=0.5,
        frame=IDENTITY,
    )
    errors = []
    for seed in range(50):
        x = sparse_signal(128, 4, seed)
        p = purify(x, params, seed)
        errors.append(np.linalg.norm(p.value - x))
    assert np.median(errors) <= 1e-2
    elapsed_guard(start, 60.0)


def test_criterion_3_oracle_prevalidation():
    # The independent LP oracle certifies that exact recovery is attainable
    # on this ensemble, so the 1e-2 bound tests the iteration, not the task.
    for seed in range(5):
        x = sparse_signal(128, 4, seed)
        op = make_partial_fourier(128, 0.5, seed)
        oracle = basis_pursuit(x, op.mask, IDENTITY)
        assert np.linalg.norm(oracle - x) <= 1e-8


def test_criterion_3_uncalibrated_threshold_characterization():
    # Characterization, not a target: at lambda = 0.02 the soft-threshold
    # bias dominates and the median error sits near 0.08, an order of
    # magnitude above the calibrated setting.  Kept as a regression guard on
    # the error-vs-threshold relationship.
    params = ReconstructionParams(
        iterations=RECOVERY_ITERATIONS, threshold=0.02, subsample_prob=0.5, frame=IDENTITY
    )
    errors = []
    for seed in range(10):
        x = sparse_signal(128, 4, seed)
        errors.append(np.linalg.norm(purify(x, params, seed).value - x))
    median = np.median(errors)
    assert 0.02 <= median <= 0.2


def test_criterion_4_linear_error_growth():
    start = time.monotonic()
    params = ReconstructionParams(
        iterations=RECOVERY_ITERATIONS,
        threshold=CALIBRATED_LAMBDA,
        subsample_prob=0.5,
        frame=IDENTITY,
    )
    grid = np.arange(1, 11) * 0.01
    passing = 0
    for seed in range(20):
        x = sparse_signal(128, 4, seed)
        rng = np.random.default_rng(derived_seed(seed, 92))
        direction = rng.standard_normal(128)
        direction /= np.linalg.norm(direction)
        errors = [
            np.linalg.norm(purify(x + eps * direction, params, seed).value - x)
            for eps in grid
        ]
        if spearmanr(grid, errors).statistic >= 0.9:
            passing += 1
    assert passing == 20
    elapsed_guard(start, 60.0)


def test_criterion_5_closed_form_defect_matches_oracle():
    start = time.monotonic()
    # worked values
    assert coefficient_defect(
        np.array([3.0]), DefectParams(solution_bound=1.0)
    ).defect == pytest.approx(2.0, abs=0.05)
    assert coefficient_defect(
        np.array([3.0, 1.0]), DefectParams(solution_bound=2.0)
    ).defect == pytest.approx(2.0, abs=0.05)
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = rng.integers(1, 4)
        w = rng.uniform(-3, 3, dim)
        budget = rng.uniform(0.5, 3.0)
        solver = coefficient_defect(w, DefectParams(solution_bound=budget)).defect
        oracle = brute_force_defect(w, budget, 0.01)
        assert abs(solver - oracle) <= 0.05
    elapsed_guard(start, 30.0)


def test_criterion_6_certification_arithmetic():
    start = time.monotonic()
    tol = 1e-12
    # kappa and its reductions
    assert abs(kappa(0.1, 4.0, 0.05, 0.0) - 0.5) <= tol
    assert abs(kappa(0.1, 2.0, 0.05, 0.0) - 1.0) <= tol
    assert abs(kappa(0.1, 4.0, 0.05, 0.2) - 0.9) <= tol
    # performance bound
    assert abs(performance_bound(0.1, 4.0, 0.05, 0.0) - 0.05) <= tol
    assert abs(performance_bound(0.1, 4.0, 0.05, 0.2) - 0.09) <= tol
    # defect budget
    assert abs(defect_budget(0.5, 0.2, 4.0, 0.05) - 2.0) <= tol
    # probabilistic certificate: probability q at zero expected defect
    assert abs(certify_probabilistic(0.99, 4.0, 0.05, 0.5, 0.2, 0.0).probability - 0.99) <= tol
    assert abs(certify_probabilistic(0.99, 4.0, 0.05, 0.5, 0.2, 0.1).probability - 0.94) <= tol
    # RWP parameter mapping and inverse
    p = partial_fourier_rwp(9, 0.1)
    assert abs(p.rho - 1.0) <= tol and abs(p.alpha - (1.0 / 3.0 - 0.1)) <= tol
    j, delta = rip_from_rwp(0.5, 0.1)
    assert abs(j - 36.0) <= tol and abs(delta - (1.0 / 3.0 - 0.1)) <= tol
    # robustness gain, including the alpha/2 form
    assert abs(robustness_gain(0.5) - 2.0) <= tol
    assert abs(robustness_gain(1.0) - 1.0) <= tol
    assert abs(robustness_gain(kappa(0.1, 5.0, 0.05, 0.0)) - 2.5) <= tol
    # linear classifier certificates
    clf = LinearClassifier(weights=np.array([1.0, 0.0]))
    cert = linear_certificate(clf, np.array([2.0, 0.0]), alpha=3.0, rho=0.05, defect=0.0)
    assert abs(cert.radius - 3.0) <= tol and abs(cert.gain - 1.5) <= tol
    assert linear_certificate(clf, np.array([0.0, 1.0]), alpha=3.0, rho=0.05, defect=0.0).radius == 0.0
    clf34 = LinearClassifier(weights=np.array([3.0, 4.0]))
    assert abs(margin(clf34, np.array([1.0, 1.0])) - 1.4) <= tol
    with_defect = linear_certificate(clf34, np.array([1.0, 1.0]), alpha=4.0, rho=0.05, defect=1.0)
    assert abs(with_defect.radius - 2.4) <= tol
    # predictions and the minimal perturbation
    assert predict(clf, np.array([2.0, 3.0])) == 1
    assert predict(clf, np.array([-2.0, 3.0])) == -1
    np.testing.assert_allclose(
        min_perturbation(clf, np.array([2.0, 3.0])), [-2.0, 0.0], atol=tol
    )
    elapsed_guard(start, 1.0)


def test_criterion_7_end_to_end_defense():
    start = time.monotonic()
    dataset = gen_data(128, 50, 4, 0, margin_floor=0.1, weights_seed=0)
    clf = dataset.classifier
    params = ReconstructionParams(
        iterations=100, threshold=0.02, subsample_prob=0.5, frame=IDENTITY
    )
    correct = 0
    dominating = 0
    for i, (x, label) in enumerate(zip(dataset.signals, dataset.labels)):
        seed = derived_seed(0, 7, i)
        correct += defend(clf, x, params, seed) == label
        pipeline = lambda z: defend(clf, z, params, seed)
        measured = empirical_robust_radius(
            pipeline, x, probes=5, tol=0.02, seed=i, radius_ceiling=100.0
        )
        undefended = margin(clf, x)
        if not measured.flip_found or measured.radius >= undefended - 1e-9:
            dominating += 1
    assert correct == 50  # defended clean accuracy 100%
    assert dominating >= 45  # radius dominates on >= 90% of samples
    elapsed_guard(start, 300.0)


CRITERION_8_CONFIG = (
    "n=64\ncount=8\nsparsity=3\niterations=60\nthreshold=0.002\n"
    "subsample_prob=0.6\nepsilon_grid=0.01,0.05\nmargin_floor=0.05\n"
)


def test_criterion_8_report_matches_recorded(tmp_path):
    # Reruns, batch sizes and refactors that keep the maths must not move a
    # single byte of the recorded report.
    start = time.monotonic()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CRITERION_8_CONFIG)
    out = tmp_path / "report.csv"
    assert cli_main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA_DIR / "criterion_8_report_v5.csv").read_bytes()
    elapsed_guard(start, 120.0)


def read_report(path):
    header, *lines = path.read_text().splitlines()
    columns = lines[0].split(",")
    return header, [dict(zip(columns, map(float, line.split(",")))) for line in lines[1:]]


def test_criterion_8_v2_report_differs_from_v1_only_by_the_solver_error():
    # v2 computes the defect and the unitary-dft purifier in closed form.
    # The purifier columns move by round-off at most.  The defect and the
    # certificate columns built on it move by the error the iterative v1
    # defect solver left (up to 7e-12 relative here); v2 matches the exact
    # defect, summed in extended precision, to round-off.
    v1_header, v1 = read_report(DATA_DIR / "criterion_8_report_v1.csv")
    v2_header, v2 = read_report(DATA_DIR / "criterion_8_report.csv")
    assert v1_header.startswith("# rwkit-report v1 ")
    assert v2_header.startswith("# rwkit-report v2 ")
    assert len(v1) == len(v2) and v1[0].keys() == v2[0].keys()
    for old, new in zip(v1, v2):
        for column in ("epsilon", "seed", "clean_accuracy", "defended_accuracy_under_probe"):
            assert new[column] == old[column]
        assert new["mean_reconstruction_error"] == pytest.approx(
            old["mean_reconstruction_error"], rel=1e-12
        )
        for column in ("mean_defect", "cert_radius", "cert_probability", "cert_gain"):
            assert new[column] == pytest.approx(old[column], rel=1e-11)

    cfg = parse_config(CRITERION_8_CONFIG)
    dataset = gen_data(cfg.n, cfg.count, cfg.sparsity, 0, margin_floor=cfg.margin_floor)
    frame = Frame(kind=cfg.frame, levels=cfg.levels)
    for eps_index, row in enumerate(v2):
        defects = []
        for i, x in enumerate(dataset.signals):
            operator_seed, _ = derived_seed(0, eps_index, i).spawn(2)
            op = make_partial_fourier(x.shape, cfg.subsample_prob, operator_seed)
            l1 = math.fsum(np.abs(analyze(frame, adjoint(op, x))))
            defects.append(max(0.0, l1 - cfg.defect_bound))
        assert row["mean_defect"] == pytest.approx(math.fsum(defects) / len(defects), rel=1e-14)


def test_criterion_8_v3_report_differs_from_v2_only_by_the_header():
    # v3 lets ISTA rows stop once a step moves them by round-off only.
    # Criterion 8 runs the unitary-dft frame, which is solved in closed form
    # without the loop, so every column keeps its v2 text.
    v2_header, *v2 = (DATA_DIR / "criterion_8_report.csv").read_text().splitlines()
    v3_header, *v3 = (DATA_DIR / "criterion_8_report_v3.csv").read_text().splitlines()
    assert v2_header.startswith("# rwkit-report v2 ")
    assert v3_header == v2_header.replace(" v2 ", " v3 ", 1)
    assert len(v3) == len(v2) and v3[0] == v2[0]
    columns = v2[0].split(",")
    for old, new in zip(v2[1:], v3[1:]):
        old, new = old.split(","), new.split(",")
        assert len(old) == len(new) == len(columns)
        for column, a, b in zip(columns, old, new):
            assert b == a, column


def test_criterion_8_v4_report_differs_from_v3_only_by_the_cert_radius_column():
    # v4 drops cert_radius, which only repeated epsilon, and computes the
    # certificate exactly.  Criterion 8's certificates round alike both ways,
    # so every other column keeps its v3 text.
    v3_header, *v3 = (DATA_DIR / "criterion_8_report_v3.csv").read_text().splitlines()
    v4_header, *v4 = (DATA_DIR / "criterion_8_report_v4.csv").read_text().splitlines()
    assert v3_header.startswith("# rwkit-report v3 ")
    assert v4_header == v3_header.replace(" v3 ", " v4 ", 1)
    assert len(v4) == len(v3)
    columns = v3[0].split(",")
    dropped = columns.index("cert_radius")
    assert v4[0].split(",") == columns[:dropped] + columns[dropped + 1 :]
    for old, new in zip(v3[1:], v4[1:]):
        old, new = old.split(","), new.split(",")
        assert len(old) == len(columns) and old[dropped] == old[columns.index("epsilon")]
        assert new == old[:dropped] + old[dropped + 1 :]


def test_criterion_8_v5_report_differs_from_v4_only_by_the_header():
    # v5 certifies epsilon 0 with gain 0 where v4 wrote NaN.  Criterion 8's
    # grid has no 0 and its certificates for epsilon > 0 are computed alike,
    # so every row keeps its v4 text.
    v4_header, *v4 = (DATA_DIR / "criterion_8_report_v4.csv").read_text().splitlines()
    v5_header, *v5 = (DATA_DIR / "criterion_8_report_v5.csv").read_text().splitlines()
    assert v4_header.startswith("# rwkit-report v4 ")
    assert v5_header == v4_header.replace(" v4 ", " v5 ", 1)
    assert v5 == v4


def test_criterion_9_out_of_scope_documented():
    # Large-scale image benchmarks are not reproducible at this scale and
    # are deliberately replaced by the property- and oracle-based criteria
    # above; this placeholder records that decision in the suite itself.
    assert True

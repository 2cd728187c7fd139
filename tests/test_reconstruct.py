import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.stats import spearmanr

from rwkit import (
    FRAME_KINDS,
    Frame,
    LinearClassifier,
    NumericError,
    ParameterError,
    ReconstructionParams,
    ShapeError,
    analyze,
    apply,
    defend,
    derived_seed,
    gen_data,
    ista_reconstruct,
    make_partial_fourier,
    margin,
    predict,
    purify,
    purify_many,
    soft_threshold,
)
from rwkit.frames import _analyze_batch, _synthesize_batch
from rwkit.sensing import _adjoint_batch, _apply_batch

IDENTITY = Frame(kind="identity")
DFT = Frame(kind="unitary-dft")


def ista_loop(y, mask, params):
    """Reference: the thresholded gradient loop, run step by step.

    Axis 0 of ``y`` and ``mask`` indexes rows.  The purifier runs this loop
    for every frame but unitary-dft, whose answer it computes in closed form.
    """
    frame = params.frame
    u = np.zeros(y.shape, dtype=np.complex128)
    for _ in range(params.iterations):
        residual = y - _apply_batch(mask, _synthesize_batch(frame, u))
        z = u + _analyze_batch(frame, _adjoint_batch(mask, residual))
        u = soft_threshold(z, params.threshold)
    return u


def assert_close_rel(got, want, rel=1e-12):
    # Entrywise within ``rel`` of the largest entry of ``want``.
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


def lp_basis_pursuit(y, op):
    """Independent oracle: L1-minimizing real signal matching the measurements.

    Solves min ||u||_1 subject to the masked unitary DFT of u equaling y,
    as a linear program over (u, t) with |u_i| <= t_i.
    """
    n = op.mask.size
    dft = np.fft.fft(np.eye(n), norm="ortho")
    rows = op.mask.astype(bool)
    a = dft[rows]
    c = np.concatenate([np.zeros(n), np.ones(n)])
    eye = np.eye(n)
    a_ub = np.block([[eye, -eye], [-eye, -eye]])
    a_eq = np.hstack([np.vstack([a.real, a.imag]), np.zeros((2 * a.shape[0], n))])
    b_eq = np.concatenate([y[rows].real, y[rows].imag])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(2 * n),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * n + [(0, None)] * n,
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x[:n]


def sparse_signal(n, k, seed):
    rng = np.random.default_rng(derived_seed(seed, 61))
    x = np.zeros(n)
    x[rng.choice(n, k, replace=False)] = rng.choice([-1.0, 1.0], k)
    return x


class TestReconstructionParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ReconstructionParams(iterations=0, threshold=0.1, subsample_prob=0.5, frame=IDENTITY)
        with pytest.raises(ParameterError):
            ReconstructionParams(iterations=1, threshold=-0.1, subsample_prob=0.5, frame=IDENTITY)
        with pytest.raises(ParameterError):
            ReconstructionParams(iterations=1, threshold=0.1, subsample_prob=1.5, frame=IDENTITY)


class TestIstaReconstruct:
    def test_one_lossless_step_recovers_exactly(self):
        # lambda=0, q=1, T=1: one exact gradient step from zero lands on the
        # coefficients and no shrinkage is applied.
        op = make_partial_fourier(32, 1.0, 0)
        x = np.random.default_rng(0).standard_normal(32)
        params = ReconstructionParams(iterations=1, threshold=0.0, subsample_prob=1.0, frame=IDENTITY)
        np.testing.assert_allclose(ista_reconstruct(apply(op, x), op, params), x, atol=1e-10)

    def test_zero_measurements_give_zero(self):
        op = make_partial_fourier(32, 0.5, 0)
        params = ReconstructionParams(iterations=10, threshold=0.1, subsample_prob=0.5, frame=IDENTITY)
        np.testing.assert_array_equal(ista_reconstruct(np.zeros(32), op, params), np.zeros(32))

    def test_shape_mismatch_rejected(self):
        op = make_partial_fourier(32, 0.5, 0)
        params = ReconstructionParams(iterations=1, threshold=0.0, subsample_prob=0.5, frame=IDENTITY)
        with pytest.raises(ShapeError):
            ista_reconstruct(np.zeros(16), op, params)

    def test_sparse_recovery_matches_lp_oracle(self):
        # The LP basis-pursuit oracle recovers exactly; the fixed-count
        # thresholded iteration must land within 1e-2 of the same answer.
        params = ReconstructionParams(iterations=500, threshold=0.002, subsample_prob=0.5, frame=IDENTITY)
        errs = []
        for seed in range(10):
            x = sparse_signal(128, 4, seed)
            op = make_partial_fourier(128, 0.5, seed)
            y = apply(op, x)
            oracle = lp_basis_pursuit(y, op)
            assert np.linalg.norm(oracle - x) <= 1e-8
            errs.append(np.linalg.norm(ista_reconstruct(y, op, params).real - x))
        assert np.median(errs) <= 1e-2


class TestPurify:
    def test_lossless_pipeline_is_identity(self):
        params = ReconstructionParams(iterations=1, threshold=0.0, subsample_prob=1.0, frame=IDENTITY)
        x = np.random.default_rng(1).standard_normal(64)
        result = purify(x, params, 0)
        np.testing.assert_allclose(result.value, x, atol=1e-10)
        assert result.iterations_run == 1

    def test_deterministic(self):
        params = ReconstructionParams(iterations=30, threshold=0.01, subsample_prob=0.6, frame=IDENTITY)
        x = sparse_signal(64, 3, 0)
        a = purify(x, params, 5)
        b = purify(x, params, 5)
        np.testing.assert_array_equal(a.value, b.value)
        assert a.final_coefficient_l1 == b.final_coefficient_l1

    def test_real_input_real_output_with_residual(self):
        params = ReconstructionParams(iterations=20, threshold=0.01, subsample_prob=0.6, frame=IDENTITY)
        result = purify(sparse_signal(64, 3, 2), params, 0)
        assert result.value.dtype == np.float64
        assert result.imag_residual >= 0.0

    def test_shrinkage_of_coefficient_l1(self):
        params = ReconstructionParams(iterations=200, threshold=0.01, subsample_prob=0.5, frame=IDENTITY)
        for seed in range(5):
            x = sparse_signal(128, 4, seed)
            result = purify(x, params, seed)
            assert result.final_coefficient_l1 <= np.sum(np.abs(analyze(IDENTITY, x))) + 1e-8

    def test_contracts_toward_sparse_signal(self):
        params = ReconstructionParams(iterations=500, threshold=0.002, subsample_prob=0.5, frame=IDENTITY)
        wins = 0
        for seed in range(10):
            x = sparse_signal(128, 4, seed)
            rng = np.random.default_rng(derived_seed(seed, 62))
            delta = rng.standard_normal(128)
            delta *= 0.1 / np.linalg.norm(delta)
            err = np.linalg.norm(purify(x + delta, params, seed).value - x)
            wins += err <= 0.1
        assert wins >= 9

    def test_error_monotone_in_noise(self):
        params = ReconstructionParams(iterations=500, threshold=0.002, subsample_prob=0.5, frame=IDENTITY)
        for seed in range(5):
            x = sparse_signal(128, 4, seed)
            rng = np.random.default_rng(derived_seed(seed, 63))
            direction = rng.standard_normal(128)
            direction /= np.linalg.norm(direction)
            grid = np.arange(1, 11) * 0.01
            errs = [
                np.linalg.norm(purify(x + eps * direction, params, seed).value - x)
                for eps in grid
            ]
            assert spearmanr(grid, errs).statistic >= 0.9

    def test_2d_signal(self):
        params = ReconstructionParams(iterations=1, threshold=0.0, subsample_prob=1.0, frame=IDENTITY)
        x = np.random.default_rng(3).standard_normal((16, 16))
        np.testing.assert_allclose(purify(x, params, 0).value, x, atol=1e-10)


SHAPES = {1: [(8,), (16,), (64,)], 2: [(8, 8), (8, 16), (16, 16)]}


@st.composite
def purify_batches(draw):
    kind = draw(st.sampled_from(FRAME_KINDS))
    levels = draw(st.integers(1, 3)) if kind.endswith("-dwt") else 0
    shape = draw(st.sampled_from(SHAPES[draw(st.sampled_from((1, 2)))]))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.standard_normal((rows,) + shape)
    if draw(st.booleans()):
        xs = xs + 1j * rng.standard_normal(xs.shape)
    params = ReconstructionParams(
        iterations=draw(st.integers(1, 6)),
        threshold=draw(st.sampled_from((0.0, 0.01, 0.3))),
        subsample_prob=draw(st.sampled_from((0.3, 0.7, 1.0))),
        frame=Frame(kind=kind, levels=levels),
    )
    seeds = [int(s) for s in rng.integers(0, 2**31, rows)]
    return xs, params, seeds


def assert_bit_identical(got, want):
    assert got.value.dtype == want.value.dtype
    assert got.value.shape == want.value.shape
    assert got.value.tobytes() == want.value.tobytes()
    assert (got.operator_seed, got.iterations_run) == (want.operator_seed, want.iterations_run)
    assert got.final_coefficient_l1 == want.final_coefficient_l1
    assert got.imag_residual == want.imag_residual


class TestPurifyMany:
    @settings(max_examples=80, deadline=None)
    @given(purify_batches())
    def test_rows_match_single_purify_bit_for_bit(self, case):
        xs, params, seeds = case
        batch = purify_many(xs, params, seeds)
        assert len(batch) == len(xs)
        for x, seed, got in zip(xs, seeds, batch):
            assert_bit_identical(got, purify(x, params, seed))

    def test_shared_operator_matches_its_seed(self):
        params = ReconstructionParams(iterations=20, threshold=0.01, subsample_prob=0.6, frame=IDENTITY)
        seed = derived_seed(3, 1)
        op = make_partial_fourier(64, 0.6, seed)
        x, probed = sparse_signal(64, 3, 1), sparse_signal(64, 3, 2)
        clean, attacked = purify_many([x, probed], params, [op, op])
        assert_bit_identical(clean, purify(x, params, seed))
        assert_bit_identical(attacked, purify(probed, params, seed))

    def test_empty_batch(self):
        params = ReconstructionParams(iterations=1, threshold=0.0, subsample_prob=0.5, frame=IDENTITY)
        assert purify_many([], params, []) == []

    def test_rejects_inconsistent_batches(self):
        params = ReconstructionParams(iterations=1, threshold=0.0, subsample_prob=0.5, frame=IDENTITY)
        with pytest.raises(ShapeError):
            purify_many([np.zeros(8), np.zeros(16)], params, [0, 1])
        with pytest.raises(ShapeError):
            purify_many([np.zeros(8)], params, [0, 1])
        with pytest.raises(ShapeError):
            purify_many([np.zeros(8)], params, [make_partial_fourier(16, 0.5, 0)])
        with pytest.raises(ParameterError):
            purify_many([np.zeros(8)], params, [make_partial_fourier(8, 0.7, 0)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_iterate_in_any_row_fails_the_batch(self):
        params = ReconstructionParams(iterations=3, threshold=0.0, subsample_prob=1.0, frame=IDENTITY)
        overflowing = np.full(64, 1e308)  # finite, but its DFT is not
        with pytest.raises(NumericError):
            purify_many([np.zeros(64), overflowing], params, [0, 1])


@st.composite
def dft_cases(draw):
    shape = draw(st.sampled_from(SHAPES[draw(st.sampled_from((1, 2)))]))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.standard_normal((rows,) + shape)
    if draw(st.booleans()):
        xs = xs + 1j * rng.standard_normal(xs.shape)
    params = ReconstructionParams(
        iterations=draw(st.sampled_from((1, 2, 49))),
        threshold=draw(st.sampled_from((0.0, 0.11, 0.3, 1.0))),
        subsample_prob=draw(st.sampled_from((0.3, 0.7494, 1.0))),
        frame=DFT,
    )
    seeds = [int(s) for s in rng.integers(0, 2**31, rows)]
    return xs, params, seeds


class TestUnitaryDftClosedForm:
    @settings(max_examples=80, deadline=None)
    @given(dft_cases())
    def test_purify_many_matches_the_loop(self, case):
        xs, params, seeds = case
        ops = [make_partial_fourier(xs.shape[1:], params.subsample_prob, s) for s in seeds]
        mask = np.stack([op.mask for op in ops])
        u = ista_loop(_apply_batch(mask, xs.astype(np.complex128)), mask, params)
        want = _synthesize_batch(DFT, u)
        for x, got, w, coeffs in zip(xs, purify_many(xs, params, seeds), want, u):
            assert got.iterations_run == params.iterations
            if np.isrealobj(x):
                assert got.value.dtype == np.float64
                assert got.imag_residual == pytest.approx(np.max(np.abs(w.imag)), abs=1e-12)
                w = w.real
            assert_close_rel(got.value, w)
            assert got.final_coefficient_l1 == pytest.approx(np.sum(np.abs(coeffs)), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(dft_cases())
    def test_ista_reconstruct_with_off_mask_measurements(self, case):
        xs, params, seeds = case
        op = make_partial_fourier(xs.shape[1:], params.subsample_prob, seeds[0])
        y = np.fft.fftn(xs[0], norm="ortho") + 0.5  # nonzero off the mask too
        u = ista_loop(y[None], op.mask[None], params)
        assert_close_rel(ista_reconstruct(y, op, params), _synthesize_batch(DFT, u)[0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_measurements_fail(self):
        params = ReconstructionParams(iterations=3, threshold=0.0, subsample_prob=1.0, frame=DFT)
        overflowing = np.full(64, 1e308)  # finite, but its DFT is not
        with pytest.raises(NumericError):
            purify_many([np.zeros(64), overflowing], params, [0, 1])


class TestDefend:
    def test_lossless_defense_equals_classifier(self):
        clf = LinearClassifier(weights=np.random.default_rng(4).standard_normal(64))
        params = ReconstructionParams(iterations=1, threshold=0.0, subsample_prob=1.0, frame=IDENTITY)
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(64)
            assert defend(clf, x, params, seed) == predict(clf, x)

    def test_clean_sparse_inputs_keep_their_label(self):
        dataset = gen_data(64, 20, 3, 1, margin_floor=0.05)
        clf = dataset.classifier
        params = ReconstructionParams(iterations=150, threshold=0.002, subsample_prob=0.7, frame=IDENTITY)
        for i, (x, label) in enumerate(zip(dataset.signals, dataset.labels)):
            assert defend(clf, x, params, derived_seed(2, i)) == label

    def test_sub_margin_noise_rarely_flips(self):
        # Perturbations of norm 0.9 * margin must keep the defended label on
        # at least 99% of trials.
        dataset = gen_data(64, 10, 3, 1, margin_floor=0.05)
        clf = dataset.classifier
        params = ReconstructionParams(iterations=150, threshold=0.002, subsample_prob=0.7, frame=IDENTITY)
        rng = np.random.default_rng(42)
        flips = trials = 0
        for i, (x, label) in enumerate(zip(dataset.signals, dataset.labels)):
            tau = margin(clf, x)
            for trial in range(20):
                delta = rng.standard_normal(64)
                delta *= 0.9 * tau / np.linalg.norm(delta)
                trials += 1
                flips += defend(clf, x + delta, params, derived_seed(1, i, trial)) != label
        assert flips / trials <= 0.01

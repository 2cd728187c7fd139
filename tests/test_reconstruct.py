import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from rwkit import (
    FRAME_KINDS,
    Frame,
    LinearClassifier,
    NumericError,
    ParameterError,
    ReconstructionParams,
    RwkitError,
    SensingOperator,
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
    synthesize,
)
from rwkit import reconstruct, sensing
from rwkit.frames import _stack_signals
from rwkit.sensing import _adjoint_batch, _apply_batch

from oracles import basis_pursuit

IDENTITY = Frame(kind="identity")
DFT = Frame(kind="unitary-dft")


# The stop rule of the loop, written out here: every 10th step before the
# cap, a row stops once ||u_t - u_{t-1}||^2 <= (1e-14)^2 ||M y||^2.
STOP_TOL = 1e-14
STOP_EVERY = 10
# The label stop, written out here: with weights w of the signal's shape,
# a stop check t < cap also stops a row whose own ||M y||^2 > 1e-200 once
# |<w^, Re u_t>| > (1 + 2^-8) ||w^|| (cap - t) d_t + ||w^|| ||M y||
# (cap^2 1e-14 + (N + 64) sqrt(cap) 2^-46), with w^ = analyze(w) and d_t
# the step's length.
LABEL_PATH = 1 + 2**-8
LABEL_GAP = 2.0**-46
LABEL_FLOOR = 1e-200
# A row with a part of at least 2^400 is solved at a power-of-two scale, and
# no solve runs more than 1e9 steps, so that N cap ||M y||^2 < 1e280.
QUIET_BOUND = 1e280
QUIET_CAP = 10**9
LOUD = 400


def sum_of_squares(z):
    # The squared norm of a complex array, summed over its float64 view; it
    # may overflow to inf.
    with np.errstate(over="ignore"):
        return np.sum(np.square(np.ascontiguousarray(z).view(np.float64)))


def ista_loop(y, mask, params, lam=None, stop=True, label=None):
    """Reference: the thresholded gradient loop, run step by step, row by row.

    Axis 0 of ``y`` and ``mask`` indexes rows; each row runs alone, at the
    threshold ``lam``: a float, a column of one per row, or None for
    ``params.threshold``.  Returns ``(u, steps)``: the final coefficients
    of each row and the number of steps it ran.  With ``stop`` a row ends
    at the first step t that is a multiple of ``STOP_EVERY``, below
    ``params.iterations``, and moved the row by at most ``STOP_TOL * ||M
    y||``; without it, every row runs ``params.iterations`` steps.  The
    purifier runs this loop for every frame but unitary-dft, whose answer
    it computes in closed form, and its in-place batch loop must match this
    one bit for bit.  The shrink is written out, not taken from
    ``soft_threshold``, and the frame's transforms are the public per-row
    ``analyze`` and ``synthesize``, so the two loops share only the
    arithmetic of the transforms.

    ``label``, weights of the signal's shape, adds the label stop written
    out above to each row in its range.
    """
    frame = params.frame
    lams = np.broadcast_to(params.threshold if lam is None else lam, (len(y),) + (1,) * (y.ndim - 1))
    cap = params.iterations
    n = y[0].size
    sums = [sum_of_squares(mask_row * y_row) for y_row, mask_row in zip(y, mask)]
    what = None
    if label is not None and label.shape == y.shape[1:]:
        what = analyze(frame, label).real.ravel()
        norm = np.sqrt(np.sum(np.square(what)))
    rows, steps = [], []
    for y_row, mask_row, sumsq, lam_row in zip(y, mask, sums, lams.ravel()):
        y_row, mask_row = y_row[None], mask_row[None]
        limit = STOP_TOL**2 * sumsq
        by_label = what is not None and sumsq > LABEL_FLOOR
        if by_label:
            slack = norm * np.sqrt(sumsq) * (cap * cap * STOP_TOL + (n + 64) * np.sqrt(cap) * LABEL_GAP)
        u = np.zeros(y_row.shape, dtype=np.complex128)
        t = 0
        while t < params.iterations:
            t += 1
            residual = y_row - _apply_batch(mask_row, synthesize_rows(frame, u))
            z = u + analyze(frame, _adjoint_batch(mask_row, residual)[0])[None]
            mag = np.abs(z)
            z = z * (np.maximum(mag - lam_row, 0.0) / np.where(mag == 0.0, 1.0, mag))
            moved = sum_of_squares(z - u)
            u = z
            if stop and t % STOP_EVERY == 0 and t < params.iterations:
                if moved <= limit:
                    break
                if by_label:
                    reach = LABEL_PATH * (cap - t) * np.sqrt(moved) * norm + slack
                    if abs(np.sum(u.real.ravel() * what)) > reach:
                        break
        rows.append(u[0])
        steps.append(t)
    return np.stack(rows), np.array(steps)


def synthesize_rows(frame, coeffs):
    # The public synthesize, row by row over axis 0.
    return np.stack([synthesize(frame, row) for row in coeffs])


def assert_close_rel(got, want, rel=1e-12):
    # Entrywise within ``rel`` of the largest entry of ``want``.
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


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

    @pytest.mark.parametrize("iterations", [2.5, True, "3", None])
    def test_non_integer_iterations_rejected(self, iterations):
        with pytest.raises(ParameterError, match="iterations must be an integer"):
            ReconstructionParams(iterations=iterations, threshold=0.1, subsample_prob=0.5, frame=IDENTITY)


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
        # The LP basis-pursuit oracle recovers exactly; the capped
        # thresholded iteration must land within 1e-2 of the same answer.
        params = ReconstructionParams(iterations=500, threshold=0.002, subsample_prob=0.5, frame=IDENTITY)
        errs = []
        for seed in range(10):
            x = sparse_signal(128, 4, seed)
            op = make_partial_fourier(128, 0.5, seed)
            y = apply(op, x)
            oracle = basis_pursuit(x, op.mask, IDENTITY)
            assert np.linalg.norm(oracle - x) <= 1e-8
            errs.append(np.linalg.norm(ista_reconstruct(y, op, params).real - x))
        assert np.median(errs) <= 1e-2

    @pytest.mark.parametrize("frame", [IDENTITY, Frame("haar-dwt", levels=3)], ids=["identity", "haar-3"])
    def test_basis_pursuit_oracle_recovers_gen_data_samples(self, frame):
        # The epsilon = 0 decoder that the certificate's theorem covers,
        # against which the penalised purifier's error at epsilon = 0 is
        # measured (README, Purifier accuracy).  Haar-3 coefficients of a
        # 4-spike signal are about 16-sparse; db4-3 ones are far from sparse.
        for q in (0.5, 0.7494):
            for i, x in enumerate(gen_data(128, 3, 4, 0).signals):
                mask = make_partial_fourier(128, q, i).mask
                assert np.max(np.abs(basis_pursuit(x, mask, frame) - x)) <= 1e-9


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


COPY_FRAMES = [
    IDENTITY,
    Frame(kind="haar-dwt", levels=2),
    Frame(kind="db4-dwt", levels=1),
    DFT,
]


class TestCopyContract:
    # as_signal returns a complex128 input itself, and the frames' batch
    # transforms may overwrite or return their argument, so every public
    # entry point must work on a copy of its input.
    @pytest.mark.parametrize("frame", COPY_FRAMES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("shape", [(16,), (8, 16)], ids=["1d", "2d"])
    def test_complex_input_is_neither_written_nor_returned(self, frame, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = x.copy()
        params = ReconstructionParams(iterations=3, threshold=0.05, subsample_prob=0.5, frame=frame)
        op = make_partial_fourier(shape, params.subsample_prob, 0)
        calls = {
            "analyze": lambda: analyze(frame, x),
            "synthesize": lambda: synthesize(frame, x),
            "ista_reconstruct": lambda: ista_reconstruct(x, op, params),
            "purify": lambda: purify(x, params, 0).value,
        }
        for name, call in calls.items():
            out = call()
            assert not np.shares_memory(out, x), name
            assert x.tobytes() == before.tobytes(), name


SHAPES = {
    1: [(8,), (16,), (64,), (12,), (15,), (96,)],
    2: [(8, 8), (8, 16), (16, 16), (24, 40), (9, 7)],
}


def dyadic_levels(shape):
    # The most wavelet levels a shape supports: every axis divisible by 2**levels.
    return min((s & -s).bit_length() - 1 for s in shape)


@st.composite
def purify_batches(draw):
    kind = draw(st.sampled_from(FRAME_KINDS))
    shape = draw(st.sampled_from(SHAPES[draw(st.sampled_from((1, 2)))]))
    top = min(3, dyadic_levels(shape))
    levels = draw(st.integers(min(1, top), top)) if kind.endswith("-dwt") else 0
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
    assert got.iterations_run == want.iterations_run
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

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_eval_sized_batch_matches_single_purify_bit_for_bit(self, kind):
        # rwkit eval purifies blocks of 64 rows at n=128, beyond the sizes
        # the property above draws.
        frame = Frame(kind=kind, levels=3 if kind.endswith("-dwt") else 0)
        params = ReconstructionParams(iterations=20, threshold=0.002, subsample_prob=0.5, frame=frame)
        xs = np.random.default_rng(5).standard_normal((64, 128))
        seeds = [derived_seed(5, i) for i in range(64)]
        batch = purify_many(xs, params, seeds)
        assert len(batch) == 64
        for x, seed, got in zip(xs, seeds, batch):
            assert_bit_identical(got, purify(x, params, seed))

    @pytest.mark.parametrize("kind", ["haar-dwt", "db4-dwt"])
    def test_image_batch_matches_single_purify_bit_for_bit(self, kind):
        # 64x64 images run the dense 2D wavelet levels, beyond the shapes
        # the property above draws.
        frame = Frame(kind=kind, levels=3)
        params = ReconstructionParams(iterations=10, threshold=0.01, subsample_prob=0.5, frame=frame)
        rng = np.random.default_rng(9)
        xs = rng.standard_normal((4, 64, 64)) + 0j
        xs[2:] += 1j * rng.standard_normal((2, 64, 64))
        seeds = [derived_seed(9, i) for i in range(4)]
        batch = purify_many(xs, params, seeds)
        for x, seed, got in zip(xs, seeds, batch):
            assert_bit_identical(got, purify(x, params, seed))

    def test_rows_sharing_a_seed_match_its_single_purify(self):
        # Eval senses a sample's clean and probed copies through one mask by
        # giving both rows the sample's seed.
        params = ReconstructionParams(iterations=20, threshold=0.01, subsample_prob=0.6, frame=IDENTITY)
        seed = derived_seed(3, 1)
        x, probed = sparse_signal(64, 3, 1), sparse_signal(64, 3, 2)
        clean, attacked = purify_many([x, probed], params, [seed, seed])
        assert_bit_identical(clean, purify(x, params, seed))
        assert_bit_identical(attacked, purify(probed, params, seed))

    def test_iterations_run_is_the_step_count_of_each_row(self):
        # Rows stop at different steps; each reports the count the
        # step-by-step loop gives for its own mask.
        params = ReconstructionParams(iterations=120, threshold=0.02, subsample_prob=0.5, frame=IDENTITY)
        rng = np.random.default_rng(6)
        xs = np.stack([sparse_signal(64, 3, seed) for seed in range(12)])
        xs += 0.02 * rng.standard_normal(xs.shape)
        seeds = [derived_seed(6, i) for i in range(12)]
        mask = np.stack([make_partial_fourier(64, 0.5, s).mask for s in seeds])
        _, want = ista_loop(_apply_batch(mask, xs.astype(np.complex128)), mask, params)
        got = [result.iterations_run for result in purify_many(xs, params, seeds)]
        assert got == want.tolist()
        assert min(got) < params.iterations and len(set(got)) >= 3

    def test_empty_batch(self):
        params = ReconstructionParams(iterations=1, threshold=0.0, subsample_prob=0.5, frame=IDENTITY)
        assert purify_many([], params, []) == []

    def test_rejects_inconsistent_batches(self):
        params = ReconstructionParams(iterations=1, threshold=0.0, subsample_prob=0.5, frame=IDENTITY)
        with pytest.raises(ShapeError):
            purify_many([np.zeros(8), np.zeros(16)], params, [0, 1])
        with pytest.raises(ShapeError):
            purify_many([np.zeros(8)], params, [0, 1])
        with pytest.raises(ParameterError):
            purify_many([np.zeros(8), np.zeros(8)], params, [0, 1.5])

    @pytest.mark.parametrize("frame", [IDENTITY, DFT], ids=lambda f: f.kind)
    def test_an_overflowing_coefficient_l1_norm_fails_the_batch(self, frame):
        # The row's values are 1e308 each, finite; the sum of its
        # coefficients' moduli is not, and numpy warns of nothing.
        params = ReconstructionParams(iterations=3, threshold=0.0, subsample_prob=1.0, frame=frame)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^non-finite coefficient L1 norm$"):
                purify_many([np.zeros(64), np.full(64, 1e308)], params, [0, 1])


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


def replayed_dft_case():
    # A draw whose third row thresholds to 2.3e-5 from measurements of
    # about 1: the two sides differ there by the FFT round trip's 1.1e-16,
    # 5e-12 of that output but 1e-16 of the measurements.
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((4, 15))
    params = ReconstructionParams(iterations=1, threshold=1.0, subsample_prob=0.3, frame=DFT)
    return xs, params, [int(s) for s in rng.integers(0, 2**31, 4)]


class TestUnitaryDftClosedForm:
    @settings(max_examples=80, deadline=None)
    @given(dft_cases())
    @example(replayed_dft_case())
    def test_purify_many_matches_the_loop(self, case):
        # The closed form and the loop differ by the round-off of an FFT
        # round trip, which scales with the measurements M F x, not with the
        # thresholded output: each row's value is within 1e-12 of its
        # largest measurement, and its coefficient L1 norm within 1e-12 of
        # its measurements' L1 norm.
        xs, params, seeds = case
        ops = [make_partial_fourier(xs.shape[1:], params.subsample_prob, s) for s in seeds]
        mask = np.stack([op.mask for op in ops])
        y = _apply_batch(mask, xs.astype(np.complex128))
        u, _ = ista_loop(y, mask, params, stop=False)
        want = synthesize_rows(DFT, u)
        for x, got, w, coeffs, y_row in zip(xs, purify_many(xs, params, seeds), want, u, y):
            assert got.iterations_run == params.iterations
            if np.isrealobj(x):
                assert got.value.dtype == np.float64
                assert got.imag_residual == pytest.approx(np.max(np.abs(w.imag)), abs=1e-12)
                w = w.real
            assert np.max(np.abs(got.value - w)) <= 1e-12 * np.max(np.abs(y_row))
            assert abs(got.final_coefficient_l1 - np.sum(np.abs(coeffs))) <= 1e-12 * np.sum(np.abs(y_row))

    @settings(max_examples=40, deadline=None)
    @given(dft_cases())
    def test_ista_reconstruct_with_off_mask_measurements(self, case):
        xs, params, seeds = case
        op = make_partial_fourier(xs.shape[1:], params.subsample_prob, seeds[0])
        y = np.fft.fftn(xs[0], norm="ortho") + 0.5  # nonzero off the mask too
        u, _ = ista_loop(y[None], op.mask[None], params, stop=False)
        assert_close_rel(ista_reconstruct(y, op, params), synthesize(DFT, u[0]))


@st.composite
def loop_cases(draw):
    # Measurements, masks and parameters for the loop frames, with y
    # nonzero off the mask in some rows.
    kind = draw(st.sampled_from(("identity", "haar-dwt", "db4-dwt")))
    shape = draw(st.sampled_from(SHAPES[draw(st.sampled_from((1, 2)))]))
    top = min(3, dyadic_levels(shape))
    levels = draw(st.integers(min(1, top), top)) if kind != "identity" else 0
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = ReconstructionParams(
        iterations=draw(st.sampled_from((1, 2, 5, 30, 60))),
        threshold=draw(st.sampled_from((0.0, 0.002, 0.3))),
        subsample_prob=draw(st.sampled_from((0.0, 0.5, 1.0))),
        frame=Frame(kind=kind, levels=levels),
    )
    # Some batches draw each row's mask at its own probability, so that
    # their rows stop at different steps.
    q = params.subsample_prob
    if draw(st.booleans()):
        q = rng.choice([0.0, 0.5, 1.0], (rows,) + (1,) * len(shape))
    mask = (rng.random((rows,) + shape) < q).astype(np.float64)
    y = rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
    if draw(st.booleans()):
        y *= mask
    return y, mask, params


def assert_same_bits(got, want):
    # Bit-for-bit equality that tells +0.0 from -0.0.
    assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def stopping_signals(kind, shape, rows=16, seed=0):
    # Signals, masks and parameters where rows stop at many different steps
    # and some run to the cap: 4-sparse signals in the frame plus probes of
    # norm 0, 0.01, 0.05 or 0.1, sensed at q = 0.5.
    frame = Frame(kind=kind, levels=2 if kind.endswith("-dwt") else 0)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((rows, int(np.prod(shape))))
    for row in coeffs:
        row[rng.choice(row.size, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    xs = synthesize_rows(frame, coeffs.reshape((rows,) + shape)).real
    noise = rng.standard_normal(xs.shape)
    norms = np.sqrt(np.sum(np.square(noise.reshape(rows, -1)), axis=1))
    eps = rng.choice([0.0, 0.01, 0.05, 0.1], rows) / norms
    xs += noise * eps.reshape((rows,) + (1,) * len(shape))
    mask = (rng.random(xs.shape) < 0.5).astype(np.float64)
    params = ReconstructionParams(iterations=120, threshold=0.02, subsample_prob=0.5, frame=frame)
    return xs, mask, params


def stopping_rows(kind, shape, rows=16, seed=0):
    # The measurements of stopping_signals, with its masks and parameters.
    xs, mask, params = stopping_signals(kind, shape, rows, seed)
    return _apply_batch(mask, xs.astype(np.complex128)), mask, params


STOPPING_CASES = [
    (kind, shape) for kind in ("identity", "haar-dwt", "db4-dwt") for shape in ((64,), (16, 16))
]


def assert_within_the_nonexpansive_bound(got, steps, y, mask, params):
    # A row stopped at t lies within (cap - t) * STOP_TOL * ||M y|| of the
    # iterate the fixed-count loop reaches at the cap.
    fixed, _ = ista_loop(y, mask, params, stop=False)
    cap = params.iterations
    for u, t, want, y_row, mask_row in zip(got, steps, fixed, y, mask):
        bound = (cap - t) * STOP_TOL * np.linalg.norm(mask_row * y_row)
        assert np.linalg.norm(u - want) <= bound, (t, bound)
        if t == cap:
            assert_same_bits(u, want)


class TestIstaLoop:
    def test_stop_rule_constants(self):
        assert reconstruct._STOP_TOL == STOP_TOL
        assert reconstruct._STOP_EVERY == STOP_EVERY

    @settings(max_examples=120, deadline=None)
    @given(loop_cases())
    def test_matches_the_step_by_step_loop_bit_for_bit(self, case):
        y, mask, params = case
        y_before, mask_before = y.copy(), mask.copy()
        got, steps = reconstruct._ista_coefficients(y, mask, params)
        want, want_steps = ista_loop(y, mask, params)
        assert_same_bits(got, want)
        assert steps.tolist() == want_steps.tolist()
        assert_same_bits(y, y_before)
        assert np.array_equal(mask, mask_before)
        # The loop swaps its buffers each step; none of them is an input.
        assert not np.shares_memory(got, y) and not np.shares_memory(got, mask)

    @settings(max_examples=60, deadline=None)
    @given(loop_cases())
    def test_capped_rows_match_the_fixed_count_loop_and_stopped_rows_its_bound(self, case):
        y, mask, params = case
        got, steps = reconstruct._ista_coefficients(y, mask, params)
        assert_within_the_nonexpansive_bound(got, steps, y, mask, params)

    @pytest.mark.parametrize("kind,shape", STOPPING_CASES, ids=str)
    def test_rows_stopping_at_different_steps_match_the_loop(self, kind, shape):
        y, mask, params = stopping_rows(kind, shape)
        got, steps = reconstruct._ista_coefficients(y, mask, params)
        # Rows stop at three or more different steps: the batch shrinks twice.
        assert len(set(steps.tolist())) >= 3
        want, want_steps = ista_loop(y, mask, params)
        assert_same_bits(got, want)
        assert steps.tolist() == want_steps.tolist()
        assert_within_the_nonexpansive_bound(got, steps, y, mask, params)

    @pytest.mark.parametrize("kind,shape", STOPPING_CASES, ids=str)
    def test_each_row_matches_itself_run_alone(self, kind, shape):
        y, mask, params = stopping_rows(kind, shape, rows=24, seed=1)
        got, steps = reconstruct._ista_coefficients(y, mask, params)
        assert len(set(steps.tolist())) >= 3
        for i in range(len(y)):
            alone, alone_steps = reconstruct._ista_coefficients(y[i : i + 1], mask[i : i + 1], params)
            assert_same_bits(got[i], alone[0])
            assert steps[i] == alone_steps[0]

    @settings(max_examples=60, deadline=None)
    @given(loop_cases())
    def test_ista_reconstruct_with_off_mask_measurements(self, case):
        y, mask, params = case
        op = SensingOperator(mask=mask[0].copy())
        want = synthesize(params.frame, ista_loop(y[:1], mask[:1], params)[0][0])
        assert_same_bits(ista_reconstruct(y[0], op, params), want)

    @settings(max_examples=40, deadline=None)
    @given(dft_cases())
    def test_unitary_dft_closed_form_is_the_thresholded_masked_measurements(self, case):
        xs, params, seeds = case
        rng = np.random.default_rng(seeds[0])
        mask = (rng.random(xs.shape) < params.subsample_prob).astype(np.float64)
        y = np.fft.fft(xs, norm="ortho") + 0.5
        got, steps = reconstruct._ista_coefficients(y, mask, params)
        assert_same_bits(got, soft_threshold(mask * y, params.threshold))
        assert steps.tolist() == [params.iterations] * len(y)


def times_power_of_two(z, k):
    # A copy of the real or complex array z times 2^k, part by part: a
    # complex product would turn a -0 part to +0.
    z = np.array(z)
    np.ldexp(z.view(np.float64), k, out=z.view(np.float64))
    return z


def loud_exponent(z):
    # The k of the scale 2^-k a solve of the real or complex row z takes.
    top = np.max(np.abs(np.asarray(z).view(np.float64)))
    return max(int(np.frexp(top)[1]) - LOUD, 0)


def at_threshold(params, threshold):
    # params with the threshold ``threshold``.
    return ReconstructionParams(
        iterations=params.iterations, threshold=threshold, subsample_prob=params.subsample_prob, frame=params.frame
    )


@st.composite
def scale_cases(draw):
    # A signal, measurements of it that are nonzero off the mask, weights
    # and parameters on every frame, 1D or 2D, real or complex, and k from
    # -40 to the most that keeps 16 times the signal, the measurements, the
    # answers and the coefficient L1 norm finite times 2^k; a third of the
    # draws take that most.
    kind = draw(st.sampled_from(FRAME_KINDS))
    shape = draw(st.sampled_from(SHAPES[draw(st.sampled_from((1, 2)))]))
    top = min(3, dyadic_levels(shape))
    levels = draw(st.integers(min(1, top), top)) if kind.endswith("-dwt") else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = ReconstructionParams(
        iterations=draw(st.sampled_from((1, 5, 40, 100))),
        threshold=draw(st.sampled_from((0.0, 0.002, 0.02, 0.3))),
        subsample_prob=draw(st.sampled_from((0.3, 0.5, 1.0))),
        frame=Frame(kind=kind, levels=levels),
    )
    coeffs = np.zeros(shape)
    coeffs.flat[rng.choice(coeffs.size, min(4, coeffs.size), replace=False)] = 1.0
    x = synthesize(params.frame, coeffs).real + draw(st.sampled_from((0.0, 0.05, 0.3))) * rng.standard_normal(shape)
    if draw(st.booleans()):
        x = x + 0.3j * rng.standard_normal(shape)
    seed = int(rng.integers(0, 2**31))
    op = make_partial_fourier(shape, params.subsample_prob, seed)
    y = apply(op, x) + 0.25 * np.roll(apply(op, x), 1)
    plain = purify(x, params, seed)
    answers = (x, y, plain.value, ista_reconstruct(y, op, params), plain.final_coefficient_l1)
    most = 1019 - int(np.ceil(np.log2(max(np.max(np.abs(a)) for a in answers))))
    k = draw(st.one_of(st.integers(-40, most), st.just(most)))
    return x, y, rng.standard_normal(shape), params, seed, k


class TestScale:
    """A row with a part of at least 2^400 is solved at a power-of-two scale
    2^-k, with its threshold, and rescaled at the end.  The solve is
    homogeneous, so a row and threshold times 2^k give the unscaled bits
    times 2^k wherever every entry stays in the normal range."""

    def test_the_scale_keeps_every_solve_below_the_bound(self):
        # N cap ||M y||^2 < 2 N^2 cap 4^400 for a row of N < 2^47 entries
        # whose parts lie below 2^400, and no cap is above 1e9.
        assert reconstruct._LOUD == LOUD
        assert 2 * 4.0**47 * QUIET_CAP * 4.0**LOUD < QUIET_BOUND

    @settings(max_examples=150, deadline=None)
    @given(scale_cases())
    def test_a_row_times_a_power_of_two_gives_its_bits_times_that_power(self, case):
        x, y, w, params, seed, k = case
        scaled = at_threshold(params, float(np.ldexp(params.threshold, k)))
        big = times_power_of_two(x, k)
        want, got = purify(x, params, seed), purify(big, scaled, seed)
        assert got.value.tobytes() == times_power_of_two(want.value, k).tobytes()
        assert got.iterations_run == want.iterations_run
        assert got.final_coefficient_l1 == np.ldexp(want.final_coefficient_l1, k)
        assert got.imag_residual == np.ldexp(want.imag_residual, k)
        # defend's solve, with its label stop: the same steps and label, and
        # values left at the scale the row was solved at.
        clf = LinearClassifier(weights=w)
        mask = sensing._seed_masks([seed], x.shape, params.subsample_prob)
        values, _, steps = reconstruct._purify_block(_stack_signals([x]), mask, params, clf._u)
        big_values, _, big_steps = reconstruct._purify_block(_stack_signals([big]), mask, scaled, clf._u)
        assert_same_bits(big_values, times_power_of_two(values, k - loud_exponent(big)))
        assert big_steps.tolist() == steps.tolist()
        assert defend(clf, big, scaled, seed) == defend(clf, x, params, seed)
        # ista_reconstruct scales its measurements, off the mask too.
        op = make_partial_fourier(x.shape, params.subsample_prob, seed)
        want = ista_reconstruct(y, op, params)
        assert_same_bits(ista_reconstruct(times_power_of_two(y, k), op, scaled), times_power_of_two(want, k))

    @pytest.mark.parametrize("labelled", [False, True], ids=["value", "label"])
    @pytest.mark.parametrize("kind,shape", STOPPING_CASES + [("unitary-dft", (64,))], ids=str)
    def test_a_loud_row_among_quiet_ones_is_solved_as_alone(self, kind, shape, labelled):
        # Row 3 is scaled by 2^700, so its threshold is 2^-k that of the
        # rows beside it, which stop at many different steps.
        xs, mask, params = stopping_signals(kind, shape)
        xs[3] = times_power_of_two(xs[3], 700)
        label = np.random.default_rng(5).standard_normal(shape) if labelled else None
        values, u, steps = reconstruct._purify_block(xs, mask, params, label)
        assert len(set(steps.tolist())) >= (1 if kind == "unitary-dft" else 3)
        for i in range(len(xs)):
            alone = reconstruct._purify_block(xs[i : i + 1], mask[i : i + 1], params, label)
            assert_same_bits(values[i], alone[0][0])
            assert_same_bits(u[i], alone[1][0])
            assert steps[i] == alone[2][0]

    @pytest.mark.parametrize("labelled", [False, True], ids=["value", "label"])
    @pytest.mark.parametrize("kind", ["identity", "haar-dwt", "db4-dwt"])
    def test_per_row_exponents_solve_as_each_row_alone(self, kind, labelled):
        # The solve with a column of exponents k, as a batch that mixes
        # scales runs it: each row's threshold is 2^-k times that of params.
        # Each row gives its bits solved alone, and the step-by-step loop's
        # at the threshold column ldexp(threshold, -k).
        y, mask, params = stopping_rows(kind, (64,))
        k = np.random.default_rng(2).choice([0, 1, 3, 60], (len(y), 1))
        w = np.random.default_rng(5).standard_normal(64) if labelled else None
        got, steps = reconstruct._ista_coefficients(y, mask, params, w, k)
        want, want_steps = ista_loop(y, mask, params, np.ldexp(params.threshold, -k), label=w)
        assert_same_bits(got, want)
        assert steps.tolist() == want_steps.tolist()
        assert len(set(steps.tolist())) >= 3
        for i in range(len(y)):
            alone, alone_steps = reconstruct._ista_coefficients(y[i : i + 1], mask[i : i + 1], params, w, k[i : i + 1])
            assert_same_bits(got[i], alone[0])
            assert steps[i] == alone_steps[0]

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_a_direct_call_holds_its_own_error_state(self, kind):
        # Outside any error state, a zero row's shrink divides 0 by 0 (at
        # threshold 0) or the threshold by 0, and a row with entries below
        # the threshold makes negative quotients; the solve raises no
        # warning for either.
        assert np.geterr() == {"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}
        frame = Frame(kind=kind, levels=1 if kind.endswith("-dwt") else 0)
        rng = np.random.default_rng(3)
        mask = (rng.random((2, 16)) < 0.5).astype(np.float64)
        y = np.zeros((2, 16), dtype=np.complex128)
        y[1] = mask[1] * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        for threshold in (0.0, 0.3):
            params = ReconstructionParams(iterations=30, threshold=threshold, subsample_prob=0.5, frame=frame)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                u, _ = reconstruct._ista_coefficients(y, mask, params)
            assert not np.any(u[0])
            assert np.any(u[1])
            if threshold > 0:
                assert not np.all(u[1])

    def test_a_rescale_that_overflows_fails_without_a_warning(self):
        # The rescale runs outside the solve's error state, in its own: a
        # value that overflows raises NumericError, with no warning on the
        # way, through ista_reconstruct (flat measurements of 1.5e308 give
        # a spike of 1.5e308 sqrt(8)) and through defend with a classifier
        # that labels the value (the row of test_a_rescaled_value_that_overflows_fails).
        flat = np.full(8, 1.5e308)
        spike = ReconstructionParams(iterations=1, threshold=0.0, subsample_prob=1.0, frame=IDENTITY)
        x = 1.5e308 * np.array([-1.0, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, -1.0])
        params = ReconstructionParams(iterations=100, threshold=0.02, subsample_prob=0.7494, frame=IDENTITY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^non-finite synthesized value$"):
                ista_reconstruct(flat, make_partial_fourier(8, 1.0, 0), spike)
            with pytest.raises(NumericError, match="^non-finite synthesized value$"):
                defend(lambda v: 0, x, params, 76)

    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_a_spike_near_the_float_maximum_gets_its_answer(self, kind):
        # Its measurements are 5.3e307 each, and the inverse FFT of the first
        # step, or of the closed form's synthesis, sums them past the float
        # maximum at their own scale, not at 2^-624.
        frame = Frame(kind=kind, levels=1 if kind.endswith("-dwt") else 0)
        params = ReconstructionParams(iterations=50, threshold=0.0, subsample_prob=1.0, frame=frame)
        x = np.array([1.5e308, 0, 0, 0, 0, 0, 0, 0])
        op = make_partial_fourier(8, 1.0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ista_reconstruct(apply(op, x), op, params)
            if kind == "identity":
                assert purify(x, params, 0).value.tobytes() == value.real.tobytes()
        assert_close_rel(value, x, rel=1e-10)

    def test_a_rescaled_value_that_overflows_fails(self):
        # The projection of these +-1.5e308 parts onto the kept frequencies
        # has a part beyond the float maximum.
        x = 1.5e308 * np.array([-1.0, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, -1.0])
        params = ReconstructionParams(iterations=100, threshold=0.02, subsample_prob=0.7494, frame=IDENTITY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^non-finite synthesized value$"):
                purify(x, params, 76)

    def test_more_than_1e9_steps_are_refused(self):
        ReconstructionParams(iterations=QUIET_CAP, threshold=0.1, subsample_prob=0.5, frame=IDENTITY)
        with pytest.raises(ParameterError, match="^iterations must be <= 1000000000, got 1000000001$"):
            ReconstructionParams(iterations=QUIET_CAP + 1, threshold=0.1, subsample_prob=0.5, frame=IDENTITY)

    def test_a_mask_that_is_not_zero_one_never_reaches_a_solve(self):
        # The bound needs M to be a projection.  With a mask of 3s a step
        # would map u to -2u plus a constant, doubling the iterate until it
        # overflowed; the operator refuses that mask when it is built.
        params = ReconstructionParams(iterations=2000, threshold=0.0, subsample_prob=1.0, frame=IDENTITY)
        with pytest.raises(ParameterError, match="0 or 1"):
            ista_reconstruct(np.ones(8), SensingOperator(mask=np.full(8, 3.0)), params)


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


def full_defend(clf, x, params, seed):
    # The oracle of defend: the label of the full solve's value.
    return predict(clf, purify(x, params, seed).value)


def near_tie_weights(w0, x_hat, tau):
    # w0 with its component along x_hat replaced by tau * x_hat, so that
    # <w, x_hat> = tau ||x_hat||^2: the full solve's value lies a relative
    # tau from the decision boundary.
    sq = np.sum(np.square(x_hat))
    if not sq > 0:
        return w0
    return w0 - (np.sum(w0 * x_hat) / sq - tau) * x_hat


@st.composite
def defend_cases(draw):
    # A signal, weights and parameters for a loop frame: 1D or 2D, real or
    # complex, caps from 1 to 200 and thresholds from 0 to 0.1; half the
    # weights are near-ties of the full solve's value.
    kind = draw(st.sampled_from(("identity", "haar-dwt", "db4-dwt")))
    shape = draw(st.sampled_from(SHAPES[draw(st.sampled_from((1, 2)))]))
    top = min(3, dyadic_levels(shape))
    levels = draw(st.integers(min(1, top), top)) if kind != "identity" else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = ReconstructionParams(
        iterations=draw(st.one_of(st.integers(1, 200), st.integers(40, 200), st.sampled_from((100, 200)))),
        threshold=draw(st.one_of(st.floats(0.0, 0.1), st.floats(0.002, 0.05), st.sampled_from((0.0, 0.02, 0.1)))),
        subsample_prob=draw(st.sampled_from((0.3, 0.5, 0.5, 0.7494, 1.0))),
        frame=Frame(kind=kind, levels=levels),
    )
    # Sparse in the frame plus noise, so that solves run for a while.
    coeffs = np.zeros(shape)
    k = min(4, coeffs.size)
    coeffs.flat[rng.choice(coeffs.size, k, replace=False)] = rng.choice([-1.0, 1.0], k)
    x = synthesize(params.frame, coeffs).real + draw(st.sampled_from((0.0, 0.05, 0.3))) * rng.standard_normal(shape)
    if draw(st.booleans()):
        x = x + 0.3j * rng.standard_normal(shape)
    seed = int(rng.integers(0, 2**31))
    w = rng.standard_normal(shape)
    if draw(st.booleans()):
        tau = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-12, -3))
        w = near_tie_weights(w, np.real(purify(x, params, seed).value), tau)
    return LinearClassifier(weights=w), x, params, seed


def defend_rows(x, params, seed):
    # The measurements and mask of the one-row solve that defend runs.
    mask = sensing._seed_masks([seed], np.shape(x), params.subsample_prob)
    return _apply_batch(mask, _stack_signals([x])), mask


def capped(params, cap):
    # params with the step cap ``cap``.
    return ReconstructionParams(
        iterations=cap, threshold=params.threshold, subsample_prob=params.subsample_prob, frame=params.frame
    )


def margin_direction(e, v, margin):
    # The unit vector w^ = cos(phi) e + sin(phi) h, with h the unit part of
    # v orthogonal to the unit vector e, at the smallest angle phi that puts
    # <w^, v> at ``margin``; None where no h exists or |margin| is not below
    # the length of v's part in the plane of e and h.  h takes two
    # Gram-Schmidt passes: where v lies almost along e, one pass leaves h's
    # round-off along e, and w^ is not a unit vector.
    h = v - (v @ e) * e
    h -= (h @ e) * e
    if not np.linalg.norm(h) > 0:
        return None
    h /= np.linalg.norm(h)
    a, b = v @ e, v @ h
    size = np.hypot(a, b)
    if not abs(margin) < size:
        return None
    angle = np.arctan2(b, a)
    phi = min(angle - np.arccos(margin / size), angle + np.arccos(margin / size), key=abs)
    return np.cos(phi) * e + np.sin(phi) * h


@st.composite
def path_cases(draw, kind, dim):
    # A defend case at the rule's tight spot.  From the full solve's result
    # u_cap and its iterate u_t at a stop check t before its round-off stop,
    # w^ = analyze(w) is the unit vector cos(phi) e + sin(phi) h, with
    # e = -Re(u_cap - u_t) / ||Re(u_cap - u_t)||, which the remaining steps
    # move <w^, Re u> along, toward the boundary, as far as they can, and h
    # the unit part of Re u_t orthogonal to e.  phi, the smallest angle that
    # does it, puts the margin <w^, Re u_t> a relative 2^-12 above or below
    # the reach (1 + 2^-8) (cap - t) d_t + slack (see margin_direction).
    # In some draws the remaining path is 0.995 of (cap - t) d_t, so that a
    # rule with a factor of 0.98 gives such a case the wrong label.  Draws
    # whose margin would sit within 2^-20 ||Re u_t|| of zero are rejected:
    # there the db4 taps' error, 1e-12 ||Re u_t|| through synthesize and
    # analyze, could move it past the reach.
    shape = draw(st.sampled_from(SHAPES[dim]))
    top = min(3, dyadic_levels(shape))
    levels = draw(st.integers(min(1, top), top)) if kind != "identity" else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = ReconstructionParams(
        iterations=draw(st.integers(40, 200)),
        threshold=draw(st.floats(0.002, 0.05)),
        subsample_prob=draw(st.sampled_from((0.3, 0.5, 0.7494))),
        frame=Frame(kind=kind, levels=levels),
    )
    coeffs = np.zeros(shape)
    k = min(4, coeffs.size)
    coeffs.flat[rng.choice(coeffs.size, k, replace=False)] = rng.choice([-1.0, 1.0], k)
    x = synthesize(params.frame, coeffs).real + draw(st.sampled_from((0.0, 0.05, 0.3))) * rng.standard_normal(shape)
    seed = int(rng.integers(0, 2**31))
    y, mask = defend_rows(x, params, seed)
    full, full_steps = reconstruct._ista_coefficients(y, mask, params)
    assume(full_steps[0] > STOP_EVERY)
    t = STOP_EVERY * draw(st.integers(1, (int(full_steps[0]) - 1) // STOP_EVERY))
    u_t = reconstruct._ista_coefficients(y, mask, capped(params, t))[0]
    d_t = np.sqrt(sum_of_squares(u_t - reconstruct._ista_coefficients(y, mask, capped(params, t - 1))[0]))
    cap, n = params.iterations, x.size
    slack = np.sqrt(sum_of_squares(y)) * (cap * cap * STOP_TOL + (n + 64) * np.sqrt(cap) * LABEL_GAP)
    above = draw(st.booleans())
    margin_t = (1 + (2**-12 if above else -(2**-12))) * (LABEL_PATH * (cap - t) * d_t + slack)
    path, v = (full - u_t).real.ravel(), u_t.real.ravel()
    assume(2**-20 * np.linalg.norm(v) < margin_t)
    w_hat = margin_direction(-path / np.linalg.norm(path), v, margin_t)
    assume(w_hat is not None)
    # A construction error would move the margin off the reach unseen.
    assert abs(w_hat @ v - margin_t) <= 2**-20 * margin_t
    w = synthesize(params.frame, w_hat.reshape(shape)).real
    return LinearClassifier(weights=w), x, params, seed, t, above


class SolveSpy:
    """Records each solve ``defend`` runs: whether it had a label, the steps
    its rows ran, and whether its result is the full solve's bit for bit."""

    def __init__(self, monkeypatch):
        self.solves = []
        solve = reconstruct._ista_coefficients

        def spy(y, mask, params, label=None, k=None):
            u, steps = solve(y, mask, params, label, k)
            full_u, full_steps = solve(y, mask, params, None, k)
            same = steps.tolist() == full_steps.tolist() and np.array_equal(u.view(np.uint64), full_u.view(np.uint64))
            self.solves.append((label is not None, int(steps[0]), int(full_steps[0]), same))
            return u, steps

        monkeypatch.setattr(reconstruct, "_ista_coefficients", spy)


def radius_probes(count=6):
    # The radius workload's settings: 4-sparse signals of n = 128 with margin
    # at least 0.1, identity, 100 steps, lam 0.02, q 0.5; each signal and
    # probes of it at radii 0.05, 0.2 and 0.5, through its case's operator
    # seed.
    dataset = gen_data(128, count, 4, 0, margin_floor=0.1, weights_seed=0)
    params = ReconstructionParams(iterations=100, threshold=0.02, subsample_prob=0.5, frame=IDENTITY)
    rng = np.random.default_rng(3)
    probes = []
    for case, x in enumerate(dataset.signals):
        seed = np.random.SeedSequence(0, spawn_key=(7, case))
        probes.append((x, seed))
        for radius in (0.05, 0.2, 0.5):
            d = rng.standard_normal(128)
            probes.append((x + radius * d / np.linalg.norm(d), seed))
    return dataset.classifier, params, probes


@st.composite
def mixed_loop_cases(draw):
    # loop_cases with weights for half the batches, and one row of half the
    # batches scaled by 1e-110: its ||M y||^2 is below the floor, so it
    # takes no label stop.
    y, mask, params = draw(loop_cases())
    if draw(st.booleans()):
        y = y.copy()
        y[draw(st.integers(0, len(y) - 1))] *= 1e-110
    w = None
    if draw(st.booleans()):
        w = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(y.shape[1:])
    return y, mask, params, w


class TestLabelStop:
    """``defend`` with a linear classifier stops its solve once the label is
    proven; the oracle is the full solve's label."""

    def test_label_stop_constants(self):
        assert reconstruct._LABEL_PATH == LABEL_PATH
        assert reconstruct._LABEL_GAP == LABEL_GAP
        assert reconstruct._LABEL_FLOOR == LABEL_FLOOR
        assert reconstruct._QUIET_BOUND == QUIET_BOUND
        assert reconstruct._QUIET_CAP == QUIET_CAP
        assert reconstruct._LOUD == LOUD

    @settings(max_examples=150, deadline=None)
    @given(defend_cases())
    @example((LinearClassifier(weights=np.ones(64)), np.zeros(64), ReconstructionParams(
        iterations=50, threshold=0.0, subsample_prob=0.5, frame=IDENTITY), 0))
    def test_defend_is_the_label_of_the_full_solve(self, case):
        clf, x, params, seed = case
        assert defend(clf, x, params, seed) == full_defend(clf, x, params, seed)

    @pytest.mark.parametrize("dim", (1, 2))
    @pytest.mark.parametrize("kind", ("identity", "haar-dwt", "db4-dwt"))
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_a_margin_at_the_reach_along_the_remaining_path(self, kind, dim, data):
        # Just above the reach the rule proves the label at t at the latest;
        # just below it, not at t; either way the label is the full solve's.
        clf, x, params, seed, t, above = data.draw(path_cases(kind, dim))
        assert defend(clf, x, params, seed) == full_defend(clf, x, params, seed)
        y, mask = defend_rows(x, params, seed)
        steps = reconstruct._ista_coefficients(y, mask, params, clf.weights)[1][0]
        assert steps <= t if above else steps != t

    @pytest.mark.parametrize("off", [0.0, 1e-13, 1e-12, 1e-9, 0.3])
    def test_a_margin_direction_is_a_unit_vector_at_its_margin(self, off):
        # v at 0.587 along e and ``off`` across it: at 1e-12 a one-pass h
        # made ||w^|| 1 + 5e-7 and put the margin 3 % above its target.
        rng = np.random.default_rng(9)
        e = rng.standard_normal(12)
        e /= np.linalg.norm(e)
        across = rng.standard_normal(12)
        across -= (across @ e) * e
        v = 0.587 * e + off * across / np.linalg.norm(across)
        w_hat = margin_direction(e, v, 0.0023575)
        if off == 0.0 and w_hat is None:
            return
        assert abs(np.linalg.norm(w_hat) - 1) <= 2**-40
        assert abs(w_hat @ v - 0.0023575) <= 2**-40 * 0.0023575

    @settings(max_examples=80, deadline=None)
    @given(loop_cases(), st.integers(0, 2**32 - 1))
    def test_matches_the_step_by_step_loop_bit_for_bit(self, case, wseed):
        y, mask, params = case
        w = np.random.default_rng(wseed).standard_normal(y.shape[1:])
        got, steps = reconstruct._ista_coefficients(y, mask, params, w)
        want, want_steps = ista_loop(y, mask, params, label=w)
        assert_same_bits(got, want)
        assert steps.tolist() == want_steps.tolist()

    @settings(max_examples=120, deadline=None)
    @given(mixed_loop_cases())
    def test_each_row_stops_as_it_does_alone(self, case):
        # Both stop rules read only the row: its bits and steps are those of
        # the row solved alone, whatever rows run beside it.
        y, mask, params, w = case
        got, steps = reconstruct._ista_coefficients(y, mask, params, w)
        for i in range(len(y)):
            alone, alone_steps = reconstruct._ista_coefficients(y[i : i + 1], mask[i : i + 1], params, w)
            assert_same_bits(got[i], alone[0])
            assert steps[i] == alone_steps[0]

    @pytest.mark.parametrize("beside", ["zero-mask", "scaled-1e-110"])
    def test_a_labelled_row_beside_a_row_outside_the_rule_stops_as_alone(self, beside):
        # A clean radius-workload row whose label is proven at step 20 of a
        # solve that runs 80 steps without it.  A zero-mask row has ||M y||
        # = 0, and a row scaled by 1e-110 has ||M y||^2 below the floor.
        # Neither takes the rule, and neither keeps the row beside it from
        # taking it.
        clf, params, probes = radius_probes(count=1)
        x, seed = probes[0]
        mask = sensing._seed_masks([seed], x.shape, params.subsample_prob)
        y = _apply_batch(mask, x[None] + 0j)
        w = clf.weights
        alone, alone_steps = reconstruct._ista_coefficients(y, mask, params, w)
        assert alone_steps.tolist() == [20]
        assert reconstruct._ista_coefficients(y, mask, params)[1].tolist() == [80]
        other_y, other_mask = (y, 0.0 * mask) if beside == "zero-mask" else (1e-110 * y, mask)
        both_y, both_mask = np.concatenate([y, other_y]), np.concatenate([mask, other_mask])
        got, steps = reconstruct._ista_coefficients(both_y, both_mask, params, w)
        assert steps.tolist() == [20, 10]
        assert_same_bits(got[0], alone[0])
        _, other_steps = reconstruct._ista_coefficients(other_y, other_mask, params, w)
        assert other_steps.tolist() == [10]

    @pytest.mark.parametrize("kind,shape", STOPPING_CASES, ids=str)
    def test_rows_stop_by_label_as_the_step_by_step_loop(self, kind, shape):
        y, mask, params = stopping_rows(kind, shape)
        w = np.random.default_rng(5).standard_normal(shape)
        got, steps = reconstruct._ista_coefficients(y, mask, params, w)
        want, want_steps = ista_loop(y, mask, params, label=w)
        assert_same_bits(got, want)
        assert steps.tolist() == want_steps.tolist()
        _, full_steps = reconstruct._ista_coefficients(y, mask, params)
        assert np.all(steps <= full_steps) and np.sum(steps) < np.sum(full_steps)
        # Each stopped row has the full solve's label.
        frame = params.frame
        fixed, _ = ista_loop(y, mask, params)
        clf = LinearClassifier(weights=w)
        for u, full in zip(got, fixed):
            assert predict(clf, synthesize(frame, u)) == predict(clf, synthesize(frame, full))

    def test_radius_probes_stop_early(self, monkeypatch):
        clf, params, probes = radius_probes()
        spy = SolveSpy(monkeypatch)
        for x, seed in probes:
            assert defend(clf, x, params, seed) == full_defend(clf, x, params, seed)
        # Every spied solve is defend's; purify's run without a label.
        runs = [s for s in spy.solves if s[0]]
        assert len(runs) == len(probes)
        early = [steps < full for _, steps, full, _ in runs]
        assert sum(early) >= 0.75 * len(runs)
        assert sum(s[1] for s in runs) < 0.7 * sum(s[2] for s in runs)

    @pytest.mark.parametrize("tau", [1e-12, -1e-12, 1e-11, -3e-11])
    def test_near_ties_run_to_round_off_or_the_cap(self, monkeypatch, tau):
        clf, params, probes = radius_probes(count=3)
        spy = SolveSpy(monkeypatch)
        rng = np.random.default_rng(11)
        for x, seed in probes:
            w = near_tie_weights(rng.standard_normal(128), purify(x, params, seed).value, tau)
            near = LinearClassifier(weights=w)
            assert defend(near, x, params, seed) == full_defend(near, x, params, seed)
        runs = [s for s in spy.solves if s[0]]
        assert len(runs) == len(probes)
        assert all(same for *_, same in runs)

    def test_other_classifiers_and_the_closed_form_never_take_the_rule(self, monkeypatch):
        clf, params, probes = radius_probes(count=2)
        spy = SolveSpy(monkeypatch)
        dft = ReconstructionParams(iterations=100, threshold=0.02, subsample_prob=0.5, frame=DFT)
        for x, seed in probes:
            assert defend(lambda v: predict(clf, v), x, params, seed) == full_defend(clf, x, params, seed)
            assert defend(clf, x, dft, seed) == full_defend(clf, x, dft, seed)
        assert spy.solves
        # The lambda's solves get no label; the closed form ignores it.
        assert all(same for *_, same in spy.solves)
        assert sum(has_label for has_label, *_ in spy.solves) == len(probes)

    def test_a_loud_row_takes_the_rule_at_its_scale(self, monkeypatch):
        # The probes and threshold times 2^460 are solved at 2^-k, and their
        # solves stop at the steps of the unit-scale ones, with their labels.
        clf, params, probes = radius_probes(count=2)
        spy = SolveSpy(monkeypatch)
        loud = at_threshold(params, float(np.ldexp(params.threshold, 460)))
        for x, seed in probes:
            assert defend(clf, x, params, seed) == defend(clf, times_power_of_two(x, 460), loud, seed)
        unit, scaled = spy.solves[0::2], spy.solves[1::2]
        assert unit == scaled and not all(same for *_, same in unit)

    @pytest.mark.parametrize(
        "x, weights",
        [
            (np.full(64, np.nan), np.ones(64)),
            ([[1.0, 2.0], [3.0]], np.ones(2)),
            (np.ones(64), np.ones(32)),
            (np.ones((8, 8)), np.ones(64)),
        ],
        ids=["nan", "ragged", "weights-short", "weights-flat"],
    )
    def test_errors_are_the_full_solves(self, x, weights):
        clf = LinearClassifier(weights=weights)
        params = ReconstructionParams(iterations=100, threshold=0.02, subsample_prob=1.0, frame=IDENTITY)
        with pytest.raises(RwkitError) as want:
            full_defend(clf, x, params, 0)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            defend(clf, x, params, 0)

    @pytest.mark.parametrize(
        "x, q, seed, error",
        [
            (np.full(64, 1e308), 1.0, 0, "non-finite coefficient L1 norm"),
            (1.5e308 * np.array([-1.0, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, -1.0]), 0.7494, 76, "non-finite synthesized value"),
        ],
        ids=["l1-norm", "value"],
    )
    def test_a_row_purify_fails_is_labelled_at_its_scale(self, x, q, seed, error):
        # purify of the row raises, its coefficient L1 norm or its rescaled
        # value past the float maximum; defend labels the value at the scale
        # 2^-k the row was solved at, as it and the full solve label the row
        # and threshold times 2^-k.
        clf = LinearClassifier(weights=np.sin(np.arange(x.size)))
        params = ReconstructionParams(iterations=100, threshold=0.02, subsample_prob=q, frame=IDENTITY)
        with pytest.raises(NumericError, match=f"^{error}$"):
            full_defend(clf, x, params, seed)
        k = loud_exponent(x)
        quiet = at_threshold(params, float(np.ldexp(params.threshold, -k)))
        label = full_defend(clf, times_power_of_two(x, -k), quiet, seed)
        assert defend(clf, x, params, seed) == defend(clf, times_power_of_two(x, -k), quiet, seed) == label

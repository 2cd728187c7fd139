import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwkit import defect, frames
from rwkit import (
    FRAME_KINDS,
    DefectParams,
    Frame,
    NumericError,
    ParameterError,
    ShapeError,
    coefficient_defect,
    derived_seed,
    expected_defect,
    make_partial_fourier,
    sparsity_defect,
)

from oracles import brute_force_defect, transform_l1

IDENTITY = Frame(kind="identity")
DFT = Frame(kind="unitary-dft")


def analytic_defect(w, budget):
    # min ||w - a||_1 over ||a||_1 <= budget is the excess L1 mass.
    return max(0.0, float(np.sum(np.abs(w))) - budget)


class TestDefectParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            DefectParams(solution_bound=0.0)
        with pytest.raises(ParameterError):
            DefectParams(solution_bound=-1.0)


class TestCoefficientDefect:
    def test_interior_point_has_zero_defect(self):
        result = coefficient_defect(np.array([0.2, -0.3]), DefectParams(solution_bound=1.0))
        assert result.defect == 0.0
        assert result.final_l1 == pytest.approx(0.5, abs=1e-15)

    def test_worked_scalar_example(self):
        result = coefficient_defect(np.array([3.0]), DefectParams(solution_bound=1.0))
        assert result.defect == pytest.approx(2.0, abs=1e-6)

    def test_worked_pair_example(self):
        result = coefficient_defect(np.array([3.0, 1.0]), DefectParams(solution_bound=2.0))
        assert result.defect == pytest.approx(2.0, abs=1e-6)

    def test_minimizer_is_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.uniform(-3, 3, rng.integers(1, 9))
            budget = rng.uniform(0.5, 3.0)
            result = coefficient_defect(w, DefectParams(solution_bound=budget))
            assert result.final_l1 <= budget + 1e-8

    def test_matches_analytic_value(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = rng.uniform(-3, 3, rng.integers(1, 17))
            budget = rng.uniform(0.5, 3.0)
            result = coefficient_defect(w, DefectParams(solution_bound=budget))
            assert result.defect == pytest.approx(analytic_defect(w, budget), abs=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1, np.nan)])
    def test_non_finite_coefficient_rejected(self, bad):
        # A NaN coefficient once gave defect NaN.
        with pytest.raises(ShapeError, match="non-finite"):
            coefficient_defect(np.array([bad, 1.0]), DefectParams(solution_bound=1.0))

    def test_complex_coefficients(self):
        w = np.array([3.0 + 4.0j])  # modulus 5
        result = coefficient_defect(w, DefectParams(solution_bound=1.0))
        assert result.defect == pytest.approx(4.0, abs=1e-6)

    @given(st.floats(1.0, 4.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scale_monotone_on_rays(self, scale, seed):
        w = np.random.default_rng(seed).uniform(-2, 2, 4)
        params = DefectParams(solution_bound=1.0)
        base = coefficient_defect(w, params).defect
        scaled = coefficient_defect(scale * w, params).defect
        assert scaled >= base - 1e-8

    @given(
        st.integers(1, 64),
        st.floats(0.01, 10.0),
        st.floats(0.01, 10.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_complex_matches_analytic_excess(self, n, scale, budget, seed):
        rng = np.random.default_rng(seed)
        w = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        l1 = math.fsum(np.hypot(w.real, w.imag))
        result = coefficient_defect(w, DefectParams(solution_bound=budget))
        # Relative to ||w||_1: the excess cancels when ||w||_1 is near T.
        assert result.defect == pytest.approx(max(0.0, l1 - budget), abs=1e-12 * l1)
        assert result.final_l1 == pytest.approx(min(l1, budget), rel=1e-12)


class TestBruteForce:
    def test_interior_point(self):
        assert brute_force_defect(np.array([0.5]), 1.0, 0.01) == pytest.approx(0.0, abs=0.02)

    def test_worked_scalar(self):
        assert brute_force_defect(np.array([3.0]), 1.0, 1e-3) == pytest.approx(2.0, abs=2e-3)

    def test_mass_reduction_in_3d(self):
        assert brute_force_defect(np.array([1.0, 1.0, 1.0]), 1.5, 0.01) == pytest.approx(
            1.5, abs=0.03
        )

    def test_refuses_high_dimension(self):
        with pytest.raises(ParameterError):
            brute_force_defect(np.ones(4), 1.0, 0.1)

    def test_refuses_nonpositive_grid(self):
        with pytest.raises(ParameterError):
            brute_force_defect(np.ones(2), 1.0, 0.0)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = rng.integers(1, 4)
            w = rng.uniform(-3, 3, dim)
            budget = rng.uniform(0.5, 3.0)
            solver = coefficient_defect(w, DefectParams(solution_bound=budget)).defect
            oracle = brute_force_defect(w, budget, 0.01)
            assert abs(solver - oracle) <= 0.05


class TestSparsityDefect:
    def test_full_sampling_identity_frame(self):
        # The sample is back-projected through the adjoint before the frame
        # analysis, so the defect is the excess L1 mass of the IFFT of x.
        op = make_partial_fourier(8, 1.0, 0)
        x = np.zeros(8)
        x[0] = 3.0
        back = np.fft.ifft(x, norm="ortho")
        expected = analytic_defect(back, 1.0)
        result = sparsity_defect(x, op, IDENTITY, DefectParams(solution_bound=1.0))
        assert result.defect == pytest.approx(expected, abs=1e-6)

    def test_dft_frame_full_sampling_is_passthrough(self):
        # With the unitary DFT frame and q=1 the analysis of the adjoint is
        # the signal itself, so the worked coefficient values carry over.
        dft = Frame(kind="unitary-dft")
        op = make_partial_fourier(8, 1.0, 0)
        x = np.zeros(8)
        x[0] = 3.0
        result = sparsity_defect(x, op, dft, DefectParams(solution_bound=1.0))
        assert result.defect == pytest.approx(2.0, abs=1e-6)

    def test_zero_for_budgeted_signal(self):
        op = make_partial_fourier(16, 0.5, 1)
        x = np.zeros(16)
        x[3] = 0.4
        result = sparsity_defect(x, op, IDENTITY, DefectParams(solution_bound=1.0))
        assert result.defect <= 1e-6

    def test_monotone_in_budget(self):
        op = make_partial_fourier(16, 1.0, 0)
        x = np.random.default_rng(7).standard_normal(16) * 2
        defects = [
            sparsity_defect(x, op, IDENTITY, DefectParams(solution_bound=t)).defect
            for t in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b <= a + 1e-8 for a, b in zip(defects, defects[1:]))


    @pytest.mark.parametrize("kind", ["identity", "unitary-dft"])
    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_overflowing_back_projection_is_a_numeric_error(self, kind, q):
        # A finite signal near the float maximum overflows the FFTs of the
        # back-projection in the identity frame, and in unitary-dft the sum
        # of the kept moduli: each mask here keeps at least two of the four
        # huge entries, and any two sum past the float maximum.  The defect
        # and its L1 norm were NaN, with two RuntimeWarnings.
        x = np.array([1.5e308, -1.5e308, 1.5e308, 1e308, 0, 0, 0, 0])
        op = make_partial_fourier(8, q, 0)
        for mask in (op.mask, make_partial_fourier(8, q, derived_seed(0, 0)).mask):
            assert mask[:4].sum() >= 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^non-finite coefficient L1 norm$"):
                sparsity_defect(x, op, Frame(kind=kind), DefectParams(solution_bound=1.0))
            with pytest.raises(NumericError, match="^non-finite coefficient L1 norm$"):
                expected_defect([x], Frame(kind=kind), DefectParams(solution_bound=1.0), 1, 0, q)

    @pytest.mark.parametrize("q", [1.0, 0.7494])
    def test_dft_defect_whose_fft_pair_overflows_is_finite(self, q):
        # Kept, the entry's modulus is the L1 norm: 1.5e308, finite.  The
        # FFT pair through which it was computed overflowed at the forward
        # FFT, whose DC bin sums every entry of the inverse's flat output.
        # expected_defect's one operator keeps every bin at q 1.
        x = np.zeros(8)
        x[0] = 1.5e308
        op = make_partial_fourier(8, q, 0)
        assert op.mask[0] == 1
        params = DefectParams(solution_bound=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sparsity_defect(x, op, DFT, params)
            estimate = expected_defect([x], DFT, params, 1, 0, 1.0).estimate
        assert result == defect.DefectResult(defect=1.5e308 - 1.0, final_l1=1.0)
        assert estimate == 1.5e308 - 1.0


class TestExpectedDefect:
    def test_single_operator_is_max_over_samples(self):
        params = DefectParams(solution_bound=1.0)
        samples = [np.eye(8)[0] * 3.0, np.eye(8)[1] * 2.0]
        est = expected_defect(samples, IDENTITY, params, num_operators=1, master_seed=0)
        op = make_partial_fourier(8, 1.0, 0)
        expected = max(
            sparsity_defect(s, op, IDENTITY, params).defect for s in samples
        )
        assert est.estimate == pytest.approx(expected, abs=1e-6)

    def test_exactly_sparse_budgeted_samples_give_zero(self):
        # Full sampling with the DFT frame makes the analysis of the
        # back-projection the sample itself; budgeted samples have defect 0.
        params = DefectParams(solution_bound=1.0)
        dft = Frame(kind="unitary-dft")
        samples = [np.eye(8)[i] * 0.5 for i in range(4)]
        est = expected_defect(samples, dft, params, num_operators=3, master_seed=0)
        assert est.estimate == pytest.approx(0.0, abs=1e-10)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(9)
        samples = [rng.standard_normal(16) for _ in range(20)]
        estimates = [
            expected_defect(
                samples,
                IDENTITY,
                DefectParams(solution_bound=t),
                num_operators=3,
                master_seed=1,
                subsample_prob=0.7,
            ).estimate
            for t in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b <= a + 1e-8 for a, b in zip(estimates, estimates[1:]))

    def test_requires_samples_and_operators(self):
        params = DefectParams(solution_bound=1.0)
        with pytest.raises(ParameterError):
            expected_defect([], IDENTITY, params, num_operators=1, master_seed=0)
        for num_operators in (0, 2.5, True):
            with pytest.raises(ParameterError, match="num_operators"):
                expected_defect([np.ones(8)], IDENTITY, params, num_operators=num_operators, master_seed=0)

    def test_mean_over_operators_of_max_over_samples(self):
        params = DefectParams(solution_bound=1.0)
        rng = np.random.default_rng(11)
        samples = [rng.standard_normal(16) for _ in range(5)]
        est = expected_defect(samples, IDENTITY, params, 4, master_seed=3, subsample_prob=0.6)
        maxima = []
        for i in range(4):
            op = make_partial_fourier(16, 0.6, derived_seed(3, i))
            maxima.append(max(sparsity_defect(s, op, IDENTITY, params).defect for s in samples))
        assert est.estimate == pytest.approx(np.mean(maxima), rel=1e-15)
        assert est.num_operators == 4

    def test_rejects_mixed_shapes(self):
        params = DefectParams(solution_bound=1.0)
        with pytest.raises(ShapeError):
            expected_defect([np.ones(8), np.ones(16)], IDENTITY, params, 1, master_seed=0)


SHAPES = {1: [(8,), (16,), (64,)], 2: [(8, 8), (8, 16), (16, 16)]}


@st.composite
def defect_batches(draw):
    kind = draw(st.sampled_from(FRAME_KINDS))
    levels = draw(st.integers(1, 3)) if kind.endswith("-dwt") else 0
    shape = draw(st.sampled_from(SHAPES[draw(st.sampled_from((1, 2)))]))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.standard_normal((rows,) + shape)
    if draw(st.booleans()):
        xs = xs + 1j * rng.standard_normal(xs.shape)
    q = draw(st.sampled_from((0.3, 0.7, 1.0)))
    ops = [make_partial_fourier(shape, q, int(s)) for s in rng.integers(0, 2**31, rows)]
    budget = draw(st.sampled_from((0.5, 2.0, 50.0)))
    return xs, ops, Frame(kind=kind, levels=levels), DefectParams(solution_bound=budget)


@st.composite
def dft_batches(draw):
    # Masks of every row's own, or one shared by all rows as expected_defect
    # passes it; odd lengths take pocketfft's other kernels.
    shape = draw(st.sampled_from([(7,), (8,), (128,), (1024,), (5, 12), (16, 16), (64, 64)]))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.standard_normal((rows,) + shape) * 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        xs = xs + 1j * rng.standard_normal(xs.shape)
    q = draw(st.sampled_from((0.0, 0.3, 0.7494, 1.0)))
    seeds = rng.integers(0, 2**31, rows if draw(st.booleans()) else 1)
    mask = np.stack([make_partial_fourier(shape, q, int(s)).mask for s in seeds])
    return mask, xs


class TestDftClosedForm:
    @settings(max_examples=100, deadline=None)
    @given(dft_batches())
    def test_rows_match_the_transform_path_without_an_fft(self, case):
        mask, xs = case
        with mock.patch.object(frames, "_fft_pair", wraps=frames._fft_pair) as fft_pair:
            l1 = defect._l1_batch(mask, xs, DFT)
        assert fft_pair.call_count == 0
        np.testing.assert_allclose(l1, transform_l1(mask, xs, DFT), rtol=1e-12, atol=0)

    def test_the_spy_sees_the_transform_path(self):
        # Every FFT goes through frames._fft_pair: the identity frame's
        # defect runs the adjoint's inverse FFT.
        mask = make_partial_fourier(8, 0.5, 0).mask[None]
        with mock.patch.object(frames, "_fft_pair", wraps=frames._fft_pair) as fft_pair:
            defect._l1_batch(mask, np.ones((2, 8)), IDENTITY)
        assert fft_pair.call_count == 1


class TestDefectBatch:
    @settings(max_examples=80, deadline=None)
    @given(defect_batches())
    def test_rows_match_sparsity_defect_bit_for_bit(self, case):
        xs, ops, frame, params = case
        mask = np.stack([op.mask for op in ops])
        l1 = defect._l1_batch(mask, xs.astype(np.complex128), frame)
        assert l1.shape == (len(xs),)
        for x, op, row in zip(xs, ops, l1):
            single = sparsity_defect(x, op, frame, params)
            batched = defect._result(row, params.solution_bound)
            assert batched.defect == single.defect
            assert batched.final_l1 == single.final_l1

    def test_shape_mismatch_rejected(self):
        op = make_partial_fourier(16, 0.5, 0)
        with pytest.raises(ShapeError):
            sparsity_defect(np.ones(8), op, IDENTITY, DefectParams(solution_bound=1.0))

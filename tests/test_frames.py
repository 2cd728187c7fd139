import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwkit import frames
from rwkit import (
    FRAME_KINDS,
    Frame,
    ParameterError,
    ReconstructionParams,
    ShapeError,
    analyze,
    as_signal,
    purify,
    soft_threshold,
    sparsity_norm,
    synthesize,
)

ORTHONORMAL = ("haar-dwt", "db4-dwt", "unitary-dft")


def random_signal(shape, seed, complex_=True):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    if complex_:
        x = x + 1j * rng.standard_normal(shape)
    return x


def frames_for(n):
    # The most dyadic levels n supports: the exponent of the largest power
    # of two dividing n.
    max_levels = (n & -n).bit_length() - 1
    yield Frame(kind="identity")
    yield Frame(kind="unitary-dft")
    for lv in (1, min(3, max_levels)):
        yield Frame(kind="haar-dwt", levels=lv)
    if n >= 16:
        yield Frame(kind="db4-dwt", levels=1)


def reference_idwt_step(a, d, h, g):
    """Oracle: the scatter-add inverse DWT step that polyphase synthesis replaced.

    Each analysis window's contribution h[k] a[i] + g[k] d[i] is added back
    at position (2i + k) mod n, one row at a time.
    """
    n = 2 * a.shape[-1]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(h.size)[None, :]) % n
    out = np.zeros(a.shape[:-1] + (n,), dtype=np.complex128)
    contrib = a[..., :, None] * h + d[..., :, None] * g
    flat = out.reshape(-1, n)
    cflat = contrib.reshape(-1, n // 2, h.size)
    for row in range(flat.shape[0]):
        np.add.at(flat[row], idx.ravel(), cflat[row].ravel())
    return out


def _reference_step(c, bank):
    half = c.shape[-1] // 2
    h, g, _ = bank
    return reference_idwt_step(c[..., :half], c[..., half:], h, g)


def reference_dwt_2d(x, bank, levels):
    """Oracle: the filter-step 2D analysis that the dense level matrices
    replaced.  Each level filters the rows of the top-left block, then its
    columns, with the 1D periodized step."""
    c = x.copy()
    mh, mw = c.shape[-2:]
    for _ in range(levels):
        a, d = frames._dwt_step(c[..., :mh, :mw], bank)
        block = np.concatenate([a, d], axis=-1).swapaxes(-1, -2)
        a, d = frames._dwt_step(block, bank)
        c[..., :mh, :mw] = np.concatenate([a, d], axis=-1).swapaxes(-1, -2)
        mh //= 2
        mw //= 2
    return c


def reference_idwt_2d(c, bank, levels):
    """Oracle: the inverse of :func:`reference_dwt_2d`, one polyphase
    synthesis step along the columns, then the rows, per level."""
    x = c.copy()
    mh = x.shape[-2] >> levels
    mw = x.shape[-1] >> levels
    for _ in range(levels):
        block = x[..., : 2 * mh, : 2 * mw]
        cols = frames._idwt_step(block.swapaxes(-1, -2), bank)
        x[..., : 2 * mh, : 2 * mw] = frames._idwt_step(cols.swapaxes(-1, -2), bank)
        mh *= 2
        mw *= 2
    return x


def reference_soft_threshold(u, lam):
    """Oracle: the flat numpy kernel that the shaped soft_threshold replaced,
    applied to the raveled array and reshaped back."""
    arr = np.asarray(u, dtype=np.complex128)
    flat = arr.ravel()
    mag = np.abs(flat)
    scale = np.maximum(mag - float(lam), 0.0) / np.where(mag == 0.0, 1.0, mag)
    return (flat * scale).reshape(arr.shape)


class TestSoftThreshold:
    @given(
        st.sampled_from([(1,), (7,), (64,), (8, 8), (64, 128), (2, 8, 8), (3, 64, 64)]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_flat_kernel_oracle_bit_for_bit(self, shape, seed, complex_, lam):
        u = random_signal(shape, seed, complex_)
        rng = np.random.default_rng(seed + 1)
        # Exact zeros, and entries whose modulus is exactly lam.
        u.flat[rng.choice(u.size, size=u.size // 4)] = 0.0
        u.flat[rng.choice(u.size, size=u.size // 8)] = -lam
        out = soft_threshold(u, lam)
        ref = reference_soft_threshold(u, lam)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    def test_signed_zeros_at_zero_lambda_match_the_formula_bit_for_bit(self):
        # The factor of a zero-modulus entry is 0 / 1 in the formula and is
        # left at +0 by the shrink, so every sign of zero must come through.
        zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        u = np.array(zeros + [complex(1.5, -0.0), complex(-0.0, 2.0), complex(-3.0, -4.0)])
        out = soft_threshold(u, 0.0)
        assert np.array_equal(out.view(np.uint64), reference_soft_threshold(u, 0.0).view(np.uint64))

    @pytest.mark.parametrize("lam", [0.0, 5e-324, 1e-310, 1e300])
    def test_extreme_moduli_match_the_formula_bit_for_bit(self, lam):
        # Subnormal and huge moduli, and zeros, against thresholds from 0 to
        # 1e300.  The shrink's quotient overflows to -inf on a subnormal
        # modulus and is NaN at mag = lam = 0; under the session's
        # warnings-as-errors either would fail unless the shrink silences it.
        parts = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308, 1.5, -2.0]
        u = np.array([complex(re, im) for re in parts for im in parts])
        out = soft_threshold(u, lam)
        assert np.array_equal(out.view(np.uint64), reference_soft_threshold(u, lam).view(np.uint64))
        two_d = u.reshape(10, 10)
        assert soft_threshold(two_d, lam).tobytes() == out.tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1e308, np.inf])
    def test_finite_entries_whose_modulus_overflows_are_shrunk(self, lam):
        # These finite entries have a modulus above the largest double, so
        # np.abs gives inf for them.  They are shrunk by lam like any other
        # entry, and every other entry keeps the formula's bits.
        big = np.array([1.5e308 + 1.5e308j, -1.7e308 + 1e308j, 1e308 - 1.7e308j, -1.2e308 - 1.6e308j])
        parts = [0.0, -0.0, 5e-324, 1e-310, 1e308, -1e308, 1.5, -2.0]
        rest = np.array([complex(re, im) for re in parts for im in parts])
        u = np.concatenate([big, rest, [complex(np.inf, 0.0), complex(np.nan, 1.0)]])
        out = soft_threshold(u, lam)
        k = big.size
        if lam == np.inf:
            want = big * 0.0
        elif lam == 1e308:
            # |u| - lam over |u|, from the halved modulus, which is finite.
            want = big * np.array([(abs(z / 2) - lam / 2) / abs(z / 2) for z in big])
            np.testing.assert_allclose(np.abs(want / 2), np.abs(big / 2) - lam / 2, rtol=1e-15)
        else:
            # A shrink by 0.5 is lost in the rounding of 1e308.
            want = big
        assert np.array_equal(out[:k].view(np.uint64), want.view(np.uint64))
        assert np.array_equal(
            out[k : -2].view(np.uint64), reference_soft_threshold(rest, lam).view(np.uint64)
        )
        assert np.all(np.isnan(out[-2:]))

    def test_leaves_its_input_unchanged(self):
        u = random_signal((4, 16), 3)
        u[0, :4] = 0.0
        before = u.copy()
        soft_threshold(u, 0.5)
        assert u.tobytes() == before.tobytes()

    def test_below_threshold_zeroes(self):
        assert soft_threshold(np.array([0.3]), 0.5)[0] == 0.0

    def test_real_positive(self):
        assert soft_threshold(np.array([2.0]), 0.5)[0] == pytest.approx(1.5)

    def test_complex_scaling(self):
        out = soft_threshold(np.array([3.0 + 4.0j]), 1.0)[0]
        assert out == pytest.approx(2.4 + 3.2j)

    def test_zero_lambda_is_identity(self):
        u = random_signal(32, 0)
        np.testing.assert_allclose(soft_threshold(u, 0.0), u)

    def test_zero_input_stays_zero(self):
        np.testing.assert_array_equal(soft_threshold(np.zeros(8), 0.7), np.zeros(8))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            soft_threshold(np.ones(4), -0.1)

    def test_magnitude_shrinks_by_at_most_lambda(self):
        u = random_signal(64, 1)
        out = soft_threshold(u, 0.4)
        assert np.all(np.abs(out) <= np.maximum(np.abs(u) - 0.4, 0.0) + 1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_nonexpansive(self, seed, lam):
        u = random_signal(16, seed)
        v = random_signal(16, seed + 1)
        lhs = np.linalg.norm(soft_threshold(u, lam) - soft_threshold(v, lam))
        assert lhs <= np.linalg.norm(u - v) + 1e-10


class TestFrameConstruction:
    def test_known_kinds(self):
        assert set(ORTHONORMAL) < set(FRAME_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            Frame(kind="shearlet")

    def test_negative_levels_rejected(self):
        with pytest.raises(ParameterError):
            Frame(kind="haar-dwt", levels=-1)

    @pytest.mark.parametrize("levels", [1.5, True, "2", None])
    def test_non_integer_levels_rejected(self, levels):
        with pytest.raises(ParameterError, match="levels must be an integer"):
            Frame(kind="haar-dwt", levels=levels)


class TestAsSignal:
    def test_any_length_is_a_signal_and_the_frame_checks_levels(self):
        assert as_signal(np.ones(12)).shape == (12,)
        with pytest.raises(ShapeError):
            analyze(Frame(kind="haar-dwt", levels=3), np.ones(12))

    @pytest.mark.parametrize("kind", ["haar-dwt", "db4-dwt"])
    @pytest.mark.parametrize("shape", [(16,), (8, 8)])
    def test_huge_levels_are_a_shape_error(self, kind, shape):
        # The check never builds 2**levels, which would not fit in memory.
        f = Frame(kind=kind, levels=10**20)
        for transform in (analyze, synthesize):
            with pytest.raises(ShapeError, match="does not support 100000000000000000000 dyadic"):
                transform(f, np.ones(shape))

    def test_rejects_non_finite(self):
        x = np.ones(8)
        x[3] = np.inf
        with pytest.raises(ShapeError):
            as_signal(x)

    def test_promotes_to_complex(self):
        assert as_signal(np.ones(8)).dtype == np.complex128

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.ones((2, 4, 4)), r"^signal must be a non-empty 1D or 2D array, got shape \(2, 4, 4\)$"),
            (np.ones(0), r"^signal must be a non-empty 1D or 2D array, got shape \(0,\)$"),
            (np.ones((3, 0)), r"^signal must be a non-empty 1D or 2D array, got shape \(3, 0\)$"),
        ],
    )
    def test_public_entry_points_reject_what_is_not_a_signal(self, x, message):
        params = ReconstructionParams(
            iterations=5, threshold=0.1, subsample_prob=0.5, frame=Frame(kind="identity")
        )
        with pytest.raises(ShapeError, match=message):
            analyze(Frame(kind="unitary-dft"), x)
        with pytest.raises(ShapeError, match=message):
            purify(x, params, seed=0)


class TestAnalyzeSynthesize:
    def test_haar_level1_pair(self):
        f = Frame(kind="haar-dwt", levels=1)
        np.testing.assert_allclose(
            analyze(f, np.array([1.0, 1.0])), [np.sqrt(2), 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            synthesize(f, np.array([np.sqrt(2), 0.0])), [1.0, 1.0], atol=1e-12
        )

    def test_dft_impulse(self):
        f = Frame(kind="unitary-dft")
        np.testing.assert_allclose(
            analyze(f, np.eye(4)[0]), np.full(4, 0.5), atol=1e-12
        )

    def test_identity_passthrough(self):
        f = Frame(kind="identity")
        x = np.array([1.0, -2.0, 3.0, 0.0])
        np.testing.assert_array_equal(analyze(f, x), x.astype(np.complex128))

    def test_zero_coefficients_give_zero_signal(self):
        for f in frames_for(64):
            np.testing.assert_array_equal(synthesize(f, np.zeros(64)), np.zeros(64))

    @pytest.mark.parametrize("n", [8, 12, 64, 96, 256])
    def test_round_trip_1d(self, n):
        for f in frames_for(n):
            x = random_signal(n, n)
            np.testing.assert_allclose(synthesize(f, analyze(f, x)), x, atol=1e-10)

    @pytest.mark.parametrize("shape", [(16, 16), (8, 32), (24, 40)])
    def test_round_trip_2d(self, shape):
        for kind, lv in [("identity", 0), ("unitary-dft", 0), ("haar-dwt", 2), ("db4-dwt", 1)]:
            f = Frame(kind=kind, levels=lv)
            x = random_signal(shape, 7)
            np.testing.assert_allclose(synthesize(f, analyze(f, x)), x, atol=1e-10)

    @pytest.mark.parametrize("kind,levels", [("haar-dwt", 3), ("db4-dwt", 2), ("unitary-dft", 0)])
    def test_parseval(self, kind, levels):
        f = Frame(kind=kind, levels=levels)
        for seed in range(10):
            x = random_signal(64, seed)
            assert abs(np.linalg.norm(analyze(f, x)) - np.linalg.norm(x)) <= 1e-10

    def test_linearity(self):
        f = Frame(kind="db4-dwt", levels=2)
        x, y = random_signal(64, 3), random_signal(64, 4)
        a, b = 1.7, -0.3 + 0.2j
        np.testing.assert_allclose(
            analyze(f, a * x + b * y),
            a * analyze(f, x) + b * analyze(f, y),
            atol=1e-10,
        )

    def test_shape_mismatch_rejected(self):
        f = Frame(kind="haar-dwt", levels=4)
        with pytest.raises(ShapeError):
            analyze(f, np.ones(8))  # too few samples for 4 dyadic levels


class TestPolyphaseSynthesis:
    @pytest.mark.parametrize("kind", ["haar-dwt", "db4-dwt"])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize(
        "batch_shape", [(1, 64), (1, 16, 32), (3, 64), (3, 16, 32), (3, 96), (3, 24, 40)]
    )
    def test_matches_scatter_add_oracle(self, kind, levels, batch_shape, monkeypatch):
        # Axis 0 is the batch: one or three 1D or 2D coefficient arrays.
        f = Frame(kind=kind, levels=levels)
        c = random_signal(batch_shape, levels)
        _, synthesize_batch = frames._step_transforms(f, batch_shape[1:])
        fast = synthesize_batch(c)
        monkeypatch.setattr(frames, "_idwt_step", _reference_step)
        slow = synthesize_batch(c)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))

    def test_oracle_inverts_analysis(self, monkeypatch):
        monkeypatch.setattr(frames, "_idwt_step", _reference_step)
        f = Frame(kind="db4-dwt", levels=2)
        x = random_signal((16, 16), 5)
        np.testing.assert_allclose(synthesize(f, analyze(f, x)), x, atol=1e-10)


class TestSparsityNorm:
    def test_identity_l1(self):
        f = Frame(kind="identity")
        assert sparsity_norm(f, np.array([1.0, -2.0, 3.0, 0.0])) == pytest.approx(6.0)

    def test_zero_signal(self):
        f = Frame(kind="haar-dwt", levels=1)
        assert sparsity_norm(f, np.zeros(8)) == 0.0

    def test_haar_constant_signal(self):
        # level-1 Haar of (c, c, c, c): details vanish, two approximation
        # coefficients of c*sqrt(2), so the norm is 2*sqrt(2)*|c|.
        f = Frame(kind="haar-dwt", levels=1)
        c = 0.7
        assert sparsity_norm(f, np.full(4, c)) == pytest.approx(2 * np.sqrt(2) * c)

    def test_complex_modulus_summed(self):
        f = Frame(kind="identity")
        assert sparsity_norm(f, np.array([3.0 + 4.0j])) == pytest.approx(5.0)


@st.composite
def dwt_2d_cases(draw):
    kind = draw(st.sampled_from(("haar-dwt", "db4-dwt")))
    levels = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(((8, 16), (64, 32), (64, 64), (24, 40), (56, 56))))
    rows = draw(st.integers(1, 4))
    x = random_signal((rows,) + shape, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))
    return Frame(kind=kind, levels=levels), x


class TestDenseLevels2D:
    @settings(max_examples=60, deadline=None)
    @given(dwt_2d_cases())
    # The paper's ImageNet input size: 224 = 2**5 * 7.
    @example((Frame(kind="db4-dwt", levels=3), random_signal((1, 224, 224), 224)))
    def test_match_filter_step_oracle(self, case):
        f, x = case
        bank = frames._BANKS[f.kind]
        xs = x.astype(np.complex128)
        analyze_batch, synthesize_batch = frames._step_transforms(f, xs.shape[1:])
        want = reference_dwt_2d(xs, bank, f.levels)
        got = analyze_batch(xs.copy())
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        want = reference_idwt_2d(xs, bank, f.levels)
        got = synthesize_batch(xs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["haar-dwt", "db4-dwt"])
    @pytest.mark.parametrize("m", [2, 4, 6, 8, 12, 28, 64])
    def test_level_matrix_is_orthogonal_and_read_only(self, kind, m):
        d = frames._level_matrix(kind, m)
        np.testing.assert_allclose(d @ d.T, np.eye(m), atol=1e-10)
        assert not d.flags.writeable


class TestFft:
    # _fft/_ifft run a 2D batch as two 1D passes; fft2/ifft2 are the oracle.
    @pytest.mark.parametrize(
        "shape",
        [(1, 8, 8), (3, 9, 7), (2, 16, 24), (5, 15, 15), (1, 1, 5), (2, 7, 1), (4, 64, 64), (1, 12, 33)],
    )
    def test_2d_batch_matches_fft2_bit_for_bit(self, shape):
        x = random_signal(shape, shape[1] * 100 + shape[2])
        for got, want in (
            (frames._fft(x), np.fft.fft2(x, norm="ortho")),
            (frames._ifft(x), np.fft.ifft2(x, norm="ortho")),
        ):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("shape", [(1, 8), (3, 15), (8, 128)])
    def test_1d_batch_matches_fft_bit_for_bit(self, shape):
        x = random_signal(shape, shape[1])
        assert frames._fft(x).tobytes() == np.fft.fft(x, norm="ortho").tobytes()
        assert frames._ifft(x).tobytes() == np.fft.ifft(x, norm="ortho").tobytes()

    @pytest.mark.parametrize(
        "x",
        [
            pytest.param(random_signal((3, 16), 1, complex_=False), id="float-1d"),
            pytest.param(random_signal((2, 8, 12), 2, complex_=False), id="float-2d"),
            pytest.param(random_signal((4, 32), 3)[:, ::2], id="strided-1d"),
            pytest.param(random_signal((6, 16, 15), 4)[::2, 1::3, ::2], id="strided-2d"),
            pytest.param(random_signal((16, 5), 5).T, id="transposed-1d"),
            pytest.param(random_signal((8, 9, 4), 6).T, id="transposed-2d"),
            pytest.param(random_signal((3, 1), 7), id="length-1"),
            pytest.param(random_signal((1, 1, 1), 8), id="length-1x1"),
            pytest.param(random_signal((2, 127), 9), id="prime-127"),
            pytest.param(random_signal((1, 257), 10), id="prime-257"),
            pytest.param(random_signal((2, 127, 6), 11), id="prime-127x6"),
        ],
    )
    def test_direct_kernel_matches_numpy_and_leaves_input_alone(self, x):
        # Input dtypes, layouts and lengths np.fft takes care of in its
        # wrapper, which _fft/_ifft call past.
        before = x.copy()
        if x.ndim == 3:
            fft, ifft = np.fft.fft2, np.fft.ifft2
        else:
            fft, ifft = np.fft.fft, np.fft.ifft
        for got, want in (
            (frames._fft(x), fft(x, norm="ortho")),
            (frames._ifft(x), ifft(x, norm="ortho")),
        ):
            assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
            assert got.strides == want.strides
            got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert x.tobytes() == before.tobytes()

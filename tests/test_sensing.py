import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwkit import (
    ParameterError,
    RwpParameters,
    SensingOperator,
    ShapeError,
    adjoint,
    apply,
    derived_seed,
    make_partial_fourier,
    sensing,
)


def reference_mask(shape, q, seq):
    # Oracle: the mask rule for one operator, with no batch axis.
    rng = np.random.default_rng(seq)
    return (rng.random(shape) < q).astype(np.float64)


def random_signal(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMakePartialFourier:
    def test_full_sampling_mask(self):
        op = make_partial_fourier(16, 1.0, 0)
        np.testing.assert_array_equal(op.mask, np.ones(16))

    def test_empty_sampling(self):
        op = make_partial_fourier(16, 0.0, 0)
        np.testing.assert_array_equal(op.mask, np.zeros(16))
        np.testing.assert_array_equal(apply(op, random_signal(16, 0)), np.zeros(16))

    def test_deterministic_given_seed(self):
        a = make_partial_fourier(64, 0.5, 1234)
        b = make_partial_fourier(64, 0.5, 1234)
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_distinct_seeds_differ(self):
        a = make_partial_fourier(256, 0.5, 0)
        b = make_partial_fourier(256, 0.5, 1)
        assert not np.array_equal(a.mask, b.mask)

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            make_partial_fourier(16, 1.5, 0)
        with pytest.raises(ParameterError):
            make_partial_fourier(16, -0.1, 0)

    def test_any_positive_length_accepted(self):
        assert make_partial_fourier(12, 0.5, 0).mask.shape == (12,)
        with pytest.raises(ShapeError):
            make_partial_fourier(0, 0.5, 0)

    def test_2d_operator(self):
        op = make_partial_fourier((8, 16), 0.5, 0)
        assert op.mask.shape == (8, 16)

    def test_mask_is_binary_and_write_protected(self):
        op = make_partial_fourier(64, 0.5, 0)
        assert set(np.unique(op.mask)) <= {0.0, 1.0}
        with pytest.raises((ValueError, RuntimeError)):
            op.mask[0] = 1.0

    def test_expected_mask_density(self):
        q, n, seeds = 0.7, 256, 1000
        densities = [
            make_partial_fourier(n, q, s).mask.mean() for s in range(seeds)
        ]
        stderr = np.sqrt(q * (1 - q) / n) / np.sqrt(seeds)
        assert abs(np.mean(densities) - q) <= 3 * stderr

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.integers(1, 200).map(lambda n: (n,)),
            st.tuples(st.integers(1, 24), st.integers(1, 24)),
        ),
        st.sampled_from((0.0, 0.5, 0.7494, 1.0)),
        st.integers(0, 2**63 - 1),
        st.integers(1, 6),
    )
    def test_batched_masks_match_per_operator_masks(self, shape, q, seed, rows):
        # Eval draws a block's masks in one call; each row must be the mask
        # make_partial_fourier draws from the same seed sequence.
        seqs = [derived_seed(seed, r, 0) for r in range(rows)]
        masks = sensing._masks(seqs, shape, q)
        assert masks.shape == (rows,) + shape and masks.dtype == np.float64
        for row, seq in zip(masks, seqs):
            want = make_partial_fourier(shape, q, seq).mask
            assert row.tobytes() == want.tobytes()
            assert row.tobytes() == reference_mask(shape, q, seq).tobytes()


class TestApplyAdjoint:
    def test_full_sampling_is_unitary_dft(self):
        op = make_partial_fourier(4, 1.0, 0)
        np.testing.assert_allclose(apply(op, np.eye(4)[0]), np.full(4, 0.5), atol=1e-12)

    def test_apply_contracts(self):
        op = make_partial_fourier(64, 0.5, 3)
        x = random_signal(64, 3)
        assert np.linalg.norm(apply(op, x)) <= np.linalg.norm(x) + 1e-12

    def test_off_mask_entries_exactly_zero(self):
        op = make_partial_fourier(64, 0.5, 4)
        y = apply(op, random_signal(64, 4))
        assert np.all(y[op.mask == 0] == 0)

    def test_adjoint_of_zero(self):
        op = make_partial_fourier(32, 0.5, 5)
        np.testing.assert_array_equal(adjoint(op, np.zeros(32)), np.zeros(32))

    def test_full_sampling_adjoint_inverts(self):
        op = make_partial_fourier(32, 1.0, 0)
        x = random_signal(32, 6)
        np.testing.assert_allclose(adjoint(op, apply(op, x)), x, atol=1e-10)

    def test_shape_mismatch_rejected(self):
        op = make_partial_fourier(32, 0.5, 0)
        with pytest.raises(ShapeError):
            apply(op, np.ones(16))
        with pytest.raises(ShapeError):
            adjoint(op, np.ones(16))

    @pytest.mark.parametrize("seed", range(100))
    def test_phi_phi_star_identity(self, seed):
        op = make_partial_fourier(64, 0.6, seed)
        y = op.mask * random_signal(64, seed + 10_000)
        assert np.max(np.abs(apply(op, adjoint(op, y)) - y)) <= 1e-10

    def test_projection_idempotent(self):
        for seed in range(20):
            op = make_partial_fourier(64, 0.6, seed)
            x = random_signal(64, seed)
            once = adjoint(op, apply(op, x))
            twice = adjoint(op, apply(op, once))
            assert np.max(np.abs(twice - once)) <= 1e-10

    def test_linearity(self):
        op = make_partial_fourier(64, 0.5, 9)
        x, y = random_signal(64, 1), random_signal(64, 2)
        np.testing.assert_allclose(
            apply(op, 2.0 * x - 0.5j * y),
            2.0 * apply(op, x) - 0.5j * apply(op, y),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            adjoint(op, 2.0 * x - 0.5j * y),
            2.0 * adjoint(op, x) - 0.5j * adjoint(op, y),
            atol=1e-10,
        )

    def test_2d_round_trip_on_mask(self):
        op = make_partial_fourier((16, 16), 0.5, 11)
        y = op.mask * random_signal((16, 16), 11)
        np.testing.assert_allclose(apply(op, adjoint(op, y)), y, atol=1e-10)


class TestRwpParameters:
    def test_valid(self):
        p = RwpParameters(rho=0.5, alpha=4.0, rwp_prob=0.9)
        assert p.rho == 0.5

    def test_invalid_rejected(self):
        with pytest.raises(ParameterError):
            RwpParameters(rho=0.0, alpha=4.0, rwp_prob=0.9)
        with pytest.raises(ParameterError):
            RwpParameters(rho=0.5, alpha=-1.0, rwp_prob=0.9)
        with pytest.raises(ParameterError):
            RwpParameters(rho=0.5, alpha=4.0, rwp_prob=1.5)


class TestDerivedSeed:
    def test_deterministic(self):
        a = np.random.default_rng(derived_seed(0, 3)).standard_normal(4)
        b = np.random.default_rng(derived_seed(0, 3)).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_distinct(self):
        a = np.random.default_rng(derived_seed(0, 1)).standard_normal(8)
        b = np.random.default_rng(derived_seed(0, 2)).standard_normal(8)
        assert not np.array_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**63 - 1),
        st.integers(0, 1000),
        st.integers(0, 100_000),
        st.sampled_from((0, 1)),
        st.integers(1, 300),
    )
    def test_spawn_key_stream_equals_spawned_child(self, seed, e, i, k, size):
        # Eval seeds cell (e, i)'s mask and probe streams from the spawn keys
        # (e, i, 0) and (e, i, 1) instead of spawning two children.
        child = np.random.default_rng(derived_seed(seed, e, i).spawn(2)[k])
        direct = np.random.default_rng(derived_seed(seed, e, i, k))
        assert child.random(size).tobytes() == direct.random(size).tobytes()
        assert child.standard_normal(size).tobytes() == direct.standard_normal(size).tobytes()

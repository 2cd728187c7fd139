import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwkit import (
    FRAME_KINDS,
    ConfigError,
    DefectParams,
    ExperimentConfig,
    Frame,
    LinearClassifier,
    ParameterError,
    ReconstructionParams,
    RwpParameters,
    SensingOperator,
    ShapeError,
    adjoint,
    apply,
    defend,
    derived_seed,
    empirical_robust_radius,
    expected_defect,
    gen_data,
    ista_reconstruct,
    make_partial_fourier,
    purify,
    purify_many,
    sensing,
    sparsity_defect,
)
from rwkit.cli import main


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
        # A signal is non-empty and 1D or 2D, so no signal fits an operator
        # of any other shape, drawn or given; () once raised numpy's bare
        # ValueError, and the others built an operator.
        for shape in ((), (2, 2, 2), (1, 1, 1, 1)):
            with pytest.raises(ShapeError, match=r"^signal must be a non-empty 1D or 2D array, got shape \("):
                make_partial_fourier(shape, 0.5, 0)
        for mask in (np.ones((2, 2, 2)), 1.0, np.ones(0), np.ones((2, 0))):
            with pytest.raises(ParameterError, match="^mask must be a non-empty 1D or 2D array, got shape"):
                SensingOperator(mask=mask)

    @pytest.mark.parametrize("shape", [(12.5,), "8", (True, 3), 12.5], ids=["float-axis", "str", "bool-axis", "float"])
    def test_non_integer_shape_rejected(self, shape):
        with pytest.raises(ParameterError, match="axis length must be an integer"):
            make_partial_fourier(shape, 0.5, 0)

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
        # Eval draws a block's masks in one call from the streams' seed
        # words; each row must be the mask make_partial_fourier draws from
        # the same seed sequence.
        seqs = [derived_seed(seed, r, 0) for r in range(rows)]
        masks = sensing._masks([seq.generate_state(4, np.uint64) for seq in seqs], shape, q)
        assert masks.shape == (rows,) + shape and masks.dtype == np.float64
        for row, seq in zip(masks, seqs):
            want = make_partial_fourier(shape, q, seq).mask
            assert row.tobytes() == want.tobytes()
            assert row.tobytes() == reference_mask(shape, q, seq).tobytes()


# Masks with an entry that is not exactly 0 or 1, each as a caller might
# pass it.
NOT_ZERO_ONE = {
    "half": np.full(16, 0.5),
    "three": np.full(16, 3.0),
    "int three": [1, 0, 3, 1],
    "minus one": np.array([1, 0, -1, 1]),
    "nan": np.array([1.0, np.nan, 0.0, 1.0]),
    "inf": np.array([1.0, 0.0, np.inf, 1.0]),
    "minus inf": [1.0, -np.inf, 0.0, 1.0],
    "complex entry": [1.0, 0.0, 1j, 1.0],
    "complex one": np.array([1.0, 0.0, 1.0, 1.0], dtype=np.complex128),
    "strings": ["1", "0", "1", "1"],
    "string": "1011",
    "none": None,
}


class TestMaskCheck:
    """An operator checks its mask once, when it is built: bool, integer and
    real entries that are each exactly 0 or 1 are kept as a read-only
    float64 copy, and any other mask raises ParameterError there, so it
    never reaches a sensing, reconstruction or defect call."""

    @pytest.mark.parametrize("bad", list(NOT_ZERO_ONE.values()), ids=list(NOT_ZERO_ONE))
    def test_a_mask_that_is_not_zero_one_raises_at_construction(self, bad):
        with pytest.raises(ParameterError, match="^mask entries must each be 0 or 1$"):
            SensingOperator(mask=bad)
        x = np.ones(np.shape(bad))
        params = ReconstructionParams(iterations=5, threshold=0.0, subsample_prob=1.0, frame=Frame("identity"))
        for use in (
            lambda op: apply(op, x),
            lambda op: ista_reconstruct(x, op, params),
            lambda op: sparsity_defect(x, op, Frame("identity"), DefectParams(1.0)),
        ):
            with pytest.raises(ParameterError, match="0 or 1"):
                use(SensingOperator(mask=bad))

    def test_the_callers_array_stays_writeable(self):
        given = np.ones(4)
        op = SensingOperator(mask=given)
        assert given.flags.writeable and not op.mask.flags.writeable
        given[0] = 0.0
        assert op.mask.tolist() == [1.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("shape", [(16,), (8, 8)], ids=str)
    def test_bool_int_and_list_masks_give_the_float_masks_bits(self, shape):
        ref = make_partial_fourier(shape, 0.5, 3)
        want = ref.mask
        x = random_signal(shape, 4)
        frames = [Frame(kind, levels=0 if kind in ("identity", "unitary-dft") else 2) for kind in FRAME_KINDS]
        assert len(frames) == 4
        for given in (want.astype(bool), want.astype(np.int64), want.astype(np.uint8), want.tolist()):
            op = SensingOperator(mask=given)
            assert op.mask.dtype == np.float64 and op.mask.tobytes() == want.tobytes()
            assert apply(op, x).tobytes() == apply(ref, x).tobytes()
            assert adjoint(op, x).tobytes() == adjoint(ref, x).tobytes()
            for frame in frames:
                params = ReconstructionParams(iterations=20, threshold=0.01, subsample_prob=0.5, frame=frame)
                y = apply(ref, x)
                assert ista_reconstruct(y, op, params).tobytes() == ista_reconstruct(y, ref, params).tobytes()
                bound = DefectParams(1.0)
                assert sparsity_defect(x, op, frame, bound) == sparsity_defect(x, ref, frame, bound)


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


# Seeds of 1, 2, 4 and 5 little-endian words, and SeedSequence seeds with a
# spawn key, a sequence entropy or a larger pool, alone or together: a pool
# of 8 with a spawn key of multi-word entries, and a sequence entropy with a
# spawn key.
HASHED_SEEDS = st.one_of(
    st.sampled_from((0, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**200)),
    st.integers(0, 2**200),
    st.integers(0, 2**63 - 1).map(lambda s: derived_seed(s, 5)),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=6).map(np.random.SeedSequence),
    st.integers(0, 2**64).map(lambda s: np.random.SeedSequence(s, pool_size=8)),
    st.builds(
        lambda s, key: np.random.SeedSequence(s, spawn_key=key, pool_size=8),
        st.integers(0, 2**300),
        st.lists(st.integers(0, 2**70), min_size=1, max_size=3),
    ),
    st.builds(
        lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=key),
        st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
        st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
    ),
)


class TestBatchedStates:
    @settings(max_examples=100, deadline=None)
    @given(
        HASHED_SEEDS,
        st.integers(1, 4).flatmap(
            lambda m: st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=m, max_size=m), min_size=1, max_size=8)
        ),
    )
    def test_states_match_derived_seed_bit_for_bit(self, seed, keys):
        got = sensing._states(seed, keys)
        want = np.stack([derived_seed(seed, *k).generate_state(4, np.uint64) for k in keys])
        assert got.dtype == want.dtype == np.uint64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "keys",
        [[[2**32]], [[-1]], [[]], [1, 2], [[1.0]]],
        ids=["wide-entry", "negative", "empty-key", "1d", "float"],
    )
    def test_keys_outside_one_word_rejected(self, keys):
        with pytest.raises(ParameterError, match="spawn key"):
            sensing._states(0, keys)

    @settings(max_examples=50, deadline=None)
    @given(
        HASHED_SEEDS,
        st.lists(st.integers(0, 2**32 - 1), max_size=3),
        st.integers(1, 200),
    )
    def test_generator_draws_equal_default_rng(self, seed, key, size):
        seq = derived_seed(seed, *key)
        got = sensing._generator(seq.generate_state(4, np.uint64))
        want = np.random.default_rng(seq)
        assert got.random(size).tobytes() == want.random(size).tobytes()
        assert got.standard_normal(size).tobytes() == want.standard_normal(size).tobytes()


# The seed rule.  A seed is a SeedSequence or an integer >= 0 that is not a
# bool; the integer s names the stream SeedSequence(s).
ACCEPTED_SEEDS = st.one_of(
    st.integers(0, 2**70),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**63 - 1).map(lambda s: derived_seed(s, 5)),
)
REJECTED_SEEDS = st.one_of(
    st.sampled_from(
        [2.9, 2.0, -1, "3", True, False, None, np.True_, np.float64(3.0), np.int64(-1), 1 + 0j, [3], b"3"]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(max_value=-1),
)
SMALL_PARAMS = ReconstructionParams(
    iterations=3, threshold=0.01, subsample_prob=0.6, frame=Frame(kind="identity")
)


def stream(seed):
    # The stream the rule assigns to an accepted seed, built without rwkit.
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def child(seed, *key):
    seq = stream(seed)
    return np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + key)


def reference_gen_data(n, count, k, seed, margin_floor, weights_seed):
    # The dataset rule: weights from child (87,) of the weights seed, and
    # signals from child (88,) of the seed, resampled below the margin floor.
    w = np.random.default_rng(child(weights_seed, 87)).standard_normal(n)
    w /= np.linalg.norm(w)
    rng = np.random.default_rng(child(seed, 88))
    signals = []
    while len(signals) < count:
        support = rng.choice(n, size=k, replace=False)
        values = rng.uniform(-1.0, 1.0, size=k)
        x = np.zeros(n)
        x[support] = values
        if np.all(values != 0.0) and abs(float(np.sum(w * x))) / float(np.linalg.norm(w)) >= margin_floor:
            signals.append(x)
    return w, signals


class TestSeedRule:
    @settings(max_examples=60, deadline=None)
    @given(ACCEPTED_SEEDS, ACCEPTED_SEEDS, st.sampled_from(((16,), (4, 6))))
    def test_accepted_seeds_reproduce_their_streams(self, seed, other, shape):
        want = (np.random.default_rng(stream(seed)).random(shape) < 0.6).astype(np.float64)
        assert derived_seed(seed).generate_state(4).tolist() == stream(seed).generate_state(4).tolist()
        assert make_partial_fourier(shape, 0.6, seed).mask.tobytes() == want.tobytes()

        # purify, purify_many and defend sense through that mask.
        rng = np.random.default_rng(0)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        op = SensingOperator(mask=want)
        expected = ista_reconstruct(apply(op, x), op, SMALL_PARAMS)
        assert purify(x, SMALL_PARAMS, seed).value.tobytes() == expected.tobytes()
        batch = purify_many([x, x], SMALL_PARAMS, [other, seed])
        assert batch[1].value.tobytes() == expected.tobytes()
        clf = LinearClassifier(weights=rng.standard_normal(shape))
        assert defend(clf, x, SMALL_PARAMS, seed) == clf(expected)

        # Operator i of expected_defect is drawn from child (i,).
        frame, bound = Frame(kind="identity"), DefectParams(solution_bound=0.5)
        samples = [rng.standard_normal(shape) for _ in range(3)]
        per_operator = []
        for i in range(2):
            op_i = SensingOperator(
                mask=(np.random.default_rng(child(seed, i)).random(shape) < 0.6).astype(np.float64)
            )
            per_operator.append(max(sparsity_defect(s, op_i, frame, bound).defect for s in samples))
        got = expected_defect(samples, frame, bound, 2, seed, subsample_prob=0.6)
        assert got.estimate == np.mean(per_operator)

    @settings(max_examples=30, deadline=None)
    @given(ACCEPTED_SEEDS, ACCEPTED_SEEDS)
    def test_datasets_and_radii_follow_the_rule(self, seed, weights_seed):
        dataset = gen_data(12, 3, 2, seed, margin_floor=0.05, weights_seed=weights_seed)
        w, signals = reference_gen_data(12, 3, 2, seed, 0.05, weights_seed)
        assert dataset.weights.tobytes() == w.tobytes()
        assert np.asarray(dataset.signals).tobytes() == np.asarray(signals).tobytes()
        default = gen_data(12, 3, 2, seed, margin_floor=0.05)
        assert default.weights.tobytes() == reference_gen_data(12, 3, 2, seed, 0.05, seed)[0].tobytes()

        # The bisection draws its probe directions from the stream itself.
        clf = dataset.classifier
        x = dataset.signals[0]
        got = empirical_robust_radius(clf, x, probes=3, tol=0.05, seed=seed)
        want = empirical_robust_radius(clf, x, probes=3, tol=0.05, seed=stream(seed))
        assert (got.radius, got.trials) == (want.radius, want.trials)

    @settings(max_examples=60, deadline=None)
    @given(REJECTED_SEEDS)
    def test_rejected_seeds_raise_parameter_error_everywhere(self, bad):
        x = np.ones(8)
        clf = LinearClassifier(weights=np.ones(8))
        calls = [
            lambda: derived_seed(bad),
            lambda: derived_seed(0, bad),
            lambda: derived_seed(np.random.SeedSequence(0), 1, bad),
            lambda: make_partial_fourier(8, 0.5, bad),
            lambda: purify(x, SMALL_PARAMS, bad),
            lambda: purify_many([x, x], SMALL_PARAMS, [0, bad]),
            lambda: defend(clf, x, SMALL_PARAMS, bad),
            lambda: gen_data(8, 2, 2, bad),
            lambda: empirical_robust_radius(clf, x, probes=1, seed=bad),
            lambda: expected_defect([x], Frame(kind="identity"), DefectParams(1.0), 1, bad),
        ]
        if bad is not None:  # gen_data's weights_seed=None means "use seed"
            calls.append(lambda: gen_data(8, 2, 2, 0, weights_seed=bad))
        for call in calls:
            with pytest.raises(ParameterError, match=r"must be an integer >= 0"):
                call()
        for key in ("master_seed", "weights_seed"):
            with pytest.raises(ConfigError, match=f"^{key}: seed must be an integer >= 0"):
                ExperimentConfig(**{key: bad})

    @pytest.mark.parametrize("flag", ["2.9", "3.0", "True", "None"])
    def test_cli_rejects_a_non_integer_seed_flag_with_exit_2(self, tmp_path, capsys, flag):
        # A negative --seed is test_cli's test_negative_seed_flag_is_config_error.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=16\ncount=2\nsparsity=2\n")
        out = tmp_path / "ds.csv"
        try:
            code = main(["gen-data", "--config", str(cfg), "--seed", flag, "--out", str(out)])
        except SystemExit as exc:  # argparse refuses a flag that is not an int
            code = exc.code
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

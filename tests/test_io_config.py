import numpy as np
import pytest

from rwkit import (
    ConfigError,
    ExperimentConfig,
    ParameterError,
    config_hash,
    gen_data,
    load_config,
    margin,
    parse_config,
    predict,
    read_dataset,
    read_signal,
    serialize_config,
    write_dataset,
    write_signal,
)


def reference_write_csv(path, x, comments=()):
    """Oracle: the per-element CSV writer that row-at-a-time formatting
    replaced; each numpy scalar's parts are formatted one call at a time."""

    def fmt(v):
        return f"{v:.17g}"

    x = np.asarray(x, dtype=np.complex128)
    lines = [f"# {c}" for c in comments]
    lines.append(f"# shape={'x'.join(str(s) for s in x.shape)}")
    lines.append("index,real,imag")
    for i, v in enumerate(x.ravel()):
        lines.append(f"{i},{fmt(v.real)},{fmt(v.imag)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, np.nan, np.inf, -np.inf]


class TestSignalIO:
    @pytest.mark.parametrize("shape", [(1 << 17,), (64, 128), (1,)])
    @pytest.mark.parametrize("comments", [(), ("rwkit v1 config=abc master_seed=0", "iterations_run=50")])
    def test_csv_bytes_match_per_element_writer(self, tmp_path, shape, comments):
        # The 1D shape reaches six-digit indices.
        rng = np.random.default_rng(len(shape))
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flat = x.reshape(-1)
        for k, v in enumerate(EDGE_VALUES):
            flat[(37 * k) % flat.size] = complex(v, EDGE_VALUES[-1 - k])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_signal(got, x, comments=comments)
        reference_write_csv(want, x, comments=comments)
        assert got.read_bytes() == want.read_bytes()


    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_round_trip_1d(self, tmp_path, suffix):
        x = np.random.default_rng(0).standard_normal(16) + 1j * np.random.default_rng(1).standard_normal(16)
        path = tmp_path / f"sig{suffix}"
        write_signal(path, x)
        np.testing.assert_array_equal(read_signal(path), x)

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_round_trip_2d(self, tmp_path, suffix):
        x = np.random.default_rng(2).standard_normal((8, 4)).astype(complex)
        path = tmp_path / f"sig{suffix}"
        write_signal(path, x)
        out = read_signal(path)
        assert out.shape == (8, 4)
        np.testing.assert_array_equal(out, x)

    def test_csv_comments_preserved_on_read(self, tmp_path):
        path = tmp_path / "sig.csv"
        write_signal(path, np.ones(4), comments=["hello world"])
        assert "# hello world" in path.read_text()
        np.testing.assert_array_equal(read_signal(path), np.ones(4).astype(complex))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "sig.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(ConfigError):
            read_signal(path)

    @pytest.mark.parametrize(
        "shape_line,rows",
        [
            ("2x4", 3),
            ("8", 3),
            ("4", 8),
            ("2x2", 5),
            ("abc", 4),
            ("2x2x1", 4),
            # Axis lengths below 1, whose product can still match the rows.
            ("-2x-3", 6),
            ("0", 0),
        ],
    )
    def test_csv_shape_row_mismatch_rejected(self, tmp_path, shape_line, rows):
        path = tmp_path / "sig.csv"
        body = "".join(f"{i},{i}.5,0\n" for i in range(rows))
        path.write_text(f"# shape={shape_line}\nindex,real,imag\n{body}")
        with pytest.raises(ConfigError):
            read_signal(path)

    def test_csv_malformed_number_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# shape=2\nindex,real,imag\n0,1,0\n1,x,0\n")
        with pytest.raises(ConfigError):
            read_signal(path)

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_missing_file_rejected(self, tmp_path, suffix):
        with pytest.raises(ConfigError, match="cannot read signal"):
            read_signal(tmp_path / f"nope{suffix}")

    def test_undecodable_csv_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_bytes(b"# shape=2\nindex,real,imag\n0,1,0\n1,\xff\xfe,0\n")
        with pytest.raises(ConfigError, match="not a text signal file"):
            read_signal(path)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "sig.bin"
        write_signal(path, np.ones(8))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            read_signal(path)


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(n=64, threshold=0.123456789012345, epsilon_grid=(0.1, 0.25))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_default_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        c = ExperimentConfig(threshold=0.2)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nn=64\n")
        assert cfg.n == 64

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("bogus=1\n")

    def test_retired_solver_keys_accepted_and_ignored(self):
        text = "n=64\nbregman_lambda=0.5\ndefect_tolerance=1e-06\ndefect_max_iterations=10000\n"
        cfg = parse_config(text)
        assert cfg == ExperimentConfig(n=64)
        assert "bregman_lambda" not in serialize_config(cfg)

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match="iterations"):
            parse_config("iterations=lots\n")

    def test_validation_names_field(self):
        with pytest.raises(ConfigError, match="epsilon_grid"):
            ExperimentConfig(epsilon_grid=(0.2, 0.1))
        with pytest.raises(ConfigError, match="n"):
            ExperimentConfig(n=0)
        with pytest.raises(ConfigError, match="subsample_prob"):
            ExperimentConfig(subsample_prob=1.2)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")


class TestGenData:
    def test_exact_sparsity(self):
        dataset = gen_data(32, 20, 3, 0)
        for x in dataset.signals:
            assert np.count_nonzero(x) == 3

    def test_dense_degenerate_allowed(self):
        dataset = gen_data(8, 2, 8, 0)
        for x in dataset.signals:
            assert np.count_nonzero(x) == 8

    def test_sparsity_out_of_range(self):
        with pytest.raises(ParameterError):
            gen_data(8, 2, 9, 0)

    def test_margin_floor_respected(self):
        floor = 0.05
        dataset = gen_data(32, 30, 3, 1, margin_floor=floor)
        clf = dataset.classifier
        for x in dataset.signals:
            assert margin(clf, x) >= floor

    def test_deterministic(self):
        a = gen_data(32, 5, 3, 7)
        b = gen_data(32, 5, 3, 7)
        np.testing.assert_array_equal(a.weights, b.weights)
        for xa, xb in zip(a.signals, b.signals):
            np.testing.assert_array_equal(xa, xb)

    def test_labels_match_classifier(self):
        dataset = gen_data(32, 10, 3, 2)
        clf = dataset.classifier
        for x, label in zip(dataset.signals, dataset.labels):
            assert predict(clf, x) == label

    def test_dataset_file_round_trip(self, tmp_path):
        dataset = gen_data(16, 5, 2, 3)
        path = tmp_path / "ds.csv"
        write_dataset(path, dataset, comments=["test"])
        loaded = read_dataset(path)
        np.testing.assert_array_equal(loaded.weights, dataset.weights)
        assert loaded.labels == dataset.labels
        for xa, xb in zip(loaded.signals, dataset.signals):
            np.testing.assert_array_equal(np.asarray(xa, dtype=complex), np.asarray(xb, dtype=complex))

    def test_same_seed_byte_identical_file(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(p1, gen_data(16, 5, 2, 3))
        write_dataset(p2, gen_data(16, 5, 2, 3))
        assert p1.read_bytes() == p2.read_bytes()


DATASET_ROWS = """\
record,sample,index,real,imag
weight,-1,0,0.6,0
weight,-1,1,0.8,0
signal,0,0,1,0
signal,0,1,0,0
"""


class TestReadDatasetErrors:
    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read dataset"):
            read_dataset(tmp_path / "nope.csv")

    def test_undecodable_file_is_config_error(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_bytes(DATASET_ROWS.encode().replace(b"0.8", b"\xe9\xff"))
        with pytest.raises(ConfigError, match="not a text dataset file"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "old, new",
        [("weight,-1,1,0.8,0", "weight,-1,1,abc,0"), ("signal,0,1,0,0", "signal,0,x,0,0")],
    )
    def test_non_numeric_field_is_config_error(self, tmp_path, old, new):
        path = tmp_path / "ds.csv"
        path.write_text(DATASET_ROWS.replace(old, new))
        with pytest.raises(ConfigError, match="malformed dataset row"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "old, new, what",
        [
            ("weight,-1,1,0.8,0", "weight,-1,2,0.8,0", "weight"),
            ("signal,0,1,0,0", "signal,0,2,0,0", "signal 0"),
        ],
    )
    def test_index_gap_is_config_error(self, tmp_path, old, new, what):
        path = tmp_path / "ds.csv"
        path.write_text(DATASET_ROWS.replace(old, new))
        with pytest.raises(ConfigError, match=f"{what} indices are not 0..1"):
            read_dataset(path)

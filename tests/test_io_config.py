import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwkit import data, io
from rwkit import (
    ConfigError,
    ExperimentConfig,
    ParameterError,
    ShapeError,
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
from oracles import looped_gen_data


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


def reference_read_csv(path):
    """Oracle: the per-line CSV reader that one ``np.loadtxt`` call replaced;
    it splits and converts each row in Python and ignores the index column."""
    shape = None
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("shape="):
                    shape = tuple(int(s) for s in body[6:].split("x"))
                continue
            if line.startswith("index,"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ConfigError(f"{path}: malformed signal row {line!r}")
            try:
                values.append(complex(float(parts[1]), float(parts[2])))
            except ValueError:
                raise ConfigError(f"{path}: malformed signal row {line!r}") from None
    x = np.array(values, dtype=np.complex128)
    if shape is None:
        return x
    if int(np.prod(shape)) != x.size:
        raise ConfigError(f"{path}: shape={'x'.join(map(str, shape))} does not match {x.size} rows")
    return x.reshape(shape)


def writable(comment):
    # The writer's rule: it refuses a comment that would not read back as one.
    try:
        io._check_comment(comment)
    except ParameterError:
        return False
    return True


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

    @pytest.mark.parametrize("shape", [(24,), (4, 6)])
    def test_csv_rows_match_the_per_row_f_string_text(self, tmp_path, shape):
        # The rows are formatted with "%d,%.17g,%.17g"; before, each row was
        # an f-string with :.17g.  Signed zeros, subnormals, huge and
        # integral floats must come out as the f-string wrote them.
        parts = [0.0, -0.0, 5e-324, -1e-310, 1e308, -1e308, 1.0, -2.0, 3e16, 2.0**53, 1e22, 0.1]
        x = np.array([complex(re, im) for re, im in zip(parts + parts, parts[::-1] + parts)])
        x = x.reshape(shape)
        flat = x.ravel()
        want = [f"# shape={'x'.join(map(str, shape))}", "index,real,imag"]
        want.extend(
            f"{i},{re:.17g},{im:.17g}"
            for i, (re, im) in enumerate(zip(flat.real.tolist(), flat.imag.tolist()))
        )
        path = tmp_path / "x.csv"
        write_signal(path, x)
        assert path.read_text() == "\n".join(want) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 40)), st.tuples(st.integers(1, 8), st.integers(1, 8))
        ),
        parts=st.data(),
        comments=st.lists(
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")).filter(
                writable
            ),
            max_size=3,
        ),
    )
    # Once a failing example: the writer put "# shape=" above its own shape
    # line, and neither reader could read the file back.
    @example(shape=(1,), parts=None, comments=["shape="])
    def test_csv_read_matches_per_line_reader(self, tmp_path_factory, shape, parts, comments):
        path = tmp_path_factory.mktemp("csv") / "sig.csv"
        if not all(map(writable, comments)):
            # Only explicit examples get here; the strategy filters these out.
            with pytest.raises(ParameterError):
                write_signal(path, np.zeros(shape), comments=comments)
            assert not path.exists()
            return
        size = math.prod(shape)
        values = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        x = np.empty(size, dtype=np.complex128)
        x.real = parts.draw(st.lists(values, min_size=size, max_size=size))
        x.imag = parts.draw(st.lists(values, min_size=size, max_size=size))
        write_signal(path, x.reshape(shape), comments=comments)
        try:
            want = reference_read_csv(path)
        except ConfigError:
            with pytest.raises(ConfigError):
                read_signal(path)
            return
        got = read_signal(path)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    @pytest.mark.parametrize(
        "comment", ["shape=", "shape=4", "  shape=2x2 ", "\tshape=", "a\nb", "a\rb", "end\r\n", "\n"]
    )
    def test_writer_refuses_comment_that_would_not_read_back(self, tmp_path, suffix, comment):
        path = tmp_path / f"sig{suffix}"
        with pytest.raises(ParameterError, match="cannot be written as one CSV comment line"):
            write_signal(path, np.ones(3), comments=["fine", comment])
        assert not path.exists()

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    @pytest.mark.parametrize("shape", [(2, 2, 2), (), (0,), (0, 3), (3, 0)])
    def test_writer_refuses_array_that_would_not_read_back(self, tmp_path, suffix, shape):
        path = tmp_path / f"sig{suffix}"
        with pytest.raises(ShapeError, match="non-empty 1D or 2D array"):
            write_signal(path, np.ones(shape))
        assert not path.exists()

    @pytest.mark.parametrize(
        "name,content,shape",
        [
            ("sig.bin", io.MAGIC + struct.pack("<II", 0, 0), "(0,)"),
            ("sig.bin", io.MAGIC + struct.pack("<II", 3, 0), "(3, 0)"),
            # No data row and no shape line.
            ("sig.csv", b"index,real,imag\n", "(0,)"),
        ],
    )
    def test_reader_refuses_file_with_an_empty_axis(self, tmp_path, name, content, shape):
        path = tmp_path / name
        path.write_bytes(content)
        message = f"{path}: signal must be a non-empty 1D or 2D array, got shape {shape}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            read_signal(path)

    @pytest.mark.parametrize("comment", ["xshape=", "# shape=", "shape", "shape =4", "operator_seed=3"])
    def test_comment_near_a_shape_line_round_trips(self, tmp_path, comment):
        path = tmp_path / "sig.csv"
        x = np.arange(4.0).reshape(2, 2)
        write_signal(path, x, comments=[comment])
        assert path.read_text().splitlines()[0] == f"# {comment}"
        assert read_signal(path).tobytes() == x.astype(np.complex128).tobytes()

    @pytest.mark.parametrize("indices", [(0, 7), (1, 2), (0, 0), (1, 0), (0, 1.5)])
    def test_csv_index_column_must_count_rows(self, tmp_path, indices):
        path = tmp_path / "sig.csv"
        body = "".join(f"{i},{v},0\n" for i, v in zip(indices, (1, 2)))
        path.write_text(f"# shape=2\nindex,real,imag\n{body}")
        with pytest.raises(ConfigError, match=r"the index column is not 0\.\.1"):
            read_signal(path)

    def test_csv_rows_need_three_columns(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# shape=2\nindex,real,imag\n0,1\n1,2\n")
        with pytest.raises(ConfigError, match="malformed signal row"):
            read_signal(path)

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_non_finite_parts_round_trip(self, tmp_path, suffix):
        # Each part comes back on its own: an infinite or NaN imaginary part
        # leaves the real part alone.
        x = np.empty(4, dtype=np.complex128)
        x.real = [1.0, -2.0, np.inf, np.nan]
        x.imag = [np.inf, np.nan, -0.0, -np.inf]
        path = tmp_path / f"sig{suffix}"
        write_signal(path, x)
        assert read_signal(path).tobytes() == x.tobytes()

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

    def test_csv_shape_line_of_three_axes_gets_the_signal_shape_rule(self, tmp_path):
        # The shape line's axis count is checked once, by the rule every
        # signal is read under, after the reshape.
        path = tmp_path / "sig.csv"
        body = "".join(f"{i},{i}.5,0\n" for i in range(4))
        path.write_text(f"# shape=2x2x1\nindex,real,imag\n{body}")
        want = f"^{re.escape(str(path))}: signal must be a non-empty 1D or 2D array, got shape \\(2, 2, 1\\)$"
        with pytest.raises(ConfigError, match=want):
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

    @pytest.mark.parametrize(
        "x",
        [
            np.array([complex(1.5, -0.0), complex(-0.0, np.nan), complex(np.nan, 0.0), -2.25 + 1e-310j]),
            np.arange(12.0).reshape(3, 4) - 1j * np.arange(12.0).reshape(3, 4)[::-1],
            # Not contiguous: every other column of a Fortran-ordered array.
            np.asfortranarray(np.arange(24.0).reshape(4, 6) * (1 - 2j))[:, ::2],
        ],
        ids=["1d-signed-zero-nan", "2d", "non-contiguous"],
    )
    def test_binary_bytes_match_hand_built_file(self, tmp_path, x):
        rows, cols = (0, x.shape[0]) if x.ndim == 1 else x.shape
        want = io.MAGIC + struct.pack("<II", rows, cols)
        for v in x.ravel().tolist():
            want += struct.pack("<dd", v.real, v.imag)
        path = tmp_path / "sig.bin"
        write_signal(path, x)
        assert path.read_bytes() == want
        assert read_signal(path).tobytes() == np.ascontiguousarray(x).tobytes()

    @pytest.mark.parametrize("comments", [(), ("rwkit v1 config=abc",)])
    def test_csv_with_byte_order_mark_reads_back(self, tmp_path, comments):
        x = np.array([[complex(0.5, -0.0), complex(-0.0, 2.0)], [1e-310 - 1j, -3.0 + 0.25j]])
        path = tmp_path / "sig.csv"
        write_signal(path, x, comments=comments)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_signal(path).tobytes() == x.tobytes()

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "sig.bin"
        write_signal(path, np.ones(8))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            read_signal(path)

    @pytest.mark.parametrize("cut", [1, 3, 15])
    def test_binary_cut_inside_a_value_rejected(self, tmp_path, cut):
        path = tmp_path / "sig.bin"
        write_signal(path, np.ones(8))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ConfigError, match="truncated binary signal"):
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=64\n# comment\nn=128\n", "line 3: key 'n' already given on line 1"),
            ("bregman_lambda=0.5\nbregman_lambda=0.5\n", "line 2: key 'bregman_lambda' already given on line 1"),
        ],
    )
    def test_duplicate_key_is_config_error(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

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

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("alpha", 0.0, "alpha must be positive"),
            ("rho", -1.0, "rho must be positive"),
            ("tau", 0.0, "tau: must be positive"),
            ("rwp_prob", 1.5, "rwp_prob must lie in"),
            ("defect_bound", 0.0, "defect_bound: solution_bound must be positive"),
            ("frame", "wavelet", "unknown frame kind"),
            ("levels", -1, "levels must be an integer >= 0"),
            ("threshold", -0.1, "threshold must be >= 0"),
            ("iterations", 0, "iterations must be >= 1"),
            ("count", 0, "count must be >= 1"),
            ("sparsity", 200, "sparsity k must lie in"),
            ("margin_floor", 0.0, "margin_floor must be positive"),
            ("epsilon_grid", 0.1, "epsilon_grid: must be a sequence of numbers, got 0.1"),
            ("epsilon_grid", None, "epsilon_grid: must be a sequence of numbers, got None"),
            ("epsilon_grid", "0.1,0.2", "epsilon_grid: must be a sequence of numbers, got '0.1,0.2'"),
        ],
    )
    def test_library_rules_name_the_key(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**{key: value})

    def test_recon_params_built_from_keys(self):
        cfg = ExperimentConfig(frame="haar-dwt", levels=2, threshold=0.3, iterations=7)
        params = cfg.recon_params
        assert (params.frame.kind, params.frame.levels) == ("haar-dwt", 2)
        assert (params.threshold, params.iterations, params.subsample_prob) == (0.3, 7, 0.7494)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")


_default_rng = np.random.default_rng


class _CoarseValues:
    # default_rng's generator, except that its uniform draws are rounded to
    # halves, so that draws with a zero value are common.
    def __init__(self, seed):
        self._rng = _default_rng(seed)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def uniform(self, *args, **kwargs):
        return np.round(2 * self._rng.uniform(*args, **kwargs)) / 2


class _LoggedDraws:
    # default_rng's generator, appending each support it chooses and each
    # values vector it draws to log, as [support, values] in stream order.
    def __init__(self, seed, log):
        self._rng = _default_rng(seed)
        self._log = log

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def choice(self, *args, **kwargs):
        support = self._rng.choice(*args, **kwargs)
        self._log.append([support])
        return support

    def uniform(self, *args, **kwargs):
        values = self._rng.uniform(*args, **kwargs)
        self._log[-1].append(values)
        return values


def gen_data_outcome(make, *args, max_resamples=None, budget=None, coarse=False):
    """The dataset's bytes and labels, or the ParameterError message."""
    with (
        mock.patch.object(data, "_MAX_RESAMPLES", max_resamples or data._MAX_RESAMPLES),
        mock.patch.object(data, "_ROUND_ENTRIES", budget or data._ROUND_ENTRIES),
        mock.patch.object(np.random, "default_rng", _CoarseValues if coarse else _default_rng),
    ):
        try:
            dataset = make(*args)
        except ParameterError as exc:
            return str(exc)
    assert all(type(label) is int for label in dataset.labels)
    return dataset.weights.tobytes(), np.asarray(dataset.signals).tobytes(), dataset.labels


class TestGenData:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.integers(1, 300), st.just(1000)).flatmap(
            lambda n: st.tuples(st.just(n), st.one_of(st.integers(1, min(n, 8)), st.integers(1, n)))
        ),
        st.integers(1, 64),
        st.floats(-3, 0).map(lambda e: 10.0**e),
        st.integers(0, 2**32),
        st.one_of(st.none(), st.integers(0, 2**32)),
        st.integers(1, 60),
        st.sampled_from([None, 1, 300]),
        st.booleans(),
    )
    # The second round ends with 9 rejections and the third opens with 7
    # more, so the 14th rejection in a row, carried across rounds, fails
    # the sample mid-round.
    @example((78, 5), 16, 0.2246177707157482, 0, None, 14, None, False)
    # The seventh round ends with 2 rejections after its last accepted draw
    # and the eighth opens with 1 more, so with 3 allowed the run that a
    # round leaves behind fails the sample.
    @example((45, 7), 22, 0.04292088497097331, 33, None, 3, None, False)
    def test_matches_the_one_draw_at_a_time_oracle(
        self, nk, count, floor, seed, weights_seed, max_resamples, budget, coarse
    ):
        # Floors up to 1 reject most or all draws, and a patched
        # _MAX_RESAMPLES sends those to the error path; a round budget
        # below n draws one row per round; coarse values make zero values
        # common, which must be rejected.
        n, k = nk
        args = (n, count, k, seed, floor, weights_seed)
        options = dict(max_resamples=max_resamples, budget=budget, coarse=coarse)
        assert gen_data_outcome(gen_data, *args, **options) == gen_data_outcome(
            looped_gen_data, *args, **options
        )

    @pytest.mark.parametrize(
        "args, message",
        [
            ((8, 3, 1, 0, 1.5), "margin_floor 1.5 not reached in 5 draws"),
            ((8, 1, 2, 0, 10**400), f"margin_floor {10**400} not reached in 5 draws"),
        ],
        ids=["unreachable-floor", "floor-beyond-float-range"],
    )
    def test_unreachable_floor_fails_as_the_oracle_does(self, args, message):
        for make in (gen_data, looped_gen_data):
            assert gen_data_outcome(make, *args, max_resamples=5) == message

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(n, 8)))),
        st.integers(1, 64),
        st.floats(-3, -1).map(lambda e: 10.0**e),
        st.integers(0, 2**32),
        st.sampled_from([None, 1, 300]),
    )
    def test_rounds_draw_past_the_oracle_only_after_doubling(self, nk, count, floor, seed, budget):
        # A round draws as many rows as samples are missing, so a round that
        # fills them all is used up.  Only a round doubled after a round of
        # P rejections can end early, wasting fewer than 2P draws, and P is
        # at most the oracle's longest run of rejections.
        n, k = nk
        logs, datasets = {}, {}
        for make in (looped_gen_data, gen_data):
            log = logs[make] = []
            with (
                mock.patch.object(data, "_MAX_RESAMPLES", 200),
                mock.patch.object(data, "_ROUND_ENTRIES", budget or data._ROUND_ENTRIES),
                mock.patch.object(np.random, "default_rng", lambda seed: _LoggedDraws(seed, log)),
            ):
                try:
                    datasets[make] = make(n, count, k, seed, floor)
                except ParameterError:
                    return
        signals = datasets[looped_gen_data].signals
        accepted = []
        for i, (support, values) in enumerate(logs[looped_gen_data]):
            x = np.zeros(n)
            x[support] = values
            if len(accepted) < count and np.array_equal(x, signals[len(accepted)]):
                accepted.append(i)
        drawn = len(logs[looped_gen_data])
        assert len(accepted) == count and accepted[-1] == drawn - 1
        longest = int(np.max(np.diff(accepted, prepend=-1) - 1))
        assert len(logs[gen_data]) - drawn <= max(0, 2 * longest - 1)

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

    @pytest.mark.parametrize(
        "n, count, margin_floor",
        [(32, 5, float("nan")), (32, 5, -1.0), (32, 5, 0.0), (32, float("nan"), 1e-3), (float("nan"), 5, 1e-3)],
        ids=["floor-nan", "floor-negative", "floor-zero", "count-nan", "n-nan"],
    )
    def test_bad_parameters_rejected(self, n, count, margin_floor):
        with pytest.raises(ParameterError):
            gen_data(n, count, 3, 0, margin_floor=margin_floor)

    @pytest.mark.parametrize(
        "n, count, k, name",
        [(8.5, 5, 3, "n"), (32, 2.5, 3, "count"), (32, 5, 2.5, "sparsity k")],
        ids=["n", "count", "k"],
    )
    def test_non_integer_sizes_rejected(self, n, count, k, name):
        with pytest.raises(ParameterError, match=f"^{name} must be an integer"):
            gen_data(n, count, k, 0)

    def test_n_beyond_numpy_row_length_rejected(self):
        # Checked before any draw, so nothing of this size is allocated.  The
        # bound is written exactly: %g gave 5.76461e+17, above the value refused.
        longest = np.iinfo(np.intp).max // 16
        with pytest.raises(ParameterError, match=f"^n must lie in \\[1, {longest}\\], got {longest + 1}$"):
            gen_data(longest + 1, 2, 3, 0)

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
        for suffix in (".csv", ".bin"):
            for n in (32, 128):
                for count in (1, 5, 50):
                    dataset = gen_data(n, count, 3, n + count)
                    path = tmp_path / f"ds-{n}-{count}{suffix}"
                    write_dataset(path, dataset, comments=["test"])
                    loaded = read_dataset(path)
                    assert loaded.weights.dtype == dataset.weights.dtype
                    assert loaded.weights.tobytes() == dataset.weights.tobytes()
                    assert loaded.labels == dataset.labels
                    assert len(loaded.signals) == count
                    for xa, xb in zip(loaded.signals, dataset.signals):
                        assert xa.dtype == xb.dtype
                        assert xa.tobytes() == xb.tobytes()

    def test_same_seed_byte_identical_file(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(p1, gen_data(16, 5, 2, 3))
        write_dataset(p2, gen_data(16, 5, 2, 3))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_weight_row_scaled_by_1e_200_reads_back_the_same_labels(self, tmp_path, suffix):
        # A label depends only on the direction of the weights.  With signals
        # of order 1e-150 the products of the scaled weight row underflow, and
        # summing them as they stand gave +1 for most rows.
        dataset = gen_data(32, 50, 3, 5)
        signals = [1e-150 * x for x in dataset.signals]
        labels = []
        for scale in (1.0, 1e-200):
            path = tmp_path / f"ds-{scale}{suffix}"
            weights = scale * dataset.weights
            write_dataset(path, data.Dataset(weights=weights, signals=signals, labels=dataset.labels))
            labels.append(read_dataset(path).labels)
        assert labels[0] == labels[1] == dataset.labels


DATASET_ROWS = """\
# shape=2x2
index,real,imag
0,0.6,0
1,0.8,0
2,1,0
3,0,0
"""


class TestReadDatasetErrors:
    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read signal"):
            read_dataset(tmp_path / "nope.csv")

    def test_undecodable_file_is_config_error(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_bytes(DATASET_ROWS.encode().replace(b"0.8", b"\xe9\xff"))
        with pytest.raises(ConfigError, match="not a text signal file"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("1,0.8,0", "1,abc,0", "malformed signal row"),
            ("2,1,0", "2,x,0", "malformed signal row"),
            ("# shape=2x2", "# shape=3x2", "shape=3x2 does not match 4 rows"),
            ("# shape=2x2\n", "", r"a dataset is a 2D array, got shape \(4,\)"),
            ("# shape=2x2", "# shape=1x4", "a weight row and at least one signal row"),
            ("1,0.8,0", "1,0.8,0.5", "the weight row is refused: weight vector has a non-zero imaginary part"),
            ("1,0.8,0", "1,nan,0", "the weight row is refused: weight vector contains non-finite entries"),
            ("2,1,0", "2,nan,0", "a signal row is refused: signal contains non-finite entries"),
            ("3,0,0", "3,0,inf", "a signal row is refused: signal contains non-finite entries"),
            ("0,0.6,0\n1,0.8,0", "0,0,0\n1,0,0", "the weight row is refused: weights must not be all zero"),
        ],
        ids=[
            "weight-number",
            "signal-number",
            "shape-mismatch",
            "no-shape-1d",
            "one-row",
            "complex-weight",
            "nan-weight",
            "nan-signal",
            "inf-signal-imag",
            "zero-weights",
        ],
    )
    def test_malformed_dataset_is_config_error(self, tmp_path, old, new, match):
        path = tmp_path / "ds.csv"
        path.write_text(DATASET_ROWS.replace(old, new))
        with pytest.raises(ConfigError, match=match):
            read_dataset(path)

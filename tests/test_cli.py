import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rwkit
from rwkit import FRAME_KINDS, ExperimentConfig, read_signal, write_signal
from rwkit import certify, cli, data, defect, reconstruct, sensing
from rwkit.classifier import predict
from rwkit.cli import main
from rwkit.errors import InfeasibleError, ParameterError

from oracles import exact_certificate

FAST_CONFIG = """\
n=32
count=4
sparsity=2
iterations=40
threshold=0.002
subsample_prob=0.7
epsilon_grid=0.01,0.05
margin_floor=0.05
"""


def fast_config(*lines):
    # FAST_CONFIG with each given key=value line in place of that key's line;
    # a config that gives a key twice is an error.
    keys = {line.split("=", 1)[0] for line in lines}
    kept = [line for line in FAST_CONFIG.splitlines() if line.split("=", 1)[0] not in keys]
    return "\n".join(kept + list(lines)) + "\n"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(FAST_CONFIG)
    return str(path)


@pytest.fixture
def signal_path(tmp_path):
    x = np.zeros(32)
    x[[3, 10]] = [1.0, -0.5]
    path = tmp_path / "sig.csv"
    write_signal(path, x)
    return str(path)


class TestExitCodes:
    def test_success(self, config_path, tmp_path):
        out = tmp_path / "ds.csv"
        assert main(["gen-data", "--config", config_path, "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("bogus_key=1\n", "unknown config key 'bogus_key'"),
            ("# a comment\nn 12\n", "line 2: expected key=value, got 'n 12'"),
        ],
        ids=["unknown-key", "no-equals-sign"],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["eval", "--config", str(bad)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_numeric_failure_exit_code(self, tmp_path, signal_path):
        # An infeasible certificate (alpha * tau <= 2 * epsilon) is a
        # numeric failure, not a config problem.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG + "alpha=2.1\ntau=0.01\n")
        assert main(["certify", "--config", str(cfg), "--epsilon", "0.2"]) == 3

    @pytest.mark.parametrize("command", ["purify", "defect"])
    def test_missing_input_signal(self, config_path, capsys, command):
        assert main([command, "--config", config_path]) == 2
        assert capsys.readouterr().err == f"config error: {command} requires --in <signal file>\n"

    @pytest.mark.parametrize("shape_line", ["2x4", "8"])
    def test_signal_shape_row_mismatch_is_config_error(self, config_path, tmp_path, shape_line):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"# shape={shape_line}\nindex,real,imag\n0,1,0\n1,2,0\n2,3,0\n")
        assert main(["purify", "--config", config_path, "--in", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["purify", "defect"])
    @pytest.mark.parametrize("name", ["nope.csv", "nope.bin"])
    def test_missing_input_file_is_config_error(self, config_path, tmp_path, capsys, command, name):
        path = tmp_path / name
        assert main([command, "--config", config_path, "--in", str(path)]) == 2
        assert "config error: cannot read signal" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "purify", "defect", "certify", "eval"])
    def test_unwritable_out_is_config_error(self, config_path, signal_path, tmp_path, capsys, command):
        out = tmp_path / "missing-dir" / "out.csv"
        argv = [command, "--config", config_path, "--out", str(out)]
        if command in ("purify", "defect"):
            argv += ["--in", signal_path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out}") and err.count("\n") == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["gen-data", "purify", "defect", "certify", "eval"])
    def test_non_utf8_config_is_config_error(self, tmp_path, signal_path, capsys, command):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"n=12\xc3\x28\n")
        argv = [command, "--config", str(bad), "--out", str(tmp_path / "out.csv")]
        if command in ("purify", "defect"):
            argv += ["--in", signal_path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: not a text config file") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["purify", "defect", "eval"])
    def test_huge_levels_is_config_error(self, tmp_path, signal_path, capsys, command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fast_config("frame=haar-dwt", f"levels={10**20}"))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
        if command in ("purify", "defect"):
            argv += ["--in", signal_path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "axis length 32 does not support 100000000000000000000 dyadic" in err

    @pytest.mark.parametrize("command", ["purify", "defect"])
    def test_undecodable_input_file_is_config_error(self, config_path, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"# shape=2\nindex,real,imag\n0,\xe9\xff,0\n1,2,0\n")
        assert main([command, "--config", config_path, "--in", str(bad)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["purify", "defect"])
    @pytest.mark.parametrize(
        "extra_config, shape_line, rows, message",
        [
            ("frame=haar-dwt\nlevels=7\n", "64", ["1"] * 64, "does not support 7 dyadic"),
            ("", "32", ["1"] * 3 + ["nan"] + ["1"] * 28, "non-finite entries"),
            ("", "-2x-3", ["1"] * 6, "shape axes must be >= 1"),
        ],
        ids=["levels-beyond-length", "nan-entry", "negative-shape-line"],
    )
    def test_bad_input_signal_is_config_error(
        self, tmp_path, capsys, command, extra_config, shape_line, rows, message
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG + extra_config)
        bad = tmp_path / "bad.csv"
        body = "".join(f"{i},{v},0\n" for i, v in enumerate(rows))
        bad.write_text(f"# shape={shape_line}\nindex,real,imag\n{body}")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--in", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "eval"])
    def test_unreachable_margin_floor_is_config_error(self, tmp_path, capsys, command):
        # A 2-sparse signal with entries in (-1, 1) has margin below sqrt(2)
        # against a unit weight vector, so no draw reaches a floor of 5.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fast_config("margin_floor=5", "count=2"))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: margin_floor 5.0 not reached") and err.count("\n") == 1
        assert not out.exists()

    def test_eval_empty_epsilon_grid_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG.replace("epsilon_grid=0.01,0.05", "epsilon_grid="))
        out = tmp_path / "report.csv"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "threshold=nan",
            "defect_bound=nan",
            "alpha=inf",
            "rho=-inf",
            "tau=nan",
            "epsilon_grid=nan",
            "epsilon_grid=0.1,inf",
        ],
    )
    def test_eval_non_finite_config_value_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fast_config(line))
        out = tmp_path / "report.csv"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "gen-data", "purify", "defect", "certify"])
    def test_negative_seed_flag_is_config_error(self, config_path, signal_path, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        argv = [command, "--config", config_path, "--seed", "-1", "--out", str(out)]
        if command in ("purify", "defect"):
            argv += ["--in", signal_path]
        assert main(argv) == 2
        assert "config error: --seed: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["master_seed", "weights_seed"])
    def test_negative_config_seed_is_config_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG + f"{key}=-1\n")
        out = tmp_path / "report.csv"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {key}: seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--epsilon", "--expected-defect"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_certify_non_finite_flag_is_config_error(self, config_path, capsys, flag, value):
        assert main(["certify", "--config", config_path, f"{flag}={value}"]) == 2
        assert f"config error: {flag}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--epsilon", "--expected-defect"])
    @pytest.mark.parametrize("value", ["-0.1", "-1e-300"])
    def test_certify_negative_flag_is_config_error(self, config_path, tmp_path, capsys, flag, value):
        out = tmp_path / "cert.txt"
        assert main(["certify", "--config", config_path, f"{flag}={value}", "--out", str(out)]) == 2
        assert f"config error: {flag}: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "purify", "defect", "certify", "eval"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("alpha=0", "alpha must be positive"),
            ("rho=-1", "rho must be positive"),
            ("tau=0", "tau: must be positive"),
            ("defect_bound=0", "defect_bound: solution_bound must be positive"),
        ],
    )
    def test_certificate_constant_out_of_range_is_config_error(
        self, tmp_path, signal_path, capsys, command, line, message
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG + line + "\n")
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command in ("purify", "defect"):
            argv += ["--in", signal_path]
        assert main(argv) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frame, levels, n", [("haar-dwt", 9, 128), ("db4-dwt", 6, 32)])
    def test_eval_unsupported_levels_is_config_error(self, tmp_path, capsys, frame, levels, n):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fast_config(f"frame={frame}", f"levels={levels}", f"n={n}"))
        out = tmp_path / "report.csv"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: levels: axis length {n} does not support {levels} " in err
        assert not out.exists()

    def test_certify_empty_epsilon_grid_falls_back_to_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG.replace("epsilon_grid=0.01,0.05", "epsilon_grid="))
        assert main(["certify", "--config", str(cfg), "--expected-defect", "0"]) == 0
        assert "radius=0\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "grid, epsilon_args",
        [("epsilon_grid=0,0.05", []), ("epsilon_grid=", []), ("epsilon_grid=0.01,0.05", ["--epsilon", "0"])],
    )
    def test_certify_zero_epsilon_with_positive_defect_has_gain_zero(
        self, tmp_path, grid, epsilon_args
    ):
        # kappa(0) is +inf for a positive defect: the gain bound is 0 and the
        # probability is the exact 0.99 - 4*4*0.05*0.5 / (4*0.5).
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG.replace("epsilon_grid=0.01,0.05", grid))
        out = tmp_path / "cert.txt"
        argv = ["certify", "--config", str(cfg), "--expected-defect", "0.5", "--out", str(out)]
        assert main(argv + epsilon_args) == 0
        probability, vacuous = exact_certificate(0.99, 4.0, 0.05, 0.5, 0.0, 0.5)
        lines = out.read_text().splitlines()[1:5]
        assert lines == ["radius=0", f"probability={probability:.17g}", "gain=0", f"vacuous={vacuous}"]

    @pytest.mark.parametrize(
        "command, module, name",
        [
            ("purify", reconstruct, "purify"),
            ("defect", defect, "sparsity_defect"),
            ("certify", certify, "certify_probabilistic"),
        ],
    )
    def test_parameter_error_from_a_command_is_config_error(
        self, config_path, signal_path, tmp_path, capsys, monkeypatch, command, module, name
    ):
        # main maps every ParameterError to exit 2, wherever it is raised.
        def refuse(*args, **kwargs):
            raise ParameterError("probe")

        monkeypatch.setattr(module, name, refuse)
        out = tmp_path / "out.csv"
        argv = [command, "--config", config_path, "--out", str(out)]
        if command in ("purify", "defect"):
            argv += ["--in", signal_path]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: probe\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "purify", "defect", "certify", "eval"])
    @pytest.mark.parametrize("n", [10**20, 2**60])
    def test_huge_n_is_config_error(self, tmp_path, signal_path, capsys, command, n):
        # Longer than any complex128 row numpy can index: refused with the
        # config, before anything is allocated.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fast_config(f"n={n}"))
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command in ("purify", "defect"):
            argv += ["--in", signal_path]
        assert main(argv) == 2
        longest = np.iinfo(np.intp).max // 16
        assert capsys.readouterr().err == f"config error: n must lie in [1, {longest}], got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "eval"])
    def test_failed_allocation_is_config_error(self, config_path, tmp_path, capsys, monkeypatch, command):
        # The allocation is simulated: one of this size could be granted by
        # a host that overcommits memory and then end the run.
        message = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"

        def allocate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(data, "gen_data", allocate)
        out = tmp_path / "out.csv"
        assert main([command, "--config", config_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "eval"])
    @pytest.mark.parametrize("grid", ["0.1,,0.2", "0.1,", ",0.1"])
    def test_empty_epsilon_grid_entry_is_config_error(self, tmp_path, capsys, command, grid):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fast_config(f"epsilon_grid={grid}"))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: epsilon_grid: could not convert string to float: ''\n"
        assert not out.exists()

    def test_certify_with_alpha_near_the_float_maximum(self, tmp_path, capsys):
        # 4*alpha*rho*d and alpha*tau overflow; the certificate is the exact
        # ratio's 0.99 - 4/(10 - 2e-309), not a NaN that exits 3.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fast_config("alpha=1e308", "tau=10", "rho=1"))
        argv = ["certify", "--config", str(cfg), "--expected-defect", "1", "--epsilon", "0.1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "probability=0.58999999999999997\n" in out and "vacuous=False\n" in out

    def test_eval_with_alpha_near_the_float_maximum_has_finite_certificates(self):
        cfg = rwkit.parse_config(fast_config("alpha=1e308", "tau=10", "rho=1"))
        for row in cli.run_eval(cfg, 0):
            assert all(np.isfinite(row[key]) for key in ("cert_probability", "cert_gain"))


class TestSubcommands:
    def test_gen_data_header(self, config_path, tmp_path):
        out = tmp_path / "ds.csv"
        main(["gen-data", "--config", config_path, "--out", str(out)])
        head = out.read_text().splitlines()[0]
        assert head.startswith("# rwkit v1 config=")
        assert "master_seed=0" in head

    def test_purify_round_trips_signal(self, config_path, signal_path, tmp_path):
        out = tmp_path / "purified.csv"
        assert main(["purify", "--config", config_path, "--in", signal_path, "--out", str(out)]) == 0
        x = read_signal(signal_path)
        purified = read_signal(out)
        assert purified.shape == x.shape
        assert np.linalg.norm(purified.real - x.real) < 0.5

    def test_defect_reports_value(self, config_path, signal_path, tmp_path, capsys):
        assert main(["defect", "--config", config_path, "--in", signal_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# rwkit-defect v2 config=")
        assert "master_seed=0" in lines[0]
        assert [line.split("=")[0] for line in lines[1:]] == ["defect", "final_l1"]
        assert float(lines[1].split("=")[1]) >= 0.0

    def test_certify_zero_defect_prints_q(self, config_path, capsys):
        assert main(["certify", "--config", config_path, "--expected-defect", "0"]) == 0
        captured = capsys.readouterr().out
        assert "probability=0.98999999999999999" in captured

    def test_eval_report_schema(self, config_path, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["eval", "--config", config_path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# rwkit-report v5 config=")
        assert lines[1] == (
            "epsilon,clean_accuracy,defended_accuracy_under_probe,"
            "mean_reconstruction_error,mean_defect,"
            "cert_probability,cert_gain,seed"
        )
        assert len(lines) == 4  # header comment + column row + 2 epsilons
        for line in lines[2:]:
            fields = line.split(",")
            assert 0.0 <= float(fields[1]) <= 1.0
            assert 0.0 <= float(fields[2]) <= 1.0

    def test_eval_epsilon_zero_matches_clean(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG.replace("epsilon_grid=0.01,0.05", "epsilon_grid=0.0"))
        out = tmp_path / "report.csv"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[1] == row[2]  # defended accuracy under a zero probe is clean

    def test_eval_epsilon_zero_certificate_is_finite(self):
        # kappa(0) is +inf: the row at epsilon 0 carries certify_probabilistic's
        # probability and gain 0, not NaN.  defect_bound=0.5 makes the
        # mean defect positive.
        cfg = rwkit.parse_config(fast_config("epsilon_grid=0,0.05", "defect_bound=0.5"))
        row = cli.run_eval(cfg, 0)[0]
        assert row["epsilon"] == 0 and row["mean_defect"] > 0
        cert = certify.certify_probabilistic(
            cfg.rwp_prob, cfg.alpha, cfg.rho, cfg.tau, 0.0, row["mean_defect"]
        )
        assert cert.gain == 0.0 and 0 < cert.probability < cfg.rwp_prob
        assert (row["cert_probability"], row["cert_gain"]) == (cert.probability, cert.gain)

    def test_seed_flag_overrides_master_seed(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", config_path, "--out", str(a)])
        main(["gen-data", "--config", config_path, "--seed", "99", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestDeterminism:
    def test_eval_ignores_retired_backend_variable(self, config_path, tmp_path):
        # RWKIT_BACKEND once chose a soft-threshold kernel; a stale value in
        # the environment must not change or break a run.
        src = str(Path(rwkit.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "RWKIT_BACKEND"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys; from rwkit.cli import main; sys.exit(main(sys.argv[1:]))"
        outs = []
        for name, extra in (("plain.csv", {}), ("foo.csv", {"RWKIT_BACKEND": "foo"})):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-c", code, "eval", "--config", config_path, "--out", str(out)],
                capture_output=True,
                text=True,
                env={**env, **extra},
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_eval_rerun_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["eval", "--config", config_path, "--out", str(a)]) == 0
        assert main(["eval", "--config", config_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_repeated_main_calls_match_single_call_runs(self, config_path, signal_path, tmp_path):
        # main builds its parser once per process; no run may leave state
        # that the next one reads.  Each command, with and without --seed,
        # runs twice in this process and once in a fresh one.
        runs = [
            ["eval"],
            ["eval", "--seed", "5"],
            ["purify", "--in", signal_path],
            ["purify", "--in", signal_path, "--seed", "5"],
            ["certify", "--expected-defect", "0.01"],
            ["certify", "--seed", "5", "--epsilon", "0.2"],
        ]
        src = str(Path(rwkit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = "import sys; from rwkit.cli import main; sys.exit(main(sys.argv[1:]))"
        single = []
        for k, argv in enumerate(runs):
            out = tmp_path / f"single{k}.csv"
            args = argv + ["--config", config_path, "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            single.append(out.read_bytes())
        for round_ in range(2):
            for k, argv in enumerate(runs):
                out = tmp_path / f"repeat{round_}_{k}.csv"
                assert main(argv + ["--config", config_path, "--out", str(out)]) == 0
                assert out.read_bytes() == single[k], (round_, argv)

    def test_config_with_byte_order_mark_gives_the_same_report(self, config_path, tmp_path):
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(config_path).read_bytes())
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        assert main(["eval", "--config", config_path, "--out", str(plain)]) == 0
        assert main(["eval", "--config", str(bom), "--out", str(marked)]) == 0
        assert marked.read_bytes() == plain.read_bytes()

    def test_no_command_opens_text_in_the_locale_encoding(self, config_path, signal_path, tmp_path):
        # Every text file rwkit reads or writes names its encoding, so no
        # command warns under -X warn_default_encoding.
        runs = [
            ["gen-data", "--out", str(tmp_path / "data.csv")],
            ["purify", "--in", signal_path, "--out", str(tmp_path / "purified.csv")],
            ["defect", "--in", signal_path, "--out", str(tmp_path / "defect.txt")],
            ["certify", "--out", str(tmp_path / "cert.txt")],
            ["eval", "--out", str(tmp_path / "report.csv")],
        ]
        src = str(Path(rwkit.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import json, sys; from rwkit.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if main(argv):\n"
            "        sys.exit(' '.join(argv))\n"
        )
        argvs = json.dumps([argv + ["--config", config_path] for argv in runs])
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", code, argvs],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr

    def test_gen_data_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", config_path, "--out", str(a)])
        main(["gen-data", "--config", config_path, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


DATA_DIR = Path(__file__).parent / "data"

# Recorded outputs: (command, config, extra argv, input file or None,
# recorded file).
# Refactors that keep the maths must not move a byte of them.
RECORDED_OUTPUTS = {
    "gen-data": (
        "gen-data",
        "n=16\ncount=3\nsparsity=2\nmargin_floor=0.05\nweights_seed=5\nmaster_seed=2\n",
        [],
        None,
        "gen_data.csv",
    ),
    "purify-1d-identity": (
        "purify",
        "frame=identity\nn=32\niterations=30\nthreshold=0.01\nsubsample_prob=0.6\nmaster_seed=4\n",
        [],
        "purify_1d_in.csv",
        "purify_1d.csv",
    ),
    "purify-2d-db4": (
        "purify",
        "frame=db4-dwt\nlevels=2\nn=16\niterations=20\nthreshold=0.01\nsubsample_prob=0.5\n",
        ["--seed", "9"],
        "purify_2d_in.bin",
        "purify_2d.csv",
    ),
    "purify-1d-haar": (
        "purify",
        "frame=haar-dwt\nlevels=3\nn=32\niterations=40\nthreshold=0.02\nsubsample_prob=0.5\nmaster_seed=6\n",
        [],
        "purify_1d_in.csv",
        "purify_1d_haar.csv",
    ),
    # Eval through the ISTA loop (criterion 8 runs the unitary-dft closed form).
    "eval-identity": (
        "eval",
        "frame=identity\nn=64\ncount=6\nsparsity=3\niterations=80\nthreshold=0.002\n"
        "subsample_prob=0.6\nepsilon_grid=0.02,0.1\nmargin_floor=0.05\nmaster_seed=3\n",
        [],
        None,
        "eval_identity_report.csv",
    ),
}


@pytest.mark.parametrize("case", sorted(RECORDED_OUTPUTS))
def test_output_matches_recorded(tmp_path, case):
    command, text, extra, infile, recorded = RECORDED_OUTPUTS[case]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    out = tmp_path / recorded
    argv = [command, "--config", str(cfg), "--out", str(out), *extra]
    if infile:
        argv += ["--in", str(DATA_DIR / infile)]
    assert main(argv) == 0
    assert out.read_bytes() == (DATA_DIR / recorded).read_bytes()


class TestRowNorms:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 64),
        st.one_of(st.sampled_from((3, 24, 96, 127, 129, 200)), st.integers(1, 300)),
        st.floats(-3, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_batched_row_norm_matches_linalg_norm_bit_for_bit(self, rows, n, log_scale, seed):
        rng = np.random.default_rng(seed)
        d = rng.standard_normal((rows, n)) * 10.0**log_scale
        got = cli._row_norms(d)
        assert got.shape == (rows,)
        for g, row in zip(got, d):
            assert g.tobytes() == np.linalg.norm(row).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 300), st.floats(100, 307), st.integers(0, 2**32 - 1))
    def test_rows_whose_sum_of_squares_overflows_are_rescaled(self, rows, n, log_scale, seed):
        # Rows of 1e100 to 1e307: a finite sum of squares keeps the one-dot
        # bits; an overflowing one gave inf and "overflow encountered in
        # matmul", and is now within round-off of math.hypot.
        rng = np.random.default_rng(seed)
        d = rng.standard_normal((rows, n)) * 10.0**log_scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cli._row_norms(d)
        for g, row in zip(got, d):
            with np.errstate(over="ignore"):
                plain = np.linalg.norm(row)
            if np.isfinite(plain):
                assert g.tobytes() == plain.tobytes()
            else:
                assert g == pytest.approx(math.hypot(*row), rel=1e-14)


class TestLargeEpsilon:
    # An epsilon from about 1.4e154 makes the squared norms of the probes'
    # reconstruction errors overflow; from about 1e307 the mean of the errors
    # does too.  Eval used to write inf with a RuntimeWarning.
    @pytest.mark.parametrize(
        "lines, epsilon",
        [
            (("n=8", "count=2", "sparsity=1"), "1e300"),
            (("n=8", "count=2", "sparsity=1", "frame=identity", "iterations=20"), "1e200"),
            (("n=8", "count=50", "sparsity=1"), "6e307"),
        ],
        ids=["dft-1e300", "identity-1e200", "dft-6e307-mean"],
    )
    def test_reconstruction_error_scales_with_epsilon(self, lines, epsilon):
        # Against the same cells at epsilon 1e100: at both epsilons the clean
        # signal and the threshold are lost in round-off, so the purified
        # probe, and its error, scale with epsilon.
        rows = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid in ("1e100", epsilon):
                cfg = rwkit.parse_config(fast_config(*lines, f"epsilon_grid={grid}"))
                rows += cli.run_eval(cfg, 0)
        small, large = rows
        want = small["mean_reconstruction_error"] / small["epsilon"] * large["epsilon"]
        assert large["mean_reconstruction_error"] == pytest.approx(want, rel=1e-9)

    def test_mean_keeps_finite_bits_and_rescales_overflow(self):
        v = np.array([0.1, 0.2, 0.7])
        assert cli._mean(v) == float(np.mean(v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli._mean(np.full(4, 1.5e308)) == 1.5e308


class TestOverflowingInput:
    """Finite inputs near the float maximum whose FFTs overflow: each command
    exits 3 with the one numeric-failure line, and numpy warns of nothing."""

    HUGE = np.array([1.5e308, -1.5e308, 1.5e308, 1e308, 0, 0, 0, 0])

    def run(self, tmp_path, capsys, command, *lines, signal=HUGE):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(fast_config("n=8", "sparsity=1", *lines))
        write_signal(tmp_path / "huge.csv", signal)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command != "eval":
            argv += ["--in", str(tmp_path / "huge.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_eval_at_epsilon_near_the_float_maximum(self, tmp_path, capsys):
        # The sensing ran outside the solve's error state: "overflow
        # encountered in fft", then "invalid value encountered in multiply".
        err = self.run(tmp_path, capsys, "eval", "count=50", "epsilon_grid=1e308")
        assert err == "numeric failure: non-finite iterate at iteration 1\n"

    @pytest.mark.parametrize("frame", ["identity", "unitary-dft"])
    def test_purify_of_a_huge_signal(self, tmp_path, capsys, frame):
        err = self.run(tmp_path, capsys, "purify", f"frame={frame}")
        assert err == "numeric failure: non-finite iterate at iteration 1\n"

    def test_purify_whose_synthesis_overflows(self, tmp_path, capsys):
        # Its coefficients are finite, about 5.3e307 each, and their inverse
        # FFT is not: it wrote 0,inf,0 and exited 0.
        signal = np.array([1.5e308, 0, 0, 0, 0, 0, 0, 0])
        err = self.run(tmp_path, capsys, "purify", "frame=unitary-dft", "subsample_prob=1", signal=signal)
        assert err == "numeric failure: non-finite synthesized value\n"

    @pytest.mark.parametrize("frame", ["identity", "unitary-dft"])
    def test_defect_of_a_huge_signal(self, tmp_path, capsys, frame):
        # It wrote defect=nan (or inf) and exited 0.
        err = self.run(tmp_path, capsys, "defect", f"frame={frame}")
        assert err == "numeric failure: non-finite coefficient L1 norm\n"


def _probe(x, epsilon, probe_seed):
    # A random perturbation of norm epsilon, seeded per sample.
    if epsilon == 0:
        return x
    rng = np.random.default_rng(probe_seed)
    delta = rng.standard_normal(x.shape)
    delta *= epsilon / np.linalg.norm(delta)
    return x + delta


def reference_eval(cfg, seed):
    """Reference: eval one epsilon at a time, with one purify_many call per
    epsilon and a scalar ``predict`` per purified row."""
    dataset = data.gen_data(
        cfg.n,
        cfg.count,
        cfg.sparsity,
        seed,
        margin_floor=cfg.margin_floor,
        weights_seed=cfg.weights_seed,
    )
    clf = dataset.classifier
    signals = dataset.signals
    params = cfg.recon_params
    frame = params.frame
    xs = np.asarray(signals, dtype=np.complex128)
    rows = []
    for eps_index, epsilon in enumerate(cfg.epsilon_grid):
        purify_seeds, ops, probed = [], [], []
        for i, x in enumerate(signals):
            purify_seed, probe_seed = sensing.derived_seed(seed, eps_index, i).spawn(2)
            purify_seeds.append(purify_seed)
            ops.append(sensing.make_partial_fourier(x.shape, cfg.subsample_prob, purify_seed))
            probed.append(_probe(x, epsilon, probe_seed))
        # The clean and the probed copy of a sample share its seed, and so
        # its mask.
        purified = reconstruct.purify_many(list(signals) + probed, params, purify_seeds * 2)
        clean, attacked = purified[: len(signals)], purified[len(signals) :]
        clean_ok = [predict(clf, p.value) == y for p, y in zip(clean, dataset.labels)]
        defended_ok = [predict(clf, p.value) == y for p, y in zip(attacked, dataset.labels)]
        errors = [float(np.linalg.norm(p.value - x)) for p, x in zip(attacked, signals)]
        l1 = defect._l1_batch(np.stack([op.mask for op in ops]), xs, frame)
        mean_defect = float(np.mean(defect._excess(l1, cfg.defect_bound)))
        cert_prob = cert_gain = float("nan")
        try:
            cert = certify.certify_probabilistic(
                cfg.rwp_prob, cfg.alpha, cfg.rho, cfg.tau, epsilon, mean_defect
            )
            cert_prob, cert_gain = cert.probability, cert.gain
        except (InfeasibleError, ParameterError):
            pass
        rows.append(
            {
                "epsilon": epsilon,
                "clean_accuracy": float(np.mean(clean_ok)),
                "defended_accuracy_under_probe": float(np.mean(defended_ok)),
                "mean_reconstruction_error": float(np.mean(errors)),
                "mean_defect": mean_defect,
                "cert_probability": cert_prob,
                "cert_gain": cert_gain,
                "seed": seed,
            }
        )
    return rows


def same_bits(a, b):
    # Equal floats bit for bit, with any NaN equal to any NaN.
    if isinstance(a, float) and isinstance(b, float) and np.isnan(a) and np.isnan(b):
        return True
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def eval_cases(draw):
    kind = draw(st.sampled_from(FRAME_KINDS))
    n = draw(st.sampled_from((24, 32)))
    grid = draw(st.lists(st.sampled_from((0.0, 0.01, 0.05, 0.3)), min_size=1, max_size=4, unique=True))
    cfg = ExperimentConfig(
        frame=kind,
        levels=draw(st.integers(1, 2)) if kind.endswith("-dwt") else 0,
        threshold=draw(st.sampled_from((0.0, 0.002, 0.05))),
        iterations=draw(st.integers(1, 6)),
        subsample_prob=draw(st.sampled_from((0.5, 0.7494, 1.0))),
        defect_bound=draw(st.sampled_from((0.5, 1.0, 3.0))),
        n=n,
        count=draw(st.integers(1, 12)),
        sparsity=2,
        margin_floor=0.05,
        epsilon_grid=tuple(sorted(grid)),
    )
    # Block sizes of 1, 2 and 3 cells split an epsilon's samples and make
    # blocks straddle epsilon boundaries; None keeps the shipped size.
    block_cells = draw(st.sampled_from((1, 2, 3, None)))
    # Seeds of one to five 32-bit words.
    seed = draw(
        st.one_of(
            st.integers(0, 2**31 - 1),
            st.integers(0, 2**200),
            st.sampled_from((2**32, 2**64, 2**128 + 1)),
        )
    )
    return cfg, seed, block_cells


class TestBlockedEval:
    @settings(max_examples=100, deadline=None)
    @given(eval_cases())
    def test_rows_match_per_epsilon_reference_bit_for_bit(self, case):
        cfg, seed, block_cells = case
        with pytest.MonkeyPatch.context() as mp:
            if block_cells is not None:
                mp.setattr(cli, "_BLOCK_ENTRIES", block_cells * 2 * cfg.n)
            got = cli.run_eval(cfg, seed)
        want = reference_eval(cfg, seed)
        assert len(got) == len(want) == len(cfg.epsilon_grid)
        for g, w in zip(got, want):
            assert g.keys() == w.keys()
            for key in w:
                assert same_bits(g[key], w[key]), (key, g[key], w[key])

    def test_seeding_does_not_grow_with_the_cells(self):
        # Eval hashes all its streams in one batch: it builds as many seed
        # sequences for 1 cell as for 15.
        rule = sensing.derived_seed
        calls = []

        def counting(*args):
            calls.append(args)
            return rule(*args)

        counts = []
        for count, grid in ((1, (0.01,)), (5, (0.0, 0.01, 0.05))):
            cfg = ExperimentConfig(
                n=16, count=count, sparsity=2, iterations=2, margin_floor=0.05, epsilon_grid=grid
            )
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                for module in (sensing, data):
                    mp.setattr(module, "derived_seed", counting)
                cli.run_eval(cfg, 7)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 3

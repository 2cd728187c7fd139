import numpy as np
import pytest

from rwkit import read_signal, write_signal
from rwkit.cli import main

FAST_CONFIG = """\
n=32
count=4
sparsity=2
iterations=40
threshold=0.002
subsample_prob=0.7
epsilon_grid=0.01,0.05
defect_max_iterations=2000
margin_floor=0.05
"""


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

    def test_malformed_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus_key=1\n")
        assert main(["eval", "--config", str(bad)]) == 2

    def test_numeric_failure_exit_code(self, tmp_path, signal_path):
        # An infeasible certificate (alpha * tau <= 2 * epsilon) is a
        # numeric failure, not a config problem.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG + "alpha=2.1\ntau=0.01\n")
        assert main(["certify", "--config", str(cfg), "--epsilon", "0.2"]) == 3

    def test_missing_input_signal(self, config_path):
        assert main(["purify", "--config", config_path]) == 2

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

    @pytest.mark.parametrize("command", ["purify", "defect"])
    def test_undecodable_input_file_is_config_error(self, config_path, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"# shape=2\nindex,real,imag\n0,\xe9\xff,0\n1,2,0\n")
        assert main([command, "--config", config_path, "--in", str(bad)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_eval_empty_epsilon_grid_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG.replace("epsilon_grid=0.01,0.05", "epsilon_grid="))
        out = tmp_path / "report.csv"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_certify_empty_epsilon_grid_falls_back_to_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(FAST_CONFIG.replace("epsilon_grid=0.01,0.05", "epsilon_grid="))
        assert main(["certify", "--config", str(cfg), "--expected-defect", "0"]) == 0
        assert "radius=0\n" in capsys.readouterr().out


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
        assert lines[0].startswith("# rwkit-report v2 config=")
        assert lines[1] == (
            "epsilon,clean_accuracy,defended_accuracy_under_probe,"
            "mean_reconstruction_error,mean_defect,cert_radius,"
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

    def test_seed_flag_overrides_master_seed(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", config_path, "--out", str(a)])
        main(["gen-data", "--config", config_path, "--seed", "99", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestDeterminism:
    def test_eval_rerun_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["eval", "--config", config_path, "--out", str(a)]) == 0
        assert main(["eval", "--config", config_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_data_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", config_path, "--out", str(a)])
        main(["gen-data", "--config", config_path, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

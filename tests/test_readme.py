"""The README's examples run as written: its Python quick start, and its
``gen-data``/``eval`` shell example through :func:`rwkit.cli.main`."""

import re
import shlex
from pathlib import Path

from rwkit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_python_quick_start(tmp_path, monkeypatch, capsys):
    (block,) = [b for b in code_blocks("python") if "purify(" in b]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    error, certificate = capsys.readouterr().out.splitlines()
    assert 0 < float(error) < 0.02  # the "~1e-2" of its comment
    assert certificate == "0.1 0.99 2.0"


def test_shell_example(tmp_path, monkeypatch):
    (block,) = [b for b in code_blocks("sh") if "<<EOF" in b]
    heredoc = re.fullmatch(r"cat > (\S+) <<EOF\n(.*?\n)EOF\n(.*)", block, flags=re.S)
    config_name, config_text, commands = heredoc.groups()
    monkeypatch.chdir(tmp_path)
    Path(config_name).write_text(config_text)
    argvs = [shlex.split(line) for line in commands.splitlines()]
    assert [argv[:2] for argv in argvs] == [["rwkit", "gen-data"], ["rwkit", "eval"]]
    for argv in argvs:
        assert main(argv[1:]) == 0
    assert Path("dataset.csv").read_text().startswith("# rwkit v1 config=")
    report = Path("report.csv").read_text().splitlines()
    assert report[0].startswith("# rwkit-report v6 config=")
    assert len(report) == 2 + 4  # header, column names, one row per epsilon

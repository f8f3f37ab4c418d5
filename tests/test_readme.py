"""The README's examples run as written."""

import io
import json
import re
import shlex
from pathlib import Path

from domchrom.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str) -> str:
    """The first fenced block after a ``## heading`` line of the README."""
    text = README.read_text(encoding="utf-8")
    after = text.split(f"\n## {heading}\n", 1)[1]
    return after.split("```", 2)[1].split("\n", 1)[1]


def _argv(command: str) -> list[str]:
    """The CLI arguments of one shell command, without its program name."""
    words = shlex.split(command)
    for program in (["domchrom"], ["python", "-m", "domchrom"]):
        if words[: len(program)] == program:
            return words[len(program):]
    raise AssertionError(f"not a domchrom command: {command}")


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    # a triangle, for the DIMACS example
    (tmp_path / "instance.col").write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _block("Command line").splitlines() if line.strip()]
    for line in lines:
        command, _, comment = line.partition("#")
        stdin = None
        for stage in command.split("|"):
            if stdin is not None:
                monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            code = main(_argv(stage))
            stdin, err = capsys.readouterr()
            assert code == 0 and err == "", line
        claimed = re.match(r'\s*\{"k": (\d+)', comment)
        if claimed:
            assert json.loads(stdin)["k"] == int(claimed.group(1)), line
    assert json.loads((tmp_path / "report.json").read_text())["ok"] is True


def test_library_example_runs():
    exec(compile(_block("Library"), str(README), "exec"), {})

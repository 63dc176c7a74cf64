"""Every ``strquiv`` command in the README's CLI block runs and exits 0."""

import shlex
import shutil
from pathlib import Path

import pytest

from strquiv.cli import run

ROOT = Path(__file__).resolve().parent.parent


def _cli_commands() -> list[list[str]]:
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    return [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith("strquiv ")
    ]


COMMANDS = _cli_commands()


def test_cli_block_lists_every_example():
    assert len(COMMANDS) == 14


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[1] for argv in COMMANDS])
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    args, redirect = argv[1:], None
    if ">" in args:
        args, redirect = args[: args.index(">")], args[args.index(">") + 1]
    code = run(args)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    if redirect is not None:
        assert captured.out

"""README's examples run as written: the library quickstart, and every
command line of its "Command line" section, through cli.main."""

import re
import shlex
from pathlib import Path

from belldyn.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def test_python_quickstart_runs():
    (quickstart,) = code_blocks(README.read_text(encoding="utf-8"), "python")
    exec(compile(quickstart, str(README), "exec"), {})


def test_command_line_examples_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line, comments=True)
                for block in code_blocks(section, "sh") for line in block.splitlines()]
    assert len(commands) == 9  # seven commands and the --dump-config pair
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "belldyn"
        assert main(argv[1:]) == 0, argv
    # the --dump-config pair reproduces the run byte for byte
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

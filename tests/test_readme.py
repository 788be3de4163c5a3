"""Every ``python`` code block and every ``qsreg`` command in README.md runs as written."""
import re
import shlex
from pathlib import Path

import pytest

from qsreg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE)
COMMAND_BLOCK = re.search(r"^## Command line\n+```\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE).group(1)
COMMANDS = [line for line in COMMAND_BLOCK.splitlines() if line.startswith("qsreg ")]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


def test_readme_has_commands():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    """Each block runs in a fresh namespace from an empty working directory."""
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "__readme__"})


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_runs(command, tmp_path, monkeypatch, capsys):
    """Each command line exits 0 through ``cli.main`` from an empty working directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QSREG_OUTPUT_DIR", raising=False)
    code = main(shlex.split(command)[1:])
    assert code == 0, capsys.readouterr().out

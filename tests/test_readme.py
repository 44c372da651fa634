"""The README's examples run: the Python block under `## Library`, and each
`$ jacring ...` example under `## Command line` on the cubic input shown
there, whose printed lines must match the ones shown."""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from jacring.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    """The README text under a `## ` heading, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text: str, lang: str = "") -> list:
    """The bodies of the fenced code blocks with the given language tag."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def _examples() -> list:
    """(command, shown output lines) for each `$ jacring` line."""
    examples = []
    for block in _blocks(_section("Command line")):
        for chunk in re.split(r"\n\s*\n", block):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ jacring "):
                examples.append((lines[0][2:], lines[1:]))
    return examples


def _matches(shown: list, printed: list) -> bool:
    """Whether the printed lines are the shown ones, where a `...` line
    skips ahead to the next line shown."""
    i, skip = 0, False
    for line in shown:
        if line == "...":
            skip = True
            continue
        if skip:
            while i < len(printed) and printed[i] != line:
                i += 1
            skip = False
        if i == len(printed) or printed[i] != line:
            return False
        i += 1
    return skip or i == len(printed)


def test_library_block_runs():
    (code,) = _blocks(_section("Library"), "python")
    exec(compile(code, "README.md", "exec"), {})


EXAMPLES = _examples()


def test_every_command_has_an_example():
    assert ({shlex.split(cmd)[1] for cmd, _ in EXAMPLES}
            == {"certify", "hilbert", "hodge", "cohomology", "verify"})


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[cmd for cmd, _ in EXAMPLES])
def test_command_line_example(tmp_path, monkeypatch, capsys, command, shown):
    cubic = _blocks(_section("Command line"))[0]
    assert "poly x1^3 + x2^3 + x3^3" in cubic
    (tmp_path / "cubic.txt").write_text(cubic)
    monkeypatch.chdir(tmp_path)
    rc = main(shlex.split(command)[1:])
    printed = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert _matches(shown, printed), "\n".join(printed)


def test_ellipsis_skips_ahead_only():
    assert _matches(["a", "...", "d"], ["a", "b", "c", "d"])
    assert _matches(["a", "..."], ["a", "b"])
    assert not _matches(["a", "...", "d"], ["a", "b"])
    assert not _matches(["a", "c"], ["a", "b", "c"])
    assert not _matches(["a"], ["a", "b"])

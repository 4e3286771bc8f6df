"""README's examples print what README shows: each ``$ chronexp ...``
command that README follows with output, run from tests/fixtures, and the
Library snippet, whose commented ``print`` calls name their output.
"""

import shlex
from pathlib import Path

import pytest

from chronexp.cli import main

from conftest import FIXTURES

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks() -> list[tuple[str, list[str]]]:
    """(info string, lines) of every fenced block in README."""
    blocks = []
    info = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if not line.startswith("```"):
            if info is not None:
                lines.append(line)
        elif info is None:
            info, lines = line[3:], []
        else:
            blocks.append((info, lines))
            info = None
    return blocks


def command_examples() -> list[tuple[str, str]]:
    """(command, shown output) for each command README shows output for."""
    examples = []
    for _, lines in fenced_blocks():
        for i, line in enumerate(lines):
            if not line.startswith("$ chronexp "):
                continue
            shown = []
            for later in lines[i + 1:]:
                if later.startswith("$ "):
                    break
                shown.append(later + "\n")
            if shown:
                examples.append((line[2:], "".join(shown)))
    return examples


EXAMPLES = command_examples()


@pytest.mark.parametrize("command,shown", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_command_example(monkeypatch, capsys, command, shown):
    monkeypatch.chdir(FIXTURES)
    code = main(shlex.split(command)[1:])
    assert code == 0
    assert capsys.readouterr().out == shown


def test_library_snippet(monkeypatch, capsys):
    (snippet,) = [lines for info, lines in fenced_blocks()
                  if info == "python"]
    monkeypatch.chdir(FIXTURES)
    exec("\n".join(snippet), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [line for line in snippet if line.startswith("print(")]
    assert len(printed) == len(calls)
    for call, got in zip(calls, printed):
        comment = call.partition("#")[2].strip()
        if comment:
            assert got == comment

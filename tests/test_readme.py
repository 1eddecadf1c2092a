"""The CLI examples in README.md run and print what the README shows.

Every ``$ heatansatz ...`` line in a fenced block (with ``\\`` line
continuations) is run through ``cli.run``; the lines after it, up to the
next command or the end of the block, are its documented output.  A
trailing ``...`` line means the output only has to start with the lines
above it.  Comma-separated cells that both read as numbers compare at a
relative tolerance of 1e-15; everything else compares as text.
"""

import math
import shlex
from pathlib import Path

import pytest

from heatansatz.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, expected lines) for each ``$ heatansatz`` command in README.md."""
    out, fenced, current = [], False, None
    lines = iter(README.read_text().splitlines() if README.exists() else [])
    for line in lines:
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif fenced and line.startswith("$ heatansatz"):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            current = (shlex.split(command)[1:], [])
            out.append(current)
        elif current is not None:
            current[1].append(line)
    return out


def _cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return math.isclose(float(got), float(want), rel_tol=1e-15, abs_tol=0.0)
    except ValueError:
        return False


def _line_matches(got: str, want: str) -> bool:
    got_cells, want_cells = got.split(","), want.split(",")
    return len(got_cells) == len(want_cells) and all(map(_cells_match, got_cells, want_cells))


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv[:3]) for argv, _ in EXAMPLES])
def test_readme_example(argv, expected, capsys):
    assert run(argv) == 0
    got = capsys.readouterr().out.splitlines()
    if expected and expected[-1] == "...":
        expected = expected[:-1]
        got = got[: len(expected)]
    assert len(got) == len(expected), (got, expected)
    for got_line, want_line in zip(got, expected):
        assert _line_matches(got_line, want_line), (got_line, want_line)

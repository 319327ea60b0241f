"""The `$ filterlab ...` examples of README.md print what the README shows.

Each command runs in-process through cli.main, split as a shell would split
it.  The lines under a command, up to the next command or the end of its
code block, are its expected stdout.  A trailing `# exit N` gives the
expected exit code, otherwise 0, and `...` matches any text, also inside a
line.
"""

import re
import shlex
from pathlib import Path

import pytest

from filterlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"
EXIT = re.compile(r"\s*# exit (\d+)\s*$")


def examples():
    """(command, expected stdout, expected exit code) for each README example."""
    found, current, in_block = [], None, False
    for line in README.read_text().splitlines():
        text = line.strip()
        if text.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and text.startswith("$ filterlab "):
            current = [text[len("$ filterlab ") :], [], 0]
            found.append(current)
        elif in_block and current is not None:
            m = EXIT.search(line)
            if m:
                current[2] = int(m.group(1))
                line = line[: m.start()]
            current[1].append(line.rstrip())
    return [(cmd, "\n".join(out), code) for cmd, out, code in found]


def matches(expected: str, actual: str) -> bool:
    pattern = ".*".join(re.escape(part) for part in expected.split("..."))
    return re.fullmatch(pattern, actual, re.DOTALL) is not None


EXAMPLES = examples()


def test_readme_lists_the_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize(
    "cmd, expected, code", EXAMPLES, ids=[f"{i}-{cmd.split()[0]}" for i, (cmd, _, _) in enumerate(EXAMPLES)]
)
def test_readme_example(cmd, expected, code, capsys):
    assert cli.main(shlex.split(cmd)) == code
    out = capsys.readouterr().out.rstrip("\n")
    assert matches(expected, out), out

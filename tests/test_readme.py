"""The CLI examples and the library quick start in README.md run as shown.

Each `dansurf ...` command of the sh block under `## CLI` (with its `\\`
continuations joined) goes through `dispatch`; it must exit 0, and its
output must open with the `# ...` lines printed under it.  A literal
`# ...` line ends the shown part; without one, the lines are the whole
output.  The python block under `## Library quick start` is executed and
must print the three lines its comments show.
"""

import contextlib
import io
import os
import shlex

import pytest

from dansurf.cli import dispatch

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _block(heading, fence):
    """The first `fence` code block under the README heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(f"\n## {heading}\n"):]
    block = section[section.index(fence) + len(fence):]
    return block[:block.index("```")]


def _examples():
    """(argv, shown output lines, whether the output goes on) per example."""
    block = _block("CLI", "```sh\n").replace("\\\n", " ")
    examples = []
    for line in block.splitlines():
        line = line.strip()
        if line.startswith("dansurf "):
            examples.append([shlex.split(line)[1:], [], False])
        elif line == "# ...":
            examples[-1][2] = True
        elif line.startswith("# ") and not examples[-1][2]:
            examples[-1][1].append(line[2:])
    return examples


EXAMPLES = _examples()


def test_the_cli_section_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("argv, shown, goes_on", EXAMPLES,
                         ids=[f"{i}-{case[0][0]}" for i, case in enumerate(EXAMPLES)])
def test_readme_cli_example(argv, shown, goes_on):
    code, out = dispatch(argv)
    assert code == 0, out
    lines = out.splitlines()
    if shown and not goes_on:
        assert lines == shown
    else:
        assert lines[:len(shown)] == shown


def test_readme_library_quick_start():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library quick start", "```python\n"), {})
    assert out.getvalue().splitlines() == ["x^2*U^2 + 2*z*U + y + U", "2 x^2", "True"]

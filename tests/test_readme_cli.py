"""The `abmorph ...` examples in the README's CLI section run as written."""

import re
import shlex
from pathlib import Path

import pytest

from abmorph.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("abmorph ")]


EXAMPLES = _examples()


def test_section_has_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("line", EXAMPLES)
def test_example_runs(capsys, tmp_path, line):
    argv = shlex.split(line, comments=True)[1:]
    if "--corpus" in argv:
        corpus = tmp_path / argv[argv.index("--corpus") + 1]
        corpus.write_text("a->ab; b->ba\na->ab; b->a\n")
        argv[argv.index("--corpus") + 1] = str(corpus)
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert captured.err == ""
    assert captured.out != ""

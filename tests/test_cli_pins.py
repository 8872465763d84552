"""Byte pins for the CLI: stdout and exit code of every verb in every
--format, on morphisms with definite, open and erroneous outcomes, plus
classify --corpus in both formats and -o FILE.

cli_pins.json holds one entry per invocation, recorded from the CLI. A
deliberate change to a rendering edits the affected entries. "{corpus}" and
"{output}" in an argument vector stand for a corpus file and an output file
in a temporary directory; for -o the pinned bytes are the file's contents
and stdout must stay empty.
"""

import json
from pathlib import Path

import pytest

from abmorph.cli import main

PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())

CORPUS = (
    "# comment, then a blank line\n"
    "\n"
    "a->ab; b->ba\n"
    "a->aba; b->bab\n"
    "a->ab; b->a\n"
    "a->ab; b->bbaa\n"
)


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) for p in PINS])
def test_stdout_and_exit_code(capsys, tmp_path, pin):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(CORPUS)
    output = tmp_path / "out.txt"
    argv = [a.replace("{corpus}", str(corpus)).replace("{output}", str(output))
            for a in pin["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == pin["exit"]
    if "{output}" in pin["argv"]:
        assert captured.out == ""
        assert output.read_text() == pin["stdout"]
    else:
        assert captured.out == pin["stdout"]
    if code == 1:
        assert captured.err.startswith("abmorph:")
    else:
        assert captured.err == ""


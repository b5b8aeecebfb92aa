"""Byte-for-byte CLI output on the small ladder, against recorded goldens.

`golden/cli_output.json` holds stdout and the exit code of each command in
COMMANDS. It was recorded from a tree whose output had been checked by the
two-route cross-checks; re-record it (run this file as a script) only after
confirming that an output change is intended.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from admz.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_output.json"
LEVELS = ("1", "-1/2", "1/2", "-4/3", "-2/3")

COMMANDS = (
    [
        argv
        for level in LEVELS
        for argv in (
            ["classify", "--level", level],
            ["classify", "--level", level, "--format", "json"],
            ["singular", "--level", level, "--method", "both"],
            ["zhu-poly", "--level", level],
            ["zhu-poly", "--level", level, "--format", "json"],
        )
    ]
    + [
        ["verify", "--suite", "classification", "--levels", ",".join(LEVELS)],
        ["check-dense", "--level", "-1/2", "--r", "-1/2", "--mu", "1/3"],
        ["check-dense", "--level", "-1/3", "--r", "1/2", "--mu", "1/4"],
        ["check-dense", "--level", "-2/3", "--r", "4/3", "--mu", "1/3"],
        ["classify", "--level", "7", "--format", "json"],
        ["zhu-poly", "--level", "30", "--format", "json"],
        ["singular", "--level", "-8/5", "--method", "both"],
        ["singular", "--level", "-12/7", "--method", "both"],
        ["verify", "--suite", "lemmas"],
    ]
)


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue()
    raise AssertionError("main() returned without sys.exit")


@pytest.fixture(scope="module")
def golden():
    return {" ".join(rec["argv"]): rec for rec in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    rec = golden[" ".join(argv)]
    code, out = run(argv)
    assert code == rec["exit_code"]
    assert out == rec["stdout"]


if __name__ == "__main__":
    records = []
    for argv in COMMANDS:
        code, out = run(argv)
        records.append({"argv": argv, "exit_code": code, "stdout": out})
        print(code, " ".join(argv), file=sys.stderr)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")

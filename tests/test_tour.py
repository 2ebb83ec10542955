"""The README CLI tour prints exactly what ``tests/golden/tour.json`` records.

Every command of the README's "CLI tour" block runs in-process, in a fresh
directory holding the ``baby2.json`` / ``tor2.json`` configs it names, in
both output formats.  Its exit code, its stdout and, for ``render-svg``, the
bytes of the SVG it writes must match the golden file.  To record a
deliberate change of output, regenerate the file with
``PYTHONPATH=src python tests/test_tour.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from a1weyl.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "tour.json"

CONFIGS = {
    "baby2.json": {"rank": 2, "cosets": [[0, 0], [1, 0], [0, 1]]},
    "tor2.json": {"rank": 2, "cosets": [[0, 0], [1, 0], [0, 1], [1, 1]]},
}

README = Path(__file__).resolve().parent.parent / "README.md"
# The commands of the README's "CLI tour" block, without the leading "a1weyl".
_TOUR_BLOCK = README.read_text(encoding="utf-8").split("## CLI tour")[1].split("```")[1]
TOUR = [" ".join(line.split()[1:]) for line in _TOUR_BLOCK.splitlines() if line.strip()]


def run_command(line: str) -> dict:
    """Exit code and stdout of one tour command in each format, in the current directory.

    Also records the file ``render-svg`` writes, decoded as UTF-8 (decoding
    is one-to-one, so equal text means equal bytes).
    """
    for name, config in CONFIGS.items():
        Path(name).write_text(json.dumps(config))
    command, *rest = line.split()
    out = {}
    for fmt in ("text", "json"):
        Path("loop.svg").unlink(missing_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--format", fmt, *rest])
        out[fmt] = {"exit": code, "stdout": stdout.getvalue()}
        if command == "render-svg":
            out[fmt]["svg"] = Path("loop.svg").read_bytes().decode("utf-8")
    return out


@pytest.mark.parametrize("line", TOUR)
def test_tour_command_matches_golden(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_command(line) == golden[line]


def test_golden_covers_exactly_the_tour():
    assert list(json.loads(GOLDEN.read_text(encoding="utf-8"))) == TOUR


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        outputs = {line: run_command(line) for line in TOUR}
        os.chdir(here)
    GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(outputs)} commands)", file=sys.stderr)

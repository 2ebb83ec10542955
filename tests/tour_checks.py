"""The README CLI tour and its golden outputs, stdlib only, so that a bare interpreter runs the check too.

Every command of the README's "CLI tour" block runs in-process, in a fresh
directory holding the ``baby2.json`` / ``tor2.json`` configs it names, in
both output formats.  Its exit code, its stdout and, for ``render-svg``, the
bytes of the SVG it writes must match ``tests/golden/tour.json``:

    PYTHONPATH=src python3.10 tests/tour_checks.py          # prints ok and the version, or what differs
    PYTHONPATH=src python tests/tour_checks.py --write      # records a deliberate change of output

``test_tour.py`` runs the same commands under pytest, one test each, and
``test_scripts.py`` runs this script under every supported interpreter it
finds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from a1weyl.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "tour.json"

CONFIGS = {
    "baby2.json": {"rank": 2, "cosets": [[0, 0], [1, 0], [0, 1]]},
    "tor2.json": {"rank": 2, "cosets": [[0, 0], [1, 0], [0, 1], [1, 1]]},
}

README = HERE.parent / "README.md"
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


def run_tour() -> dict:
    """Every tour command's outputs, by command, run in one fresh temporary directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return {line: run_command(line) for line in TOUR}
        finally:
            os.chdir(here)


def check(argv: list[str]) -> int:
    """Compare the tour with the golden file (or, with ``--write``, record it); the exit code."""
    outputs = run_tour()
    if "--write" in argv:
        GOLDEN.write_text(json.dumps(outputs, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN} ({len(outputs)} commands)", file=sys.stderr)
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differ = [line for line in TOUR if golden.get(line) != outputs[line]]
    if list(golden) != TOUR:
        differ.append("(the golden file does not list exactly the tour's commands)")
    if differ:
        print("differ:", *differ, sep="\n")
        return 1
    print("ok", *sys.version_info[:2])
    return 0


if __name__ == "__main__":
    sys.exit(check(sys.argv[1:]))

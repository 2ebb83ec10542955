"""The README CLI tour prints exactly what ``tests/golden/tour.json`` records.

Every command of the README's "CLI tour" block runs in-process, in a fresh
directory holding the ``baby2.json`` / ``tor2.json`` configs it names, in
both output formats (``tour_checks.run_command``).  Its exit code, its
stdout and, for ``render-svg``, the bytes of the SVG it writes must match
the golden file.  To record a deliberate change of output, regenerate the
file with ``PYTHONPATH=src python tests/tour_checks.py --write``.
"""

import json

import pytest
from tour_checks import GOLDEN, TOUR, run_command


@pytest.mark.parametrize("line", TOUR)
def test_tour_command_matches_golden(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_command(line) == golden[line]


def test_golden_covers_exactly_the_tour():
    assert list(json.loads(GOLDEN.read_text(encoding="utf-8"))) == TOUR

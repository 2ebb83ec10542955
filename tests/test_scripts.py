"""The scripts under ``scripts/`` run end to end as separate processes."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_reduce_worked_loop_writes_one_svg_per_stage(tmp_path):
    done = run_script("reduce_worked_loop.py", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    svgs = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert svgs == ["stage0.svg", "stage1.svg", "stage2.svg", "stage3.svg"]
    assert "in 3 macros" in done.stdout
    assert "after macro 3 (bubble): (empty)" in done.stdout
    assert f"wrote 4 SVG files to {tmp_path}/" in done.stdout


def test_oracle_sweep_finds_no_mismatch():
    done = run_script("oracle_sweep.py", "--n", "20", "--max-rank", "2")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:-1]]
    assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
        (family, str(nu), "20", "0")
        for family in ("baby", "toroidal", "pairwise") for nu in (1, 2)
    ]
    assert done.stdout.splitlines()[-1] == "total mismatches: 0"


def test_output_digest_prints_one_digest_per_layer():
    done = run_script("output_digest.py", "--seeds", "1", "--variants", "0")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [(r[0], r[6]) for r in rows] == [("decide", "216"), ("certify", "207"), ("loops", "106")]
    for r in rows:
        assert r[1:5] == ["seeds", "1", "variants", "0"] and r[7] == "sha256"
        assert len(r[8]) == 64 and int(r[8], 16) >= 0

"""The scripts under ``scripts/`` run end to end as separate processes.

So do the output digest and the README tour's golden check
(``tests/tour_checks.py``) under every supported interpreter found on PATH.
"""

import functools
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


@functools.lru_cache(maxsize=None)  # the digest run is shared by two tests
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


@pytest.mark.parametrize("workload, answers", [("decide", 216), ("certify", 207), ("loops", 106)])
def test_ab_compare_of_the_repo_against_itself_finds_equal_answers(workload, answers):
    root = str(SCRIPTS.parent)
    done = run_script("ab_compare.py", root, root, "--workload", workload, "--passes", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"{workload} seed 1 passes 1: {answers} answers equal"
    assert [line.split()[:2] for line in lines[1:3]] == [["old", "ops_per_s"], ["new", "ops_per_s"]]
    gains = [line for line in lines if line.startswith("gain ")]
    assert len(gains) == 1 and gains[0].endswith("%")


def test_ab_compare_prints_the_median_and_quartiles_of_each_side():
    root = str(SCRIPTS.parent)
    done = run_script("ab_compare.py", root, root, "--workload", "loops", "--passes", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for line in lines[1:3]:
        fields = line.replace("[", " ").replace("]", " ").replace(",", " ").split()
        best, median, q1, q3 = float(fields[2]), float(fields[7]), float(fields[9]), float(fields[10])
        assert fields[3:6] == ["(best", "of", "3)"] and fields[6] == "median" and fields[8] == "IQR"
        assert q1 <= median <= q3 <= best
    assert re.fullmatch(r"median gain [+-]\d+\.\d%", lines[-1])


def test_ab_compare_counts_the_collections_inside_each_sides_ops():
    root = str(SCRIPTS.parent)
    done = run_script("ab_compare.py", root, root, "--workload", "decide", "--passes", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for side, line in zip(("old", "new"), lines[3:5]):
        assert re.fullmatch(side + r" +gc gen0 \d+ gen1 \d+ gen2 \d+ in \d+\.\d ms inside its ops over 2 passes", line)
    assert lines[5].startswith("gain ")


def test_ab_compare_counts_the_passes_the_new_side_won(monkeypatch, capsys):
    bench = SCRIPTS.parent / "bench"
    spec = importlib.util.spec_from_file_location("inputs", bench / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    monkeypatch.setitem(sys.modules, "inputs", inputs)  # the script's ``import inputs``, gone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts bench/ first
    spec = importlib.util.spec_from_file_location("ab_compare", SCRIPTS / "ab_compare.py")
    ab_compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_compare)
    rates = {"old": [100.0, 100.0, 100.0, 100.0], "new": [110.0, 100.0, 90.0, 120.0]}  # a win, a tie, a loss, a win
    monkeypatch.setattr(ab_compare, "load", lambda checkout, name, into: None)
    monkeypatch.setattr(ab_compare, "compare", lambda libs, workload, seed, passes, collections: (rates, 4))
    assert ab_compare.main([".", ".", "--workload", "loops", "--passes", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["gain +5.0%", "new won 2 of 4 passes", "median gain +5.0%"]


def test_output_digest_prints_one_digest_per_layer():
    done = run_script("output_digest.py", "--seeds", "1", "--variants", "0")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [(r[0], r[6]) for r in rows] == [("decide", "216"), ("certify", "207"), ("loops", "106")]
    for r in rows:
        assert r[1:5] == ["seeds", "1", "variants", "0"] and r[7] == "sha256"
        assert len(r[8]) == 64 and int(r[8], 16) >= 0


# What the library answered on the benchmark's seed-1 inputs when this was
# recorded: a change that keeps every canonical form, certificate and trace
# keeps these digests.
OUTPUT_DIGESTS = {
    "decide": "a6df4a9541064b5a75e7e2a8706fa2bcd4b5e954e5ae26579627103dac02b367",
    "certify": "d1fbdde81556546060389e3059d07d3b027f010754de321cb27f5362cca58594",
    "loops": "8c5053bc902fa376153982553dbf1532caf4cb52a3e318f5a665418784e0c113",
}


def test_output_digests_are_unchanged():
    done = run_script("output_digest.py", "--seeds", "1", "--variants", "0")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert {r[0]: r[8] for r in rows} == OUTPUT_DIGESTS


INTERPRETERS = ("3.10", "3.12", "3.13")


def run_elsewhere(argv, **env):
    """``argv`` under each interpreter of ``INTERPRETERS``, all started at once: a fixture's body.

    Yields a map from a version to its running process, or to the reason it
    is skipped, and kills what still runs when the fixture ends.
    ``python<version>`` is looked up on PATH and skipped if absent or if it
    does not run that version; ``PYENV_VERSION`` lets a pyenv shim run an
    installed interpreter of that version, and anything else ignores it.
    ``env`` is added to the environment of each run.
    """
    runs = {}
    for version in INTERPRETERS:
        exe = shutil.which(f"python{version}")
        run_env = {**os.environ, "PYENV_VERSION": version, **env}
        probe = exe and subprocess.run([exe, "-c", "import sys; print(*sys.version_info[:2])"],
                                       capture_output=True, text=True, env=run_env, timeout=60)
        if not probe or probe.returncode or probe.stdout.split() != version.split("."):
            runs[version] = f"no python{version} runs on PATH"
            continue
        runs[version] = subprocess.Popen([exe, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                         text=True, env=run_env)
    yield runs
    for run in runs.values():
        if not isinstance(run, str) and run.poll() is None:
            run.kill()
            run.wait()


@pytest.fixture(scope="module")
def digests_elsewhere():
    """The seed-1 digest run under each interpreter of ``INTERPRETERS`` (:func:`run_elsewhere`)."""
    yield from run_elsewhere([str(SCRIPTS / "output_digest.py"), "--seeds", "1", "--variants", "0"])


@pytest.fixture(scope="module")
def tours_elsewhere():
    """The README tour's golden check, ``tests/tour_checks.py``, under each interpreter of ``INTERPRETERS``."""
    yield from run_elsewhere([str(TESTS / "tour_checks.py")], PYTHONPATH=str(TESTS.parent / "src"))


@pytest.mark.parametrize("version", INTERPRETERS)
def test_every_interpreter_gives_the_same_digests(digests_elsewhere, version):
    run = digests_elsewhere[version]
    if isinstance(run, str):
        pytest.skip(run)
    out, err = run.communicate(timeout=120)
    assert run.returncode == 0, err
    rows = [line.split() for line in out.splitlines()]
    assert {r[0]: r[8] for r in rows} == OUTPUT_DIGESTS


@pytest.mark.parametrize("version", INTERPRETERS)
def test_every_interpreter_prints_the_golden_tour(tours_elsewhere, version):
    run = tours_elsewhere[version]
    if isinstance(run, str):
        pytest.skip(run)
    out, err = run.communicate(timeout=120)
    assert run.returncode == 0, out + err
    assert out.split() == ["ok", *version.split(".")]

"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench

They check that inputs depend on the seed alone, that every pass's variant
inputs pass the checks, that the checkers catch a wrong answer, that every
metric is printed with the unit BENCHMARK.json gives it, and that every
workload runs.  Scratch files go to bench/out/.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs as gen  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The metrics the benchmark was specified with.  failed_ratio is printed on a
# detail line: BENCHMARK.json carries ok_ratio instead, since a metric that
# reads 0 on every good run cannot have a relative bound.
SPECIFIED = {
    "setup_s", "ops_per_s", "latency_ms_p50", "latency_ms_tail", "peak_rss_mb",
    "lattice.guard_checks_per_op", "lattice.vec_add_ns",
    "words.parse_word.us_per_letter", "words.from_indices_calls_per_move",
    "weyl.eval_word.us_per_letter", "weyl.eval_word_calls_per_move",
    "weyl.matrix_of_word_w.us_per_letter",
    "hyperbolic.eval_word_hyp.us_per_letter", "hyperbolic.matrix_of_word.us_per_letter",
    "intmat.mat_mul_calls_per_op",
    "presentation.rewrite_to_identity.us_per_step", "presentation.steps.cancel",
    "presentation.steps.reverse", "presentation.steps.delete",
    "presentation.replay_certificate.us_per_step", "presentation.replay_certificate.peak_mb",
    "geometry.reduce_loop.us_per_move.short", "geometry.reduce_loop.us_per_move.long",
    "geometry.moves_per_op", "geometry.inserts_per_delete", "geometry.replay_trace.us_per_move",
    "geometry.path_of_word.us_per_letter", "geometry.render_svg.ms", "geometry.render_svg.kb",
    "cli.python_start_ms", "cli.import_ms", "cli.tour_ms",
}

PROBE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import inputs as gen, tracing, workloads as wl
seed = int(sys.argv[3])
out = {"digests": {}, "counts": {}}
for w in gen.WORKLOADS:
    inps = gen.make_inputs(w, seed)
    out["digests"][w] = gen.digest([gen.variant_inputs(w, seed, k, inps) for k in range(3)])
for w in ("decide", "crosscheck", "loops"):
    first = wl.prepare(w, gen.first_round(w, gen.make_inputs(w, seed)), wl.build_bases(w))
    out["counts"].update(tracing.count_pass(w, tracing._count_items(w, first), wl.Run()))
print(json.dumps(out))
"""


def _probe(seed: int, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, "-c", PROBE, str(HERE), str(ROOT / "src"), str(seed)],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_same_seed_gives_same_inputs_and_counts_in_two_processes():
    a, b = _probe(7, "1"), _probe(7, "2")
    assert a == b
    assert all(v > 0 for v in a["counts"].values())


def test_different_seeds_give_different_inputs():
    for w in gen.WORKLOADS:
        assert gen.digest([gen.make_inputs(w, 1)]) != gen.digest([gen.make_inputs(w, 2)]), w


def _first(workload: str, seed: int = 3) -> list[wl.Item]:
    inps = gen.first_round(workload, gen.make_inputs(workload, seed))
    return wl.prepare(workload, inps, wl.build_bases(workload))


def _answer(workload: str, item: wl.Item):
    out = wl.OPS[workload](item.arg, wl.direct)
    assert wl.check(workload, item, out) is None
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_variants_are_new_calls_that_pass_their_checks(workload):
    inps = [inp for inp in gen.make_inputs(workload, 4) if gen.letters(inp) <= 300][::6]
    bases = wl.build_bases(workload)
    base = wl.prepare(workload, inps, bases)
    for k in (1, 2):
        variant = gen.variant_inputs(workload, 4, k, inps)
        assert variant == gen.variant_inputs(workload, 4, k, inps)
        if workload in ("certify", "loops"):
            assert all(a["indices"] != b["indices"] for a, b in zip(variant, inps))
        else:
            assert gen.canon(variant) != gen.canon(inps)
        for item in wl.prepare(workload, variant, bases, [it.expect for it in base]):
            _answer(workload, item)


def test_an_input_reads_its_fastest_passing_pass():
    run = wl.Run(passes=[[3_000_000, None, 9_000_000], [2_000_000, 4_000_000, None]])
    assert run.best_ms() == [2.0, 4.0, 9.0]
    metrics, details = wl.end_to_end(run)
    assert metrics["latency_ms_p50"] == (4.0, "ms")
    assert metrics["ops_per_s"][0] == pytest.approx(3 / 0.015)
    assert details["passes"] == 2


def test_checker_flags_a_corrupted_canonical_form():
    item = next(it for it in _first("decide") if it.inp["nu"] == 4 and len(it.inp["letters"]) > 50)
    word, w_elem, h_elem, central = _answer("decide", item)
    rows = [list(r) for r in h_elem.dual_p]
    rows[1][2] += 2
    bad_h = dataclasses.replace(h_elem, dual_p=tuple(tuple(r) for r in rows))
    assert wl.check("decide", item, (word, w_elem, bad_h, central))
    bad_w = dataclasses.replace(w_elem, shift=(w_elem.shift[0] + 2,) + w_elem.shift[1:])
    assert wl.check("decide", item, (word, bad_w, h_elem, central))
    assert wl.check("decide", item, (word, w_elem, h_elem, not central))

    item = _first("crosscheck")[-1]
    w_elem, h_elem, ok_w, ok_h = _answer("crosscheck", item)
    bad_h = dataclasses.replace(h_elem, dual_sgn=tuple(c + 1 for c in h_elem.dual_sgn))
    assert wl.check("crosscheck", item, (w_elem, bad_h, ok_w, ok_h))
    assert wl.check("crosscheck", item, (w_elem, h_elem, ok_w, False))


def test_checker_flags_a_corrupted_certificate_step():
    item = next(it for it in _first("certify") if it.inp["kind"] == "random")
    cert, states = _answer("certify", item)
    for n, step in enumerate(cert.steps[:40]):
        bads = [dataclasses.replace(step, payload=tuple((g + 1) % 5 for g in step.payload))]
        size = 2 if step.rule == "cancel-involution" else len(step.payload)
        block = tuple(states[n][step.pos:step.pos + size])
        if tuple(states[n][step.pos + 1:step.pos + 1 + size]) != block:
            bads.append(dataclasses.replace(step, pos=step.pos + 1))  # else the shift is still sound
        for bad in bads:
            steps = cert.steps[:n] + (bad,) + cert.steps[n + 1:]
            assert wl.check("certify", item, (dataclasses.replace(cert, steps=steps), states)), (n, bad)
    assert wl.check("certify", item, (dataclasses.replace(cert, steps=cert.steps[:-1]), states))
    assert wl.check("certify", item, (cert, states[:-1]))


def test_checker_flags_a_corrupted_trace_move():
    item = next(it for it in _first("loops") if it.inp["kind"] == "commutator" and it.inp["n"] == 5)
    path, trace, replayed, svg = _answer("loops", item)
    for n in (0, len(trace.moves) // 2, len(trace.moves) - 1):
        mv = trace.moves[n]
        moved = dataclasses.replace(mv.base, anchor=(mv.base.anchor[0] + 1,) + mv.base.anchor[1:])
        for bad in (dataclasses.replace(mv, base=moved), dataclasses.replace(mv, pos=mv.pos + 1)):
            moves = trace.moves[:n] + (bad,) + trace.moves[n + 1:]
            assert wl.check("loops", item, (path, dataclasses.replace(trace, moves=moves), replayed, svg))
    assert wl.check("loops", item, (path, trace, replayed, svg.replace("<polygon", "<polyline", 1)))


def test_reference_agrees_with_the_matrix_oracle_on_small_words():
    from a1weyl import matrix_of_element_hyp, matrix_of_word, eval_word_hyp
    for item in _first("crosscheck")[:12]:
        got = ref.canonical_form(item.inp["nu"], item.inp["letters"])
        assert matrix_of_element_hyp(eval_word_hyp(item.arg)) == matrix_of_word(item.arg)
        assert ref.check_element(got, *_answer("crosscheck", item)[:2]) is None


def test_benchmark_json_lists_every_specified_metric_with_units():
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert SPECIFIED <= set(listed)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_UNITS
    # crosscheck runs by hand and in the traced slices, not in BENCHMARK.json.
    assert [w["name"] for w in SPEC["workloads"]] == [w for w in gen.WORKLOADS if w != "crosscheck"]
    assert all(m["name"] != "setup_s" or m["bound"] == max(n["bound"] for n in SPEC["end_to_end"])
               for m in SPEC["end_to_end"])


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert "failed_ratio: 0.0" in proc.stdout


def test_smoke_traced_run_prints_every_layer_metric():
    proc = _run("certify", 1)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == tracing.LAYER_UNITS
    assert "tracing_overhead: " in proc.stdout


def test_run_fails_without_the_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = _run("decide", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

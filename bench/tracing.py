"""The traced run: spans, a count pass, replay memory and the CLI rows.

End-to-end metrics never come from here.  Spans are recorded from the
benchmark's own code around each public call it makes into the library;
spans inside ``a1weyl`` belong to the library.  The count pass runs under
``cProfile`` for its exact call counts only: its times are not used, since
the profiler inflates them several-fold and unevenly across modules.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import statistics
import subprocess
import sys
import time
import timeit
import tracemalloc
from pathlib import Path

from a1weyl import Simplex, Word, baby_base, replay_certificate, rewrite_to_identity
from a1weyl.lattice import vec_add

import inputs as gen
import workloads as wl

LONG_COMMUTATOR_N = 30  # the ``long`` bin of reduce_loop.us_per_move (n >= 30)
OVERHEAD_CHUNK = 12  # inputs per alternation of untraced and traced ops

# Per-layer metric name -> unit.  Each is measured on the workload named in
# README.md, over a fixed slice of that workload's inputs, whatever
# workload the traced run was started for.
LAYER_UNITS = {
    "lattice.guard_checks_per_op": "count",
    "lattice.vec_add_ns": "ns",
    "words.parse_word.us_per_letter": "us",
    "words.from_indices_calls_per_move": "count",
    "weyl.eval_word.us_per_letter": "us",
    "weyl.eval_word.us_per_letter.nu2": "us",
    "weyl.eval_word.us_per_letter.nu8": "us",
    "weyl.eval_word_calls_per_move": "count",
    "weyl.matrix_of_word_w.us_per_letter": "us",
    "hyperbolic.eval_word_hyp.us_per_letter": "us",
    "hyperbolic.eval_word_hyp.us_per_letter.nu2": "us",
    "hyperbolic.eval_word_hyp.us_per_letter.nu8": "us",
    "hyperbolic.matrix_of_word.us_per_letter": "us",
    "hyperbolic.matrix_of_word.us_per_letter.nu2": "us",
    "hyperbolic.matrix_of_word.us_per_letter.nu8": "us",
    "intmat.mat_mul_calls_per_op": "count",
    "presentation.rewrite_to_identity.us_per_step": "us",
    "presentation.rewrite_to_identity.palindrome_ms": "ms",
    "presentation.steps.cancel": "count",
    "presentation.steps.reverse": "count",
    "presentation.steps.delete": "count",
    "presentation.replay_certificate.us_per_step": "us",
    "presentation.replay_certificate.peak_mb": "MB",
    "geometry.reduce_loop.us_per_move.short": "us",
    "geometry.reduce_loop.us_per_move.long": "us",
    "geometry.moves_per_op": "count",
    "geometry.inserts_per_delete": "ratio",
    "geometry.replay_trace.us_per_move": "us",
    "geometry.path_of_word.us_per_letter": "us",
    "geometry.render_svg.ms": "ms",
    "geometry.render_svg.kb": "KB",
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.tour_ms": "ms",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}

TOUR_CONFIGS = {
    "baby2.json": {"rank": 2, "cosets": [[0, 0], [1, 0], [0, 1]]},
    "tor2.json": {"rank": 2, "cosets": [[0, 0], [1, 0], [0, 1], [1, 1]]},
}
LOOP12 = "g2 g0 g2 g1 g0 g1 g0 g2 g1 g2 g1 g0".split()
TOUR = [  # the CLI tour of README.md, one process per command
    ["validate", "--config", "baby2.json"],
    ["eval", "--config", "baby2.json", "--group", "W", *"g0 g1 g2 g0 g1 g2".split()],
    ["eval", "--config", "baby2.json", "--group", "Wt", *"g0 g1 g2 g0 g1 g2".split()],
    ["check", "--config", "baby2.json", "--group", "Wt", "g1", "g1"],
    ["alt-enum", "--config", "baby2.json", "--k", "4"],
    ["presentation", "--config", "baby2.json", "--kind", "hyp", "--verify"],
    ["reduce", "--config", "baby2.json", *LOOP12],
    ["path", "--config", "baby2.json", "g1", "g1"],
    ["render-svg", "--config", "baby2.json", "--out", "loop.svg", *LOOP12],
    ["center-basis", "--config", "tor2.json"],
    ["oracle-compare", "--config", "baby2.json", "--n", "1000", "--len", "16", "--seed", "0"],
]


class Spans:
    """Spans kept in memory: (id, name, start_ns, end_ns, parent id, op id)."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.ops: list[tuple[str, int]] = []  # op id -> (workload, input index)
        self._next = 0
        self._op: tuple | None = None

    def begin_op(self, workload: str, index: int) -> None:
        self._op = (self._next, len(self.ops), f"op.{workload}", time.perf_counter_ns())
        self._next += 1
        self.ops.append((workload, index))

    def end_op(self) -> None:
        span, op, name, start = self._op
        self.rows.append((span, name, start, time.perf_counter_ns(), None, op))

    def call(self, name: str, fn, *args):
        span = self._next
        self._next += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.rows.append((span, name, start, time.perf_counter_ns(), self._op[0], self._op[1]))

    def ns_by_op(self, name: str) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, n, start, end, _, op in self.rows:
            if n == name:
                out[op] = out.get(op, 0) + end - start
        return out

    def dump(self, path: Path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op")
        path.write_text(json.dumps({
            "ops": [[i, w, k] for i, (w, k) in enumerate(self.ops)],
            "spans": [dict(zip(keys, row)) for row in self.rows],
        }))


def _sizes(workload: str, out) -> dict:
    """Work done by one op, read off its answer (``ops`` is always 1)."""
    if workload in ("decide", "crosscheck"):
        return {"ops": 1}
    if workload == "certify":
        cert = out[0]
        sizes = {"ops": 1, "steps": len(cert.steps)}
        for rule in ("cancel-involution", "triple-reverse", "delete-relator"):
            sizes[rule] = sum(1 for s in cert.steps if s.rule == rule)
        return sizes
    _, trace, _, svg = out
    inserts = sum(1 for m in trace.moves if m.kind == "insert")
    return {"ops": 1, "moves": len(trace.moves), "inserts": inserts,
            "deletes": len(trace.moves) - inserts,
            "svgs": 1 if svg else 0, "svg_bytes": len(svg) if svg else 0}


class Slice:
    """A fixed subset of a workload's inputs, run with spans on."""

    def __init__(self, workload: str, items: list[wl.Item]) -> None:
        self.workload = workload
        self.items = items
        self.passes: list[list[tuple[int, int]]] = []  # per pass: (op id, item index)
        self.sizes: dict[int, dict] = {}  # item index -> _sizes of its answer

    def run(self, passes: int, spans: Spans, run: wl.Run, cpu: wl.FastestCpu) -> None:
        def observe(i, out):
            self.sizes.setdefault(i, _sizes(self.workload, out))

        for _ in range(passes):
            first = len(spans.ops)
            wl.run_round(self.workload, self.items, run, spans=spans, observe=observe, before_op=cpu)
            self.passes.append([(op, spans.ops[op][1]) for op in range(first, len(spans.ops))])

    def size(self, i: int, key: str) -> int:
        return gen.letters(self.items[i].inp) if key == "letters" else self.sizes[i][key]

    def per(self, spans: Spans, name: str, key: str, scale: float = 1e-3, keep=None) -> float:
        """Median over passes of (span time of ``name``) / (total ``key``), in ``scale``."""
        ns = spans.ns_by_op(name)
        ratios = []
        for ops in self.passes:
            chosen = [(op, i) for op, i in ops if i in self.sizes and (keep is None or keep(i))]
            work = sum(self.size(i, key) for _, i in chosen)
            if work:
                ratios.append(sum(ns.get(op, 0) for op, _ in chosen) * scale / work)
        return statistics.median(ratios) if ratios else 0.0

    def total(self, key: str) -> int:
        return sum(s[key] for s in self.sizes.values())


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _slice_items(workload: str, items: list[wl.Item], seed: int) -> list[wl.Item]:
    """The traced slice, from the workload's first round (``inputs.first_round``)."""
    if workload in ("decide", "crosscheck"):
        return items[::3]
    randoms = [it for it in items if it.inp["kind"] == "random"]
    if workload == "certify":
        pals = [it for it in items if it.inp["kind"] == "palindrome" and len(it.arg[0]) in (2000, 8000)]
        return pals + randoms[::50]
    short = [it for it in items if it.inp["kind"] == "commutator" and it.inp["n"] <= 10]
    return short + [_long_commutator(seed)] + randoms[::40]


def _long_commutator(seed: int) -> wl.Item:
    rng = gen.stream(seed, "loops-long")
    anchor, orient = tuple(rng.randint(-3, 3) for _ in range(2)), rng.choice((1, -1))
    inp = {"kind": "commutator", "n": LONG_COMMUTATOR_N, "nu": 2,
           "indices": gen.commutator(LONG_COMMUTATOR_N), "anchor": anchor, "orient": orient}
    word = Word.from_indices(baby_base(2), inp["indices"])
    return wl.Item(inp, (word, Simplex(anchor, orient)))


def _count_items(workload: str, items: list[wl.Item]) -> list[wl.Item]:
    """Small inputs of the first round for the count pass, which runs several times slower."""
    if workload == "decide":
        return [it for it in items[::3] if gen.letters(it.inp) <= 512]
    if workload == "crosscheck":
        return [it for it in items[::3] if gen.letters(it.inp) <= 256]
    short = [it for it in items if it.inp["kind"] == "commutator" and it.inp["n"] <= 7]
    randoms = [it for it in items if it.inp["kind"] == "random"][::10]
    return short + [it for it in randoms if gen.letters(it.inp) <= 120][:3]


def count_pass(workload: str, items: list[wl.Item], run: wl.Run) -> dict[str, float]:
    """Exact calls per op (and per move for loops) from cProfile's call counts."""
    sizes: dict[int, dict] = {}
    prof = cProfile.Profile()
    prof.enable()
    try:
        wl.run_round(workload, items, run,
                    observe=lambda i, out: sizes.setdefault(i, _sizes(workload, out)))
    finally:
        prof.disable()
    calls: dict[tuple[str, str], int] = {}
    for (path, _, func), (_, ncalls, *_rest) in pstats.Stats(prof).stats.items():
        key = (Path(path).stem, func)
        calls[key] = calls.get(key, 0) + ncalls
    ops = len(items)
    if workload == "decide":
        return {"lattice.guard_checks_per_op": calls.get(("lattice", "checked"), 0) / ops}
    if workload == "crosscheck":
        return {"intmat.mat_mul_calls_per_op": calls.get(("intmat", "mat_mul"), 0) / ops}
    moves = sum(s["moves"] for s in sizes.values()) or 1
    return {
        "words.from_indices_calls_per_move": calls.get(("words", "from_indices"), 0) / moves,
        "weyl.eval_word_calls_per_move": calls.get(("weyl", "eval_word"), 0) / moves,
    }


def replay_peak_mb(items: list[wl.Item]) -> float:
    """tracemalloc peak of replay_certificate on the longest palindrome of the slice (8000 letters)."""
    indices, nu = max((it.arg for it in items if it.inp["kind"] == "palindrome"),
                      key=lambda a: len(a[0]))
    cert = rewrite_to_identity(indices, nu)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        states = replay_certificate(cert)
        peak = tracemalloc.get_traced_memory()[1] - base
        del states
    finally:
        tracemalloc.stop()
    return peak / 2**20


def vec_add_ns(seed: int) -> float:
    rng = gen.stream(seed, "vec_add")
    a, b = (tuple(rng.randint(-1000, 1000) for _ in range(8)) for _ in range(2))
    number = 20000
    times = timeit.Timer("vec_add(a, b)", globals={"vec_add": vec_add, "a": a, "b": b}).repeat(7, number)
    return statistics.median(times) / number * 1e9


def _wall_ms(argv: list[str], cwd: Path, env: dict) -> tuple[float, int]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=120)
    return (time.perf_counter() - t0) * 1e3, proc.returncode


def cli_rows(src: Path, work_dir: Path, run: wl.Run) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    work_dir.mkdir(parents=True, exist_ok=True)
    for name, cfg in TOUR_CONFIGS.items():
        (work_dir / name).write_text(json.dumps(cfg))
    # Bare start-up and start-up plus import alternate, so both see the same load.
    starts, imports = [], []
    for _ in range(5):
        starts.append(_wall_ms([sys.executable, "-c", "pass"], work_dir, env)[0])
        imports.append(_wall_ms([sys.executable, "-c", "import a1weyl.cli"], work_dir, env)[0])
    start = statistics.median(starts)
    imported = statistics.median(imports)
    tour = 0.0
    for argv in TOUR:
        run.attempted += 1
        ms, code = _wall_ms([sys.executable, "-m", "a1weyl", *argv], work_dir, env)
        tour += ms
        if code != 0:
            run.note_failure(f"tour {argv[0]}", f"exit code {code}")
    return {"cli.python_start_ms": start, "cli.import_ms": imported - start, "cli.tour_ms": tour}


def traced_run(workload: str, seed: int, seconds: float, src: Path, out_dir: Path) -> tuple[wl.Run, dict, dict]:
    """Returns the run's op tally, the per-layer metrics and details."""
    run = wl.Run()
    spans = Spans()
    inputs = {name: gen.make_inputs(name, seed) for name in gen.WORKLOADS}
    first = {}  # the first round of every workload: the slices and the count pass use it
    for name, inps in inputs.items():
        bases = wl.build_bases(name)
        first[name] = wl.prepare(name, gen.first_round(name, inps), bases)
        if name == workload:
            own = first[name] + wl.prepare(name, inps[len(first[name]):], bases)

    # Tracing overhead on the requested workload: untraced and traced chunks
    # of its pass-0 inputs alternate, so a slow spell of the machine hits both
    # sides alike.
    plain, traced = wl.Run(), wl.Run()
    cpu = wl.FastestCpu()  # as in the untraced run
    try:
        for _ in range(max(1, wl.passes_for(workload, seconds) // 4)):
            for start in range(0, len(own), OVERHEAD_CHUNK):
                chunk = own[start:start + OVERHEAD_CHUNK]
                wl.run_round(workload, chunk, plain, start=start, before_op=cpu)
                wl.run_round(workload, chunk, traced, spans=spans, start=start, before_op=cpu)
        slices = {name: Slice(name, _slice_items(name, first[name], seed)) for name in gen.WORKLOADS}
        for name, passes in (("decide", 3), ("crosscheck", 2), ("certify", 2), ("loops", 1)):
            slices[name].run(passes, spans, run, cpu)
    finally:
        cpu.release()
    run.absorb(plain)
    run.absorb(traced)
    untraced_rate, traced_rate = plain.rate(), traced.rate()

    d, c, r, lp = slices["decide"], slices["crosscheck"], slices["certify"], slices["loops"]

    def commutators(lo: int, hi: int):
        return lambda i: lo <= lp.items[i].inp.get("n", -1) <= hi

    def rank(sl: Slice, nu: int):
        return lambda i: sl.items[i].inp["nu"] == nu

    def longest_palindrome(i: int) -> bool:
        return r.items[i].inp["kind"] == "palindrome" and len(r.items[i].arg[0]) == 8000

    layer = {
        "lattice.vec_add_ns": vec_add_ns(seed),
        "words.parse_word.us_per_letter": d.per(spans, "words.parse_word", "letters"),
        "weyl.eval_word.us_per_letter": d.per(spans, "weyl.eval_word", "letters"),
        "weyl.eval_word.us_per_letter.nu2": d.per(spans, "weyl.eval_word", "letters", keep=rank(d, 2)),
        "weyl.eval_word.us_per_letter.nu8": d.per(spans, "weyl.eval_word", "letters", keep=rank(d, 8)),
        "hyperbolic.eval_word_hyp.us_per_letter": d.per(spans, "hyperbolic.eval_word_hyp", "letters"),
        "hyperbolic.eval_word_hyp.us_per_letter.nu2":
            d.per(spans, "hyperbolic.eval_word_hyp", "letters", keep=rank(d, 2)),
        "hyperbolic.eval_word_hyp.us_per_letter.nu8":
            d.per(spans, "hyperbolic.eval_word_hyp", "letters", keep=rank(d, 8)),
        "weyl.matrix_of_word_w.us_per_letter": c.per(spans, "weyl.matrix_of_word_w", "letters"),
        "hyperbolic.matrix_of_word.us_per_letter": c.per(spans, "hyperbolic.matrix_of_word", "letters"),
        "hyperbolic.matrix_of_word.us_per_letter.nu2":
            c.per(spans, "hyperbolic.matrix_of_word", "letters", keep=rank(c, 2)),
        "hyperbolic.matrix_of_word.us_per_letter.nu8":
            c.per(spans, "hyperbolic.matrix_of_word", "letters", keep=rank(c, 8)),
        "presentation.rewrite_to_identity.us_per_step":
            r.per(spans, "presentation.rewrite_to_identity", "steps"),
        "presentation.rewrite_to_identity.palindrome_ms":
            r.per(spans, "presentation.rewrite_to_identity", "ops", scale=1e-6, keep=longest_palindrome),
        "presentation.steps.cancel": _ratio(r.total("cancel-involution"), r.total("ops")),
        "presentation.steps.reverse": _ratio(r.total("triple-reverse"), r.total("ops")),
        "presentation.steps.delete": _ratio(r.total("delete-relator"), r.total("ops")),
        "presentation.replay_certificate.us_per_step":
            r.per(spans, "presentation.replay_certificate", "steps"),
        "presentation.replay_certificate.peak_mb": replay_peak_mb(r.items),
        "geometry.reduce_loop.us_per_move.short":
            lp.per(spans, "geometry.reduce_loop", "moves", keep=commutators(0, 10)),
        "geometry.reduce_loop.us_per_move.long":
            lp.per(spans, "geometry.reduce_loop", "moves", keep=commutators(LONG_COMMUTATOR_N, 10**9)),
        "geometry.moves_per_op": _ratio(lp.total("moves"), lp.total("ops")),
        "geometry.inserts_per_delete": _ratio(lp.total("inserts"), lp.total("deletes")),
        "geometry.replay_trace.us_per_move": lp.per(spans, "geometry.replay_trace", "moves"),
        "geometry.path_of_word.us_per_letter": lp.per(spans, "geometry.path_of_word", "letters"),
        "geometry.render_svg.ms": lp.per(spans, "geometry.render_svg", "ops", scale=1e-6,
                                         keep=lambda i: lp.sizes[i]["svgs"]),
        "geometry.render_svg.kb": _ratio(lp.total("svg_bytes"), lp.total("svgs")) / 1024,
    }
    for name in ("decide", "crosscheck", "loops"):
        layer.update(count_pass(name, _count_items(name, first[name]), run))
    layer.update(cli_rows(src, out_dir / "tour", run))
    layer["trace.untraced_ops_per_s"] = untraced_rate
    layer["trace.traced_ops_per_s"] = traced_rate
    layer["trace.overhead_ratio"] = untraced_rate / traced_rate if traced_rate else 0.0

    spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
    spans.dump(spans_path)
    details = {"inputs_sha256_pass0": {name: gen.digest([inps]) for name, inps in inputs.items()},
               "spans_file": str(spans_path.relative_to(out_dir.parent.parent)), "spans": len(spans.rows),
               "tracing_overhead": f"{workload}: traced {traced_rate:.3f} ops/s vs untraced "
                                   f"{untraced_rate:.3f} ops/s"}
    return run, {k: layer[k] for k in LAYER_UNITS}, details

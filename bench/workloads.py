"""The four workloads: how each op calls the library, and the timed closed loop.

One client runs ops back to back, so the next op starts only when the
previous one has returned.  Only the op itself is inside the timed interval;
turning the generated inputs into library arguments, computing references
and checking answers all happen outside it.

A run makes several passes over the workload's inputs (each pass a symmetric
variant of them, see ``inputs.variant_inputs``), and an input's latency is
the fastest of its passes.  On a shared host each CPU's speed swings by up
to 2x for seconds at a time, and the CPUs swing independently: the process
is kept on whichever allowed CPU is fastest at the moment (``FastestCpu``),
and the fastest of passes spread over the run is the op's own cost, where a
single timing is that cost times the speed of one CPU at one moment.
"""

from __future__ import annotations

import gc
import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from a1weyl import (
    ReflectableBase,
    Root,
    Simplex,
    Word,
    baby_base,
    baby_semilattice,
    eval_word,
    eval_word_hyp,
    is_central,
    matrix_of_element_hyp,
    matrix_of_element_w,
    matrix_of_word,
    matrix_of_word_w,
    pairwise_semilattice,
    parse_word,
    path_of_word,
    reduce_loop,
    render_svg,
    replay_certificate,
    replay_trace,
    rewrite_to_identity,
    toroidal_semilattice,
    validate_word,
)

import inputs as gen
import reference as ref

SEMILATTICES = {
    "baby": baby_semilattice,
    "toroidal": toroidal_semilattice,
    "pairwise": pairwise_semilattice,
}


def direct(name: str, fn: Callable, *args):
    """The untraced call: ``name`` is only read by the span recorder."""
    return fn(*args)


def base_specs(workload: str) -> list[tuple[str, int]]:
    """The (family, nu) bases a workload evaluates over; set-up builds these."""
    if workload in ("decide", "crosscheck"):
        return [(f, nu) for f in gen.FAMILIES for nu in gen.WORD_NUS]
    if workload == "certify":
        return [("baby", gen.CERTIFY_NU)]
    return [("baby", 2), ("baby", gen.LOOP_RANDOM_NU)]


def build_bases(workload: str) -> dict[tuple[str, int], ReflectableBase]:
    bases = {}
    for family, nu in base_specs(workload):
        base = ReflectableBase(SEMILATTICES[family](nu))
        base.roots  # noqa: B018 - the roots are built lazily; set-up pays for them
        bases[(family, nu)] = base
    return bases


# --- ops ---------------------------------------------------------------------


def op_decide(arg, call):
    text, base = arg
    word = call("words.parse_word", parse_word, text, base)
    call("words.validate_word", validate_word, base.semilattice, word)
    w_elem = call("weyl.eval_word", eval_word, word)
    h_elem = call("hyperbolic.eval_word_hyp", eval_word_hyp, word)
    central = call("hyperbolic.is_central", is_central, word)
    return word, w_elem, h_elem, central


def op_crosscheck(word, call):
    """``oracle-compare``'s per-word work on a word the benchmark supplies."""
    w_elem = call("weyl.eval_word", eval_word, word)
    oracle_w = call("weyl.matrix_of_element_w", matrix_of_element_w, w_elem) == call(
        "weyl.matrix_of_word_w", matrix_of_word_w, word
    )
    h_elem = call("hyperbolic.eval_word_hyp", eval_word_hyp, word)
    oracle_h = call("hyperbolic.matrix_of_element_hyp", matrix_of_element_hyp, h_elem) == call(
        "hyperbolic.matrix_of_word", matrix_of_word, word
    )
    return w_elem, h_elem, oracle_w, oracle_h


def op_certify(arg, call):
    indices, nu = arg
    cert = call("presentation.rewrite_to_identity", rewrite_to_identity, indices, nu)
    states = call("presentation.replay_certificate", replay_certificate, cert)
    return cert, states


def op_loops(arg, call):
    word, start = arg
    path = call("geometry.path_of_word", path_of_word, word, start)
    trace = call("geometry.reduce_loop", reduce_loop, path)
    replayed = call("geometry.replay_trace", replay_trace, trace)
    svg = call("geometry.render_svg", render_svg, path) if word.rank == 2 else None
    return path, trace, replayed, svg


OPS = {"decide": op_decide, "crosscheck": op_crosscheck, "certify": op_certify, "loops": op_loops}


@dataclass
class Item:
    """One generated input, its library arguments and its reference (if any)."""

    inp: dict
    arg: object
    expect: dict | None = None


def prepare(workload: str, inps: list[dict], bases: dict, expects: list | None = None) -> list[Item]:
    """Library arguments and references for one pass, built outside the timed interval.

    ``expects`` are the references of pass 0, reused for a sign-flipped
    variant: ``w_a = w_{-a}``, so its canonical form is the same.
    """
    items = []
    for i, inp in enumerate(inps):
        if workload in ("decide", "crosscheck"):
            expect = expects[i] if expects else ref.canonical_form(inp["nu"], inp["letters"])
            if workload == "decide":
                arg = (inp["text"], bases[(inp["family"], inp["nu"])])
            else:
                arg = Word(inp["nu"], tuple(Root(s, lat) for s, lat in inp["letters"]))
            items.append(Item(inp, arg, expect))
        elif workload == "certify":
            items.append(Item(inp, (tuple(inp["indices"]), inp["nu"])))
        else:
            word = Word.from_indices(baby_base(inp["nu"]), inp["indices"])
            items.append(Item(inp, (word, Simplex(inp["anchor"], inp["orient"]))))
    return items


def check(workload: str, item: Item, out) -> str | None:
    if workload == "decide":
        return ref.check_decide(item.inp, item.expect, out)
    if workload == "crosscheck":
        return ref.check_crosscheck(item.expect, out)
    if workload == "certify":
        return ref.check_certify(item.inp, out)
    return ref.check_loops(item.inp, out)


# --- the closed loop -----------------------------------------------------------


@dataclass
class Run:
    """Op times (ns) pass by pass, one entry per input; ``None`` where the op failed."""

    passes: list[list[int | None]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def note_failure(self, where: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{where}: {why}")

    def absorb(self, other: "Run") -> None:
        """Add another run's op tally to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 20 - len(self.failures)])

    def rate(self) -> float:
        """Ops that passed, per second of op time."""
        ns = [ns for p in self.passes for ns in p if ns is not None]
        return len(ns) / (sum(ns) / 1e9) if ns else 0.0

    def best_ms(self) -> list[float]:
        """Per input, the fastest of its passes that passed its check."""
        best = []
        for times in zip(*self.passes):
            ok = [ns for ns in times if ns is not None]
            if ok:
                best.append(min(ok) / 1e6)
        return best


def _probe_ns() -> int:
    t0 = time.perf_counter_ns()
    [(i, i * i) for i in range(2000)]
    return time.perf_counter_ns() - t0


PROBE_EVERY_NS = 250_000_000


class FastestCpu:
    """Moves this process, between ops, to the allowed CPU that runs a fixed loop fastest.

    Called before every op, it probes each CPU (best of three runs of a
    loop of about 0.1 ms) at most every ``PROBE_EVERY_NS`` of wall time, or
    whenever ``force`` is set.  Nothing is probed when only one CPU is allowed.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.due = 0

    def __call__(self, force: bool = False) -> None:
        now = time.perf_counter_ns()
        if len(self.cpus) < 2 or (now < self.due and not force):
            return
        self.due = now + PROBE_EVERY_NS
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_probe_ns() for _ in range(3))
        os.sched_setaffinity(0, {min(speed, key=speed.get)})

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def run_round(workload: str, items: list[Item], run: Run, spans=None, observe=None,
              start: int = 0, before_op: Callable[[], None] | None = None) -> int:
    """Run every item once; returns the nanoseconds spent inside ops.

    ``spans`` records a span per library call; ``observe(i, out)`` sees each
    answer that passed its check; ``before_op()`` runs before each op, outside
    the timed interval.  Input ``i`` of ``items`` is numbered ``start + i`` in
    spans and failure notes.
    """
    op = OPS[workload]
    call = spans.call if spans is not None else direct
    gc.collect()
    times: list[int | None] = []
    spent = 0
    for i, item in enumerate(items, start):
        run.attempted += 1
        if before_op is not None:
            before_op()
        if spans is not None:
            spans.begin_op(workload, i)
        t0 = time.perf_counter_ns()
        try:
            out = op(item.arg, call)
        except Exception as exc:  # an op that raises is a failed op, never an abort
            spent += time.perf_counter_ns() - t0
            if spans is not None:
                spans.end_op()
            run.note_failure(f"op {i}", f"raised {exc!r}")
            times.append(None)
            continue
        ns = time.perf_counter_ns() - t0
        spent += ns
        if spans is not None:
            spans.end_op()
        try:
            bad = check(workload, item, out)
        except Exception as exc:  # a malformed answer can break the checker itself
            bad = f"check raised {exc!r}"
        if bad:
            run.note_failure(f"op {i}", bad)
            times.append(None)
        else:
            times.append(ns)
            if observe is not None:
                observe(i, out)
        del out  # a certify answer holds every intermediate word; free it before the next op
    run.passes.append(times)
    return spent


# Nominal op time of one pass, which turns ``--seconds`` into a number of
# passes, so every commit and every seed runs the same ops.  Chosen so that a
# 38 s run (9 passes; 8 of crosscheck) takes 30-45 s of wall time at the
# seed commit on a 2-core x86-64 VM (Python 3.11.7), whatever the host's spell.
NOMINAL_PASS_S = {"decide": 4.2, "crosscheck": 5.0, "certify": 4.2, "loops": 4.2}
OVERRUN = 6  # run no further pass once op time passes this many times --seconds


def passes_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


def run_passes(workload: str, seed: int, inps: list[dict], bases: dict, count: int,
               budget_s: float, before_pass: Callable[[FastestCpu], None] = lambda cpu: None
               ) -> tuple[Run, str]:
    """``count`` passes over the variants of ``inps``; returns the run and the inputs' digest.

    Every pass's inputs are made and digested, but no further pass runs once
    op time passes ``budget_s``.  ``before_pass(cpu)`` runs before every
    pass, with the CPU picker the ops use.
    """
    run = Run()
    digest = hashlib.sha256()
    expects = None
    spent = 0
    cpu = FastestCpu()
    try:
        for k in range(count):
            variant = gen.variant_inputs(workload, seed, k, inps)
            digest.update(gen.canon(variant))
            if spent > budget_s * 1e9:
                continue
            items = prepare(workload, variant, bases, expects)
            expects = [it.expect for it in items]
            before_pass(cpu)
            spent += run_round(workload, items, run, before_op=cpu)
            del items
    finally:
        cpu.release()
    return run, digest.hexdigest()


def tail(samples: list[float]) -> tuple[float, str, int]:
    """The highest of p90, p99 and p99.9 that leaves at least 10 samples beyond it.

    With fewer than 100 samples no such percentile exists; p90 is then
    reported and its label says so.
    """
    n = len(samples)
    cuts = statistics.quantiles(samples, n=1000, method="inclusive") if n > 1 else samples * 999
    for label, q in (("p99.9", 999), ("p99", 990), ("p90", 900)):
        if n * (1000 - q) / 1000 >= 10:
            return cuts[q - 1], label, n
    return cuts[899], "p90 (fewer than 10 samples beyond)", n


def end_to_end(run: Run) -> tuple[dict, dict]:
    """The untraced metrics of a run (minus set-up and memory) and their details.

    All three read each input's fastest pass: ``ops_per_s`` is the inputs
    over the sum of those times.
    """
    samples = run.best_ms()
    if not samples:
        return {}, {"note": "no op passed its check"}
    tail_ms, label, n = tail(samples)
    metrics = {
        "ops_per_s": (len(samples) / (sum(samples) / 1e3), "1/s"),
        "latency_ms_p50": (statistics.median(samples), "ms"),
        "latency_ms_tail": (tail_ms, "ms"),
    }
    details = {
        "passes": len(run.passes),
        "op_seconds": sum(ns for p in run.passes for ns in p if ns is not None) / 1e9,
        "latency_ms_tail_percentile": label,
        "latency_samples": n,
    }
    return metrics, details

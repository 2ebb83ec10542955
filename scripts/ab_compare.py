#!/usr/bin/env python3
"""Time two checkouts against each other on one benchmark workload, op by op in one process.

    python3 scripts/ab_compare.py OLD_CHECKOUT NEW_CHECKOUT --workload decide --seed 1 --passes 5

Each checkout's ``src/a1weyl`` is copied into a temporary directory under a
package name of its own (``a1weyl_old``, ``a1weyl_new``); the package
imports itself only relatively, so the two copies share no module and both
load into this process.  The inputs come from this repository's
``bench/inputs.py``: pass ``k`` runs variant ``k`` of the seed's inputs.
For every input both sides run the benchmark's op for the workload (decide:
parse, validate, ``eval_word``, ``eval_word_hyp``, ``is_central``; certify:
rewrite and replay; loops: path, reduction, trace replay and, at rank 2,
the SVG), one right after the other, the side that goes first alternating
from op to op, and their answers must be equal by ``repr`` (replay states
by their 64-bit bytes).  Only the op is timed.

A side's ``ops_per_s`` in a pass is its number of ops over their summed
time.  Each side's line gives its best pass, then the median and the
quartiles (inclusive method) of its passes.  Both sides of a pass meet the
same host load at the same moments, which separate runs of ``bench/run.py``
on a shared host do not, so the ``gain`` line is paired: the median over
passes of the pass's new/old ratio, less one.  The ``new won`` line counts
the passes whose new rate beats the old (a tie counts for neither side), so
a claimed gain can be read against a rule such as "at least nine of ten
pairs".  The ``median gain`` line
compares the two sides' medians.  Before the ``gain`` line, one ``gc`` line
per side counts the cyclic collections that started inside its timed ops,
by generation, with the milliseconds they took, over all passes (through
``gc.callbacks``): a collection is paid by the op whose allocation set it
off, and a full one walks every object of the process, the inputs of the
pass included, so its cost shows here and not in a run with the collector
off or a heap smaller than the benchmark's.  Both sides share one heap, so
a full collection that one side's survivors made due can start inside the
other side's op.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import operator
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import inputs as gen  # noqa: E402

SIDES = ("old", "new")


def load(checkout: Path, name: str, into: Path):
    """Import ``checkout``'s ``src/a1weyl`` as the package ``name`` from a copy under ``into``."""
    src = checkout / "src" / "a1weyl"
    if not (src / "__init__.py").is_file():
        sys.exit(f"ab_compare: no package at {src}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def prepare(m, workload: str, inps: list[dict], bases: dict) -> list[tuple]:
    """The op arguments of one pass for library ``m``, built outside the timed interval."""
    if workload == "decide":
        make = {"baby": m.baby_semilattice, "toroidal": m.toroidal_semilattice,
                "pairwise": m.pairwise_semilattice}
        args = []
        for inp in inps:
            key = (inp["family"], inp["nu"])
            if key not in bases:
                bases[key] = m.ReflectableBase(make[inp["family"]](inp["nu"]))
            args.append((inp["text"], bases[key]))
        return args
    if workload == "certify":
        return [(tuple(inp["indices"]), inp["nu"]) for inp in inps]
    return [(m.Word.from_indices(m.baby_base(inp["nu"]), inp["indices"]),
             m.Simplex(inp["anchor"], inp["orient"])) for inp in inps]


def op(m, workload: str, arg: tuple) -> tuple:
    if workload == "decide":
        text, base = arg
        word = m.parse_word(text, base)
        m.validate_word(base.semilattice, word)
        return word, m.eval_word(word), m.eval_word_hyp(word), m.is_central(word)
    if workload == "certify":
        cert = m.rewrite_to_identity(*arg)
        return cert, m.replay_certificate(cert)
    word, start = arg
    path = m.path_of_word(word, start)
    trace = m.reduce_loop(path)
    svg = m.render_svg(path) if word.rank == 2 else None
    return path, trace, m.replay_trace(trace), svg


def fingerprint(workload: str, answer: tuple) -> str:
    h = hashlib.sha256()
    if workload == "certify":
        cert, states = answer
        h.update(repr(cert).encode())
        for state in states:
            h.update(array("q", state).tobytes())
    else:
        h.update(repr(answer).encode())
    return h.hexdigest()


class Collections:
    """A ``gc.callbacks`` entry: per side, the collections that start while its op runs, and their time.

    ``side`` names the side whose op is running, or is ``None`` between ops.
    ``counts[side]`` holds one count per generation, ``ns[side]`` their
    summed time from start to stop.
    """

    def __init__(self) -> None:
        self.side: str | None = None
        self.counts = {side: [0, 0, 0] for side in SIDES}
        self.ns = dict.fromkeys(SIDES, 0)
        self.running: tuple[str, int] | None = None  # the side and start time of the collection running

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.running = None
            if self.side is not None:
                self.counts[self.side][info["generation"]] += 1
                self.running = self.side, time.perf_counter_ns()
        elif self.running is not None:
            side, t0 = self.running
            self.ns[side] += time.perf_counter_ns() - t0
            self.running = None


def timed(m, workload: str, arg: tuple, collections: Collections, side: str) -> tuple[int, tuple]:
    collections.side = side
    t0 = time.perf_counter_ns()
    answer = op(m, workload, arg)
    ns = time.perf_counter_ns() - t0
    collections.side = None
    return ns, answer


def compare(libs: dict, workload: str, seed: int, passes: int, collections: Collections) -> tuple[dict, int]:
    """Per side, ``ops_per_s`` of every pass, and the number of ops compared; ``collections`` counts the collections.

    Exits 1 at the first pair of unequal answers.
    """
    inps = gen.make_inputs(workload, seed)
    bases: dict = {side: {} for side in SIDES}
    rates: dict[str, list[float]] = {side: [] for side in SIDES}
    compared = 0
    for k in range(passes):
        pass_inps = gen.variant_inputs(workload, seed, k, inps)
        args = {side: prepare(libs[side], workload, pass_inps, bases[side]) for side in SIDES}
        spent = dict.fromkeys(SIDES, 0)
        gc.collect()
        for i in range(len(pass_inps)):
            order = SIDES if (i + k) % 2 == 0 else SIDES[::-1]
            answers = {}
            for side in order:
                ns, answers[side] = timed(libs[side], workload, args[side][i], collections, side)
                spent[side] += ns
            if fingerprint(workload, answers["old"]) != fingerprint(workload, answers["new"]):
                sys.exit(f"ab_compare: answers differ on pass {k} input {i}")
            compared += 1
        for side in SIDES:
            rates[side].append(len(pass_inps) / (spent[side] / 1e9))
    return rates, compared


def spread(rates: list[float]) -> tuple[float, float, float]:
    """The median, first and third quartile of the passes' rates; a single pass is all three."""
    if len(rates) < 2:
        return rates[0], rates[0], rates[0]
    q1, median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    return median, q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout of the baseline")
    parser.add_argument("new", type=Path, help="checkout of the change")
    parser.add_argument("--workload", choices=("decide", "certify", "loops"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ab_compare-") as tmp:
        sys.path.insert(0, tmp)
        libs = {side: load(getattr(args, side).resolve(), f"a1weyl_{side}", Path(tmp))
                for side in SIDES}
        collections = Collections()
        gc.callbacks.append(collections)
        try:
            rates, compared = compare(libs, args.workload, args.seed, args.passes, collections)
        finally:
            gc.callbacks.remove(collections)
    print(f"{args.workload} seed {args.seed} passes {args.passes}: {compared} answers equal")
    medians = {}
    for side in SIDES:
        medians[side], q1, q3 = spread(rates[side])
        print(f"{side:3s} ops_per_s {max(rates[side]):9.1f} (best of {args.passes})"
              f"  median {medians[side]:9.1f} IQR [{q1:.1f}, {q3:.1f}]  {getattr(args, side)}")
    for side in SIDES:
        gen0, gen1, gen2 = collections.counts[side]
        print(f"{side:3s} gc gen0 {gen0} gen1 {gen1} gen2 {gen2} in {collections.ns[side] / 1e6:.1f} ms"
              f" inside its ops over {args.passes} passes")
    gain = statistics.median(map(operator.truediv, rates["new"], rates["old"])) - 1
    print(f"gain {gain:+.1%}")
    won = sum(map(operator.gt, rates["new"], rates["old"]))
    print(f"new won {won} of {args.passes} passes")
    print(f"median gain {medians['new'] / medians['old'] - 1:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Digest what the library answers on the benchmark's inputs, one sha256 per layer.

    python3 scripts/output_digest.py --seeds 1 2 3 --variants 0 1 2

The inputs come from ``bench/inputs.py`` (seeded, built without the
library), for every given seed and pass variant.  Three layers are digested,
each over the ``repr`` of every part of every answer, in input order:

- ``decide``: the canonical forms of ``eval_word`` and ``eval_word_hyp`` and
  ``is_central`` of every parsed text word;
- ``certify``: every ``rewrite_to_identity`` certificate with the states of
  its ``replay_certificate`` (each state as the bytes of a 64-bit ``array``,
  which is exact for its letters and costs a tenth of a ``repr``);
- ``loops``: every ``reduce_loop`` ``MoveTrace`` with the ``replay_trace``
  path at each macro end.

Run it on two checkouts and compare the lines to show that a change keeps
every answer.  Stdlib only; run from anywhere.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
from array import array
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import inputs as gen  # noqa: E402

from a1weyl import (  # noqa: E402
    ReflectableBase,
    Simplex,
    Word,
    baby_base,
    baby_semilattice,
    eval_word,
    eval_word_hyp,
    is_central,
    pairwise_semilattice,
    parse_word,
    path_of_word,
    reduce_loop,
    replay_certificate,
    replay_trace,
    rewrite_to_identity,
    toroidal_semilattice,
)

LAYERS = ("decide", "certify", "loops")
SEMILATTICES = {"baby": baby_semilattice, "toroidal": toroidal_semilattice,
                "pairwise": pairwise_semilattice}


def answers(layer: str, inps: list[dict], bases: dict):
    """The library's answer to each input, in order, as an iterable of parts.

    A part is digested as it is if it is ``bytes``, else by its ``repr``.
    """
    for inp in inps:
        if layer == "decide":
            key = (inp["family"], inp["nu"])
            if key not in bases:
                bases[key] = ReflectableBase(SEMILATTICES[inp["family"]](inp["nu"]))
            word = parse_word(inp["text"], bases[key])
            yield eval_word(word), eval_word_hyp(word), is_central(word)
        elif layer == "certify":
            cert = rewrite_to_identity(tuple(inp["indices"]), inp["nu"])
            states = replay_certificate(cert)
            yield itertools.chain((cert,), (array("q", state).tobytes() for state in states))
        else:
            word = Word.from_indices(baby_base(inp["nu"]), inp["indices"])
            trace = reduce_loop(path_of_word(word, Simplex(inp["anchor"], inp["orient"])))
            yield trace, *(replay_trace(trace, b) for _, b, _ in trace.macros)


def digest(layer: str, seeds: list[int], variants: list[int]) -> tuple[str, int]:
    """sha256 over every part of every answer (see ``answers``), and the number of answers."""
    h = hashlib.sha256()
    count = 0
    bases: dict = {}
    for seed in seeds:
        inps = gen.make_inputs(layer, seed)
        for k in variants:
            for parts in answers(layer, gen.variant_inputs(layer, seed, k, inps), bases):
                for part in parts:
                    h.update(part if isinstance(part, bytes) else repr(part).encode())
                count += 1
    return h.hexdigest(), count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--variants", type=int, nargs="+", default=[0],
                        help="pass variants: 0 is the inputs as generated")
    args = parser.parse_args(argv)
    if min(args.variants) < 0:
        parser.error("a pass variant is a non-negative number")
    seeds = " ".join(map(str, args.seeds))
    variants = " ".join(map(str, args.variants))
    for layer in LAYERS:
        sha, count = digest(layer, args.seeds, args.variants)
        print(f"{layer:8s} seeds {seeds} variants {variants} answers {count} sha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

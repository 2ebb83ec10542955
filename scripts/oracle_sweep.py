#!/usr/bin/env python3
"""Random-word sweep comparing canonical forms against the matrix oracles.

For each (family, rank) cell, evaluate seeded random words both ways and
count disagreements; anything nonzero is a bug.
"""

import argparse
import random
import sys
import time
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from a1weyl import baby_semilattice, pairwise_semilattice, toroidal_semilattice  # noqa: E402
from a1weyl.hyperbolic import oracles_agree  # noqa: E402
from a1weyl.words import random_word  # noqa: E402

FAMILIES = {
    "baby": baby_semilattice,
    "toroidal": toroidal_semilattice,
    "pairwise": pairwise_semilattice,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500, help="words per cell")
    parser.add_argument("--len", dest="max_len", type=int, default=16)
    parser.add_argument("--max-rank", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    total_bad = 0
    print(f"{'family':>9} {'rank':>4} {'words':>6} {'mismatch':>8} {'secs':>6}")
    for name, make in FAMILIES.items():
        for nu in range(1, args.max_rank + 1):
            rng = random.Random(zlib.crc32(f"{args.seed}/{name}/{nu}".encode()))
            s = make(nu)
            bad = 0
            started = time.perf_counter()
            for _ in range(args.n):
                if not oracles_agree(random_word(rng, s, rng.randint(0, args.max_len))):
                    bad += 1
            total_bad += bad
            print(
                f"{name:>9} {nu:>4} {args.n:>6} {bad:>8} "
                f"{time.perf_counter() - started:>6.2f}"
            )
    print("total mismatches:", total_bad)
    return 0 if total_bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

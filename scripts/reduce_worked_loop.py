#!/usr/bin/env python3
"""Walk the 12-letter relation loop through its reduction, with SVG snapshots.

Prints the simplex path, the word after every reduction macro, and writes one
SVG per stage into the output directory.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from a1weyl import (  # noqa: E402
    Word,
    baby_base,
    base_simplex,
    path_of_word,
    reduce_loop,
    render_svg,
    replay_trace,
)

LOOP = (2, 0, 2, 1, 0, 1, 0, 2, 1, 2, 1, 0)


def describe(path):
    return " ".join(map(str, path.simplices))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="worked_loop_svgs")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    crumbs = baby_base(2)
    word = Word.from_indices(crumbs, LOOP)
    path = path_of_word(word, base_simplex(2))
    print("start:", describe(path))
    (out_dir / "stage0.svg").write_text(render_svg(path))

    trace = reduce_loop(path)
    print(f"{len(trace.moves)} elementary moves in {len(trace.macros)} macros")
    for n, (_, stop, kind) in enumerate(trace.macros, start=1):
        stage = replay_trace(trace, stop)
        letters = " ".join(f"g{k}" for k in stage.word.to_indices(crumbs)) or "(empty)"
        print(f"after macro {n} ({kind}): {letters}")
        print("  ", describe(stage))
        (out_dir / f"stage{n}.svg").write_text(render_svg(stage))
    print(f"wrote {len(trace.macros) + 1} SVG files to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

``main`` is the one place that parses the arguments, loads the
configuration, runs the command, prints its result and maps every error to
its exit code and stderr prefix.  Each handler ``_cmd_*(args, base)`` only
computes: it returns ``(payload, lines)``, the JSON object of
``--format json`` and the lines of ``--format text``.  Handlers import
what they use, so each command loads only the modules it runs: ``validate``
loads none past ``lattice``.

Exit codes: 0 ok, 2 invalid configuration or usage error, 3 I/O failure,
4 word parse error, 5 domain error, 6 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING

from .errors import ConfigError, DomainError, InternalCheckError, WordParseError
from .lattice import ReflectableBase, load_semilattice, support_pairs

if TYPE_CHECKING:
    from .geometry import Path
    from .words import Word

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_DOMAIN = 5
EXIT_INTERNAL = 6

WORD_HELP = "word tokens (g<k> or (+|-)e:c1,...); put them after -- if one starts with -"


def ascii_int(text: str) -> int:
    """``int(text)`` under the digit rule of word tokens: exactly ``[+-]?[0-9]+``.

    ``int`` alone would also take ``_`` separators, non-ASCII digits such as
    ``"\u0662"`` and surrounding whitespace.  The type of every integer
    option, so argparse makes a bad value a usage error; ``_path`` reads
    anchor coordinates with it.
    """
    if re.fullmatch(r"[+-]?[0-9]+", text):
        return int(text)
    if "_" in text or not text.isascii() or any(map(str.isspace, text)):
        raise ValueError("has a non-ASCII character or an '_' or whitespace")
    raise ValueError("is not an integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a1weyl",
        description="exact computations in the Weyl groups of rank-one reflection lattices",
        epilog=(
            "exit codes: 0 ok, 2 invalid configuration or usage error, 3 i/o failure, "
            "4 word parse error, 5 domain error, 6 internal check failed"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *, group=False, anchor=False, word=False):
        p = subs.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="semilattice JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if group:
            p.add_argument("--group", choices=("W", "Wt"), default="W")
        if anchor:
            p.add_argument("--anchor", default=None, help="base simplex anchor, e.g. 0,0")
            p.add_argument("--orient", type=ascii_int, choices=(1, -1), default=1)
        if word:
            p.add_argument("word", nargs="+", help=WORD_HELP)
        return p

    command("validate", "check a semilattice configuration")
    command("eval", "evaluate a word to its canonical form", group=True, word=True)
    command("check", "decide whether a word is a relation", group=True, word=True)

    p = command("alt-enum", "enumerate alternating tuples over the base")
    p.add_argument("--k", type=ascii_int, required=True, help="tuple length (even)")

    p = command("presentation", "emit one of the presentations")
    p.add_argument("--kind", choices=("baby", "spre", "hyp", "alternating"), default="baby")
    p.add_argument("--kmax", type=ascii_int, default=6,
                   help="relator length bound (alternating kind)")
    p.add_argument("--verify", action="store_true", help="evaluate every relator in its target")

    p = command("reduce", "certificate reducing a relation word to the identity", word=True)
    p.add_argument("--no-replay", action="store_true", help="skip the replay self-check")

    command("path", "the simplex path of a word", anchor=True, word=True)

    p = command("render-svg", "render the path of a word (rank 2 only)", anchor=True, word=True)
    p.add_argument("--out", required=True, help="output SVG file")

    command("center-basis", "free basis of the center of the extended group")

    p = command("oracle-compare", "random words vs the matrix representations")
    p.add_argument("--n", type=ascii_int, default=1000)
    p.add_argument("--len", dest="max_len", type=ascii_int, default=16)
    p.add_argument("--seed", type=ascii_int, default=0)

    return parser


def _load_base(args) -> ReflectableBase:
    # ValueError covers bad JSON, bytes that are not UTF-8 and an integer past
    # the digit limit; RecursionError, arrays nested past the recursion limit.
    try:
        s = load_semilattice(args.config)
    except (OSError, ValueError, RecursionError) as exc:
        raise OSError(f"cannot read configuration {args.config!r}: {exc}") from exc
    return ReflectableBase(s)


def _parse(args, base: ReflectableBase) -> Word:
    from . import words

    word = words.parse_word(" ".join(args.word), base)
    words.validate_word(base.semilattice, word)
    return word


def _path(args, base: ReflectableBase) -> Path:
    from . import geometry

    word = _parse(args, base)
    if args.anchor is None:
        anchor = (0,) * base.rank
    else:
        try:
            anchor = tuple(map(ascii_int, args.anchor.split(",")))
        except ValueError as exc:
            raise WordParseError(f"anchor {args.anchor!r} {exc}") from exc
    return geometry.path_of_word(word, geometry.Simplex(anchor, args.orient))


def _cmd_validate(args, base):
    s = base.semilattice
    return ({"ok": True, "rank": s.rank, "cosets": len(s.cosets)},
            [f"ok: rank {s.rank}, {len(s.cosets)} coset representatives"])


def _cmd_eval(args, base):
    word = _parse(args, base)
    if args.group == "W":
        from . import weyl

        elem = weyl.eval_word(word)
        payload = {"group": "W", "element": weyl.element_to_dict(elem)}
    else:
        from . import hyperbolic

        elem = hyperbolic.eval_word_hyp(word)
        central = elem.projection().is_identity if word.rank >= 1 else None
        payload = {"group": "Wt", "element": hyperbolic.element_to_dict(elem), "central": central}
    payload["relation"] = elem.is_identity
    lines = [
        f"element: {json.dumps(payload['element'], sort_keys=True)}",
        f"relation: {str(elem.is_identity).lower()}",
    ]
    if args.group == "Wt":
        lines.append(f"central: {'n/a' if central is None else str(central).lower()}")
    return payload, lines


def _cmd_check(args, base):
    word = _parse(args, base)
    if args.group == "W":
        from . import weyl

        result = weyl.is_relation_w(word)
    else:
        from . import hyperbolic

        result = hyperbolic.is_relation_hyp(word)
    return {"group": args.group, "relation": result}, [f"relation: {str(result).lower()}"]


def _cmd_alt_enum(args, base):
    from . import weyl

    pool = base.roots
    token = {id(a): f"g{base.root_index[a]}" for a in pool}.__getitem__  # format_word's tokens
    rows = [" ".join(map(token, map(id, tup))) for tup in weyl.enumerate_alternating(pool, args.k)]
    return {"k": args.k, "count": len(rows), "tuples": rows}, [f"count: {len(rows)}"] + rows


def _cmd_presentation(args, base):
    from . import presentation

    nu = base.rank
    if args.kind == "baby":
        pres = presentation.presentation_baby_w(nu)
    elif args.kind == "spre":
        pres = presentation.presentation_w_spre(nu, support_pairs(base).keys())
    elif args.kind == "hyp":
        pres = presentation.presentation_hyp(base)
    else:
        pres = presentation.presentation_alternating(base.roots, args.kmax)
    payload = presentation.presentation_to_dict(pres)
    lines = [
        f"generators: {len(pres.generators)}",
        f"relators: {len(pres.relators)}",
    ]
    if args.kind == "hyp":
        lines.append(
            f"headline relator count for this family: {presentation.headline_relator_count(nu)}"
        )
    if args.verify:
        report = presentation.verify_presentation(pres, pres.target, base)
        payload["verified"] = report.ok
        payload["failures"] = list(report.failures)
        lines.append(f"verified: {str(report.ok).lower()} (failures: {list(report.failures)})")
    return payload, lines


def _cmd_reduce(args, base):
    from . import presentation

    indices = _parse(args, base).to_indices(base)
    cert = presentation.rewrite_to_identity(indices, base.rank)
    if not args.no_replay:
        try:
            presentation.replay_certificate(cert)
        except DomainError as exc:
            raise InternalCheckError(f"certificate replay failed: {exc}") from exc
    return presentation.certificate_to_dict(cert), [
        f"steps: {len(cert.steps)} in {len(cert.macros)} macro moves",
        f"final: empty word = {str(cert.final_empty).lower()}",
    ]


def _cmd_path(args, base):
    simplices = tuple(_path(args, base).simplices)  # the walk, read once
    entries = [{"anchor": list(s.anchor), "orient": s.orient} for s in simplices]
    loop = simplices[0] == simplices[-1]
    return ({"entries": entries, "loop": loop},
            [str(s) for s in simplices] + [f"loop: {str(loop).lower()}"])


def _cmd_render(args, base):
    from . import geometry

    path = _path(args, base)
    svg = geometry.render_svg(path)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise OSError(f"cannot write {args.out!r}: {exc}") from exc
    n = len(path.simplices)  # a count, which reads no simplex
    return ({"out": args.out, "entries": n}, [f"wrote {args.out} ({n} path entries)"])


def _cmd_center(args, base):
    from . import hyperbolic, words

    basis = hyperbolic.center_basis(base)
    payload = {
        "count": len(basis),
        "generators": [
            {
                "pair": list(z.pair),
                "word": words.format_word(z.word, base),
                "element": hyperbolic.element_to_dict(z.element),
            }
            for z in basis
        ],
    }
    lines = [f"count: {len(basis)}"]
    for z in basis:
        moves = []
        for k in range(base.rank):
            row = z.element.dual_p[k]
            shift = " ".join(f"{-c:+d}*s{i + 1}" for i, c in enumerate(row) if c)
            moves.append(f"l{k + 1} -> l{k + 1}" + (f" {shift}" if shift else ""))
        lines.append(f"z{z.pair}: {words.format_word(z.word, base)} | " + "; ".join(moves))
    return payload, lines


def _cmd_oracle(args, base):
    import random

    from . import hyperbolic, words

    if args.n < 0 or args.max_len < 0:
        raise DomainError(f"--n and --len must be non-negative, got {args.n} and {args.max_len}")
    s = base.semilattice
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.n):
        if not hyperbolic.oracles_agree(words.random_word(rng, s, rng.randint(0, args.max_len))):
            mismatches += 1
    return {"n": args.n, "mismatches": mismatches}, [f"{mismatches} mismatches in {args.n} words"]


_HANDLERS = {
    "validate": _cmd_validate,
    "eval": _cmd_eval,
    "check": _cmd_check,
    "alt-enum": _cmd_alt_enum,
    "presentation": _cmd_presentation,
    "reduce": _cmd_reduce,
    "path": _cmd_path,
    "render-svg": _cmd_render,
    "center-basis": _cmd_center,
    "oracle-compare": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines = _HANDLERS[args.command](args, _load_base(args))
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in lines:
                print(line)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except WordParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    # oracle-compare reports disagreements in its result, then fails.
    return EXIT_INTERNAL if payload.get("mismatches") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

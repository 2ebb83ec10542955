"""Command-line interface.

Exit codes: 0 ok, 2 invalid configuration or usage error, 3 I/O failure,
4 word parse error, 5 domain error, 6 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import geometry, hyperbolic, presentation, weyl, words
from .errors import ConfigError, DomainError, InternalCheckError, WordParseError
from .lattice import ReflectableBase, load_semilattice, support_pairs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_DOMAIN = 5
EXIT_INTERNAL = 6

WORD_HELP = "word tokens (g<k> or (+|-)e:c1,...); put them after -- if one starts with -"


def ascii_int(text: str) -> int:
    """``int(text)`` under the digit rule of word tokens: ASCII only, no ``_``.

    ``int`` alone would also take ``_`` separators and non-ASCII digits such
    as ``"\u0662"``.  The type of every integer option, so argparse makes a
    bad value a usage error; ``_simplex`` reads anchor coordinates with it.
    """
    if "_" in text or not text.isascii():
        raise ValueError("has a non-ASCII character or an '_'")
    try:
        return int(text)
    except ValueError:
        raise ValueError("is not an integer") from None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="semilattice JSON file")
    sub.add_argument("--format", choices=("text", "json"), default="text")


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

    p = subs.add_parser("validate", help="check a semilattice configuration")
    _add_common(p)

    p = subs.add_parser("eval", help="evaluate a word to its canonical form")
    _add_common(p)
    p.add_argument("--group", choices=("W", "Wt"), default="W")
    p.add_argument("word", nargs="+", help=WORD_HELP)

    p = subs.add_parser("check", help="decide whether a word is a relation")
    _add_common(p)
    p.add_argument("--group", choices=("W", "Wt"), default="W")
    p.add_argument("word", nargs="+", help=WORD_HELP)

    p = subs.add_parser("alt-enum", help="enumerate alternating tuples over the base")
    _add_common(p)
    p.add_argument("--k", type=ascii_int, required=True, help="tuple length (even)")

    p = subs.add_parser("presentation", help="emit one of the presentations")
    _add_common(p)
    p.add_argument("--kind", choices=("baby", "spre", "hyp", "alternating"), default="baby")
    p.add_argument("--kmax", type=ascii_int, default=6,
                   help="relator length bound (alternating kind)")
    p.add_argument("--verify", action="store_true", help="evaluate every relator in its target")

    p = subs.add_parser("reduce", help="certificate reducing a relation word to the identity")
    _add_common(p)
    p.add_argument("--no-replay", action="store_true", help="skip the replay self-check")
    p.add_argument("word", nargs="+", help=WORD_HELP)

    p = subs.add_parser("path", help="the simplex path of a word")
    _add_common(p)
    p.add_argument("--anchor", default=None, help="base simplex anchor, e.g. 0,0")
    p.add_argument("--orient", type=ascii_int, choices=(1, -1), default=1)
    p.add_argument("word", nargs="+", help=WORD_HELP)

    p = subs.add_parser("render-svg", help="render the path of a word (rank 2 only)")
    _add_common(p)
    p.add_argument("--anchor", default=None)
    p.add_argument("--orient", type=ascii_int, choices=(1, -1), default=1)
    p.add_argument("--out", required=True, help="output SVG file")
    p.add_argument("word", nargs="+", help=WORD_HELP)

    p = subs.add_parser("center-basis", help="free basis of the center of the extended group")
    _add_common(p)

    p = subs.add_parser("oracle-compare", help="random words vs the matrix representations")
    _add_common(p)
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


def _parse(args, base: ReflectableBase) -> words.Word:
    word = words.parse_word(" ".join(args.word), base)
    words.validate_word(base.semilattice, word)
    return word


def _simplex(args, rank: int) -> geometry.Simplex:
    if args.anchor is None:
        anchor = (0,) * rank
    else:
        try:
            anchor = tuple(map(ascii_int, args.anchor.split(",")))
        except ValueError as exc:
            raise WordParseError(f"anchor {args.anchor!r} {exc}") from exc
    return geometry.Simplex(anchor, args.orient)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_validate(args) -> int:
    try:
        s = _load_base(args).semilattice
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(args, {"ok": True, "rank": s.rank, "cosets": len(s.cosets)},
          [f"ok: rank {s.rank}, {len(s.cosets)} coset representatives"])
    return EXIT_OK


def _cmd_eval(args) -> int:
    base = _load_base(args)
    word = _parse(args, base)
    if args.group == "W":
        elem = weyl.eval_word(word)
        payload = {
            "group": "W",
            "element": weyl.element_to_dict(elem),
            "relation": elem.is_identity,
        }
        lines = [
            f"element: {json.dumps(weyl.element_to_dict(elem), sort_keys=True)}",
            f"relation: {str(elem.is_identity).lower()}",
        ]
    else:
        helem = hyperbolic.eval_word_hyp(word)
        central = helem.projection().is_identity if word.rank >= 1 else None
        payload = {
            "group": "Wt",
            "element": hyperbolic.element_to_dict(helem),
            "relation": helem.is_identity,
            "central": central,
        }
        lines = [
            f"element: {json.dumps(hyperbolic.element_to_dict(helem), sort_keys=True)}",
            f"relation: {str(helem.is_identity).lower()}",
            f"central: {'n/a' if central is None else str(central).lower()}",
        ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_check(args) -> int:
    base = _load_base(args)
    word = _parse(args, base)
    if args.group == "W":
        result = weyl.is_relation_w(word)
    else:
        result = hyperbolic.is_relation_hyp(word)
    _emit(args, {"group": args.group, "relation": result}, [f"relation: {str(result).lower()}"])
    return EXIT_OK


def _cmd_alt_enum(args) -> int:
    base = _load_base(args)
    tuples = list(weyl.enumerate_alternating(base.roots, args.k))
    rows = [words.format_word(words.Word(base.rank, tup), base) for tup in tuples]
    _emit(args, {"k": args.k, "count": len(rows), "tuples": rows},
          [f"count: {len(rows)}"] + rows)
    return EXIT_OK


def _cmd_presentation(args) -> int:
    base = _load_base(args)
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
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    base = _load_base(args)
    word = _parse(args, base)
    indices = word.to_indices(base)
    cert = presentation.rewrite_to_identity(indices, base.rank)
    if not args.no_replay:
        try:
            presentation.replay_certificate(cert)
        except DomainError as exc:
            raise InternalCheckError(f"certificate replay failed: {exc}") from exc
    payload = presentation.certificate_to_dict(cert)
    lines = [
        f"steps: {len(cert.steps)} in {len(cert.macros)} macro moves",
        f"final: empty word = {str(cert.final_empty).lower()}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_path(args) -> int:
    base = _load_base(args)
    word = _parse(args, base)
    start = _simplex(args, base.rank)
    path = geometry.path_of_word(word, start)
    entries = [{"anchor": list(s.anchor), "orient": s.orient} for s in path.simplices]
    lines = [
        f"B({','.join(str(c) for c in s.anchor)};{'+' if s.orient > 0 else '-'})"
        for s in path.simplices
    ]
    loop = path.simplices[0] == path.simplices[-1]
    _emit(args, {"entries": entries, "loop": loop}, lines + [f"loop: {str(loop).lower()}"])
    return EXIT_OK


def _cmd_render(args) -> int:
    base = _load_base(args)
    word = _parse(args, base)
    start = _simplex(args, base.rank)
    path = geometry.path_of_word(word, start)
    svg = geometry.render_svg(path)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    _emit(args, {"out": args.out, "entries": len(path.simplices)},
          [f"wrote {args.out} ({len(path.simplices)} path entries)"])
    return EXIT_OK


def _cmd_center(args) -> int:
    base = _load_base(args)
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
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.n < 0 or args.max_len < 0:
        raise DomainError(f"--n and --len must be non-negative, got {args.n} and {args.max_len}")
    base = _load_base(args)
    s = base.semilattice
    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.n):
        word = words.random_word(rng, s, rng.randint(0, args.max_len))
        elem = weyl.eval_word(word)
        if weyl.matrix_of_element_w(elem) != weyl.matrix_of_word_w(word):
            mismatches += 1
            continue
        helem = hyperbolic.eval_word_hyp(word)
        if hyperbolic.matrix_of_element_hyp(helem) != hyperbolic.matrix_of_word(word):
            mismatches += 1
    _emit(args, {"n": args.n, "mismatches": mismatches}, [f"{mismatches} mismatches in {args.n} words"])
    return EXIT_OK if mismatches == 0 else EXIT_INTERNAL


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
        return _HANDLERS[args.command](args)
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


if __name__ == "__main__":
    sys.exit(main())

"""The simplex complex, the free group action on it, and loop reduction.

Each simplex ``B(anchor, orient)`` is the set of points
``sum_i (2*anchor_i + orient*t_i) s_i`` with ``t_i >= 0`` and
``sum t_i <= 1``.  The group acts by
``w . B(anchor, orient) = B(anchor + orient*shift(w), parity(w)*orient)``,
freely and transitively.

Paths: the path of ``w = w_{a_1}...w_{a_k}`` from a base simplex
``B(x, o)`` applies the letters right to left, recording ``k + 1``
simplices; it closes up exactly when the word is a relation.  Entry ``r`` is
the image of the base under the length-``r`` suffix ``u``, which is
``B(x + o*shift(u), parity(u)*o)`` by the action above.  With the
coefficients ``c_i = (-1)^(k-i) sign(a_i)`` of ``Word.columns``,
``shift(u)`` is ``sum_{i > k-r} c_i p(a_i)``, so the anchors are
``x + o*(suffix sums of c_i p(a_i))``: prefix sums of the word's signed
lattice columns, the ones ``eval_word`` sums, read from the right, and the
orientations alternate ``o, -o, ...``.  :func:`_walk` takes these sums
exactly and tests all the anchors of a walk against the 64-bit band with one
``min`` / ``max``; past it, ``Simplex`` checks each anchor as it stores it,
so a path raises at the first simplex that leaves the band.  Loop tracing
inserts a block by walking the block's word.

Loops reduce to the trivial loop by inserting or deleting the elementary
sub-loops of ``g_i^2`` and ``(g_0 g_i g_j)^2`` (``i < j`` both nonzero);
the trace records every elementary move together with the simplex its
sub-loop is based at.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from typing import Sequence

from .errors import DomainError, InternalCheckError
from .lattice import I64_MAX, I64_MIN, Vec, baby_base, checked_vec, vec_add, vec_scale, zero_vec
from .presentation import WordMoves, move_block, rewrite_to_identity  # noqa: F401
from .weyl import WeylElement, is_relation_w
from .words import Word


@dataclass(frozen=True, slots=True)
class Simplex:
    anchor: Vec
    orient: int

    def __post_init__(self) -> None:
        if type(self.orient) is not int or self.orient not in (-1, 1):
            raise DomainError(f"orientation must be +1 or -1, got {self.orient}")
        object.__setattr__(self, "anchor", checked_vec(self.anchor))

    @property
    def rank(self) -> int:
        return len(self.anchor)

    def __str__(self) -> str:
        """The text form ``B(x,y;+)`` / ``B(x,y;-)`` that ``path`` prints."""
        return f"B({','.join(map(str, self.anchor))};{'+' if self.orient > 0 else '-'})"


def base_simplex(rank: int) -> Simplex:
    return Simplex(zero_vec(rank), 1)


def act_on_simplex(a: WeylElement, b: Simplex) -> Simplex:
    if a.rank != b.rank:
        raise DomainError("rank mismatch between element and simplex")
    return Simplex(vec_add(b.anchor, vec_scale(b.orient, a.shift)), a.parity * b.orient)


@dataclass(frozen=True)
class Path:
    """Simplices visited by a word from a base; entry r is the length-r suffix image."""

    simplices: tuple[Simplex, ...]
    word: Word

    def __post_init__(self) -> None:
        if len(self.simplices) != len(self.word) + 1:
            raise DomainError("a path has one simplex per word suffix, ends included")

    @property
    def base(self) -> Simplex:
        return self.simplices[0]

    @property
    def rank(self) -> int:
        return self.word.rank


def _walk(word: Word, base: Simplex) -> list[Simplex]:
    """``base`` and its images under the suffixes of ``word``, shortest first.

    Entry ``t`` is ``B(x + o*sum_{i > k-t} c_i p(a_i), (-1)^t o)`` for
    ``base = B(x, o)``: exact prefix sums of ``Word.columns`` read from the
    right.  One ``min`` / ``max`` tests every anchor of the walk against the
    64-bit band; past it, ``Simplex`` checks them one by one and raises at
    the first simplex outside.
    """
    x, o = base.anchor, base.orient
    coefs, cols, _ = word.columns
    steps = [o * c for c in reversed(coefs)]
    rows = [list(accumulate(map(mul, steps, reversed(col)), initial=xc))
            for xc, col in zip(x, cols)]
    anchors = zip(*rows) if rows else repeat((), len(coefs) + 1)
    past = rows and (min(map(min, rows)) < I64_MIN or max(map(max, rows)) > I64_MAX)
    make = Simplex if past else _unchecked_simplex
    return list(map(make, anchors, [o, -o] * (len(coefs) // 2 + 1)))


# The slot descriptors of the frozen ``Simplex``: they set a field past its ``__setattr__``.
_set_anchor = Simplex.anchor.__set__
_set_orient = Simplex.orient.__set__


def _unchecked_simplex(anchor: Vec, orient: int) -> Simplex:
    """A ``Simplex`` built without ``Simplex.__post_init__``; only :func:`_walk` calls it.

    It stores both fields through their slot descriptors, as
    ``words._unchecked_root`` does, so the record is the one the checked
    constructor would build: it compares, hashes and pickles the same.
    Safe because ``_walk`` hands it only what those checks pass: ``orient``
    is the checked orientation of its base or its negation, the anchor is a
    tuple of exact ``int`` sums of checked ``int`` entries, and ``_walk`` has
    tested every anchor of the walk against the 64-bit band first.
    """
    simplex = object.__new__(Simplex)
    _set_anchor(simplex, anchor)
    _set_orient(simplex, orient)
    return simplex


def path_of_word(word: Word, base: Simplex) -> Path:
    if word.rank != base.rank:
        raise DomainError("rank mismatch between word and base simplex")
    return Path(tuple(_walk(word, base)), word)


def is_loop(p: Path) -> bool:
    closed = p.simplices[0] == p.simplices[-1]
    if closed != is_relation_w(p.word):
        raise InternalCheckError("free action violated: loop test disagrees with the word problem")
    return closed


@dataclass(frozen=True, slots=True, init=False)
class Move:
    """Insert or delete one elementary sub-loop.

    ``pos`` is the 0-based word position of the block, ``gens`` is ``(i,)``
    for the two-letter loop of ``g_i^2`` or ``(0, i, j)`` for the six-letter
    loop of ``(g_0 g_i g_j)^2``, and ``base`` is the simplex the sub-loop is
    based at.
    """

    kind: str
    pos: int
    gens: tuple[int, ...]
    base: Simplex

    # Hand-written: the generated frozen ``__init__`` calls ``object.__setattr__`` per field.
    def __init__(self, kind: str, pos: int, gens: tuple[int, ...], base: Simplex) -> None:
        _set_kind(self, kind)
        _set_pos(self, pos)
        _set_gens(self, gens)
        _set_base(self, base)


# The slot descriptors of the frozen ``Move``: they set a field past its ``__setattr__``.
_set_kind = Move.kind.__set__
_set_pos = Move.pos.__set__
_set_gens = Move.gens.__set__
_set_base = Move.base.__set__


@dataclass(frozen=True)
class MoveTrace:
    start: tuple[int, ...]
    base: Simplex
    moves: tuple[Move, ...]
    macros: tuple[tuple[int, int, str], ...]


class _Tracer(WordMoves):
    """Applies elementary moves to a live word, recording them with their bases.

    Invariant: ``at[q]`` is the simplex that ``word[q:]`` carries the base
    simplex to (the path, read backwards).  An elementary block is a
    relation, so it acts as the identity: a move leaves every entry outside
    its block unchanged and splices only the block's own entries, whatever
    the word length.  A move that does not apply raises ``DomainError``.
    """

    def __init__(self, indices: Sequence[int], path: Path):
        super().__init__(indices, path.rank)
        self.at = list(reversed(path.simplices))
        self.crumbs = baby_base(path.rank)
        self.blocks: dict[tuple[int, ...], Word] = {}
        self.moves: list[Move] = []

    def insert(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        block = super().insert(pos, gens)
        word = self.blocks.get(block)
        if word is None:
            word = self.blocks[block] = Word.from_indices(self.crumbs, block)
        base = self.at[pos]
        self.at[pos:pos] = _walk(word, base)[:0:-1]
        self.moves.append(Move("insert", pos, gens, base))
        return base

    def delete(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        end = pos + len(super().delete(pos, gens))
        base = self.at[end]
        del self.at[pos:end]
        self.moves.append(Move("delete", pos, gens, base))
        return base


def reduce_loop(p: Path) -> MoveTrace:
    """Move a loop over the baby-base generators to the trivial loop at its base.

    The word-level certificate of :func:`rewrite_to_identity` drives the
    process; each of its steps expands into elementary insert/delete moves on
    the path.  The returned macro spans group the elementary moves the way
    the certificate grouped its steps.
    """
    if not is_loop(p):
        raise DomainError("only loops can be reduced")
    nu = p.rank
    indices = p.word.to_indices(baby_base(nu))
    cert = rewrite_to_identity(indices, nu)
    tracer = _Tracer(indices, p)
    macros: list[tuple[int, int, str]] = []
    for a, b, kind in cert.macros:
        start = len(tracer.moves)
        for step in cert.steps[a:b]:
            try:
                tracer.apply(step)
            except DomainError as exc:
                raise InternalCheckError(f"certificate step {step} does not apply: {exc}") from exc
        macros.append((start, len(tracer.moves), kind))
    if tracer.word:
        raise InternalCheckError("reduction finished with a non-empty word")
    return MoveTrace(tuple(indices), p.base, tuple(tracer.moves), tuple(macros))


def replay_trace(trace: MoveTrace, upto: int | None = None) -> Path:
    """Replay the first ``upto`` moves (default: all) and return the resulting path.

    ``upto`` is ``None`` or an ``int`` in ``0..len(trace.moves)``.  Raises
    ``DomainError`` for any other ``upto``, and unless every move applies to
    the live word and records the base its sub-loop has there.  The path is
    the tracer's own ``at`` read forwards: no second walk of the final word.
    """
    n = len(trace.moves)
    if upto is None:
        upto = n
    elif type(upto) is not int or not 0 <= upto <= n:
        raise DomainError(f"upto must be None or an int in 0..{n}, got {upto!r}")
    crumbs = baby_base(trace.base.rank)
    tracer = _Tracer(trace.start, path_of_word(Word.from_indices(crumbs, trace.start), trace.base))
    for mv in trace.moves[:upto]:
        if mv.kind == "insert":
            base = tracer.insert(mv.pos, mv.gens)
        elif mv.kind == "delete":
            base = tracer.delete(mv.pos, mv.gens)
        else:
            raise DomainError(f"unknown move kind {mv.kind!r}")
        if base != mv.base:
            raise DomainError("trace replay: recorded sub-loop base does not match")
    return Path(tuple(reversed(tracer.at)), Word.from_indices(crumbs, tracer.word))


# ---------------------------------------------------------------------------
# SVG rendering (rank 2 only)
# ---------------------------------------------------------------------------

_SCALE = 40  # pixels per lattice unit
_PAD = 60


def _screen(x: int, y: int) -> tuple[int, int]:
    return (_SCALE * x, -_SCALE * y)


def _triangle(s: Simplex) -> tuple[tuple[int, int], ...]:
    ax, ay = 2 * s.anchor[0], 2 * s.anchor[1]
    return (
        _screen(ax, ay),
        _screen(ax + s.orient, ay),
        _screen(ax, ay + s.orient),
    )


def render_svg(p: Path) -> str:
    """Draw the visited simplices with visit labels B0, B1, ... in order.

    Each simplex is the triangle with corners 2*anchor, 2*anchor + orient*e1,
    2*anchor + orient*e2; a closing loop entry reuses the label of the start.
    Output is deterministic for identical input.
    """
    if p.rank != 2:
        raise DomainError("SVG rendering is implemented for rank 2 only")
    n = len(p.simplices)
    closing = n > 1 and p.simplices[0] == p.simplices[-1]
    labelled = n - 1 if closing else n

    triangles: dict[Simplex, list[str]] = {}
    for r in range(labelled):
        triangles.setdefault(p.simplices[r], []).append(f"B{r}")
    for r in range(labelled, n):
        triangles.setdefault(p.simplices[r], [])

    xs, ys = [0], [0]
    for tri in map(_triangle, triangles):
        for x, y in tri:
            xs.append(x)
            ys.append(y)
    x0, x1 = min(xs) - _PAD, max(xs) + _PAD
    y0, y1 = min(ys) - _PAD, max(ys) + _PAD

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0} {y0} {x1 - x0} {y1 - y0}" '
        f'width="{x1 - x0}" height="{y1 - y0}">',
        f'<line x1="{x0 + 8}" y1="0" x2="{x1 - 8}" y2="0" stroke="#888" stroke-width="1"/>',
        f'<line x1="0" y1="{y0 + 8}" x2="0" y2="{y1 - 8}" stroke="#888" stroke-width="1"/>',
        f'<text x="{x1 - 30}" y="-6" font-size="14">s1</text>',
        f'<text x="6" y="{y0 + 24}" font-size="14">s2</text>',
    ]
    ordered = sorted(triangles, key=lambda s: (s.anchor, s.orient))
    for simplex in ordered:
        pts = " ".join(f"{x},{y}" for x, y in _triangle(simplex))
        parts.append(f'<polygon points="{pts}" fill="none" stroke="#000" stroke-width="2"/>')
    for simplex in ordered:
        labels = triangles[simplex]
        if not labels:
            continue
        tri = _triangle(simplex)
        cx = sum(x for x, _ in tri) // 3 + 4 * simplex.orient
        cy = sum(y for _, y in tri) // 3 - 4 * simplex.orient
        parts.append(f'<text x="{cx}" y="{cy}" font-size="12">{",".join(labels)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)

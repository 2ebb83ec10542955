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
inserts a block by walking the block's word.  A hand-built ``Path`` is
checked against the walk of its word.

Loops reduce to the trivial loop by inserting or deleting the elementary
sub-loops of ``g_i^2`` and ``(g_0 g_i g_j)^2`` (``i < j`` both nonzero);
the trace records every elementary move together with the simplex its
sub-loop is based at.

Triple reversals are cited from the table of proved reversals that
certificate replay cites too: each a script of the isolated run, relative
to ``at[3] = B(0, +1)`` (the ``moves`` module docstring).  Citing one
at ``Y = at[q + 3] = B(x, o)`` is sound for three reasons:

- The same moves apply at any ``q`` of any word holding the triple (the ``moves`` lemma).
- The run never touches ``Y``, and every entry it reads or writes is the
  image of ``Y`` under the letters between.  The action is affine, so a
  scripted ``B(d, f)`` lies at ``B(x + o*d, o*f)``.
- By the hull rule each coordinate of every such ``x + o*d``, the entries
  of each inserted block included, lies between the same coordinate of two
  stored simplices of ``at[q..q+3]``, which are in the 64-bit band, so no
  move of the run can overflow.

So the tracer writes the scripted moves at once wherever a triple has a
script, and ``replay_trace`` checks a recorded run against the script and
applies it as one swap.  A triple without one is expanded and replayed move
by move.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import mul
from typing import Sequence

from .errors import DomainError, InternalCheckError
from .lattice import I64_MAX, I64_MIN, Vec, baby_base, checked_vec, mutable_twin, vec_add, vec_scale, zero_vec
from .moves import REVERSALS, Script, WordMoves, require_sequence
from .presentation import StepColumns, rewrite_to_identity
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
    """Simplices visited by a word from a base; entry r is the length-r suffix image.

    The constructor walks the word from the first simplex and raises
    ``DomainError`` unless the simplices are that walk, also when the walk
    leaves the 64-bit band.  :func:`path_of_word` and :func:`replay_trace`
    hold the walk already and build their paths through ``_unchecked_path``.
    """

    simplices: tuple[Simplex, ...]
    word: Word

    def __post_init__(self) -> None:
        simplices, word = tuple(self.simplices), self.word
        if len(simplices) != len(word) + 1:
            raise DomainError("a path has one simplex per word suffix, ends included")
        first = simplices[0]
        if not isinstance(first, Simplex) or first.rank != word.rank:
            raise DomainError(f"a path starts at a simplex of its word's rank, not at {first!r}")
        try:
            walk = _walk(word, first)
        except OverflowError as exc:
            raise DomainError(f"the walk of a path's word from its first simplex leaves the band: {exc}") from None
        if tuple(walk) != simplices:
            raise DomainError("the simplices of a path are not the walk of its word from the first")

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
    64-bit band.  In it, :func:`_unchecked_simplex` is mapped over the
    anchors and the orientations; past it, ``Simplex`` checks them one by
    one and raises at the first simplex outside.
    """
    x, o = base.anchor, base.orient
    coefs, cols, _ = word.columns
    steps = [o * c for c in reversed(coefs)]
    rows = [list(accumulate(map(mul, steps, reversed(col)), initial=xc))
            for xc, col in zip(x, cols)]
    anchors = zip(*rows) if rows else repeat((), len(coefs) + 1)
    orients = [o, -o] * (len(coefs) // 2 + 1)
    if rows and (min(map(min, rows)) < I64_MIN or max(map(max, rows)) > I64_MAX):
        return list(map(Simplex, anchors, orients))
    return list(map(_unchecked_simplex, anchors, orients))


_SimplexTwin = mutable_twin(Simplex)


def _unchecked_simplex(anchor: Vec, orient: int) -> Simplex:
    """A ``Simplex`` built through its twin, past ``Simplex.__post_init__``.

    Only :func:`_walk`, for a walk in the band, and :func:`_slots` call it.
    The record is the one the checked constructor would build (the twin rule
    of the ``lattice`` docstring): it compares, hashes and pickles the same.
    Safe because both hand it only what those checks pass: ``orient`` is a
    checked orientation or its negation, the anchor is a tuple of exact
    ``int`` sums of checked ``int`` entries, and every such anchor is in the
    64-bit band: ``_walk`` tests its walk first, and each coordinate of a
    script's point lies between those of two stored simplices (the hull
    rule of the module docstring).
    """
    simplex = _SimplexTwin()
    simplex.anchor = anchor
    simplex.orient = orient
    simplex.__class__ = Simplex
    return simplex


def _unchecked_path(simplices: tuple[Simplex, ...], word: Word) -> Path:
    """A ``Path`` built without ``Path.__post_init__``, which walks the word again.

    Only :func:`path_of_word` and :func:`replay_trace` call it, with the walk
    they already hold: ``_walk`` of the word, or the table ``at`` of a tracer
    read forwards, which is that walk by the tracer's invariant.
    """
    path = object.__new__(Path)
    object.__setattr__(path, "simplices", simplices)
    object.__setattr__(path, "word", word)
    return path


def path_of_word(word: Word, base: Simplex) -> Path:
    if word.rank != base.rank:
        raise DomainError("rank mismatch between word and base simplex")
    return _unchecked_path(tuple(_walk(word, base)), word)


def is_loop(p: Path) -> bool:
    closed = p.simplices[0] == p.simplices[-1]
    if closed != is_relation_w(p.word):
        raise InternalCheckError("free action violated: loop test disagrees with the word problem")
    return closed


@dataclass(frozen=True, slots=True)
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


_MoveTwin = mutable_twin(Move)


def _move(kind: str, pos: int, gens: tuple[int, ...], base: Simplex) -> Move:
    """``Move(kind, pos, gens, base)``, built through its twin."""
    move = _MoveTwin()
    move.kind = kind
    move.pos = pos
    move.gens = gens
    move.base = base
    move.__class__ = Move
    return move


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

    A triple reversal that has a script (see the module docstring) is
    written as one block: the scripted moves placed at ``Y = at[q + 3]``,
    the swap of ``word[q]`` and ``word[q + 2]``, and the two new entries
    ``at[q + 1]`` and ``at[q + 2]``.  Any other reversal is expanded move by
    move.  Either way the moves recorded are the same.

    Only ``WordMoves.apply_rule`` and the expansion's own recursion call
    :meth:`reverse_triple`, always with an ``int`` ``q >= 0`` and a full
    triple.  The tracer keeps its rank because it walks each block over
    ``baby_base(rank)``, and that walk refuses a letter above the rank.
    """

    def __init__(self, indices: Sequence[int], path: Path):
        super().__init__(indices)
        self.at = list(reversed(path.simplices))
        self.crumbs = baby_base(path.rank)
        self.moves: list[Move] = []

    def insert(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        block = super().insert(pos, gens)
        base = self.at[pos]
        self.at[pos:pos] = _walk(Word.from_indices(self.crumbs, block), base)[:0:-1]
        self.moves.append(_move("insert", pos, gens, base))
        return base

    def delete(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        end = pos + len(super().delete(pos, gens))
        base = self.at[end]
        del self.at[pos:end]
        self.moves.append(_move("delete", pos, gens, base))
        return base

    def reverse_triple(self, q: int) -> None:
        script = REVERSALS.script(tuple(self.word[q : q + 3]))
        if script:
            slots = _slots(self.at, q, script)
            self.moves += [_move(kind, q + off, gens, slots[slot]) for kind, off, gens, slot in script.moves]
            _reverse_in_place(self, q, script, slots)
        else:
            super().reverse_triple(q)


def _slots(at: list[Simplex], q: int, script: Script) -> list[Simplex]:
    """The simplices ``script`` names, placed at ``q``: ``at[q:q+4]``, then its points.

    A point ``(d, f)`` lies at ``B(x + o*d, o*f)`` for ``at[q + 3] = B(x, o)``.
    """
    x, o = at[q + 3].anchor, at[q + 3].orient
    placed = at[q : q + 4]
    for offset, f in script.points:
        anchor = list(x)
        for i, v in offset:
            anchor[i] += o * v
        placed.append(_unchecked_simplex(tuple(anchor), o * f))
    return placed


def _reverse_in_place(tracer: WordMoves, q: int, script: Script, slots: list[Simplex]) -> None:
    """What ``script``'s moves leave at ``q``: ``word[q]`` and ``word[q + 2]`` swapped, two new entries."""
    word = tracer.word
    word[q], word[q + 2] = word[q + 2], word[q]
    tracer.at[q + 1], tracer.at[q + 2] = slots[script.ends[0]], slots[script.ends[1]]


def reduce_loop(p: Path) -> MoveTrace:
    """Move a loop over the baby-base generators to the trivial loop at its base.

    The word-level certificate of :func:`rewrite_to_identity` drives the
    process; each of its steps expands into elementary insert/delete moves on
    the path.  The returned macro spans group the elementary moves the way
    the certificate grouped its steps.  The steps are read once, in order,
    as ``(rule, pos, payload)`` for ``WordMoves.apply_rule``: from the
    columns when they are ``StepColumns``, building no record.
    """
    if not is_loop(p):
        raise DomainError("only loops can be reduced")
    nu = p.rank
    indices = p.word.to_indices(baby_base(nu))
    cert = rewrite_to_identity(indices, nu)
    tracer = _Tracer(indices, p)
    steps = cert.steps
    if type(steps) is StepColumns:
        fields = steps.rows()
    else:
        fields = ((s.rule, s.pos, s.payload, None, None) for s in steps)
    rows = enumerate(fields)
    macros: list[tuple[int, int, str]] = []
    for a, b, kind in cert.macros:
        start = len(tracer.moves)
        for k, (rule, q, payload, _, _) in islice(rows, b - a):
            try:
                tracer.apply_rule(rule, q, payload)
            except DomainError as exc:
                raise InternalCheckError(f"certificate step {steps[k]} does not apply: {exc}") from exc
        macros.append((start, len(tracer.moves), kind))
    if tracer.word:
        raise InternalCheckError("reduction finished with a non-empty word")
    return MoveTrace(tuple(indices), p.base, tuple(tracer.moves), tuple(macros))


def replay_trace(trace: MoveTrace, upto: int | None = None) -> Path:
    """Replay the first ``upto`` moves (default: all) and return the resulting path.

    ``upto`` is ``None`` or an ``int`` in ``0..len(trace.moves)``.  Raises
    ``DomainError`` for any other ``upto``, for a start or a move list that
    is not a sequence, for a trace base that is not a ``Simplex`` or an
    entry that is not a ``Move``, and unless every move applies to the live
    word and records the base its sub-loop has there.  An insert that starts
    a run of moves equal to the script of a triple reversal (see
    :func:`_cited_run`) is replayed with its run as one swap; every other
    insert goes through ``tracer.insert``.  A delete goes through
    ``WordMoves.delete``, which splices a ``g_k^2`` in place, and then cuts
    ``at`` as ``tracer.delete`` would, but records no ``Move``.  So the call
    accepts and rejects, with the same message, what replaying every move
    through the tracer would.  The path is the tracer's own ``at`` read
    forwards: no second walk of the final word.
    """
    require_sequence(trace.moves, "trace moves")
    moves = tuple(trace.moves)  # indexed and sliced per move; a deque cannot be sliced
    n = len(moves)
    if upto is None:
        upto = n
    elif type(upto) is not int or not 0 <= upto <= n:
        raise DomainError(f"upto must be None or an int in 0..{n}, got {upto!r}")
    if not isinstance(trace.base, Simplex):
        raise DomainError(f"trace base {trace.base!r} is not a Simplex")
    require_sequence(trace.start, "trace start")
    crumbs = baby_base(trace.base.rank)
    tracer = _Tracer(trace.start, path_of_word(Word.from_indices(crumbs, trace.start), trace.base))
    at = tracer.at
    k = 0
    while k < upto:
        mv = moves[k]
        try:
            kind, pos, gens, recorded = mv.kind, mv.pos, mv.gens, mv.base
        except AttributeError:
            raise DomainError(f"trace entry {k} is not a Move: {mv!r}") from None
        if kind == "insert":
            cited = _cited_run(tracer, moves, k, upto)
            if cited:
                k += cited
                continue
            base = tracer.insert(pos, gens)
        elif kind == "delete":
            # ``tracer.delete`` without the ``Move`` record, which replay never reads.
            end = pos + len(WordMoves.delete(tracer, pos, gens))
            base = at[end]
            del at[pos:end]
        else:
            raise DomainError(f"unknown move kind {kind!r}")
        if base != recorded:
            raise DomainError("trace replay: recorded sub-loop base does not match")
        k += 1
    return _unchecked_path(tuple(reversed(tracer.at)), Word.from_indices(crumbs, tracer.word))


def _cited_run(tracer: WordMoves, moves: Sequence[Move], k: int, end: int) -> int:
    """Apply ``moves[k:]`` as one cited reversal if they start one; the count of moves cited, or 0.

    ``moves[k]`` is an insert at ``p``.  For ``q`` in ``p - 3 .. p`` the live
    triple ``word[q:q+3]`` may have a script whose first move is at offset
    ``p - q`` and whose moves all lie before ``end``.  The run is cited when
    each recorded move equals the scripted one placed at ``Y = at[q + 3]``
    with exact types: the kind, an ``int`` pos,
    a ``tuple`` of ``int`` gens, and a ``Simplex`` base.  Replaying those
    moves one by one would then succeed and leave what :func:`_reverse_in_place`
    leaves.
    """
    word, at = tracer.word, tracer.at
    p, first = moves[k].pos, moves[k].gens
    if type(p) is not int or type(first) is not tuple:
        return 0
    for q in range(max(p - 3, 0), min(p, len(word) - 3) + 1):
        script = REVERSALS.script(tuple(word[q : q + 3]))
        run = script and script.moves
        if not run or run[0][1] != p - q or run[0][2] != first or k + len(run) > end:
            continue
        slots = _slots(at, q, script)
        try:
            for (kind, off, gens, slot), mv in zip(run, moves[k : k + len(run)]):
                pos, got, base, want = mv.pos, mv.gens, mv.base, slots[slot]
                if not (
                    mv.kind == kind and type(pos) is int and pos == q + off
                    and (got is gens or type(got) is tuple and got == gens and all(type(g) is int for g in got))
                    and type(base) is Simplex and base.orient == want.orient and base.anchor == want.anchor
                ):
                    break
            else:
                _reverse_in_place(tracer, q, script, slots)
                return len(run)
        except AttributeError:  # an entry that is not a Move: the per-move loop names it
            return 0
    return 0


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

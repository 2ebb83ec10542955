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
terms ``Word.terms``, the ones ``eval_word`` sums, read from the right, and
the orientations alternate ``o, -o, ...``.  :func:`_walk` takes these sums
exactly.  Its anchors stay in the 64-bit band when ``|x_c| + B_c`` does for
every coordinate (``Word.bounds``); otherwise one ``min`` / ``max`` tests
them all, and past the band ``Simplex`` checks each anchor as it stores it,
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

So the tracer records a reversal whose triple has a script as one cited
entry, ``(q, the triple and its script, Y)``, and writes what its moves
leave at once; ``replay_trace`` checks the entry against its own live word
and walk and applies it as one swap.  A triple without a script is expanded
and recorded move by move.  Citing lives in the columns alone: a trace given
as any other sequence of ``Move`` records replays move by move.

A trace is held as columns (:class:`MoveColumns`), one entry per move or per
cited reversal: an index into a small per-trace table of ``(kind, gens)``
and ``(triple, script)`` entries, the position, and a reference to the base,
the ``Simplex`` the tracer's ``at`` held (``Y`` for a cited entry).  A
``Move`` is built only when one is read; a cited entry reads as its
script's moves placed at ``Y``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import accumulate, islice, repeat, starmap
from operator import sub
from typing import Iterator, Sequence

from .errors import DomainError, InternalCheckError
from .lattice import I64_MAX, I64_MIN, Vec, baby_base, checked_vec, mutable_twin, vec_add, vec_scale, zero_vec
from .moves import REVERSALS, RULE_CANCEL, RecordColumns, Script, WordMoves, require_sequence
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
    ``base = B(x, o)``: exact prefix sums of ``Word.terms`` read from the
    right, added for ``o = 1`` and subtracted for ``o = -1``.  Every anchor
    coordinate lies within ``|x_c| + B_c`` of zero (``Word.bounds``), so the
    walk is in the 64-bit band when that is; otherwise one ``min`` /
    ``max`` tests every anchor against the band.  In it,
    :func:`_unchecked_simplex` is mapped over the anchors and the
    orientations; past it, ``Simplex`` checks them one by one and raises at
    the first simplex outside.
    """
    x, o = base.anchor, base.orient
    step = None if o == 1 else sub  # None: accumulate's own addition, which calls no function per term
    rows = [list(accumulate(reversed(terms), step, initial=xc)) for xc, terms in zip(x, word.terms)]
    anchors = zip(*rows) if rows else repeat((), len(word) + 1)
    orients = [o, -o] * (len(word) // 2 + 1)
    if (rows and any(abs(xc) + b > I64_MAX for xc, b in zip(x, word.bounds))
            and (min(map(min, rows)) < I64_MIN or max(map(max, rows)) > I64_MAX)):
        return list(map(Simplex, anchors, orients))
    return list(map(_unchecked_simplex, anchors, orients))


_SimplexTwin = mutable_twin(Simplex)


def _unchecked_simplex(anchor: Vec, orient: int) -> Simplex:
    """A ``Simplex`` built through its twin, past ``Simplex.__post_init__``.

    Only :func:`_walk`, for a walk in the band, and :func:`_place`, for the
    points of a script from the lemma table, call it.
    The record is the one the checked constructor would build (the twin rule
    of the ``lattice`` docstring): it compares, hashes and pickles the same.
    Safe because they hand it only what those checks pass: ``orient`` is a
    checked orientation or its negation, the anchor is a tuple of exact
    ``int`` sums of checked ``int`` entries, and every such anchor is in the
    64-bit band: ``_walk`` tests its walk first, and each coordinate of a
    proved script's point lies between those of two stored simplices (the
    hull rule of the module docstring).  A stored script, which may be
    forged, has its points built by the checked ``Simplex``
    (:func:`_cited_fields`).
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


def _widths(table: object) -> list[int] | None:
    """The moves each entry of a trace table stands for, or ``None`` unless every entry is one.

    An entry is ``(kind, gens)`` for one move, ``kind`` ``"insert"`` or
    ``"delete"`` (``gens`` is checked by replay, as a record's is), or
    ``(triple, script)`` for a cited reversal of three exact ``int`` letters
    ``>= 0``, which stands for the moves of its :class:`Script`, if the
    script has the shape that reading it takes apart (:func:`_script_shaped`);
    what its fields hold is checked when its moves are read
    (:func:`_cited_fields`).
    """
    if type(table) is not tuple:
        return None
    widths = []
    for entry in table:
        if type(entry) is not tuple or len(entry) != 2:
            return None
        first, second = entry
        if type(first) is str and first in ("insert", "delete"):
            widths.append(1)
        elif (type(first) is tuple and len(first) == 3
              and type(first[0]) is type(first[1]) is type(first[2]) is int and min(first) >= 0
              and type(second) is Script and second.moves and _script_shaped(second)):
            widths.append(len(second.moves))
        else:
            return None
    return widths


def _script_shaped(script: Script) -> bool:
    """Whether ``script`` takes apart as its moves are read, with ``ends`` a pair of ``int`` slots.

    Its moves are a tuple of ``(kind, offset, gens, slot)`` fields and its
    points a tuple of ``(offset, orient)`` pairs, each offset a tuple of
    ``(index, value)`` pairs.  A script of another shape would make reading
    or replay raise ``ValueError`` or ``TypeError``; the columns refuse it.
    """
    moves, points, ends = script
    if type(moves) is not tuple or type(points) is not tuple:
        return False
    try:
        for _, _, _, _ in moves:
            pass
        for offset, _ in points:
            if type(offset) is not tuple:
                return False
            for _, _ in offset:
                pass
        a, b = ends
    except (TypeError, ValueError):
        return False
    return type(a) is type(b) is int


class MoveColumns(RecordColumns):
    """The moves of a traced loop, held as columns; a ``Move`` is built when read.

    Entry ``e`` is ``table[codes[e]]`` at ``positions[e]`` with
    ``bases[e]``: a ``(kind, gens)`` entry is the one move ``Move(kind, pos,
    gens, base)``, and a ``(triple, script)`` entry is the cited reversal of
    ``triple`` at ``q = pos`` with ``Y = at[q + 3] = base``, the moves of
    ``script`` placed at ``Y`` (the module docstring).  ``codes`` and
    ``positions`` are ``array('q')``, ``bases`` a list of ``Simplex``
    records, the ones the tracer's ``at`` held.  The constructor refuses
    columns of other types, of lengths that do not match, or naming entries
    the table does not hold (``DomainError``).

    The sequence reads, compares, hashes, prints and pickles as the tuple of
    its records (``moves.RecordColumns``).
    """

    __slots__ = ("table", "codes", "positions", "bases", "_n")
    COLUMNS = ("table", "codes", "positions", "bases")

    def __init__(self, table: tuple, codes: array, positions: array, bases: list[Simplex]):
        widths = _widths(table)
        n = None
        if (widths is not None and type(codes) is type(positions) is array
                and codes.typecode == positions.typecode == "q" and type(bases) is list
                and len(codes) == len(positions) == len(bases) and set(map(type, bases)) <= {Simplex}):
            try:  # one pass over the codes: a code the table does not hold is a missing key
                n = sum(map(dict(enumerate(widths)).__getitem__, codes))
            except KeyError:
                pass
        if n is None:
            raise DomainError("the columns do not hold the entries, positions and bases of loop moves")
        self.table, self.codes, self.positions, self.bases = table, codes, positions, bases
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Move]:
        table = self.table
        for code, q, base in zip(self.codes, self.positions, self.bases):
            first, second = table[code]
            if type(first) is str:
                yield _move(first, q, second, base)
            else:
                yield from starmap(_move, _cited_fields(first, second, q, base))


@dataclass(frozen=True)
class MoveTrace:
    """A loop's reduction to the trivial loop: its start word and base, the moves, and the macro spans.

    ``moves`` is a sequence of ``Move`` records; :func:`reduce_loop` gives a
    :class:`MoveColumns`, which equals, hashes and prints as the tuple of
    its records and builds each ``Move`` only when it is read.  ``macros``
    holds one ``(first, end, kind)`` span of moves per certificate macro.
    """

    start: tuple[int, ...]
    base: Simplex
    moves: Sequence[Move]
    macros: tuple[tuple[int, int, str], ...]


class _Tracer(WordMoves):
    """Applies elementary moves to a live word, recording them with their bases.

    Invariant: ``at[q]`` is the simplex that ``word[q:]`` carries the base
    simplex to (the path, read backwards).  An elementary block is a
    relation, so it acts as the identity: a move leaves every entry outside
    its block unchanged and splices only the block's own entries, whatever
    the word length.  A move that does not apply raises ``DomainError``.

    The moves go into the columns of :class:`MoveColumns`: ``table`` (each
    entry found again through ``code_of``), ``codes``, ``positions`` and
    ``bases``; ``extra`` counts the moves recorded past one per entry, so
    ``len(codes) + extra`` moves are recorded.  A triple reversal that has a
    script (see the module docstring) is one cited entry, written at once:
    the swap of ``word[q]`` and ``word[q + 2]`` and the two new entries
    ``at[q + 1]`` and ``at[q + 2]``.  Any other reversal is expanded move by
    move.  Either way the moves recorded read the same; :attr:`moves` reads
    them.  :meth:`delete` splices a ``g_k^2``, the commonest move, itself;
    every cancellation of :func:`reduce_loop` goes through it, so a subclass
    that overrides ``delete`` gets them all.

    Only ``WordMoves.apply_rule`` and the expansion's own recursion call
    :meth:`reverse_triple`, always with an ``int`` ``q >= 0`` and a full
    triple.  The tracer keeps its rank because it walks each block over
    ``baby_base(rank)``, and that walk refuses a letter above the rank.
    """

    def __init__(self, indices: Sequence[int], path: Path):
        super().__init__(indices)
        self.at = list(reversed(path.simplices))
        self.crumbs = baby_base(path.rank)
        self.table: list[tuple] = []
        self.code_of: dict = {}  # a move's (kind, gens), or the id of a cited script, to its table index
        self.codes, self.positions, self.bases = array("q"), array("q"), []
        self.extra = 0

    @property
    def moves(self) -> list[Move]:
        """The moves recorded so far, each built on this read."""
        return list(self.columns())

    def columns(self) -> MoveColumns:
        """The moves recorded so far as ``MoveColumns``."""
        return MoveColumns(tuple(self.table), self.codes, self.positions, self.bases)

    def code(self, entry: tuple, key: object) -> int:
        """The table index of ``entry``, found by ``key`` and added on its first use."""
        code = self.code_of.get(key)
        if code is None:
            code = self.code_of[key] = len(self.table)
            self.table.append(entry)
        return code

    def record(self, kind: str, pos: int, gens: tuple[int, ...], base: Simplex) -> None:
        move = (kind, gens)
        try:
            code = self.code(move, move)
        except TypeError:  # look-alike gens, a list say, that cannot key the table: an entry of their own
            code = len(self.table)
            self.table.append(move)
        self.codes.append(code)
        self.positions.append(pos)
        self.bases.append(base)

    def insert(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        block = super().insert(pos, gens)
        base = self.at[pos]
        self.at[pos:pos] = _walk(Word.from_indices(self.crumbs, block), base)[:0:-1]
        self.record("insert", pos, gens, base)
        return base

    def delete(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        word, at = self.word, self.at
        if type(gens) is tuple and len(gens) == 1 and type(pos) is int and pos >= 0:
            # The test of the ``g_k^2`` fast path of ``WordMoves.delete``; on a
            # pass the block and its two entries are cut and the move recorded here.
            k = gens[0]
            if type(k) is int and k >= 0 and pos + 1 < len(word) and word[pos] == k == word[pos + 1]:
                del word[pos : pos + 2]
                move = "delete", gens
                self.codes.append(self.code(move, move))
                self.positions.append(pos)
                base = at[pos + 2]
                self.bases.append(base)
                del at[pos : pos + 2]
                return base
        end = pos + len(super().delete(pos, gens))
        base = at[end]
        del at[pos:end]
        self.record("delete", pos, gens, base)
        return base

    def reverse_triple(self, q: int) -> None:
        triple = tuple(self.word[q : q + 3])
        script = REVERSALS.script(triple)
        if not script:
            super().reverse_triple(q)
            return
        self.codes.append(self.code((triple, script), id(script)))  # the table keeps the script alive
        self.positions.append(q)
        self.bases.append(self.at[q + 3])
        self.extra += len(script.moves) - 1
        _reverse_in_place(self, q, script)


def _point(y: Simplex, offset: tuple[tuple[int, int], ...], f: int) -> tuple[Vec, int]:
    """The anchor and orientation of the script point ``(offset, f)`` at ``y = B(x, o)``: ``B(x + o*d, o*f)``."""
    anchor, o = list(y.anchor), y.orient
    for i, v in offset:
        anchor[i] += o * v
    return tuple(anchor), o * f


def _place(at: list[Simplex], q: int, script: Script, slot: int) -> Simplex:
    """The simplex of ``slot`` of a live ``script`` placed at ``q``: ``at[q + slot]``, or a point at ``Y = at[q + 3]``.

    ``script`` is the lemma table's, so its points keep to the hull of
    ``at[q..q+3]`` (the module docstring) and are built unchecked.
    """
    return at[q + slot] if slot < 4 else _unchecked_simplex(*_point(at[q + 3], *script.points[slot - 4]))


def _cited_fields(triple: tuple[int, int, int], script: Script, q: int,
                  y: Simplex) -> list[tuple[str, int, tuple[int, ...], Simplex]]:
    """The moves ``(kind, pos, gens, base)`` of a stored ``script`` cited at ``q`` with ``at[q + 3] = y``.

    ``at[q..q+3]`` is the walk of ``triple`` from ``y``, read backwards.  A
    stored script may be forged, so its points are built by the checked
    ``Simplex``, which raises past the 64-bit band as the walk does, and a
    point whose coordinate index is not an ``int`` below the rank, or a
    move whose offset is not an ``int`` or whose slot is not an ``int``
    naming a slot, is a ``DomainError`` naming it.
    """
    rank = y.rank
    for point in script.points:
        if any(type(i) is not int or not 0 <= i < rank for i, _ in point[0]):
            raise DomainError(f"the script cited for {triple!r} has a point {point!r} off the {rank} coordinates")
    at = _walk(Word.from_indices(baby_base(rank), triple), y)[::-1]
    slots = at + [Simplex(*_point(y, offset, f)) for offset, f in script.points]
    fields = []
    for move in script.moves:
        kind, off, gens, slot = move
        if type(off) is not int or type(slot) is not int or not 0 <= slot < len(slots):
            raise DomainError(f"the script cited for {triple!r} has a move {move!r} whose offset is not an int"
                              f" or whose slot is not one of 0..{len(slots) - 1}")
        fields.append((kind, q + off, gens, slots[slot]))
    return fields


def _reverse_in_place(tracer: WordMoves, q: int, script: Script) -> None:
    """What ``script``'s moves leave at ``q``: ``word[q]`` and ``word[q + 2]`` swapped, two new entries."""
    word, at = tracer.word, tracer.at
    a, b = script.ends
    word[q], word[q + 2] = word[q + 2], word[q]
    at[q + 1], at[q + 2] = _place(at, q, script, a), _place(at, q, script, b)


def reduce_loop(p: Path) -> MoveTrace:
    """Move a loop over the baby-base generators to the trivial loop at its base.

    The word-level certificate of :func:`rewrite_to_identity` drives the
    process; each of its steps expands into elementary insert/delete moves on
    the path.  The returned macro spans group the elementary moves the way
    the certificate grouped its steps.  The steps are read once, in order,
    through ``StepColumns.rows``: a cancellation goes through
    ``tracer.delete`` and any other step through ``tracer.apply_rule``; a
    step of any other sequence goes through ``tracer.apply``.  Only the
    tracer's methods change its word, ``at`` and columns, and the trace's
    moves are its columns.
    """
    if not is_loop(p):
        raise DomainError("only loops can be reduced")
    nu = p.rank
    indices = p.word.to_indices(baby_base(nu))
    cert = rewrite_to_identity(indices, nu)
    tracer = _Tracer(indices, p)
    steps = cert.steps
    rows = enumerate(steps.rows() if type(steps) is StepColumns else ((None, 0, step, 0, 0) for step in steps))
    macros: list[tuple[int, int, str]] = []
    for a, b, kind in cert.macros:
        start = len(tracer.codes) + tracer.extra
        for k, (rule, q, payload, _, _) in islice(rows, b - a):
            try:
                if rule is RULE_CANCEL:
                    tracer.delete(q, payload)
                elif rule is None:
                    tracer.apply(payload)
                else:
                    tracer.apply_rule(rule, q, payload)
            except DomainError as exc:
                raise InternalCheckError(f"certificate step {steps[k]} does not apply: {exc}") from exc
        macros.append((start, len(tracer.codes) + tracer.extra, kind))
    if tracer.word:
        raise InternalCheckError("reduction finished with a non-empty word")
    return MoveTrace(tuple(indices), p.base, tracer.columns(), tuple(macros))


_CITE = object()  # the kind of a feed step that is one cited reversal: (_CITE, q, script, its move count)


def replay_trace(trace: MoveTrace, upto: int | None = None) -> Path:
    """Replay the first ``upto`` moves (default: all) and return the resulting path.

    ``upto`` is ``None`` or an ``int`` in ``0..len(trace.moves)``.  Raises
    ``DomainError`` for any other ``upto``, for a start or a move list that
    is not a sequence, for a trace base that is not a ``Simplex`` or an
    entry that is not a ``Move``, and unless every move applies to the live
    word and records the base its sub-loop has there.

    Replay is an independent check, whatever feeds it: it walks the start
    from scratch into a fresh word and a fresh walk, applies every move to
    them and compares every recorded base with the live one.  One loop with
    one step body applies the steps of a feed: a move, or a cited reversal,
    which swaps ``word[q]`` and ``word[q + 2]`` and places the two new
    entries.  Moves held as :class:`MoveColumns` are fed straight from the
    columns (:func:`_column_feed`): a cited entry is applied as one swap
    when its triple is the live ``word[q:q+3]``, its script is the one the
    lemma table gives that triple, its ``Y`` is the live ``at[q + 3]`` and
    ``upto`` does not cut it, and is fed move by move from its script
    otherwise.  A cited step is one that replaying its moves one by one
    would apply with the same result, so the call accepts and rejects, with
    the same message, what replaying every move through the tracer would.
    Any other sequence (a tuple, a deque, a trace rebuilt by
    ``dataclasses.replace``) is read a record at a time and replayed move by
    move (:func:`_record_feed`).  A delete goes through
    ``WordMoves.delete`` and cuts ``at`` as ``tracer.delete`` does, without
    recording a move.  No ``Move`` is built.  The path is the tracer's own
    ``at`` read forwards: no second walk of the final word.
    """
    moves = trace.moves
    columns = type(moves) is MoveColumns
    if not columns:
        require_sequence(moves, "trace moves")
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
    word, at = tracer.word, tracer.at
    feed = _column_feed(moves, tracer, upto) if columns else _record_feed(moves, upto)
    for kind, pos, gens, recorded in feed:
        if kind is _CITE:
            _reverse_in_place(tracer, pos, gens)
            continue
        if kind == "insert":
            base = tracer.insert(pos, gens)
        elif kind == "delete":  # ``tracer.delete`` without recording a move, which replay never reads
            end = pos + len(WordMoves.delete(tracer, pos, gens))
            base = at[end]
            del at[pos:end]
        else:
            raise DomainError(f"unknown move kind {kind!r}")
        if base != recorded:
            raise DomainError("trace replay: recorded sub-loop base does not match")
    return _unchecked_path(tuple(reversed(at)), Word.from_indices(crumbs, word))


def _column_feed(columns: MoveColumns, tracer: _Tracer, upto: int) -> Iterator[tuple]:
    """The steps of the first ``upto`` moves of ``columns``, each checked against the live tracer as it is fed.

    A move entry is fed as its fields.  A cited entry ``(triple, script)``
    at ``q`` with ``Y`` is fed as one cited step when its ``upto`` allows
    all its moves, ``triple`` is the live ``word[q:q+3]``, the lemma table
    gives that triple ``script`` (or an equal script whose moves read
    without error) and ``Y`` is the live ``at[q + 3]``; then
    its moves are the live script's placed at the live ``Y``, which the
    lemma of the ``moves`` docstring applies one by one with the result of
    the swap.  Otherwise its moves are fed one by one, built from the
    stored script at the stored ``Y`` as reading the record builds them.
    """
    word, at, table = tracer.word, tracer.at, columns.table
    k = 0
    for code, q, base in zip(columns.codes, columns.positions, columns.bases):
        if k >= upto:
            return
        first, second = table[code]
        if type(first) is str:
            yield first, q, second, base
            k += 1
            continue
        width = len(second.moves)
        if k + width <= upto and q >= 0 and tuple(word[q : q + 3]) == first:
            script = REVERSALS.script(first)
            if ((script is second or script == second and _cited_fields(first, second, q, base))
                    and at[q + 3] == base):
                yield _CITE, q, second, width
                k += width
                continue
        yield from islice(_cited_fields(first, second, q, base), upto - k)
        k += width


def _record_feed(moves: Sequence[Move], upto: int) -> Iterator[tuple]:
    """The fields ``(kind, pos, gens, base)`` of the first ``upto`` records of ``moves``, one record at a time."""
    for k, mv in enumerate(islice(moves, upto)):
        try:
            fields = mv.kind, mv.pos, mv.gens, mv.base
        except AttributeError:
            raise DomainError(f"trace entry {k} is not a Move: {mv!r}") from None
        yield fields


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

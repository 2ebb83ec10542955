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
coefficients ``c_i = (-1)^(k-i) sign(a_i)``, ``shift(u)`` is
``sum_{i > k-r} c_i p(a_i)``, so the anchors are
``x + o*(suffix sums of c_i p(a_i))``: prefix sums of the word's signed
terms ``Word.terms``, whose whole sums ``eval_word`` reads, read from the
right, and the orientations alternate ``o, -o, ...``.  A path holds its
word and its base, and its simplices are a view over the two
(:class:`WalkSimplices`) that builds a simplex only when one is read: the
first entry is the base, the last reads the word's one whole sum
``Word.sums``, and :func:`_walk` reads them all, by exact sums, building
each record through ``_unchecked_simplex`` in the band and through
``Simplex``, which checks each anchor as it stores it, past it.  Every
path the library returns, from ``path_of_word`` and from ``replay_trace``,
holds that view.
``path_of_word`` tests the band once, ``|x_c| + B_c <= I64_MAX`` for every
coordinate (``Word.bounds``, counted from the indices of a word that
``Word.from_indices`` built, so a loop op builds no ``Word.terms``), and
where that fails walks the word up front, so a path that leaves the band
raises at its first simplex outside, from ``path_of_word`` itself.  Loop
tracing inserts a block by walking the block's word.  A hand-built ``Path``
is checked against the walk of its word.

Loops reduce to the trivial loop by inserting or deleting the elementary
sub-loops of ``g_i^2`` and ``(g_0 g_i g_j)^2`` (``i < j`` both nonzero).
A trace is that proof, every elementary move with the simplex its sub-loop
is based at, and its start word, its base and the certificate of
``rewrite_to_identity`` fix all of it, so that is all a trace holds
(:class:`TraceMoves`): a cancellation or a relator deletion stands for one
delete, and a triple reversal for the 4 or 14 moves of its expansion, which
the one proof that certificate replay cites too shows for every triple of
three distinct letters (the ``moves`` module docstring), so the certificate
alone counts the moves.  The moves are built when they are read, by the
tracer, a live word and its walk ``at``, run over the steps: a read expands
each reversal by ``WordMoves.reverse_triple`` and walks each block it
inserts, so the walk's band test covers every base it yields.
``reduce_loop`` checks the certificate on the word alone before it returns
the view, and ``replay_trace`` of a view replays the certificate the same
way, up to a step end, and walks the word it reaches; a trace given as any
other sequence of ``Move`` records replays move by move against a fresh
walk, every recorded base compared.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import add, sub
from typing import Iterator, Sequence

from .errors import DomainError, InternalCheckError
from .lattice import I64_MAX, I64_MIN, Vec, baby_base, checked_vec, mutable_twin, vec_add, vec_scale, zero_vec
from .moves import RULE_CANCEL, RULE_REVERSE, RecordColumns, WordMoves, require_sequence, reversal_width, reversible
from .presentation import ReplayedCertificate, RewriteCertificate, StepColumns, rewrite_to_identity
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
    leaves the 64-bit band.  :func:`path_of_word`, which
    :func:`replay_trace` returns too, builds its path past that check, with
    ``simplices`` a :class:`WalkSimplices` over the word and the base, which
    is that walk by construction and builds no simplex until one is read.
    A hand-built path keeps a ``WalkSimplices`` it is given, and the tuple
    of any other sequence, so a list given to it can change nothing after
    the check.
    Either way ``simplices`` equals, hashes and prints as the tuple of the
    walk.
    """

    simplices: Sequence[Simplex]
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
        if type(self.simplices) is not WalkSimplices:
            object.__setattr__(self, "simplices", simplices)

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
    the first simplex outside.  A word with no letters walks to ``[base]``
    at once, before its terms are built, when ``base`` is a plain
    ``Simplex``, so a walk holds plain ``Simplex`` records whatever its
    word: a read of the path of the empty word, where the replay of a loop
    ends, builds no terms.
    """
    if not word.letters and type(base) is Simplex:
        return [base]
    x, o = base.anchor, base.orient
    step = None if o == 1 else sub  # None: accumulate's own addition, which calls no function per term
    rows = [list(accumulate(reversed(terms), step, initial=xc)) for xc, terms in zip(x, word.terms)]
    anchors = zip(*rows) if rows else repeat((), len(word) + 1)
    orients = [o, -o] * (len(word) // 2 + 1)
    if (rows and _past_bound(word, x)
            and (min(map(min, rows)) < I64_MIN or max(map(max, rows)) > I64_MAX)):
        return list(map(Simplex, anchors, orients))
    return list(map(_unchecked_simplex, anchors, orients))


def _past_bound(word: Word, anchor: Vec) -> bool:
    """Whether ``|x_c| + B_c > I64_MAX`` for a coordinate (``Word.bounds``).

    Only then may a walk of ``word`` from ``anchor`` leave the 64-bit band.
    """
    return any(abs(xc) + b > I64_MAX for xc, b in zip(anchor, word.bounds))


_SimplexTwin = mutable_twin(Simplex)


def _unchecked_simplex(anchor: Vec, orient: int) -> Simplex:
    """A ``Simplex`` built through its twin, past ``Simplex.__post_init__``.

    Only :func:`_walk` calls it, for a walk in the band, and the last entry
    of a :class:`WalkSimplices`, read by index.  The record is the
    one the checked constructor would build (the twin rule of the
    ``lattice`` docstring): it compares, hashes and pickles the same.  Safe
    because both hand it only what those checks pass: ``orient`` is a
    checked orientation or its negation, the anchor is a tuple of exact
    ``int`` sums of checked ``int`` entries, and ``_walk`` tests every
    anchor against the 64-bit band first, as the view's constructor tests
    every entry of the view.
    """
    simplex = _SimplexTwin()
    simplex.anchor = anchor
    simplex.orient = orient
    simplex.__class__ = Simplex
    return simplex


class WalkSimplices(RecordColumns):
    """The simplices of a path, read from its word and its base; a ``Simplex`` is built when read.

    ``word`` is a ``Word`` and ``base`` a ``Simplex`` of its rank; a base of
    a subclass is held as the plain ``Simplex`` equal to it, and that one
    record, entry 0, is the only one the view keeps.  The constructor tests
    the band once, ``|x_c| + B_c <= I64_MAX`` for every coordinate
    (``Word.bounds``), which puts every entry in it; where that fails it
    runs :func:`_walk` once, which raises at the first entry outside.  So
    every entry of a view lies in the band.

    Iterating runs :func:`_walk` with the base record as entry 0.  The two
    ends, the entries ``Path.base`` and :func:`is_loop` read, are computed
    by index: entry 0 is the base record, and the last entry is the base
    moved by ``Word.sums``, which ``is_relation_w`` reads too, or the base
    record where it equals it, as the end of a loop does, so ``is_loop``
    builds no record and sums the word once.  Any other index reads the
    records once (``moves.RecordColumns``), as do equality, ``hash`` and
    ``repr``.  It pickles and copies as its word and its base.
    """

    __slots__ = ("word", "base")
    COLUMNS = ("word", "base")

    def __init__(self, word: Word, base: Simplex):
        if word.rank != base.rank:
            raise DomainError("rank mismatch between word and base simplex")
        if type(base) is not Simplex:
            base = Simplex(base.anchor, base.orient)
        if word.letters and _past_bound(word, base.anchor):
            _walk(word, base)
        self.word, self.base = word, base

    def __len__(self) -> int:
        return len(self.word) + 1

    def __iter__(self) -> Iterator[Simplex]:
        walk = _walk(self.word, self.base)
        walk[0] = self.base
        return iter(walk)

    def __getitem__(self, index):
        k, base = len(self.word), self.base
        if type(index) is not int or index not in (0, -1, k, -k - 1):
            return tuple(self)[index]
        if index in (0, -k - 1):
            return base
        anchor = tuple(map(add if base.orient == 1 else sub, base.anchor, self.word.sums))
        orient = -base.orient if k & 1 else base.orient
        if orient == base.orient and anchor == base.anchor:
            return base
        return _unchecked_simplex(anchor, orient)


def path_of_word(word: Word, base: Simplex) -> Path:
    """The path of ``word`` from ``base``: its simplices are a :class:`WalkSimplices`, built when read.

    ``DomainError`` when the ranks differ; ``OverflowError``, the guard
    error of ``lattice.checked``, when the walk leaves the 64-bit band,
    raised here by the view's band test and not when an entry is read.
    The view is that walk by construction, so the path is built past
    ``Path.__post_init__``, which would walk the word again.
    """
    path = object.__new__(Path)
    object.__setattr__(path, "simplices", WalkSimplices(word, base))
    object.__setattr__(path, "word", word)
    return path


def is_loop(p: Path) -> bool:
    """Whether the path closes up, checked against the word problem: the free action says they agree.

    The end entry and ``is_relation_w`` both read ``Word.sums``, so the
    word is summed once.
    """
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


def _move_ends(steps: Sequence) -> list[int]:
    """``0``, then the number of moves the steps up to each step of ``steps`` stand for.

    A cancellation or a relator deletion stands for one move, a reversal for
    the moves of its proved expansion (:func:`_proved_width`).  Over
    columns, whose letters are exact ``int``s, each distinct triple is
    tested once: at commutator n = 320 (103 680 steps) this loop takes
    28 ms, where a test of the predicate per row takes 41 ms (best of 7,
    2-vCPU Xeon VM, Python 3.11).  An entry that is not a step is a
    ``DomainError``.
    """
    widths: list[int] = []
    append = widths.append
    if type(steps) is StepColumns:
        letters, o, seen = steps.letters, 0, {}
        for code in steps.rules:
            if code == 3:
                triple = (letters[o], letters[o + 1], letters[o + 2])
                width = seen.get(triple)
                if width is None:
                    width = seen[triple] = _proved_width(triple, len(widths))
                append(width)
            else:
                append(1)
            o += code
    else:
        for step in steps:
            try:
                reverses, payload = step.rule == RULE_REVERSE, step.payload
            except AttributeError:
                raise DomainError(f"certificate entry {len(widths)} is not a RewriteStep: {step!r}") from None
            append(_proved_width(payload, len(widths)) if reverses else 1)
    return list(accumulate(widths, initial=0))


def _proved_width(triple: object, k: int) -> int:
    """The number of moves of the reversal of ``triple`` by step ``k``; ``DomainError`` unless it is proved."""
    if not (type(triple) is tuple and len(triple) == 3 and reversible(*triple)):
        raise DomainError(f"certificate step {k} reverses {triple!r}, which has no proved script")
    return reversal_width(triple)


class TraceMoves(RecordColumns):
    """The moves of a traced loop, read from its start, its base and its certificate; a ``Move`` is built when read.

    ``start`` is a tuple of baby-base letters ``0..rank``, ``base`` a
    ``Simplex`` of that rank and ``certificate`` a ``RewriteCertificate`` of
    ``start``.  Each step stands for its moves (:func:`_move_ends`): the
    length is their sum, counted when the view is built, and ``macros``
    holds the move span of each macro of the certificate, the spans a
    ``MoveTrace`` gives.  The constructor refuses anything else, and a
    reversal that ``moves.reversible`` does not prove (``DomainError``).

    Reading runs the tracer over the steps from the walk of ``start``
    (:class:`_Reader`) and yields each move as it is made; a step that does
    not apply raises the ``DomainError`` of the move that does not.  The
    sequence reads, compares, hashes, prints and pickles as the tuple of its
    records (``moves.RecordColumns``).
    """

    __slots__ = ("start", "base", "certificate", "macros", "_n")
    COLUMNS = ("start", "base", "certificate")

    def __init__(self, start: tuple[int, ...], base: Simplex, certificate: RewriteCertificate):
        rank = base.rank if isinstance(base, Simplex) else None
        if not (type(start) is tuple and rank is not None and isinstance(certificate, RewriteCertificate)
                and certificate.start == start and all(type(g) is int and 0 <= g <= rank for g in start)):
            raise DomainError("the moves of a trace are read from a start of baby-base letters, a Simplex base"
                              " and a certificate of that start")
        ends = _move_ends(certificate.steps)
        spans = certificate.macros
        if not (type(spans) is tuple and all(type(span) is tuple and len(span) == 3 and type(span[0]) is int
                                             and type(span[1]) is int and 0 <= span[0] <= span[1] < len(ends)
                                             for span in spans)):
            raise DomainError(f"the certificate macros {spans!r} are not spans of its steps")
        self.start, self.base, self.certificate = start, base, certificate
        self.macros = tuple((ends[a], ends[b], kind) for a, b, kind in spans)
        self._n = ends[-1]

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Move]:
        path = path_of_word(Word.from_indices(baby_base(self.base.rank), self.start), self.base)
        reader = _Reader(self.start, path)
        made = reader.made
        steps = self.certificate.steps
        rows = steps.rows() if type(steps) is StepColumns else ((None, 0, step, 0, 0) for step in steps)
        for rule, q, payload, _, _ in rows:
            if rule is RULE_CANCEL:
                reader.delete(q, payload)
            elif rule is None:
                reader.apply(payload)
            else:
                reader.apply_rule(rule, q, payload)
            yield from made
            made.clear()


@dataclass(frozen=True)
class MoveTrace:
    """A loop's reduction to the trivial loop: its start word and base, the moves, and the macro spans.

    ``moves`` is a sequence of ``Move`` records; :func:`reduce_loop` gives a
    :class:`TraceMoves` over the start, the base and the certificate, which
    equals, hashes and prints as the tuple of its records and builds them
    only when read.  ``macros`` holds one ``(first, end, kind)`` span of
    moves per certificate macro.
    """

    start: tuple[int, ...]
    base: Simplex
    moves: Sequence[Move]
    macros: tuple[tuple[int, int, str], ...]


class _Tracer(WordMoves):
    """Applies elementary moves to a live word and to its walk.

    Invariant: ``at[q]`` is the simplex that ``word[q:]`` carries the base
    simplex to (the path, read backwards).  An elementary block is a
    relation, so it acts as the identity: a move leaves every entry outside
    its block unchanged and splices only the block's own entries, whatever
    the word length.  :meth:`insert` and :meth:`delete` return the simplex
    the move's sub-loop is based at; a move that does not apply raises
    ``DomainError``.  The tracer keeps its rank because it walks each block
    over ``baby_base(rank)``, and that walk refuses a letter above the rank.
    """

    def __init__(self, indices: Sequence[int], path: Path):
        super().__init__(indices)
        self.at = list(reversed(path.simplices))
        self.crumbs = baby_base(path.rank)

    def insert(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        block = super().insert(pos, gens)
        base = self.at[pos]
        self.at[pos:pos] = _walk(Word.from_indices(self.crumbs, block), base)[:0:-1]
        return base

    def delete(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        end = pos + len(super().delete(pos, gens))
        base = self.at[end]
        del self.at[pos:end]
        return base


class _Reader(_Tracer):
    """The tracer that reading a :class:`TraceMoves` runs: ``made`` takes each move it makes, as a ``Move``.

    A reversal is expanded move by move by ``WordMoves.reverse_triple``, and
    none is cited.
    """

    def __init__(self, indices: Sequence[int], path: Path):
        super().__init__(indices, path)
        self.made: list[Move] = []

    def insert(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        base = super().insert(pos, gens)
        self.made.append(_move("insert", pos, gens, base))
        return base

    def delete(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        base = super().delete(pos, gens)
        self.made.append(_move("delete", pos, gens, base))
        return base


def reduce_loop(p: Path) -> MoveTrace:
    """Move a loop over the baby-base generators to the trivial loop at its base.

    The word-level certificate of :func:`rewrite_to_identity` is the proof,
    and nothing is traced here: the trace's moves are a :class:`TraceMoves`
    over the loop's word, its base and that certificate, each step standing
    for its elementary moves, which are built when they are read.  The call
    counts the moves of each step, one per cancellation or relator deletion
    and 4 or 14 per reversal, and the macro spans group them the way the
    certificate grouped its steps.  The rewriter reverses only triples of
    three distinct letters, each of which ``moves.reversible`` proves, so a
    reversal step it does not prove is an ``InternalCheckError``.  Then the
    certificate is checked on the word alone, in one run of its steps
    (``ReplayedCertificate._replay``): a step that does not apply, or a word
    left non-empty, is an ``InternalCheckError`` too, and a failing run is
    replayed again a state at a time to name the step.
    """
    if not is_loop(p):
        raise DomainError("only loops can be reduced")
    nu = p.rank
    cert = rewrite_to_identity(p.word.to_indices(baby_base(nu)), nu)
    try:
        moves = TraceMoves(cert.start, p.base, cert)
    except DomainError as exc:
        raise InternalCheckError(f"the certificate of a loop does not give its moves: {exc}") from exc
    replayed = ReplayedCertificate(cert)
    try:
        word = replayed._replay()
    except DomainError as exc:
        k = 0
        try:  # the replay again, a state at a time: it fails at the same step, ``k``
            for k, _ in enumerate(replayed._live()):
                pass
        except DomainError:
            pass
        raise InternalCheckError(f"certificate step {cert.steps[k]} does not apply: {exc}") from exc
    if word:
        raise InternalCheckError("reduction finished with a non-empty word")
    return MoveTrace(cert.start, p.base, moves, moves.macros)


def replay_trace(trace: MoveTrace, upto: int | None = None) -> Path:
    """Replay the first ``upto`` moves (default: all) and return the resulting path.

    ``upto`` is ``None`` or an ``int`` in ``0..len(trace.moves)``.  Raises
    ``DomainError`` for any other ``upto``, for a start or a move list that
    is not a sequence, for a trace base that is not a ``Simplex`` or an
    entry that is not a ``Move``, and unless every move applies to the live
    word and records the base its sub-loop has there.

    Moves held as a :class:`TraceMoves` over the trace's own start and base
    (the same objects, as :func:`reduce_loop` gives them) are its
    certificate's, so replay is the certificate's: its steps are replayed on
    the word alone by ``ReplayedCertificate._replay``, which cites the
    proved reversals as ``replay_certificate`` does, up to the step that
    ends at move ``upto`` (:func:`_certificate_word`).  A view stores no
    base, so there is none to compare, and a view over a certificate that
    does not replay fails as that certificate's replay fails.

    Any other sequence (a tuple, a deque, a trace rebuilt by
    ``dataclasses.replace``), a view whose trace has another start or base,
    or an ``upto`` inside a reversal is read a record at a time
    (:func:`_record_feed`) and replayed move by move on a fresh word and a
    fresh walk of the start, every recorded base compared with the live
    one: the independent check of what a view yields.  No ``Move`` is built.

    Either way the answer is :func:`path_of_word` of the word reached, from
    the trace's base: a :class:`WalkSimplices` over the two.
    """
    moves = trace.moves
    view = type(moves) is TraceMoves
    if not view:
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
    word = None
    if view and moves.start is trace.start and moves.base is trace.base:
        word = _certificate_word(moves, upto)
    if word is None:
        tracer = _Tracer(trace.start, path_of_word(Word.from_indices(crumbs, trace.start), trace.base))
        for kind, pos, gens, recorded in _record_feed(moves, upto):
            if kind == "insert":
                base = tracer.insert(pos, gens)
            elif kind == "delete":
                base = tracer.delete(pos, gens)
            else:
                raise DomainError(f"unknown move kind {kind!r}")
            if base != recorded:
                raise DomainError("trace replay: recorded sub-loop base does not match")
        word = tracer.word
    return path_of_word(Word.from_indices(crumbs, word), trace.base)


def _certificate_word(moves: TraceMoves, upto: int) -> list[int] | None:
    """The word after the first ``upto`` moves of ``moves``, by replay of its certificate.

    The steps whose moves all come before move ``upto`` are replayed by
    ``ReplayedCertificate._replay``, in one run.  The answer is ``None``, and
    the caller replays the records, if move ``upto`` falls inside a reversal
    or the steps no longer stand for the moves the view counted.
    """
    replayed = ReplayedCertificate(moves.certificate)
    if upto == len(moves):
        return replayed._replay()
    ends = _move_ends(moves.certificate.steps)
    k = bisect_right(ends, upto) - 1  # the steps done whole
    if ends[-1] != len(moves) or ends[k] != upto:
        return None
    return replayed._replay(k)


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


def render_svg(p: Path) -> str:
    """Draw the visited simplices with visit labels B0, B1, ... in order.

    Each simplex is the triangle with corners 2*anchor, 2*anchor + orient*e1,
    2*anchor + orient*e2, drawn in ``_SCALE`` pixels a unit with the y axis
    pointing down; a closing loop entry reuses the label of the start.  The
    labels are grouped by the simplex's ``(anchor, orient)``, and each
    distinct simplex's corners are computed once, in the sorted order of
    those keys, for the bounds, its polygon and its label, which sits at the
    corners' centroid rounded down, moved 4 pixels by the orientation.
    Output is deterministic for identical input.
    """
    if p.rank != 2:
        raise DomainError("SVG rendering is implemented for rank 2 only")
    simplices = tuple(p.simplices)  # one read of the walk; each index of a view would walk it again
    n = len(simplices)
    closing = n > 1 and simplices[0] == simplices[-1]
    visits: dict[tuple[Vec, int], list[str]] = {}
    for r in range(n - 1 if closing else n):
        s = simplices[r]
        visits.setdefault((s.anchor, s.orient), []).append(f"B{r}")

    polygons, texts = [], []
    xs, ys = [0], [0]
    for ((x, y), o), labels in sorted(visits.items()):
        sx, sy, d = 2 * _SCALE * x, -2 * _SCALE * y, _SCALE * o  # the corner 2*anchor on screen, and one unit
        xs += (sx, sx + d)
        ys += (sy, sy - d)
        polygons.append(f'<polygon points="{sx},{sy} {sx + d},{sy} {sx},{sy - d}" fill="none" stroke="#000"'
                        ' stroke-width="2"/>')
        texts.append(f'<text x="{(3 * sx + d) // 3 + 4 * o}" y="{(3 * sy - d) // 3 - 4 * o}" font-size="12">'
                     f'{",".join(labels)}</text>')
    x0, x1 = min(xs) - _PAD, max(xs) + _PAD
    y0, y1 = min(ys) - _PAD, max(ys) + _PAD
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0} {y0} {x1 - x0} {y1 - y0}" '
        f'width="{x1 - x0}" height="{y1 - y0}">',
        f'<line x1="{x0 + 8}" y1="0" x2="{x1 - 8}" y2="0" stroke="#888" stroke-width="1"/>',
        f'<line x1="0" y1="{y0 + 8}" x2="0" y2="{y1 - 8}" stroke="#888" stroke-width="1"/>',
        f'<text x="{x1 - 30}" y="-6" font-size="14">s1</text>',
        f'<text x="6" y="{y0 + 24}" font-size="14">s2</text>',
        *polygons,
        *texts,
        "</svg>",
    ])

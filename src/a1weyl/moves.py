"""Elementary moves on a word, and the one proof that lets replay cite a triple reversal.

A reversal ``g_a g_b g_c -> g_c g_b g_a`` follows from the relators, and
``WordMoves.reverse_triple`` derives it by elementary moves; replay may cite
it as one swap, a lemma, wherever that derivation is proved.  One finite
proof serves every triple, by two facts:

- *Position.*  Every move of ``reverse_triple(q)`` is at an offset >= 0
  from ``q``, and whether it applies depends on its block and the word
  alone.  So a run that reverses the isolated ``[a, b, c]`` read only the
  triple and what it inserted, and reverses that triple in any word.
- *Shape.*  Of exact ``int`` letters >= 0, the expansion and
  :func:`move_block` read only their order and which of them is 0, so an
  order-preserving relabelling of those letters that fixes 0 maps one
  isolated run onto another.  Three distinct letters >= 0 have one of 12
  shapes: the orderings of ``(1, 2, 3)`` and of ``(0, 1, 2)``.

:func:`shapes_proved` runs the expansion alone on those 12 triples, on
first use and once per process, and holds when each ends as ``c b a`` in
:func:`reversal_width` moves; :func:`reversible` holds for three distinct
exact ``int``s >= 0 once it has.  Any other triple (an equal pair, a
negative letter, or ``True`` and ``1.0``, which equal ``1`` but fail
``move_block``) is expanded in place at every step: an isolated failure
proves nothing in context, where a delete may match letters after the
triple.  So the lemmas a replay cites depend on the expansion code alone,
not on what the process ran before.  Whoever replaces
``WordMoves.reverse_triple`` calls ``shapes_proved.cache_clear()``, and a
replacement that breaks any shape turns citing off for the whole process.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator, Sequence

from .errors import DomainError

# The step rules a certificate may cite; ``WordMoves.apply_rule`` dispatches on them.
RULE_CANCEL = "cancel-involution"
RULE_REVERSE = "triple-reverse"
RULE_DELETE = "delete-relator"


def require_sequence(value: object, what: str) -> None:
    """Raise ``DomainError`` naming ``what`` unless ``value`` has a length and iterates, as a tuple does."""
    try:
        len(value)
        iter(value)
    except TypeError:
        raise DomainError(f"{what} {value!r} is not a sequence") from None


class RecordColumns(Sequence):
    """Frozen records held as columns, each built when it is read: the contract of the proof records.

    ``presentation.StepColumns`` holds a certificate's steps this way,
    ``geometry.TraceMoves`` reads a trace's moves from its certificate, and
    ``geometry.WalkSimplices`` a path's simplices from its word and its
    base.  The sequence is the tuple of its records to ``==``, ``hash`` and
    ``repr``, and reads as that tuple: an index, a slice and :meth:`index`
    read the records front to back into it once, unless a subclass computes
    an ``int`` index itself, as ``WalkSimplices`` does its two ends.  It
    pickles and copies as its columns, the constructor's arguments named by
    ``COLUMNS``.  No record is kept, so whoever reads every record pays for
    every record.  A subclass defines ``COLUMNS``, ``__len__`` and
    ``__iter__``.
    """

    __slots__ = ()
    COLUMNS: tuple[str, ...] = ()

    def __reversed__(self) -> Iterator:
        return reversed(tuple(self))

    def __getitem__(self, index):
        return tuple(self)[index]

    def index(self, value, *bounds) -> int:
        """As ``tuple.index``, after one read of the records; ``Sequence.index`` reads once per position."""
        return tuple(self).index(value, *bounds)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, RecordColumns)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.COLUMNS)


def move_block(gens: tuple[int, ...]) -> tuple[int, ...]:
    """The word of the elementary loop named by ``gens``: ``g_k^2`` or ``(g_0 g_i g_j)^2``."""
    try:
        n = len(gens)
    except TypeError:  # no length, so no loop: the refusal below names it
        n = 0
    if n == 1:
        k = gens[0]
        if type(k) is int and k >= 0:
            return (k, k)
    elif n == 3:
        z, i, j = gens
        if type(z) is type(i) is type(j) is int and z == 0 and 1 <= i < j:
            return (0, i, j, 0, i, j)
    raise DomainError(f"{gens!r} does not name an elementary loop")


class WordMoves:
    """A live word changed only by elementary moves.

    A move inserts or deletes the block of one relator (:func:`move_block`)
    at an ``int`` position; a move that does not apply raises
    ``DomainError``.  Whether it applies depends on the block and the word
    alone: a caller with a bounded alphabet bounds the letters itself.
    """

    def __init__(self, indices: Sequence[int]):
        self.word = list(indices)

    def insert(self, pos: int, gens: tuple[int, ...]) -> tuple[int, ...]:
        block = move_block(gens)
        n = len(self.word)
        if not (type(pos) is int and 0 <= pos <= n):
            raise DomainError(f"cannot insert {block} at {pos!r} into a word of length {n}")
        self.word[pos:pos] = block
        return block

    def delete(self, pos: int, gens: tuple[int, ...]) -> tuple[int, ...]:
        """Cut the block of ``gens`` at ``pos`` and return it, by one route for every block.

        ``presentation._apply_steps`` splices a replay's ``g_k^2`` in place.
        """
        word = self.word
        block = move_block(gens)
        if type(pos) is not int or pos < 0 or tuple(word[pos : pos + len(block)]) != block:
            raise DomainError(f"cannot delete {block} at {pos!r}: block absent")
        del word[pos : pos + len(block)]
        return block

    def reverse_triple(self, q: int) -> None:
        """Reverse ``word[q:q+3]`` by elementary moves.

        Triples containing a 0 reverse in four moves against the six-letter
        loop on their two nonzero letters; triples of three nonzero letters
        route through a freshly inserted ``g_0^2`` and three sub-reversals.
        A triple with two equal neighbours has no such expansion: one of its
        moves raises ``DomainError``.
        """
        a, b, c = self.word[q : q + 3]
        if a == c:
            return  # palindromic: nothing to do
        if 0 not in (a, b, c):
            self.insert(q + 2, (0,))            # a b 0 0 c
            self.reverse_triple(q)              # 0 b a 0 c
            self.reverse_triple(q + 2)          # 0 b c 0 a
            self.reverse_triple(q)              # c b 0 0 a
            self.delete(q + 2, (0,))            # c b a
            return
        if b == 0:
            d = (0, min(a, c), max(a, c))
            i, j = d[1], d[2]
            if (a, c) == (i, j):                # i 0 j -> j 0 i
                self.insert(q + 2, d)           # i 0 [0 i j 0 i j] j
                self.delete(q + 1, (0,))        # i i j 0 i j j
                self.delete(q, (i,))            # j 0 i j j
                self.delete(q + 3, (j,))        # j 0 i
            else:                               # j 0 i -> i 0 j
                self.insert(q + 3, (j,))        # j 0 i j j
                self.insert(q, (i,))            # i i j 0 i j j
                self.insert(q + 1, (0,))        # i 0 0 i j 0 i j j
                self.delete(q + 2, d)           # i 0 j
        elif a == 0:
            d = (0, min(b, c), max(b, c))
            i, j = d[1], d[2]
            if (b, c) == (i, j):                # 0 i j -> j i 0
                self.insert(q + 3, (0,))        # 0 i j 0 0
                self.insert(q + 4, (i,))        # 0 i j 0 i i 0
                self.insert(q + 5, (j,))        # 0 i j 0 i j j i 0
                self.delete(q, d)               # j i 0
            else:                               # 0 j i -> i j 0
                self.insert(q + 1, d)           # 0 0 i j 0 i j j i
                self.delete(q, (0,))            # i j 0 i j j i
                self.delete(q + 4, (j,))        # i j 0 i i
                self.delete(q + 3, (i,))        # i j 0
        else:
            d = (0, min(a, b), max(a, b))
            i, j = d[1], d[2]
            if (a, b) == (j, i):                # j i 0 -> 0 i j
                self.insert(q, d)               # 0 i j 0 i j j i 0
                self.delete(q + 5, (j,))        # 0 i j 0 i i 0
                self.delete(q + 4, (i,))        # 0 i j 0 0
                self.delete(q + 3, (0,))        # 0 i j
            else:                               # i j 0 -> 0 j i
                self.insert(q + 3, (i,))        # i j 0 i i
                self.insert(q + 4, (j,))        # i j 0 i j j i
                self.insert(q, (0,))            # 0 0 i j 0 i j j i
                self.delete(q + 1, d)           # 0 j i

    def apply(self, step) -> None:
        """:meth:`apply_rule` on the fields of one certificate step (a ``RewriteStep``)."""
        self.apply_rule(step.rule, step.pos, step.payload)

    def apply_rule(self, rule: str, q: int, payload: Sequence[int]) -> None:
        """Apply one certificate step by elementary moves, checking its payload.

        A step that does not apply raises ``DomainError`` naming its rule,
        payload and position, also when the payload cannot be iterated.
        """
        if type(payload) is not tuple:
            try:
                payload = tuple(payload)
            except TypeError:
                raise DomainError(f"{rule!r} step with payload {payload!r} does not apply at {q!r}") from None
        if rule == RULE_CANCEL and len(payload) == 1:
            self.delete(q, payload)
        elif rule == RULE_DELETE and len(payload) == 6 and payload[:3] == payload[3:]:
            self.delete(q, payload[:3])
        elif rule == RULE_REVERSE and type(q) is int and q >= 0 and len(payload) == 3 and (
            tuple(self.word[q : q + 3]) == payload
        ):
            self.reverse_triple(q)
        else:
            raise DomainError(f"{rule!r} step with payload {payload} does not apply at {q!r}")


class _Counting(WordMoves):
    """``WordMoves`` that counts its moves in ``made``."""

    made = 0

    def insert(self, pos: int, gens: tuple[int, ...]) -> tuple[int, ...]:
        self.made += 1
        return super().insert(pos, gens)

    def delete(self, pos: int, gens: tuple[int, ...]) -> tuple[int, ...]:
        self.made += 1
        return super().delete(pos, gens)


def reversal_width(triple: tuple[int, int, int]) -> int:
    """The number of moves a proved reversal of ``triple`` stands for: 4 with a 0 among its letters, 14 without."""
    return 4 if 0 in triple else 14


def _reverses_alone(triple: tuple[int, int, int]) -> bool:
    """Whether ``reverse_triple(0)`` on the isolated ``triple`` ends reversed, in :func:`reversal_width` moves."""
    run = _Counting(triple)
    try:
        run.reverse_triple(0)
    except DomainError:
        return False
    return run.word == list(reversed(triple)) and run.made == reversal_width(triple)


# One triple of each shape that reverses: the orderings of three nonzero letters, and of 0 with two.
_SHAPES = (*itertools.permutations((1, 2, 3)), *itertools.permutations((0, 1, 2)))


@functools.cache
def shapes_proved() -> bool:
    """Whether the expansion reverses each of the 12 shapes alone: the one proof that replay cites, run on first use."""
    return all(map(_reverses_alone, _SHAPES))


def reversible(a: object, b: object, c: object) -> bool:
    """Whether the reversal of ``g_a g_b g_c`` is proved: three distinct exact ``int``s >= 0, once the shapes hold."""
    return (a != b != c != a and type(a) is type(b) is type(c) is int and a >= 0 and b >= 0 and c >= 0
            and shapes_proved())

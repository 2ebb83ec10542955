"""Elementary moves on a word, and the table of proved triple reversals.

A reversal ``g_a g_b g_c -> g_c g_b g_a`` is realised once per process for
each distinct letter triple, keyed by the triple, and then cited, as a
lemma.  Every move of ``reverse_triple(q)`` is at an offset >= 0 from
``q``, and whether a move applies depends on its block and the word alone,
not on a rank.  So if the expansion succeeds on the isolated word
``[a, b, c]``, each of its deletes read only letters of the triple or
letters the expansion had inserted, and it succeeds with the same moves at
any position of any word holding that triple, leaving ``c b a`` there.
That fact depends on the triple and on the expansion code alone, not on the
certificate, so every replay in the process may cite it: one table,
``REVERSALS``, serves certificate replay, loop tracing and trace replay
(the ``geometry`` module docstring).  Whoever replaces
``WordMoves.reverse_triple`` clears the table, whose lemmas are of the
expansion replaced.  It holds each lemma as the script of the isolated run
(:class:`Script`), read from the run's words alone (only the triple's
nonzero letters occur in them), so a proof costs the same however large its
letters.  The hull rule: every entry of every word the run passes through
has each coordinate within the range of that coordinate over the four start
entries.  A run that fails, moves nothing, does not end in ``c b a``, or
breaks the rule gives no script.  An isolated failure proves nothing in
context (a delete may match letters after the triple), so any triple
without a script is expanded in place at every step.  The table's one
reader, ``REVERSALS.script``, gives no script to a triple of letters that
are not exactly ``int`` (``True`` and ``1.0`` hash like ``1`` but fail
``move_block``), and never reads or writes the table for it.  At most
``LEMMA_CAP`` scripts are held: proving one more first empties the table,
which bounds its memory and only costs re-proving.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .errors import DomainError

# The step rules a certificate may cite; ``WordMoves.apply`` dispatches on them.
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


def move_block(gens: tuple[int, ...]) -> tuple[int, ...]:
    """The word of the elementary loop named by ``gens``: ``g_k^2`` or ``(g_0 g_i g_j)^2``."""
    if len(gens) == 1:
        k = gens[0]
        if type(k) is int and k >= 0:
            return (k, k)
    elif len(gens) == 3:
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
        word = self.word
        if type(gens) is tuple and len(gens) == 1 and type(pos) is int and pos >= 0:
            # The commonest move, a ``g_k^2``: the checks of ``move_block`` and
            # the block test on exact types, with no block built to compare.
            k = gens[0]
            if type(k) is int and k >= 0 and pos + 1 < len(word) and word[pos] == k == word[pos + 1]:
                del word[pos : pos + 2]
                return gens + gens
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
        """Apply one certificate step (a ``RewriteStep``) by elementary moves, checking its payload."""
        rule, q, payload = step.rule, step.pos, tuple(step.payload)
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


class _Recorder(WordMoves):
    """``WordMoves`` that records each move as ``(kind, pos, gens)`` and each word it leaves."""

    def __init__(self, indices: Sequence[int]):
        super().__init__(indices)
        self.moves: list[tuple[str, int, tuple[int, ...]]] = []
        self.words = [tuple(indices)]

    def insert(self, pos: int, gens: tuple[int, ...]) -> tuple[int, ...]:
        return self.record("insert", pos, gens, super().insert(pos, gens))

    def delete(self, pos: int, gens: tuple[int, ...]) -> tuple[int, ...]:
        return self.record("delete", pos, gens, super().delete(pos, gens))

    def record(self, kind: str, pos: int, gens: tuple[int, ...], block: tuple[int, ...]) -> tuple[int, ...]:
        self.moves.append((kind, pos, gens))
        self.words.append(tuple(self.word))
        return block


class Script(NamedTuple):
    """A reversal run on the isolated ``[a, b, c]``, its simplices relative to ``at[3] = B(0, +1)``.

    Slots 0..3 name the start entries ``at[0..3]``, slot ``4 + n`` the
    ``n``-th ``(offset, orient)`` of ``points``: an offset lists ``(u - 1, v)``
    for each letter ``u`` whose ``e_u`` has coefficient ``v != 0`` in the
    anchor.  ``moves`` holds ``(kind, offset from q, gens, slot of the base)``
    per move, and ``ends`` the slots of the final ``at[1]`` and ``at[2]``.
    """

    moves: tuple[tuple[str, int, tuple[int, ...], int], ...]
    points: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    ends: tuple[int, int]


def _entries(word: tuple[int, ...], column: dict[int, int]) -> list[tuple[tuple[int, ...], int]]:
    """``at[0..len(word)]`` of ``word`` from ``B(0, +1)``, each anchor as coefficients by ``column``.

    ``at[r]``, the image under ``u = word[r:]``, has anchor ``sum_i (-1)^(m-i) e_{u_i}``
    over the letters ``u_i != 0`` and orientation ``(-1)^m``, for ``m = len(u)``.
    """
    d, o = [0] * len(column), 1
    out = [((*d,), o)]
    for u in reversed(word):
        if u:
            d[column[u]] += o
        o = -o
        out.append(((*d,), o))
    return out[::-1]


def _script_alone(triple: tuple[int, int, int]) -> Script | tuple[()]:
    """The script of ``reverse_triple(0)`` on the isolated ``triple``, or ``()``."""
    a, b, c = triple
    run = _Recorder(triple)
    try:
        run.reverse_triple(0)
    except DomainError:
        return ()
    if not run.moves or run.word != [c, b, a]:
        return ()
    letters = sorted({a, b, c} - {0})
    column = {u: n for n, u in enumerate(letters)}
    at = [_entries(word, column) for word in run.words]
    hull = [(min(col), max(col)) for col in zip(*(d for d, _ in at[0]))]
    if any(not lo <= v <= hi for entries in at for d, _ in entries for v, (lo, hi) in zip(d, hull)):
        return ()
    # A base is the entry at the move's position in the word without its
    # block: the word before an insert, the word after a delete.
    bases = [at[n + (kind == "delete")][pos] for n, (kind, pos, _) in enumerate(run.moves)]
    slot_of = {e: n for n, e in enumerate(at[0])}
    points = []
    for d, f in (*bases, *at[-1][1:3]):
        if (d, f) not in slot_of:
            slot_of[d, f] = 4 + len(points)
            points.append((tuple((u - 1, v) for u, v in zip(letters, d) if v), f))
    return Script(
        tuple((*move, slot_of[e]) for move, e in zip(run.moves, bases)),
        tuple(points),
        (slot_of[at[-1][1]], slot_of[at[-1][2]]),
    )


LEMMA_CAP = 1 << 16  # scripts held at most by the table


class _Lemmas(dict):
    """The scripts proved in this process: a triple's :class:`Script`, or ``()`` if it has none."""

    def script(self, triple: tuple[int, int, int]) -> Script | tuple[()]:
        """The script of ``triple``, proved and recorded on a miss; ``()`` unless its letters are exact ``int``s."""
        a, b, c = triple
        if not (type(a) is type(b) is type(c) is int):
            return ()
        script = self.get(triple)
        if script is None:
            if len(self) >= LEMMA_CAP:
                self.clear()
            script = self[triple] = _script_alone(triple)
        return script


# The one table of proved reversals, cited by certificate replay, loop tracing and trace replay.
REVERSALS = _Lemmas()

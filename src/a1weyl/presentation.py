"""Presentations of the two groups, soundness checks, and reduction certificates.

The rewriting system lives over the baby-base generators ``g_0..g_nu``.  Its
rules are the involutions ``g_k^2``, the six-letter relators
``(g_0 g_i g_j)^2`` for ``1 <= i < j <= nu``, and the triple reversal
``g_a g_b g_c -> g_c g_b g_a`` (a consequence of the relators).  Every
relation word reduces to the empty word by the macro strategy below.  Replay
trusts only the relators: it applies each certificate step as elementary
moves, each inserting or deleting one relator block, and realises every
triple reversal by such moves.  Replay keeps only the live word, so its
memory is O(length), and returns the intermediate words as a view that
replays the steps again when they are read.

A reversal is realised once per process for each distinct letter triple,
keyed by expansion and ``nu``, and then cited, as a lemma.  Every move of
``reverse_triple(q)`` is at an offset >= 0 from ``q``, and an insert is
checked only against ``nu``.  So if the expansion succeeds on the isolated
word ``[a, b, c]``, each of its deletes read only letters of the triple or
letters the expansion had inserted, and it succeeds with the same moves at
any position of any word holding that triple, leaving ``c b a`` there.  That
fact depends on the triple, on ``nu`` and on the expansion code alone, not on
the certificate, so every replay in the process may cite it: one table,
keyed by the function ``WordMoves.reverse_triple`` and ``nu``, serves
certificate replay, loop tracing and trace replay (the ``geometry`` module
docstring), and a patched or replaced expansion starts with no lemmas.  It
holds each lemma as the script of the isolated run (:class:`_Script`), read
from the run's words alone, so a proof costs the same at every ``nu``.  The
hull rule: every entry of every word the run passes through has each
coordinate within the range of that coordinate over the four start entries.
A run that fails, moves nothing, or breaks the rule gives no script.  A
reversal with ``a == c`` moves nothing and is a swap without one.  An
isolated failure proves nothing in context (a delete may match letters after
the triple), so any other triple without a script is expanded in place at
every step, as are triples of letters that are not exactly ``int`` (``True``
and ``1.0`` hash like ``1`` but fail ``move_block``); those never read or
write the table.  At most ``LEMMA_CAP`` scripts are held, so emptying the
table bounds its memory and only costs re-proving.

A macro does the first of three things that applies: cancel the leftmost
adjacent pair ``g_k g_k`` and then every pair that unlocks (a cascade);
delete the leftmost relator block ``0 i j 0 i j`` (``1 <= i < j <= nu``); or
bubble the first letter toward its opposite-parity partner by triple
reversals until a pair appears, and cancel that cascade.  The rewriter finds
"leftmost" without rescanning from position 0, by three invariants:

- *Pair window.*  No adjacent equal pair starts outside ``[lo, hi)``.  A cut
  of 2 or 6 letters at ``q`` sets ``lo = min(lo, max(q - 1, 0))`` and shifts
  ``hi`` by the cut length, keeping it past ``q - 1``; a scan that finds
  nothing leaves ``lo`` at the end of the word and the window empty.
- *Bubble check.*  A bubble starts on a word with no pairs, and reversing
  ``word[c:c+3]`` can make a pair only at ``c - 1`` or ``c + 2``, so only
  those two positions are tested after each reversal.
- *Relator window.*  No relator block starts outside ``[rlo, rhi)``.  A cut
  at ``q`` shifts the bounds past ``q`` by the cut length, then widens the
  window to cover the starts ``q - 5 .. q``; a reversal at ``c`` widens it to
  cover ``c - 5 .. c + 2``; a search reads only the window.

So a cancellation or a bubble step reads O(1) letters, and the certificate
is the one a rescan from position 0 after every change would give.  A macro
runs on local variables (the word, its step list, the four window bounds)
and writes the windows back once.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, InternalCheckError
from .hyperbolic import central_word, eval_word_hyp
from .lattice import ReflectableBase, is_elliptic_like, mutable_twin, support_pairs
from .weyl import MAX_K, enumerate_alternating, eval_word, json_ints
from .words import Word

TARGET_W = "W"
TARGET_WT = "Wt"


@dataclass(frozen=True)
class Presentation:
    """Generators by label plus relators as index words into the label list."""

    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]
    target: str
    truncated_at: int | None = None

    def __post_init__(self) -> None:
        if self.target not in (TARGET_W, TARGET_WT):
            raise DomainError(f"unknown target group {self.target!r}")
        n = len(self.generators)
        for rel in self.relators:
            for g in rel:
                if not 0 <= g < n:
                    raise DomainError(f"relator index {g} out of range for {n} generators")


def presentation_to_dict(p: Presentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [list(r) for r in p.relators],
        "target": p.target,
        "truncated_at": p.truncated_at,
    }


def presentation_from_dict(data: dict) -> Presentation:
    """The inverse of :func:`presentation_to_dict`; a malformed field is a ``DomainError``."""
    relators = json_ints(data, "relators", 2, "presentation")
    truncated_at = data.get("truncated_at")
    if truncated_at is not None:
        truncated_at = json_ints(data, "truncated_at", 0, "presentation")
    labels = data.get("generators")
    if not isinstance(labels, list) or any(type(g) is not str for g in labels):
        raise DomainError(f"presentation field 'generators': {labels!r} is not an array of strings")
    return Presentation(tuple(labels), relators, data.get("target"), truncated_at)


def presentation_alternating(pool: Sequence, kmax: int) -> Presentation:
    """Truncation of the full alternating presentation at relator length ``kmax``.

    ``pool`` is the list of generator roots; the untruncated presentation has
    one relator per alternating tuple of every even length, so the result is
    explicitly flagged with its truncation bound.
    """
    if kmax % 2 != 0:
        raise DomainError(f"kmax must be even, got {kmax}")
    if kmax < 0:
        raise DomainError(f"kmax must be non-negative, got {kmax}")
    if kmax > MAX_K:
        raise DomainError(f"kmax {kmax} exceeds the cap {MAX_K}")
    index = {a: i for i, a in enumerate(pool)}
    # The tuples hold the pool's own objects, so each letter is looked up by
    # identity, not rehashed; the value is still ``index[a]``, the last
    # position of a root equal to ``a``, as for a pool with equal roots.
    by_id = {id(a): index[a] for a in pool}.__getitem__
    relators = []
    for k in range(2, kmax + 1, 2):
        for tup in enumerate_alternating(pool, k):
            relators.append(tuple(map(by_id, map(id, tup))))
    labels = tuple(f"g{i}" for i in range(len(pool)))
    return Presentation(labels, tuple(relators), TARGET_W, truncated_at=kmax)


def presentation_baby_w(nu: int) -> Presentation:
    """Finite presentation of the group on ``V``: involutions plus ``(g0 gi gj)^2``."""
    if nu < 0:
        raise DomainError("rank must be non-negative")
    labels = tuple(f"g{k}" for k in range(nu + 1))
    relators = [(k, k) for k in range(nu + 1)]
    for i, j in itertools.combinations(range(1, nu + 1), 2):
        relators.append((0, i, j, 0, i, j))
    return Presentation(labels, tuple(relators), TARGET_W)


def presentation_w_spre(nu: int, pairs: Iterable[tuple[int, int]]) -> Presentation:
    """Variant presentation with one extra generator per designated pair.

    For each designated pair the sextic relator is traded for an involution
    ``g(i,j)^2`` plus the defining relator ``g(i,j) g_i g_0 g_j``; pairs left
    out keep a sextic relator, written ``(g_i g_0 g_j)^2`` here.  Both are
    :func:`central_word` over the map from pair to new generator.  With no
    pairs at all this collapses to :func:`presentation_baby_w` verbatim.
    Every pair must be a tuple of two ``int`` values ``1 <= i < j <= nu``;
    anything else raises ``DomainError``.
    """
    pairs = list(pairs)
    for p in pairs:  # every given pair, before the set keeps one of two equal ones
        if not (isinstance(p, tuple) and len(p) == 2 and all(type(k) is int for k in p)
                and 1 <= p[0] < p[1] <= nu):
            raise DomainError(f"pair {p!r} is not a tuple of two ints 1 <= i < j <= {nu}")
    pairs = sorted(set(pairs))
    if not pairs:
        return presentation_baby_w(nu)
    labels = [f"g{k}" for k in range(nu + 1)] + [f"g({i},{j})" for i, j in pairs]
    pair_index = {p: nu + 1 + n for n, p in enumerate(pairs)}
    relators = [(k, k) for k in range(len(labels))]
    for i, j in itertools.combinations(range(1, nu + 1), 2):
        relators.append(central_word(pair_index, i, j))
    return Presentation(tuple(labels), tuple(relators), TARGET_W)


def presentation_hyp(base: ReflectableBase) -> Presentation:
    """Finite presentation of the extended group for an elliptic-like base.

    Involutions for every generator, and for each pair ``i < j`` one
    commutator per generator with the central word ``z_ij`` of
    :func:`central_word` over ``support_pairs(base)``: ``g_s g_i g_0 g_j``
    when base root ``s`` has support ``{i, j}``, else ``(g_i g_0 g_j)^2``.
    """
    if not is_elliptic_like(base):
        raise DomainError("the hyperbolic presentation requires an elliptic-like base")
    nu = base.rank
    m = len(base.roots) - 1
    labels = tuple(f"g{k}" for k in range(m + 1))
    pairs = support_pairs(base)
    relators = [(k, k) for k in range(m + 1)]
    for i, j in itertools.combinations(range(1, nu + 1), 2):
        z = central_word(pairs, i, j)
        z_inv = z[::-1]
        for k in range(m + 1):
            relators.append((k,) + z + (k,) + z_inv)
    return Presentation(labels, tuple(relators), TARGET_WT)


def headline_relator_count(nu: int) -> int:
    """The advertised relator count nu*(nu+1)/2 + nu + 1 for the baby family.

    ``presentation_hyp`` emits one commutator per generator and pair, which
    matches this count at nu = 2 but exceeds it for nu >= 3; both numbers are
    surfaced so the discrepancy stays visible.
    """
    return nu * (nu + 1) // 2 + nu + 1


@dataclass(frozen=True)
class VerificationReport:
    target: str
    checked: int
    failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_presentation(p: Presentation, target: str, base: ReflectableBase) -> VerificationReport:
    """Evaluate every relator in the chosen group; report the ones that survive.

    A label is one of the spellings the constructors write: ``g<k>`` for base
    root ``k``, and ``g(i,j)`` for ``1 <= i, j <= rank``, standing for the
    word ``g_j g_0 g_i``.  Any other label is a ``DomainError``.
    """
    if target not in (TARGET_W, TARGET_WT):
        raise DomainError(f"unknown target group {target!r}")
    word_of = {f"g{k}": (k,) for k in range(len(base.roots))}
    span = range(1, base.rank + 1)
    word_of.update({f"g({i},{j})": (j, 0, i) for i, j in itertools.product(span, span)})
    try:
        expansions = [word_of[label] for label in p.generators]
    except KeyError as exc:
        raise DomainError(f"unresolvable generator label {exc.args[0]!r}") from None
    failures = []
    for n, rel in enumerate(p.relators):
        indices = tuple(itertools.chain.from_iterable(expansions[g] for g in rel))
        word = Word.from_indices(base, indices)
        if target == TARGET_W:
            trivial = eval_word(word).is_identity
        else:
            trivial = eval_word_hyp(word).is_identity
        if not trivial:
            failures.append(n)
    return VerificationReport(target, len(p.relators), tuple(failures))


# ---------------------------------------------------------------------------
# Reduction certificates
# ---------------------------------------------------------------------------

RULE_CANCEL = "cancel-involution"
RULE_REVERSE = "triple-reverse"
RULE_DELETE = "delete-relator"

MACRO_CANCEL = "cancel"
MACRO_DELETE = "delete-relator"
MACRO_BUBBLE = "bubble"


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One rule application: ``pos`` is 0-based in the word before the step."""

    rule: str
    pos: int
    payload: tuple[int, ...]
    before_len: int
    after_len: int


_StepTwin = mutable_twin(RewriteStep)


def _step(rule: str, pos: int, payload: tuple[int, ...], before_len: int, after_len: int) -> RewriteStep:
    """``RewriteStep(rule, pos, payload, before_len, after_len)``, built through its twin."""
    step = _StepTwin()
    step.rule = rule
    step.pos = pos
    step.payload = payload
    step.before_len = before_len
    step.after_len = after_len
    step.__class__ = RewriteStep
    return step


@dataclass(frozen=True)
class RewriteCertificate:
    start: tuple[int, ...]
    steps: tuple[RewriteStep, ...]
    macros: tuple[tuple[int, int, str], ...]
    final_empty: bool


def certificate_to_dict(cert: RewriteCertificate) -> dict:
    return {
        "start": list(cert.start),
        "steps": [
            {
                "rule": s.rule,
                "pos": s.pos,
                "payload": list(s.payload),
                "before_len": s.before_len,
                "after_len": s.after_len,
            }
            for s in cert.steps
        ],
        "macros": [[a, b, kind] for a, b, kind in cert.macros],
        "final_empty": cert.final_empty,
    }


def _require_sequence(value: object, what: str) -> None:
    """Raise ``DomainError`` naming ``what`` unless ``value`` has a length, as a tuple or a list has."""
    try:
        len(value)
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
    """A live word over ``g_0..g_nu`` changed only by elementary moves.

    A move inserts or deletes the block of one relator (:func:`move_block`)
    at an ``int`` position; a move that does not apply raises
    ``DomainError``.  Inserted letters must not exceed ``g_nu``.
    """

    def __init__(self, indices: Sequence[int], nu: int):
        self.word = list(indices)
        self.nu = nu

    def insert(self, pos: int, gens: tuple[int, ...]) -> tuple[int, ...]:
        block = move_block(gens)
        n = len(self.word)
        if not (type(pos) is int and 0 <= pos <= n) or max(block) > self.nu:
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

    def apply(self, step: RewriteStep) -> None:
        """Apply one certificate step by elementary moves, checking its payload."""
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

    def __init__(self, indices: Sequence[int], nu: int):
        super().__init__(indices, nu)
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


class _Script(NamedTuple):
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


def _script_alone(triple: tuple[int, int, int], nu: int) -> _Script | tuple[()]:
    """The script of ``reverse_triple(0)`` on the isolated ``triple`` at ``nu``, or ``()`` if it has none.

    An expansion that raises, moves nothing, does not end in ``c b a``, or
    breaks the hull rule gives no script.  Only the triple's nonzero letters
    occur in its words, so the cost does not grow with ``nu``.
    """
    a, b, c = triple
    run = _Recorder(triple, nu)
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
    return _Script(
        tuple((*move, slot_of[e]) for move, e in zip(run.moves, bases)),
        tuple(points),
        (slot_of[at[-1][1]], slot_of[at[-1][2]]),
    )


LEMMA_CAP = 1 << 16  # scripts held at most by the table, over every key


class _LemmaTable:
    """The scripts proved in this process, one table per key ``(WordMoves.reverse_triple, nu)``.

    At most ``LEMMA_CAP`` scripts are held in all: proving one more first
    empties the table.  Callers pass triples of exact ``int`` letters only.
    """

    def __init__(self) -> None:
        self.tables: dict[tuple, dict[tuple[int, int, int], _Script | tuple[()]]] = {}
        self.size = 0

    def clear(self) -> None:
        self.tables.clear()
        self.size = 0

    def table(self, nu: int) -> dict[tuple[int, int, int], _Script | tuple[()]]:
        """The scripts of the current expansion at ``nu``, to read only (an empty dict if none)."""
        return self.tables.get((WordMoves.reverse_triple, nu), {})

    def script(self, triple: tuple[int, int, int], nu: int) -> _Script | tuple[()]:
        """The script of ``triple`` at ``nu`` (``()`` for none), proved and recorded on a miss."""
        script = self.table(nu).get(triple)
        if script is None:
            script = _script_alone(triple, nu)
            if self.size >= LEMMA_CAP:
                self.clear()
            self.tables.setdefault((WordMoves.reverse_triple, nu), {})[triple] = script
            self.size += 1
        return script


# The one table of proved reversals, cited by certificate replay, loop tracing and trace replay.
_REVERSALS = _LemmaTable()


class ReplayedCertificate:
    """The words a replayed certificate passes through, rebuilt on demand.

    ``replay_certificate`` runs the checked replay of :meth:`_live` once before
    it returns this view, which keeps the certificate, ``nu`` and the final
    word only.  Entry ``k`` is the word after ``k`` steps, a fresh
    ``list[int]``: the final word is copied, any other entry (and iteration)
    replays the steps again from the start, with the same checks, citing
    the process's lemma table (see the module docstring).  Negative
    indices count from the end as for a list; a slice replays once and
    returns a list of the entries it selects.  ``reversed(view)`` is a
    ``TypeError``, as it would replay once per entry: ``view[::-1]`` reads
    the words backwards in one replay.
    """

    __reversed__ = None

    def __init__(self, cert: RewriteCertificate, nu: int):
        self.cert = cert
        self.nu = nu
        self._final: list[int] = []

    def __len__(self) -> int:
        return len(self.cert.steps) + 1

    def _live(self) -> Iterator[list[int]]:
        """The one live word after 0, 1, 2, ... checked steps; callers copy what they keep.

        A cancel goes straight to ``WordMoves.delete``, which splices a
        ``g_k^2`` in place, and a reversal of ``int`` letters with a script,
        or with ``a == c``, swaps ``word[q]`` and ``word[q + 2]``; any other
        step goes through ``WordMoves.apply``, so each accepts and rejects
        (with the same message) as the full expansion does.  The scripts are
        read from the table the whole process shares, fetched once here for
        the current expansion and ``nu``; a triple it lacks is proved once
        and added.  Step lengths must be exact ``int``s, and an entry
        without the fields of a ``RewriteStep`` is a ``DomainError`` naming it.
        """
        moves = WordMoves(self.cert.start, self.nu)
        word = moves.word  # changed in place by every move
        scripts = _REVERSALS.table(self.nu)
        yield word
        for k, step in enumerate(self.cert.steps):
            try:
                before, after, rule, q, payload = step.before_len, step.after_len, step.rule, step.pos, step.payload
            except AttributeError:
                raise DomainError(f"certificate entry {k} is not a RewriteStep: {step!r}") from None
            if type(before) is not int or type(after) is not int:
                raise DomainError(f"step lengths {before!r} -> {after!r} are not both ints")
            if len(word) != before:
                raise DomainError("certificate does not chain: length mismatch")
            if type(q) is not int or q < 0 or type(payload) is not tuple:
                moves.apply(step)
            elif rule == RULE_CANCEL and len(payload) == 1:
                moves.delete(q, payload)
            elif rule == RULE_REVERSE and len(payload) == 3 and (
                (triple := tuple(word[q : q + 3])) == payload
            ):
                a, b, c = triple
                # Exact ints only: (True, 0, 2) hashes and compares like (1, 0, 2).
                ok = type(a) is type(b) is type(c) is int and (a == c or scripts.get(triple))
                if ok is None:
                    ok = _REVERSALS.script(triple, self.nu)
                    scripts = _REVERSALS.table(self.nu)
                if ok:
                    word[q], word[q + 2] = c, a
                else:
                    moves.reverse_triple(q)
            else:
                moves.apply(step)
            if len(word) != after:
                raise DomainError("step length bookkeeping does not match")
            yield word

    def __iter__(self) -> Iterator[list[int]]:
        for word in self._live():
            yield word[:]

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            keep = range(n)[index]
            states = itertools.islice(enumerate(self._live()), max(keep, default=-1) + 1)
            kept = {k: word[:] for k, word in states if k in keep}
            return [kept[k] for k in keep]
        k = operator.index(index)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError(f"state index {index} out of range for {n} states")
        if k == n - 1:
            return self._final[:]
        return next(itertools.islice(self._live(), k, None))[:]


def replay_certificate(cert: RewriteCertificate) -> ReplayedCertificate:
    """Check every step of ``cert`` on one live word; the states as a lazy view.

    Every step is replayed as relator moves, so a certificate that replays
    proves its word trivial from the relators alone.  A triple reversal is
    expanded into relator moves once per process for each distinct triple
    of ``int`` letters (keyed by expansion and ``nu``) and cited after that
    as one swap, by this call and every later one (the lemmas of the module
    docstring); the call accepts and rejects what expanding every reversal
    would.  Replay inserts only ``g_0`` and letters already in the word, so
    the largest ``int`` start letter bounds what it may insert.  A step
    that does not apply, a length that is not an ``int`` or does not
    chain, a ``final_empty`` that is not a ``bool``, or a claimed empty
    word that is not reached raises ``DomainError`` here, before anything
    is returned.  No intermediate word is stored, so memory is O(word
    length); the returned :class:`ReplayedCertificate` rebuilds the words
    when they are read.
    """
    if type(cert.final_empty) is not bool:
        raise DomainError(f"final_empty {cert.final_empty!r} is not a bool")
    _require_sequence(cert.start, "certificate start")
    _require_sequence(cert.steps, "certificate steps")
    view = ReplayedCertificate(cert, max((g for g in cert.start if type(g) is int), default=0))
    for word in view._live():
        pass
    if cert.final_empty and word:
        raise DomainError("certificate claims the empty word but replay does not reach it")
    view._final = word
    return view


class _Rewriter:
    """One run of the macro strategy: the live word, its steps, and two windows.

    No adjacent equal pair starts outside ``[lo, hi)``, and no relator block
    starts outside ``[rlo, rhi)``.  Every cut and every reversal widens them
    by the starts it can affect, and a search that finds nothing empties its
    window, so a search reads only where a pair or a block can be new.
    """

    def __init__(self, indices: Sequence[int], nu: int):
        self.word = list(indices)
        self.nu = nu
        self.steps: list[RewriteStep] = []
        self.lo, self.hi = 0, len(self.word)
        self.rlo, self.rhi = 0, len(self.word)

    def macro(self) -> str:
        """Run one macro, appending its steps; returns the kind.

        Cancel the leftmost pair until none is left (the cascade); if none
        was, delete the leftmost block ``0 i j 0 i j`` (``1 <= i < j <= nu``);
        if none is, bubble.  A search that finds something at ``q`` sets its
        scan floor to ``q``, and both cuts, of 2 or 6 letters at ``q``, take
        one block: a new pair or block can only cross the seam at ``q``.

        A bubble starts on a word with no pairs, so reversing ``word[c:c+3]``
        can pair only at ``c - 1`` or ``c + 2``; the first pair it makes ends
        it, and the cascade cancels that pair and all it unlocks.  Letters of
        a relation word split evenly between even and odd positions, so the
        partner (the first odd position holding the first letter) exists and
        the moving letter pairs with it at the latest when it arrives next to
        it: running off the end of the word means the word was no relation.
        The windows live in locals and are written back once, at the end.
        """
        word, nu, append = self.word, self.nu, self.steps.append
        n = start = len(word)
        lo, hi, rlo, rhi = self.lo, self.hi, self.rlo, self.rhi
        kind = MACRO_CANCEL
        while True:
            q, end = lo, (hi if hi < n else n - 1)
            while q < end and word[q] != word[q + 1]:
                q += 1
            if q < end:
                lo = q  # the scan found no pair before q
                rule, m, payload = RULE_CANCEL, 2, (word[q],)
            else:
                lo, hi = n, 0
                if n < start:  # the cascade after a cancel or a bubble is over
                    break
                for q in range(rlo, rhi if rhi < n - 5 else n - 5):
                    i, j = word[q + 1], word[q + 2]
                    if (
                        word[q] == 0
                        and word[q + 3] == 0
                        and word[q + 4] == i
                        and word[q + 5] == j
                        and 1 <= i < j <= nu
                    ):
                        rlo = q  # the scan found no block before q
                        rule, m, payload, kind = RULE_DELETE, 6, tuple(word[q : q + 6]), MACRO_DELETE
                        break
                else:
                    rlo, rhi = n, 0
                    for c in range(0, n - 2, 2):
                        a, b, x = word[c], word[c + 1], word[c + 2]
                        if a == x:
                            continue  # palindromic triple: the reversal would be a no-op
                        append(_step(RULE_REVERSE, c, (a, b, x), n, n))
                        word[c], word[c + 2] = x, a
                        if c - 5 < rlo:  # the blocks through c .. c + 2 start at c - 5 .. c + 2
                            rlo = c - 5 if c > 5 else 0
                        if c + 3 > rhi:
                            rhi = c + 3
                        if c and word[c - 1] == x:
                            lo, hi = c - 1, c + 3
                            break
                        if c + 3 < n and word[c + 3] == a:
                            lo, hi = c + 2, c + 3
                            break
                    else:
                        raise InternalCheckError("bubble found no partner; input was not a relation word")
                    kind = MACRO_BUBBLE
                    continue
            # The one cut, then the window rule: shift the upper bounds past the
            # cut and widen the windows to pairs at q - 1 and blocks at q - 5 .. q.
            # Comparisons, not min/max calls: this runs once per cancellation.
            append(_step(rule, q, payload, n, n - m))
            del word[q : q + m]
            n -= m
            p = q - 1 if q > 1 else 0
            if p < lo:
                lo = p
            p = q - 5 if q > 5 else 0
            if p < rlo:
                rlo = p
            hi -= m
            if hi < q:
                hi = q
            rhi -= m
            if rhi <= q:
                rhi = q + 1
            if m == 6:  # a relator deletion ends its macro
                break
        self.lo, self.hi, self.rlo, self.rhi = lo, hi, rlo, rhi
        return kind


def rewrite_to_identity(indices: Sequence[int], nu: int) -> RewriteCertificate:
    """Reduce a relation word over the baby-base generators to the empty word.

    Precondition (checked): ``indices`` is a sequence (an iterator would be
    used up by the checks) holding a relation word over the baby-base
    generators ``0..nu``, each letter an ``int``, and ``nu`` is an ``int``
    >= 0.  Each macro shortens the word by at least two.

    A certificate of a length-``L`` word has at most ``L**2/8 + L/2`` steps.
    Every cut removes two or six letters, so there are at most ``L/2`` cuts.
    Lengths stay even and each macro removes at least two letters, so the
    macros start at distinct lengths ``n`` among ``L, L - 2, .., 2``.  A
    bubble on length ``n`` reverses only at even ``c <= n - 4``, at most
    ``n/2 - 1`` times, so a run makes at most ``L**2/8 - L/4`` reversals.
    """
    if type(nu) is not int or nu < 0:
        raise DomainError(f"nu {nu!r} is not an int >= 0")
    _require_sequence(indices, "word indices")
    for g in indices:
        if type(g) is not int or not 0 <= g <= nu:
            raise DomainError(f"letter {g!r} is not an int in the generator range 0..{nu}")
    # Over the baby base g_0 adds nothing to the alternating sum and g_k
    # (k >= 1) adds +-s_k by the parity of its position: a relation has even
    # length and each g_k as often at even positions as at odd ones.  Both
    # hold exactly when every letter is (g_0 too, as the halves are equally long).
    even = Counter(itertools.islice(indices, 0, None, 2))
    if even != Counter(itertools.islice(indices, 1, None, 2)):
        raise DomainError("the word is not a relation, no reduction certificate exists")
    rewriter = _Rewriter(indices, nu)
    macros: list[tuple[int, int, str]] = []
    while rewriter.word:
        start = len(rewriter.steps)
        kind = rewriter.macro()
        macros.append((start, len(rewriter.steps), kind))
    return RewriteCertificate(tuple(indices), tuple(rewriter.steps), tuple(macros), True)

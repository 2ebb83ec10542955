"""Presentations of the two groups, soundness checks, and reduction certificates.

The rewriting system lives over the baby-base generators ``g_0..g_nu``.  Its
rules are the involutions ``g_k^2``, the six-letter relators
``(g_0 g_i g_j)^2`` for ``1 <= i < j <= nu``, and the triple reversal
``g_a g_b g_c -> g_c g_b g_a`` (a consequence of the relators).  Every
relation word reduces to the empty word by the macro strategy below.  Replay
trusts only the relators: it applies each certificate step as elementary
moves, each inserting or deleting one relator block, and realises every
triple reversal by such moves or cites it as a lemma (the ``moves`` module).

A macro does the first of three things that applies: cancel the leftmost
adjacent pair ``g_k g_k`` and then every pair that unlocks (a cascade);
delete the leftmost relator block ``0 i j 0 i j`` (``1 <= i < j <= nu``); or
bubble the first letter toward its opposite-parity partner by triple
reversals until a pair appears, and cancel that cascade.

The first macro, on the word as given, cancels the leftmost pair until none
is left: that is the word's free reduction, and a left-to-right stack
cancels in the same order, since the stack holds a prefix with no adjacent
pair and so meets the next letter at the leftmost pair there is.  The
rewriter runs it as one pass over the letters, then finds "leftmost" in
the reduced word without rescanning from position 0, by three invariants:

- *Pair window.*  No adjacent equal pair starts outside ``[lo, hi)``.  The
  window starts empty, as the reduced word has no pair.  A cut of 2 or 6
  letters at ``q`` sets ``lo = min(lo, max(q - 1, 0))`` and shifts ``hi``
  by the cut length, keeping it past ``q - 1``; a scan that finds nothing
  leaves ``lo`` at the end of the word and the window empty.
- *Bubble check.*  A bubble starts on a word with no pairs, and reversing
  ``word[c:c+3]`` can make a pair only at ``c - 1`` or ``c + 2``, so only
  those two positions are tested after each reversal.
- *Relator window.*  No relator block starts outside ``[rlo, rhi)``, which
  starts as the whole reduced word.  A cut at ``q`` shifts the bounds past
  ``q`` by the cut length, then widens the window to cover the starts
  ``q - 5 .. q``; a reversal at ``c`` widens it to cover ``c - 5 .. c + 2``;
  a search reads only the window.

So a cancellation or a bubble step reads O(1) letters, and the certificate
is the one a rescan from position 0 after every change would give.  One
function runs every macro, keeping the word, the steps, the macro spans and
the four window bounds in local variables.

The rewriter writes each step into the typed columns of
:class:`StepColumns` (a rule code, a position, the payload letters) and
builds no record: a ``RewriteStep`` is built only when one is read, and the
sequence reads, compares, hashes and prints as the tuple of its records.
Replay is still an independent check: it applies every recorded step to a
fresh copy of the start, by the same checks whether the steps are columns
or records.  Reading columns it skips only what their types and their
derivation make true, namely the field reads of each record with the test
that its lengths are exact ``int``s, and the length bookkeeping after the
start: each ``before_len`` and ``after_len`` follows from the start's
length and the cuts, which replay makes itself.  The other reads of a
certificate are here too: :func:`move_widths` and :func:`check_certificate`.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from collections.abc import Iterable, Iterator, MutableSequence, Sequence
from contextlib import suppress
from dataclasses import dataclass

from .errors import DomainError, InternalCheckError
from .hyperbolic import central_word, eval_word_hyp
from .lattice import I64_MAX, ReflectableBase, is_elliptic_like, mutable_twin, support_pairs
from .moves import (RULE_CANCEL, RULE_DELETE, RULE_REVERSE, RecordColumns, WordMoves, require_sequence,
                    reversal_width, reversible, shapes_proved)
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
        # The fields as presentation_from_dict reads them: exact ints, the relators as tuples.
        fields = {"relators": self.relators, "truncated_at": self.truncated_at}
        relators = json_ints(fields, "relators", 2, "presentation")
        if self.truncated_at is not None:
            json_ints(fields, "truncated_at", 0, "presentation")
        n = len(self.generators)
        for rel in relators:
            for g in rel:
                if not 0 <= g < n:
                    raise DomainError(f"relator index {g} out of range for {n} generators")
        object.__setattr__(self, "relators", relators)


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
    labels = data.get("generators")
    if not isinstance(labels, list) or any(type(g) is not str for g in labels):
        raise DomainError(f"presentation field 'generators': {labels!r} is not an array of strings")
    return Presentation(tuple(labels), relators, data.get("target"), data.get("truncated_at"))


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


def _rows(length: int, rules: bytes, positions: Sequence[int],
          letters: Sequence[int]) -> Iterator[tuple[str, int, tuple[int, ...], int, int]]:
    """The fields ``(rule, pos, payload, before_len, after_len)`` of the steps of the columns.

    ``length`` is the word's length before the first step.  A step's code
    is the width of its payload (the ``StepColumns`` docstring): a
    cancellation of code 1 removes two letters, a deletion of code 6 six.
    """
    n, o = length, 0
    # Indexing, not a slice: an array slice costs more than the tuple.
    for code, q in zip(rules, positions):
        if code == 1:
            yield RULE_CANCEL, q, (letters[o],), n, n - 2
            n -= 2
        elif code == 3:
            yield RULE_REVERSE, q, (letters[o], letters[o + 1], letters[o + 2]), n, n
        else:
            yield RULE_DELETE, q, tuple(letters[o : o + 6]), n, n - 6
            n -= 6
        o += code


class StepColumns(RecordColumns):
    """The steps of a library-built certificate, held as columns; a ``RewriteStep`` is built when read.

    ``rules`` holds one code per step, the width of its payload: 1 for a
    cancellation, 3 for a reversal, 6 for a relator deletion.  ``positions``
    holds the steps' ``pos`` and ``letters`` their payloads one after
    another, both ``array('q')``, so every entry is an exact ``int``.
    ``before_len`` and ``after_len`` follow from ``length``, the length of
    the start, and the cuts of the steps before.  The constructor refuses
    columns of other types or of lengths that do not match (``DomainError``).

    The sequence reads, compares, hashes, prints and pickles as the tuple of
    its records (``moves.RecordColumns``).
    """

    __slots__ = ("length", "rules", "positions", "letters")
    COLUMNS = ("length", "rules", "positions", "letters")

    def __init__(self, length: int, rules: bytes, positions: array, letters: array):
        if not (type(length) is int and type(rules) is bytes and type(positions) is array
                and type(letters) is array and positions.typecode == letters.typecode == "q"
                and rules.count(1) + rules.count(3) + rules.count(6) == len(rules) == len(positions)
                and len(rules) + 2 * rules.count(3) + 5 * rules.count(6) == len(letters)):
            raise DomainError("the columns do not hold the codes, positions and letters of certificate steps")
        self.length, self.rules, self.positions, self.letters = length, rules, positions, letters

    def __iter__(self) -> Iterator[RewriteStep]:
        return itertools.starmap(_step, _rows(self.length, self.rules, self.positions, self.letters))

    def __len__(self) -> int:
        return len(self.rules)


def move_widths(steps: Sequence) -> bytes:
    """The number of elementary moves each step of ``steps`` stands for, one byte a step: 1, 4 or 14.

    A cancellation or a relator deletion stands for one move, a reversal for
    the moves of its proved expansion (:func:`_proved_width`).  Over
    columns, whose letters are exact ``int``s, each distinct triple is
    tested once: at commutator n = 320 (103 680 steps) this loop takes
    28 ms, where a test of the predicate per row takes 41 ms (best of 7,
    2-vCPU Xeon VM, Python 3.11).  An entry that is not a step is a
    ``DomainError``.
    """
    widths = bytearray()
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
    return bytes(widths)


def _proved_width(triple: object, k: int) -> int:
    """The number of moves of the reversal of ``triple`` by step ``k``; ``DomainError`` unless it is proved."""
    if not (type(triple) is tuple and len(triple) == 3 and reversible(*triple)):
        raise DomainError(f"certificate step {k} reverses {triple!r}, which has no proved script")
    return reversal_width(triple)


@dataclass(frozen=True)
class RewriteCertificate:
    start: tuple[int, ...]
    steps: Sequence[RewriteStep]  # a StepColumns when the rewriter built it
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


def _checked_steps(steps: Iterable, word: list[int]) -> Iterator[tuple[int, int, object, int, int]]:
    """The entries of ``steps`` as the replay loop reads steps: ``(code, pos, src, 0, after_len)``, checked.

    An entry whose ``pos`` is an ``int >= 0`` and whose payload is a tuple
    of the width its rule's code names comes with that code and its payload
    as ``src``, read from offset 0 as the columns' letters are.  Any other
    entry comes with code 0 and itself as ``src``.  Before that, an entry
    without the fields of a ``RewriteStep`` is a ``DomainError`` naming it,
    and so are step lengths that are not exact ``int``s or a ``before_len``
    that is not the length of the live ``word``.
    """
    for k, step in enumerate(steps):
        try:
            before, after, rule, q, payload = step.before_len, step.after_len, step.rule, step.pos, step.payload
        except AttributeError:
            raise DomainError(f"certificate entry {k} is not a RewriteStep: {step!r}") from None
        if type(before) is not int or type(after) is not int:
            raise DomainError(f"step lengths {before!r} -> {after!r} are not both ints")
        if len(word) != before:
            raise DomainError("certificate does not chain: length mismatch")
        code = 0
        if type(q) is int and q >= 0 and type(payload) is tuple:
            width = len(payload)
            if (width == 1 and rule == RULE_CANCEL or width == 3 and rule == RULE_REVERSE
                    or width == 6 and rule == RULE_DELETE):
                code = width
        yield code, q, payload if code else step, 0, after


def _apply_steps(moves: WordMoves, feed: Iterable[tuple[int, int, object, int, int | None]]) -> None:
    """Apply every step of ``feed`` to the live word of ``moves``, checked; the one step loop of the library.

    Replay, its states, :func:`check_certificate`, ``replay_trace`` and a
    read of a trace's moves all run here.  A step is read as ``(code, pos,
    src, o, after_len)``: its payload is ``src[o : o + code]``, and an
    ``after_len`` of ``None`` follows from the cuts (``ReplayedCertificate._feed``).

    Two shortcuts are taken only when ``type(moves) is WordMoves``, a rule
    that any later replay of a run of steps in one operation keeps too.  A
    cancellation is spliced in place after the checks of ``move_block`` and
    the block test of ``WordMoves.delete`` on exact types, inlined (a call
    per cancellation costs about 9% of a certify op): the one ``g_k^2``
    shortcut of the library, written here alone.  A reversal that
    ``moves.reversible`` proves (inlined, its comparisons first, the proof
    read once per call) swaps ``word[q]`` and ``word[q + 2]``.  Any other
    cancellation goes through ``moves.delete``, reversal through
    ``moves.reverse_triple``, relator deletion through ``moves.apply_rule``
    and entry of code 0 through ``moves.apply``.  So a subclass, such as the tracer a read runs, makes
    every move itself and never reads the proof, and each step accepts and
    rejects (with the same message) as the full expansion does.
    """
    word = moves.word  # changed in place by every move
    exact = type(moves) is WordMoves
    cited = exact and shapes_proved()
    for code, q, src, o, after in feed:
        if code == 1:
            k = src[o]
            if exact and type(k) is int and k >= 0 and 0 <= q < len(word) - 1 and word[q] == k == word[q + 1]:
                del word[q : q + 2]
            else:
                moves.delete(q, (k,))
        elif code == 3:
            payload = (src[o], src[o + 1], src[o + 2])
            if q < 0 or (triple := tuple(word[q : q + 3])) != payload:
                moves.apply_rule(RULE_REVERSE, q, payload)  # refuses the step, with its message
            else:
                a, b, c = triple
                if (a != b != c != a and type(a) is type(b) is type(c) is int and a >= 0 and b >= 0 and c >= 0
                        and cited):
                    word[q], word[q + 2] = c, a
                else:
                    moves.reverse_triple(q)
        elif code == 6:
            moves.apply_rule(RULE_DELETE, q, tuple(src[o : o + 6]))
        else:
            moves.apply(src)
        if after is not None and len(word) != after:
            raise DomainError("step length bookkeeping does not match")


class ReplayedCertificate:
    """The words a replayed certificate passes through, rebuilt on demand.

    ``replay_certificate`` runs the checked replay of :meth:`_replay` once
    before it returns this view, which keeps the certificate and the final
    word only.  Entry ``k`` is the word after ``k`` steps, a fresh
    ``list[int]``: the final word is copied once a replay has kept it, any
    other entry (and iteration) replays the steps again from the start,
    with the same checks, citing the proved reversals (the ``moves`` module
    docstring).  Negative indices count from the end as for a list;
    a slice replays once and returns a list of the entries it selects.
    ``reversed(view)`` is a ``TypeError``, as it would replay once per
    entry: ``view[::-1]`` reads the words backwards in one replay.
    """

    __reversed__ = None

    def __init__(self, cert: RewriteCertificate):
        self.cert = cert
        self._final: list[int] | None = None  # set by ``replay_certificate``

    def __len__(self) -> int:
        return len(self.cert.steps) + 1

    def _feed(self, word: list[int]) -> Iterator[tuple[int, int, object, int, int | None]]:
        """The steps as :func:`_apply_steps` reads them, for the live ``word``.

        Steps held as :class:`StepColumns` are read straight from the
        columns, whose types make every position and letter an exact ``int``
        and whose lengths follow from the cuts, so only the start's length is
        compared with theirs; any other sequence is read through
        :func:`_checked_steps`.
        """
        steps = self.cert.steps
        if type(steps) is not StepColumns:
            return _checked_steps(steps, word)
        if len(word) != steps.length and steps.rules:
            raise DomainError("certificate does not chain: length mismatch")
        rules = steps.rules
        return zip(rules, steps.positions, itertools.repeat(steps.letters),
                   itertools.accumulate(rules, initial=0), itertools.repeat(None))

    def _live(self, moves: WordMoves | None = None) -> Iterator[list[int]]:
        """The one live word after 0, 1, 2, ... checked steps; callers copy what they keep.

        ``moves`` owns the live word: a fresh ``WordMoves`` of the start by
        default, or a subclass holding the start, such as the tracer a read
        of a ``geometry.TraceMoves`` runs.  Each step is applied by its own call
        of :func:`_apply_steps`, and a call per step (a cancellation, mostly)
        costs: iterating the states of seed 1's certify certificates (88 501
        steps) takes 62 ms, against 43 ms for :meth:`_replay`, which applies
        them all in one call, for a reader that wants only the word after
        them (Python 3.11, 2-vCPU Xeon VM).
        """
        if moves is None:
            moves = WordMoves(self.cert.start)
        yield moves.word
        for step in self._feed(moves.word):
            _apply_steps(moves, (step,))
            yield moves.word

    def _replay(self, upto: int | None = None) -> list[int]:
        """The word after the first ``upto`` checked steps (default: all), by one call of :func:`_apply_steps`.

        The list is the replay's own, so the caller may keep it.  It accepts
        and rejects each step as :meth:`_live` does, with the same message.
        """
        moves = WordMoves(self.cert.start)
        if upto != 0:  # as ``_live`` reads no step before its first state
            feed = self._feed(moves.word)
            _apply_steps(moves, feed if upto is None else itertools.islice(feed, upto))
        return moves.word

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
        if k == n - 1 and self._final is not None:
            return self._final[:]
        return self._replay(k)  # a fresh list: ``_replay`` owns its word


def replay_certificate(cert: RewriteCertificate) -> ReplayedCertificate:
    """Check every step of ``cert`` on one live word; the states as a lazy view.

    Every step is replayed as relator moves on a fresh copy of the start,
    so a certificate that replays proves its word trivial from the relators
    alone.  A reversal of three distinct ``int`` letters >= 0 is cited as
    one swap, once the expansion has reversed each of the 12 shapes of
    such a triple alone (the proof of the ``moves`` module docstring, run
    once per process); any other reversal is expanded into relator moves.
    The call accepts and rejects what expanding every reversal would.  A
    step that does not apply, a length that is not an ``int`` or does not
    chain, a ``final_empty`` that is not a ``bool``, or a claimed empty word
    that is not reached raises ``DomainError`` here, before anything is
    returned.

    Steps held as :class:`StepColumns` are read straight from the columns
    (the module docstring, ``ReplayedCertificate._feed``), any other
    sequence a record at a time.  The steps run in one loop to the end
    (``ReplayedCertificate._replay``), as does a read of one entry of the
    view; iteration and slices replay a state at a time
    (``ReplayedCertificate._live``), by the same loop body,
    :func:`_apply_steps`.  No intermediate word is stored, so memory is
    O(word length).
    """
    if type(cert.final_empty) is not bool:
        raise DomainError(f"final_empty {cert.final_empty!r} is not a bool")
    require_sequence(cert.start, "certificate start")
    require_sequence(cert.steps, "certificate steps")
    view = ReplayedCertificate(cert)
    word = view._replay()
    if cert.final_empty and word:
        raise DomainError("certificate claims the empty word but replay does not reach it")
    view._final = word
    return view


def check_certificate(cert: RewriteCertificate) -> None:
    """``InternalCheckError`` unless a certificate the library has just built replays to the empty word.

    The steps run once (``ReplayedCertificate._replay``); only a failing run
    is replayed again, a state at a time, to name the step.
    """
    replayed = ReplayedCertificate(cert)
    try:
        word = replayed._replay()
    except DomainError as exc:
        k = 0
        with suppress(DomainError):  # the replay again, a state at a time: it fails at the same step, ``k``
            for k, _ in enumerate(replayed._live()):
                pass
        raise InternalCheckError(f"certificate step {cert.steps[k]} does not apply: {exc}") from exc
    if word:
        raise InternalCheckError("reduction finished with a non-empty word")


class _NotARelation(InternalCheckError):
    """:func:`_reduce` was given a word that is not a relation; :func:`rewrite_to_identity` refuses it as a ``DomainError``."""


def _reduce(indices: Sequence[int]) -> tuple[bytes, array, MutableSequence[int], list[tuple[int, int, str]]]:
    """Run the macro strategy on a relation word to the empty word: its step columns and macro spans.

    The steps are written into the columns of :class:`StepColumns`: rule
    codes, positions and letters.  The letters are an ``array('q')`` unless
    a letter is past the 64-bit range, which makes them a list.

    A macro cancels the leftmost pair until none is left (the cascade); if
    none was, it deletes the leftmost block ``0 i j 0 i j`` (``1 <= i < j``,
    and :func:`rewrite_to_identity` has checked every letter against ``nu``);
    if none is, it bubbles.

    The first macro is the word's free reduction, one pass of a stack over
    its letters.  The stack holds a prefix with no adjacent pair, so its
    top and the next letter are the leftmost pair of the word (the stack,
    then the letters not read): the stack cancels the pairs the cascade
    would, in its order, with no window.  Its codes go into the columns in
    one piece, with one ``MACRO_CANCEL`` span if it cancelled anything.
    Then the reduced word takes the relation test of
    :func:`rewrite_to_identity`, whose answer a cancel does not change; a
    word that fails it is an ``InternalCheckError`` (``_NotARelation``).

    The later macros work on the reduced word.  No adjacent equal pair
    starts outside ``[lo, hi)``, which starts empty, and no relator block
    starts outside ``[rlo, rhi)``, which starts as the whole word.  A
    search that finds something at ``q`` sets its scan floor to ``q``, and
    one that finds nothing empties its window.  Both cuts, of 2 or 6 letters
    at ``q``, take one block: a new pair or block can only cross the seam at
    ``q``, and the windows widen by the starts the cut can affect.

    A bubble starts on a word with no pairs, so reversing ``word[c:c+3]``
    can pair only at ``c - 1`` or ``c + 2``; the first pair it makes ends
    it, and the cascade cancels that pair and all it unlocks.  Letters of
    a relation word split evenly between even and odd positions, so the
    partner (the first odd position holding the first letter) exists and
    the moving letter pairs with it at the latest when it arrives next to
    it: running off the end of the word means the word was no relation,
    which the relation test has already refused.
    """
    # The first macro, in one stack pass.  ``word`` holds the stack above a
    # sentinel, -1, which no letter equals, so a pair starts at
    # ``len(word) - 1`` once its first letter is popped.
    word, cuts, cancelled = [-1], [], []
    push, pop, add_cut, add_cancelled = word.append, word.pop, cuts.append, cancelled.append
    for x in indices:
        if x == word[-1]:
            pop()
            add_cut(len(word) - 1)
            add_cancelled(x)
        else:
            push(x)
    del word[0]
    if sorted(word[0::2]) != sorted(word[1::2]):
        raise _NotARelation("the word is not a relation, no reduction certificate exists")
    rules, positions = bytearray(b"\x01" * len(cuts)), array("q", cuts)
    letters: MutableSequence[int] = array("q", cancelled) if max(indices, default=0) <= I64_MAX else cancelled
    add_code, add_pos, add_letter = rules.append, positions.append, letters.append
    macros = [(0, len(rules), MACRO_CANCEL)] if rules else []
    n = len(word)
    lo, hi, rlo, rhi = n, 0, 0, n  # no pair is left
    while n:
        first, start, kind = len(rules), n, MACRO_CANCEL
        while True:
            q, end = lo, (hi if hi < n else n - 1)
            while q < end and word[q] != word[q + 1]:
                q += 1
            if q < end:
                lo = q  # the scan found no pair before q
                code, m = 1, 2
                add_letter(word[q])
            else:
                lo, hi = n, 0
                if n < start:  # the cascade after a cancel or a bubble is over
                    break
                for q in range(rlo, rhi if rhi < n - 5 else n - 5):
                    if word[q] == 0 == word[q + 3]:  # most starts fail here, before i and j are read
                        i, j = word[q + 1], word[q + 2]
                        if word[q + 4] == i and word[q + 5] == j and 1 <= i < j:
                            rlo = q  # the scan found no block before q
                            code, m, kind = 6, 6, MACRO_DELETE
                            letters.extend(word[q : q + 6])
                            break
                else:
                    rlo, rhi = n, 0
                    for c in range(0, n - 2, 2):
                        a, b, x = word[c], word[c + 1], word[c + 2]
                        if a == x:
                            continue  # palindromic triple: the reversal would be a no-op
                        add_code(3)
                        add_pos(c)
                        add_letter(a)
                        add_letter(b)
                        add_letter(x)
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
            add_code(code)
            add_pos(q)
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
        macros.append((first, len(rules), kind))
    return bytes(rules), positions, letters, macros


def rewrite_to_identity(indices: Sequence[int], nu: int) -> RewriteCertificate:
    """Reduce a relation word over the baby-base generators to the empty word.

    Precondition (checked): ``indices`` is a sequence (an iterator would be
    used up by the checks) holding a relation word over the baby-base
    generators ``0..nu``, each letter an ``int``, and ``nu`` is an ``int``
    >= 0.  Each macro shortens the word by at least two.  The letters are
    checked first, so a letter that only looks like one (``True``, ``1.0``,
    ``-1``, ``nu + 1``) is named before the relation test, which compares
    the sorted letters at even positions with those at odd ones.  Over the
    baby base ``g_0`` adds nothing to the alternating sum and ``g_k``
    (``k >= 1``) adds ``+-s_k`` by the parity of its position, so a relation
    has even length and each ``g_k`` as often at even positions as at odd
    ones.  Both hold exactly when every letter is (``g_0`` too, as the
    halves are equally long): when the two halves sort to the same list.

    The test is made on the word's free reduction, the first macro of
    :func:`_reduce`, which is at most as long.  Cancelling ``g_k g_k`` takes
    one ``g_k`` from each half and moves every later letter by two places,
    keeping its parity, so the reduced word's halves sort to the same list
    exactly when the word's do, and the word is refused with the same
    message.

    A certificate of a length-``L`` word has at most ``L**2/8 + L/2`` steps.
    Every cut removes two or six letters, so there are at most ``L/2`` cuts.
    Lengths stay even and each macro removes at least two letters, so the
    macros start at distinct lengths ``n`` among ``L, L - 2, .., 2``.  A
    bubble on length ``n`` reverses only at even ``c <= n - 4``, at most
    ``n/2 - 1`` times, so a run makes at most ``L**2/8 - L/4`` reversals.
    The first macro, the word's free reduction, is one pass over the
    letters (:func:`_reduce`), so a word that reduces freely to the empty
    word, such as a palindrome ``w reverse(w)``, is rewritten in linear time.
    """
    if type(nu) is not int or nu < 0:
        raise DomainError(f"nu {nu!r} is not an int >= 0")
    require_sequence(indices, "word indices")
    for g in indices:
        if type(g) is not int or not 0 <= g <= nu:
            raise DomainError(f"letter {g!r} is not an int in the generator range 0..{nu}")
    try:
        rules, positions, letters, macros = _reduce(indices)
    except _NotARelation as exc:  # the relation test, made on the reduced word
        raise DomainError(str(exc)) from None
    if type(letters) is array:
        steps = StepColumns(len(indices), rules, positions, letters)
    else:  # a letter past the 64-bit range has no typed column: the records themselves
        steps = tuple(itertools.starmap(_step, _rows(len(indices), rules, positions, letters)))
    return RewriteCertificate(tuple(indices), steps, tuple(macros), True)

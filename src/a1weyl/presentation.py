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
is the one a rescan from position 0 after every change would give.  One
function runs every macro, keeping the word, the steps, the macro spans and
the four window bounds in local variables from the first macro to the last.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .errors import DomainError, InternalCheckError
from .hyperbolic import central_word, eval_word_hyp
from .lattice import ReflectableBase, is_elliptic_like, mutable_twin, support_pairs
from .moves import REVERSALS, RULE_CANCEL, RULE_DELETE, RULE_REVERSE, WordMoves, require_sequence
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


class ReplayedCertificate:
    """The words a replayed certificate passes through, rebuilt on demand.

    ``replay_certificate`` runs the checked replay of :meth:`_live` once before
    it returns this view, which keeps the certificate and the final word
    only.  Entry ``k`` is the word after ``k`` steps, a fresh
    ``list[int]``: the final word is copied, any other entry (and iteration)
    replays the steps again from the start, with the same checks, citing
    the process's lemma table (the ``moves`` module docstring).  Negative
    indices count from the end as for a list; a slice replays once and
    returns a list of the entries it selects.  ``reversed(view)`` is a
    ``TypeError``, as it would replay once per entry: ``view[::-1]`` reads
    the words backwards in one replay.
    """

    __reversed__ = None

    def __init__(self, cert: RewriteCertificate):
        self.cert = cert
        self._final: list[int] = []

    def __len__(self) -> int:
        return len(self.cert.steps) + 1

    def _live(self) -> Iterator[list[int]]:
        """The one live word after 0, 1, 2, ... checked steps; callers copy what they keep.

        A cancel goes straight to ``WordMoves.delete``, which splices a
        ``g_k^2`` in place.  A reversal whose triple has a script in the
        table the whole process shares (``REVERSALS.script``) swaps
        ``word[q]`` and ``word[q + 2]``; any other reversal is expanded in
        place, and any other step goes through ``WordMoves.apply``, so each
        accepts and rejects (with the same message) as the full expansion
        does.  Step lengths must be exact ``int``s, and an entry without the
        fields of a ``RewriteStep`` is a ``DomainError`` naming it.
        """
        moves = WordMoves(self.cert.start)
        word = moves.word  # changed in place by every move
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
                if REVERSALS.script(triple):
                    word[q], word[q + 2] = word[q + 2], word[q]
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
    of ``int`` letters and cited after that as one swap, by this call and
    every later one (the lemmas of the ``moves`` module docstring); the
    call accepts and rejects what expanding every reversal would.  A step
    that does not apply, a length that is not an ``int`` or does not chain,
    a ``final_empty`` that is not a ``bool``, or a claimed empty word that
    is not reached raises ``DomainError`` here, before anything is returned.
    No intermediate word is stored, so memory is O(word length); the
    returned :class:`ReplayedCertificate` rebuilds the words when they are
    read.
    """
    if type(cert.final_empty) is not bool:
        raise DomainError(f"final_empty {cert.final_empty!r} is not a bool")
    require_sequence(cert.start, "certificate start")
    require_sequence(cert.steps, "certificate steps")
    view = ReplayedCertificate(cert)
    for word in view._live():
        pass
    if cert.final_empty and word:
        raise DomainError("certificate claims the empty word but replay does not reach it")
    view._final = word
    return view


def _reduce(indices: Sequence[int]) -> tuple[list[RewriteStep], list[tuple[int, int, str]]]:
    """Run the macro strategy on a relation word to the empty word: its steps and macro spans.

    A macro cancels the leftmost pair until none is left (the cascade); if
    none was, it deletes the leftmost block ``0 i j 0 i j`` (``1 <= i < j``,
    and :func:`rewrite_to_identity` has checked every letter against ``nu``);
    if none is, it bubbles.  No adjacent equal pair starts outside
    ``[lo, hi)``, and no relator block starts outside ``[rlo, rhi)``.  A
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
    it: running off the end of the word means the word was no relation.
    """
    word = list(indices)
    steps: list[RewriteStep] = []
    append = steps.append
    macros: list[tuple[int, int, str]] = []
    n = len(word)
    lo, hi, rlo, rhi = 0, n, 0, n
    while n:
        first, start, kind = len(steps), n, MACRO_CANCEL
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
                    if word[q] == 0 and word[q + 3] == 0 and word[q + 4] == i and word[q + 5] == j and 1 <= i < j:
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
        macros.append((first, len(steps), kind))
    return steps, macros


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
    require_sequence(indices, "word indices")
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
    steps, macros = _reduce(indices)
    return RewriteCertificate(tuple(indices), tuple(steps), tuple(macros), True)

"""This suite's own references for reversals, which read no proof in ``a1weyl.moves``.

- :func:`expansion_alone` runs ``WordMoves.reverse_triple`` on an isolated
  triple and records each move as ``(kind, pos, gens)``.  The shape tests
  pin what it records, and the trace tests count a reversal's moves with it.
- :func:`expanding_replay_certificate` replays a certificate by expanding
  every reversal into relator moves: the oracle of the replay that cites
  proved reversals as one swap.  :func:`replay_outcome` reads either
  replay's states, or its error, for comparison.
"""

from __future__ import annotations

from typing import Iterator

from a1weyl import DomainError
from a1weyl.moves import WordMoves
from a1weyl.presentation import ReplayedCertificate, RewriteCertificate


class Recording(WordMoves):
    """``WordMoves`` that records each move it makes in ``moves``."""

    def __init__(self, indices):
        super().__init__(indices)
        self.moves = []

    def insert(self, pos, gens):
        block = super().insert(pos, gens)
        self.moves.append(("insert", pos, gens))
        return block

    def delete(self, pos, gens):
        block = super().delete(pos, gens)
        self.moves.append(("delete", pos, gens))
        return block


def expansion_alone(triple):
    """The moves by which ``reverse_triple(0)`` reverses the isolated ``triple``.

    ``None`` if a move raises, if no move is made, or if the word does not
    end as the triple reversed.
    """
    run = Recording(triple)
    try:
        run.reverse_triple(0)
    except DomainError:
        return None
    if not run.moves or run.word != list(reversed(triple)):
        return None
    return tuple(run.moves)


class ExpandingReplayedCertificate(ReplayedCertificate):
    def _live(self) -> Iterator[list[int]]:
        """The one live word after 0, 1, 2, ... checked steps; callers copy what they keep."""
        moves = WordMoves(self.cert.start)
        word = moves.word  # changed in place by every move
        yield word
        for step in self.cert.steps:
            if len(word) != step.before_len:
                raise DomainError("certificate does not chain: length mismatch")
            moves.apply(step)
            if len(word) != step.after_len:
                raise DomainError("step length bookkeeping does not match")
            yield word


def expanding_replay_certificate(cert: RewriteCertificate) -> ReplayedCertificate:
    """Check every step of ``cert`` on one live word; the states as a lazy view.

    Every step is replayed as relator moves, so a certificate that replays
    proves its word trivial from the relators alone.  Replay inserts only
    ``g_0`` and letters already in the word.  A step that does not apply, a
    length that does not chain, or a claimed empty word that is not reached
    raises ``DomainError`` here, before anything is returned.  No
    intermediate word is stored, so memory is O(word length); the returned
    :class:`ReplayedCertificate` rebuilds the words when they are read.
    """
    view = ExpandingReplayedCertificate(cert)
    for word in view._live():
        pass
    if cert.final_empty and word:
        raise DomainError("certificate claims the empty word but replay does not reach it")
    view._final = word
    return view


def replay_outcome(replay, cert):
    """The states of an accepted certificate, read three ways, or the error's type and message."""
    try:
        view = replay(cert)
    except Exception as exc:  # noqa: BLE001 - the oracle compares every failure
        return type(exc), str(exc)
    return list(view), view[-1], view[len(view) // 2]

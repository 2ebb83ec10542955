"""Words in the reflection generators, plus the shared text format.

A word is the formal product of the reflections in its letters, leftmost
letter acting last.  The text format is whitespace-separated tokens, each
either ``g<k>`` (the k-th root of the active base, counted from 0) or an
explicit root ``(+|-)e:<c1>,...,<cnu>`` meaning ``+-e + sum c_i*s_i``, its
numbers ASCII digits with an optional sign.  A word also holds one derived
view, :attr:`Word.terms` (the terms ``c_i p_c(a_i)`` per coordinate), which
the prefix and suffix sums of an evaluation read, with its sums
:attr:`Word.sums`, its bounds and the 64-bit flag :attr:`Word.in_band`
taken from it.  A word of base letters that :meth:`Word.from_indices` built
holds its indices, and its one derived view for the sums and the bounds is
then the counts of each index at the positions of each sign, so no
:attr:`Word.terms` is built for them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, cycle, islice
from operator import add, mul, sub
from typing import Iterable

from .errors import DomainError, WordParseError
from .lattice import I64_MAX, I64_MIN, ReflectableBase, Root, Semilattice, Vec, mutable_twin, root_in_rx


@dataclass(frozen=True)
class Word:
    """A finite product of reflections in non-isotropic roots of one rank."""

    rank: int
    letters: tuple[Root, ...]
    _planted = None  # (base.roots, indices) of a word from_indices built over a valid base: not a field

    def __post_init__(self) -> None:
        if type(self.rank) is not int:
            raise DomainError(f"word rank {self.rank!r} is not an int")
        try:
            letters = tuple(self.letters)
        except TypeError:
            raise DomainError(f"word letters {self.letters!r} are not a sequence") from None
        object.__setattr__(self, "letters", letters)
        for a in {id(a): a for a in letters}.values():  # each letter object once, in order
            if type(a) is not Root:
                raise DomainError(f"word letter {a!r} is not a Root")
            if a.rank != self.rank:
                raise DomainError(f"letter {a} has rank {a.rank}, word has rank {self.rank}")
            if a.sign == 0:
                raise DomainError("word letters must be non-isotropic roots")

    def __len__(self) -> int:
        return len(self.letters)

    @cached_property
    def terms(self) -> tuple[tuple[int, ...], ...]:
        """Per coordinate ``c``, the signed terms ``(c_1 p_c(a_1), ..., c_k p_c(a_k))``, ``c_i = (-1)^(k-i) sign(a_i)``.

        The one derived view of a word: :attr:`sums` sums them,
        ``eval_word_hyp`` takes their prefix sums and ``geometry._walk``
        their suffix sums, so every reader shares one build.  Coordinate
        ``c`` is a strided slice of the letters' coordinates laid end to
        end, times the coefficients, which starts no iterator per letter, so
        a long word sets off no cyclic collection as it is read.  Each term is a letter's coordinate up to sign, so in
        the 64-bit band.
        """
        letters, rank, k = self.letters, self.rank, len(self.letters)
        signs = islice(cycle((1, -1) if k % 2 else (-1, 1)), k)  # (-1)^(k-i) from i = 1
        coefs = list(map(mul, [a.sign for a in letters], signs))
        flat = tuple(chain.from_iterable([a.lat for a in letters]))
        return tuple([tuple(map(mul, coefs, flat[c::rank])) for c in range(rank)])

    @cached_property
    def _index_counts(self) -> tuple[Counter, Counter]:
        """``(n+, n-)``: how often each held index stands where ``(-1)^(k-i)`` is +1, and where it is -1.

        Position ``i`` (from 1) has ``k - i`` even exactly when ``i`` and
        ``k`` have one parity, so the two counts are of the strided slices
        of the indices that end at the last position and at the one before.
        """
        indices = self._planted[1]
        odd = len(indices) % 2
        return Counter(indices[1 - odd::2]), Counter(indices[odd::2])

    def _over_roots(self, op) -> tuple[int, ...]:
        """``sum_j op(n+_j, n-_j) tau_j`` per coordinate, over the held base roots ``e + tau_j``."""
        roots = self._planted[0]
        plus, minus = self._index_counts
        held = plus.keys() | minus.keys()
        weights = [op(plus.get(j, 0), minus.get(j, 0)) for j in held]
        lats = [roots[j].lat for j in held]
        if not lats:
            return (0,) * self.rank
        return tuple([sum(map(mul, column, weights)) for column in zip(*lats)])

    @cached_property
    def sums(self) -> tuple[int, ...]:
        """``t_c = sum_i c_i p_c(a_i)`` for each coordinate ``c``: the shift of the word's canonical form.

        The one sum of the whole word, which ``eval_word``,
        ``eval_word_hyp``, ``is_relation_w`` and the last entry of a path's
        ``WalkSimplices`` read, so a loop test sums its word once.  Summed
        over :attr:`terms`, unless the word holds its indices
        (:meth:`from_indices`).  Then letter ``i`` is the base root
        ``e + tau_j`` of index ``j = a_i``, of sign 1, so
        ``c_i = (-1)^(k-i)`` and ``p(a_i) = tau_j``; grouping the positions
        by index, with ``n+_j`` and ``n-_j`` the number of positions of
        ``j`` where ``c_i`` is +1 and -1 (:attr:`_index_counts`), gives
        ``t_c = sum_j tau_j[c] (n+_j - n-_j)``.
        """
        if self._planted is None:
            return tuple(map(sum, self.terms))
        return self._over_roots(sub)

    @cached_property
    def bounds(self) -> tuple[int, ...]:
        """``B_c = sum_i |p_c(a_i)|`` for each coordinate ``c``: no partial sum of ``terms[c]`` is larger in size.

        Summed over :attr:`terms`, whose entries are the ``p_c(a_i)`` up to
        sign, unless the word holds its indices (:meth:`from_indices`).
        Then ``p(a_i) = tau_j`` for the index ``j = a_i``, whose coordinates
        are 0 or 1, so ``|p_c(a_i)| = tau_j[c]``, and grouping the positions
        by index as :attr:`sums` does gives
        ``B_c = sum_j tau_j[c] (n+_j + n-_j)`` from the same counts.
        ``geometry.WalkSimplices`` reads them, and ``geometry._walk`` does not.
        """
        if self._planted is None:
            return tuple([sum(map(abs, t)) for t in self.terms])
        return self._over_roots(add)

    @cached_property
    def in_band(self) -> bool:
        """Whether every ``B_c`` of :attr:`bounds` is at most ``I64_MAX``.

        Every partial sum of ``terms[c]`` is at most ``B_c`` in size, so when
        the flag holds no partial sum leaves the 64-bit band and the sums of
        :attr:`terms` need no guard.  Otherwise ``weyl.eval_word_checked``
        is the guard of the running sum.
        ``_parsed_word`` plants the flag ``True`` when its bound on every
        ``B_c`` holds, so neither the parse nor :meth:`from_indices` builds
        a view or a bound for it.
        """
        return all(b <= I64_MAX for b in self.bounds)

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.rank != other.rank:
            raise DomainError("cannot concatenate words of different ranks")
        return Word(self.rank, self.letters + other.letters)

    @classmethod
    def empty(cls, rank: int) -> "Word":
        return cls(rank, ())

    @classmethod
    def from_indices(cls, base: ReflectableBase, indices: Iterable[int]) -> "Word":
        """The word of base generators ``indices``, each an ``int`` (not a bool) in range.

        ``indices`` is read once, into a tuple, so any iterable serves.  Over
        a valid base the word is built by :func:`_parsed_word`, past the
        letter checks: its letters are the base's roots, which pass them.
        Their coordinates are 0 or 1, so the reach is 1 and the word is
        planted ``in_band``.  The word also holds that tuple and
        ``base.roots``, from which :attr:`sums` and :attr:`bounds` are
        counted and :meth:`to_indices` answers for that base.  The held pair
        is no field: it takes no part in ``==``, ``hash`` or ``repr``, and a
        word built any other way, ``dataclasses.replace`` included, holds
        none.
        """
        roots = base.roots
        indices = tuple(indices)
        letters = []
        for k in indices:
            if type(k) is not int:
                raise DomainError(f"generator index {k!r} is not an int")
            if not 0 <= k < len(roots):
                raise DomainError(f"generator index {k} out of range 0..{len(roots) - 1}")
            letters.append(roots[k])
        if cls is Word and base.is_valid:  # a valid base has an int rank
            word = _parsed_word(base.rank, tuple(letters), 1)
            vars(word)["_planted"] = roots, indices
            return word
        return cls(base.rank, tuple(letters))

    def normalized(self) -> "Word":
        """The same group element written with sign +1 letters (w_a = w_{-a})."""
        return Word(self.rank, tuple(a.normalized() for a in self.letters))

    def reversed(self) -> "Word":
        """The inverse word: letters are involutions, so reversal inverts the product."""
        return Word(self.rank, self.letters[::-1])

    def to_indices(self, base: ReflectableBase) -> tuple[int, ...]:
        """Express every letter as a base generator; raises if one is not in the base.

        A word that :meth:`from_indices` built over this base's ``roots``
        object returns the indices it holds.  Any other word looks each
        distinct letter object up once in ``base.root_index``, in
        first-occurrence order, so the first bad letter of the word is the
        one reported.
        """
        planted = self._planted
        if planted is not None and planted[0] is base.roots:
            return planted[1]
        lookup = base.root_index
        ids = list(map(id, self.letters))
        index = {}
        for key, a in dict(zip(ids, self.letters)).items():
            k = lookup.get(a.normalized())
            if k is None:
                raise DomainError(f"letter {a} is not a generator of the base")
            index[key] = k
        return tuple(map(index.__getitem__, ids))


def _parsed_word(rank: int, letters: tuple[Root, ...], reach: int | None) -> Word:
    """A ``Word`` built without ``Word.__post_init__``; only :func:`parse_word` and ``Word.from_indices`` call it.

    Safe because every letter they hand it already passed those checks: it
    is a root of a valid base, a batch root (``_unchecked_root``: sign 1 or
    -1, ``rank`` coordinates) or a ``_parse_explicit`` root, which ``Root``
    checked and which has ``rank`` coordinates.  ``reach`` is the
    batch's ``max(-min, max, 1)`` over the word's explicit coordinates, 1
    for ``from_indices``, whose letters have 0/1 coordinates, or ``None``
    where no batch built the letters; it is at least every
    ``|p_c(a_i)|``, base roots included, so ``k * reach <= I64_MAX`` bounds
    every ``B_c`` and the word is planted with the :attr:`Word.in_band`
    ``True`` it would compute.  Otherwise the flag stays lazy.
    """
    word = object.__new__(Word)
    fields = vars(word)
    fields["rank"] = rank
    fields["letters"] = letters
    if reach is not None and len(letters) * reach <= I64_MAX:
        fields["in_band"] = True
    return word


def validate_word(s: Semilattice, word: Word) -> None:
    """Check every letter against the root system over ``s``.

    The letters' parity classes are read from :attr:`Word.terms`, which
    the evaluations reuse; a term is a coordinate up to sign, and a sign
    keeps the parity.  When the set of classes ``p(a_i) mod 2`` lies in
    ``s.coset_set``, every letter is a root of the system (a word's letters
    have its rank and a sign of 1 or -1 already).  At rank 0, or when a
    class is missing, each distinct letter object is checked in order, so
    the first bad letter is the one named.  Equal letters that are one
    object, as :func:`parse_word` shares them, are checked once there; equal
    letters built apart are each checked.
    """
    if word.rank != s.rank:
        raise DomainError(f"word has rank {word.rank}, semilattice has rank {s.rank}")
    if s.rank:
        if set(zip(*[[x & 1 for x in t] for t in word.terms])) <= s.coset_set:
            return
    for a in {id(a): a for a in word.letters}.values():
        if not root_in_rx(s, a):
            raise DomainError(f"letter {a} is not a non-isotropic root of the system")


def _parse_explicit(token: str, rank: int) -> Root:
    sign = 1 if token[0] == "+" else -1
    body = token[2:]
    if not body.startswith(":"):
        raise WordParseError(f"explicit root token {token!r} must look like '+e:c1,...'")
    coords = body[1:]
    if rank == 0:
        if coords:
            raise WordParseError(f"rank is 0 but token {token!r} carries coordinates")
        return Root(sign, ())
    parts = coords.split(",")
    if len(parts) != rank:
        raise WordParseError(f"token {token!r} has {len(parts)} coordinates, expected {rank}")
    try:
        lat = tuple(map(int, parts))
    except ValueError as exc:
        raise WordParseError(f"non-integer coordinate in token {token!r}") from exc
    return Root(sign, lat)


def parse_word(text: str, base: ReflectableBase) -> Word:
    """Parse the shared text format against the active base.

    Each distinct token is parsed once per call; roots are frozen, so its
    letters share one ``Root``.  The distinct explicit tokens are parsed in
    one batch by :func:`_parse_explicit_batch`: a shape test per token, one
    ``int`` call per distinct coordinate string and one ``min`` / ``max``
    test of the 64-bit band for the whole word.  If the batch meets
    anything it does not take (rank 0, an ``_`` or a non-ASCII character in
    the text, a token of another shape, a coordinate ``int`` refuses or one
    past the band), it builds no root, so every token goes through
    :func:`_parse_token`, which raises the first bad token's error; the
    batch never raises by itself.  ``g<k>`` tokens always go through
    :func:`_parse_token`.  The word is built by :func:`_parsed_word`, past
    the letter checks its letters have passed, unless its rank is not an
    ``int`` or it holds a ``g<k>`` of an invalid base: then the checked
    constructor raises as it does for any word.
    """
    tokens = text.split()
    rank = base.rank
    roots: dict[str, Root | None] = dict.fromkeys(tokens)
    reach = _parse_explicit_batch(roots, text, rank)
    for token, root in roots.items():  # first occurrences, in order
        if root is None:
            roots[token] = _parse_token(token, base)
    letters = tuple(map(roots.__getitem__, tokens))
    if type(rank) is not int or ("g" in text and not base.is_valid):
        return Word(rank, letters)
    return _parsed_word(rank, letters, reach)


_RootTwin = mutable_twin(Root)


def _unchecked_root(sign: int, lat: Vec) -> Root:
    """A ``Root`` built through its twin, past ``Root.__post_init__``; only the batch parse calls it.

    Safe because the batch hands it only what those checks pass: ``sign`` is
    1 or -1 (from the token's first character), ``lat`` is a tuple of
    ``int()`` results, and the batch has tested every coordinate of the word
    against the 64-bit band before building any root.
    """
    root = _RootTwin()
    root.sign = sign
    root.lat = lat
    root.__class__ = Root
    return root


def _parse_explicit_batch(roots: dict[str, Root | None], text: str, rank: int) -> int | None:
    """Fill in the root of every explicit token among the keys of ``roots``, or of none.

    Returns ``max(-min, max, 1)`` over the coordinates it read (1 when there
    are none), or ``None`` when it built no root.
    """
    if not rank or "_" in text or not text.isascii():
        return None
    explicit = [t for t in roots if t[0] != "g"]
    if not explicit:
        return 1
    commas = rank - 1
    for t in explicit:
        if t[:3] not in ("+e:", "-e:") or t.count(",") != commas:
            return None
    parts = ",".join([t[3:] for t in explicit]).split(",")
    try:
        value = {s: int(s) for s in set(parts)}  # each distinct coordinate string converted once
    except ValueError:  # also an integer past the digit limit
        return None
    coords = list(map(value.__getitem__, parts))
    lo, hi = min(value.values()), max(value.values())
    if lo < I64_MIN or hi > I64_MAX:
        return None
    for t, lat in zip(explicit, zip(*[iter(coords)] * rank)):
        roots[t] = _unchecked_root(1 if t[0] == "+" else -1, lat)
    return max(-lo, hi, 1)


def _parse_token(token: str, base: ReflectableBase) -> Root:
    # int() would also take "_" separators and non-ASCII digits such as "\u0662"
    if "_" in token or not token.isascii():
        raise WordParseError(f"token {token!r} has a non-ASCII character or an '_'")
    if token.startswith("g"):
        try:
            k = int(token[1:])
        except ValueError as exc:
            raise WordParseError(f"bad generator token {token!r}") from exc
        if not 0 <= k < len(base.roots):
            raise WordParseError(
                f"generator token {token!r} out of range 0..{len(base.roots) - 1}"
            )
        return base.roots[k]
    if token[:1] in ("+", "-") and token[1:2] == "e":
        return _parse_explicit(token, base.rank)
    raise WordParseError(f"unrecognised token {token!r}")


def format_word(word: Word, base: ReflectableBase) -> str:
    """Render a word in the text format: ``g<k>`` for a root of ``base``, else explicit."""
    lookup = base.root_index
    tokens = []
    for a in word.letters:
        k = lookup.get(a)
        if k is not None:
            tokens.append(f"g{k}")
        else:
            head = "+" if a.sign > 0 else "-"
            tokens.append(head + "e:" + ",".join(str(c) for c in a.lat))
    return " ".join(tokens)


def random_word(rng: random.Random, s: Semilattice, length: int, spread: int = 2) -> Word:
    """A random word over the root system of ``s`` with lattice parts of bounded size."""
    letters = []
    for _ in range(length):
        sign = rng.choice((1, -1))
        tau = rng.choice(s.cosets)
        lat = tuple(t + 2 * rng.randint(-spread, spread) for t in tau)
        letters.append(Root(sign, lat))
    return Word(s.rank, tuple(letters))


def random_relation_indices(rng: random.Random, nu: int, half_length: int) -> tuple[int, ...]:
    """A random relation word over the baby-base generators, as indices.

    The letters placed at even positions and at odd positions are the same
    multiset, which forces the signed letter sum to vanish; the result is a
    relation of length ``2*half_length``.
    """
    half = [rng.randint(0, nu) for _ in range(half_length)]
    odd = list(half)
    even = list(half)
    rng.shuffle(odd)
    rng.shuffle(even)
    out = []
    for a, b in zip(odd, even):
        out.extend((a, b))
    return tuple(out)

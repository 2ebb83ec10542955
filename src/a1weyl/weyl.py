"""Canonical forms and decision procedures for the reflection group on ``V``.

Every element is determined by a parity sign and a lattice vector: the word
``w_{a_1}...w_{a_k}`` evaluates to ``parity = (-1)^k`` and
``shift = sum_i (-1)^(k-i) * sign(a_i) * p(a_i)``.  A word is a relation
exactly when its length is even and the alternating signed sum of lattice
parts vanishes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Sequence

from .errors import DomainError
from .intmat import Mat, mat_identity
from .lattice import (
    I64_MAX,
    Root,
    Vec,
    checked,
    checked_vec,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
    zero_vec,
    unit_vec,
)
from .words import Word


@dataclass(frozen=True)
class WeylElement:
    """Canonical form (parity, shift) of a product of reflections."""

    parity: int
    shift: Vec

    def __post_init__(self) -> None:
        if type(self.parity) is not int or self.parity not in (-1, 1):
            raise DomainError(f"parity must be +1 or -1, got {self.parity}")
        object.__setattr__(self, "shift", checked_vec(self.shift))

    @property
    def rank(self) -> int:
        return len(self.shift)

    @property
    def is_identity(self) -> bool:
        return self.parity == 1 and not any(self.shift)


def identity_element(rank: int) -> WeylElement:
    return WeylElement(1, zero_vec(rank))


def eval_word(word: Word) -> WeylElement:
    """Canonical form of a word: its shift is ``Word.sums``, or the checked loop when ``Word.in_band`` fails."""
    if not word.in_band:
        return eval_word_checked(word)
    return WeylElement(1 if len(word) % 2 == 0 else -1, word.sums)


def eval_word_checked(word: Word) -> WeylElement:
    """``eval_word`` letter by letter, every step guarded: the one guard of a running sum.

    ``eval_word`` and ``hyperbolic.eval_word_hyp`` call it when
    ``Word.in_band`` fails; it raises exactly where a term ``c_i p(a_i)`` or
    a partial sum leaves the 64-bit band.
    """
    k = len(word)
    acc = zero_vec(word.rank)
    for i, a in enumerate(word.letters, start=1):
        coef = a.sign if (k - i) % 2 == 0 else -a.sign
        acc = vec_add(acc, vec_scale(coef, a.lat))
    return WeylElement(1 if k % 2 == 0 else -1, acc)


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """Product of canonical forms: shift(ab) = parity(b)*shift(a) + shift(b)."""
    if a.rank != b.rank:
        raise DomainError("rank mismatch in composition")
    return WeylElement(a.parity * b.parity, vec_add(vec_scale(b.parity, a.shift), b.shift))


def inverse(a: WeylElement) -> WeylElement:
    return WeylElement(a.parity, vec_scale(-a.parity, a.shift))


def power(a: WeylElement, k: int) -> WeylElement:
    """``a`` composed ``k`` times (its inverse ``-k`` times for ``k < 0``), in O(rank).

    A translation (parity 1) gives ``k * shift``.  An element of parity -1
    is an involution: ``a`` for odd ``k``, the identity for even ``k``.
    """
    if type(k) is not int:
        raise DomainError(f"power exponent must be an int, got {k!r}")
    if a.parity == 1:
        return WeylElement(1, vec_scale(k, a.shift))
    return a if k % 2 else identity_element(a.rank)


def act_on_root(a: WeylElement, beta: Root) -> Root:
    """Image of a root: ``parity*sign(b)*e + p(b) - 2*sign(b)*shift``."""
    if a.rank != beta.rank:
        raise DomainError("rank mismatch between element and root")
    return Root(
        a.parity * beta.sign,
        vec_sub(beta.lat, vec_scale(2 * beta.sign, a.shift)),
    )


def alternating_sum(word: Word) -> Vec:
    """``sum_i (-1)^i * sign(a_i) * p(a_i)`` over the letters of the word."""
    acc = zero_vec(word.rank)
    for i, a in enumerate(word.letters, start=1):
        coef = -a.sign if i % 2 == 1 else a.sign
        acc = vec_add(acc, vec_scale(coef, a.lat))
    return acc


def is_relation_w(word: Word) -> bool:
    """Word problem for the group on ``V``: even length and vanishing alternating sum.

    At even length the alternating sum is the shift, summed with the same
    coefficients.  When ``Word.in_band`` holds the answer is whether
    ``Word.sums`` vanishes, the one sum ``eval_word`` and the end of a
    path read too; otherwise :func:`eval_word` decides, so the word
    overflows where :func:`alternating_sum` would.
    """
    if len(word) % 2:
        return False
    if not word.in_band:
        return eval_word(word).is_identity
    return not any(word.sums)


def is_alternating(pool: Sequence[Root], tup: Sequence[Root]) -> bool:
    """Even-length tuples over ``pool`` whose alternating signed sum vanishes.

    That is :func:`is_relation_w`; an odd length is ``False`` before any word is built.
    """
    allowed = set(pool)
    if any(a not in allowed for a in tup) or len(tup) % 2:
        return False
    return not tup or is_relation_w(Word(tup[0].rank, tuple(tup)))


MAX_K = 12  # longest alternating tuple enumerated
MAX_LETTERS = 8  # largest pool enumerated
MAX_TUPLES = 10**6  # most alternating tuples one enumeration yields


def enumerate_alternating(pool: Sequence[Root], k: int) -> Iterator[tuple[Root, ...]]:
    """All alternating k-tuples over ``pool`` in index-lexicographic order.

    Everything is checked before the first tuple: the caps ``MAX_K`` and
    ``MAX_LETTERS``; ``OverflowError`` when ``k * max|p|`` passes ``I64_MAX``,
    which bounds every ``Word.bounds`` of a k-tuple over the pool; and
    ``DomainError`` when the count, read off the number of halves with each
    signed sum, passes ``MAX_TUPLES``.
    """
    if k < 0 or k % 2 != 0:
        raise DomainError(f"tuple length must be even and non-negative, got {k}")
    if k > MAX_K:
        raise DomainError(f"tuple length {k} exceeds the cap {MAX_K}")
    if len(pool) > MAX_LETTERS:
        raise DomainError(f"pool size {len(pool)} exceeds the cap {MAX_LETTERS}")
    return _alternating_stream(tuple(pool), k)


def _alternating_stream(pool: tuple[Root, ...], k: int) -> Iterator[tuple[Root, ...]]:
    """Check band and count, then tabulate the halves by signed sum and join those that cancel.

    Each half ``f`` (an ``h``-tuple, ``h = k/2``, in ``itertools.product``
    order) is listed with its signed sum ``s(f)`` at positions ``1..h``; at
    positions ``h+1..k`` it carries ``(-1)^h s(f)``.  So ``f + t`` is
    alternating exactly when ``s(t) = (-1)^(h+1) s(f)``, and the count is
    ``sum_s n(s) n((-1)^(h+1) s)`` over the number ``n(s)`` of halves with
    sum ``s``, which is built position by position from the distinct sums
    alone: a refused request builds no half.  Each ``f`` in turn, joined
    with its ``t`` in table order, is index-lexicographic order.
    """
    reach = max((abs(c) for a in pool for c in a.lat), default=0)
    if k * reach > I64_MAX:
        raise OverflowError(f"{k} letters of size {reach} can leave the signed 64-bit guard")
    h = k // 2
    flip = (-1) ** (h + 1)
    zero = zero_vec(pool[0].rank if pool else 0)
    steps = [[vec_scale(a.sign if pos % 2 == 0 else -a.sign, a.lat) for a in pool]
             for pos in range(1, h + 1)]
    sums = Counter({zero: 1})
    for ds in steps:
        grown: Counter[Vec] = Counter()
        for s, n in sums.items():
            for d in ds:
                grown[vec_add(s, d)] += n
        sums = grown
    count = sum(n * sums.get(vec_scale(flip, s), 0) for s, n in sums.items())
    if count > MAX_TUPLES:
        raise DomainError(f"{count} alternating {k}-tuples exceed the cap {MAX_TUPLES}")
    halves = [((), zero)]
    for ds in steps:
        halves = [(f + (a,), vec_add(s, d)) for f, s in halves for a, d in zip(pool, ds)]
    table: dict[Vec, list[tuple[Root, ...]]] = {}
    for t, s in halves:
        table.setdefault(s, []).append(t)
    partners = {s: table.get(vec_scale(flip, s), ()) for s in table}
    return (f + t for f, s in halves for t in partners[s])


def witness_word_for_element(a: WeylElement) -> Word:
    """An explicit word over the baby-base generators evaluating to ``a``.

    Built from the translation pairs ``w_e w_{e+s_i}`` and, for odd parity, a
    trailing reflection in ``e``; constructive surjectivity of the evaluation.
    """
    nu = a.rank
    e = Root(1, zero_vec(nu))
    target = a.shift if a.parity == 1 else vec_neg(a.shift)
    letters: list[Root] = []
    for i in range(1, nu + 1):
        gi = Root(1, unit_vec(nu, i))
        c = target[i - 1]
        block = (e, gi) if c >= 0 else (gi, e)
        letters.extend(block * abs(c))
    if a.parity == -1:
        letters.append(e)
    return Word(nu, tuple(letters))


def reflection_product(word: Word, n: int) -> Mat:
    """The matrix of ``w_{a_1}...w_{a_k}`` on the first ``n`` of (e, s_1..s_nu, l_1..l_nu).

    A letter ``a = (sign, p, 0)`` has pairing row ``phi = (2*sign, 0..0, p)``
    ((e,e) = 2, (s_i,l_j) = delta_ij), so ``r_a(v) = v - (v,a) a`` has matrix
    ``R_a = I - a phi^T`` and ``M R_a = M - (M a) phi^T``: each row moves by
    ``ma = sign*row[0] + sum_i p_i row[1+i]`` times ``phi``, in column 0 and
    the columns ``1+nu+j`` with ``p_j != 0`` only, which is done in place.
    ``span(e, s)`` is invariant, so ``n = nu + 1`` gives the matrix on ``V``
    and ``n = 2*nu + 1`` the hyperbolic one.

    Every changed entry is checked, row by row in column order, and every
    other one is in the band already; so a word overflows at the same letter,
    with the same message, as the full product of reflection matrices with
    each entry checked.
    """
    nu = word.rank
    rows = [list(r) for r in mat_identity(n)]
    for a in word.letters:
        sign, p = a.sign, a.lat
        duals = [(c, pj) for c, pj in enumerate(p, 1 + nu) if pj and c < n]
        for row in rows:
            ma = sign * row[0] + sum(map(mul, p, row[1 : 1 + nu]))
            if not ma:
                continue
            row[0] = checked(row[0] - 2 * sign * ma)
            for c, pj in duals:
                row[c] = checked(row[c] - pj * ma)
    return tuple(map(tuple, rows))


def matrix_of_word_w(word: Word) -> Mat:
    """Independent oracle: the product of reflection matrices on (e, s_1..s_nu)."""
    return reflection_product(word, word.rank + 1)


def matrix_of_element_w(a: WeylElement) -> Mat:
    """The matrix a canonical form must equal under the oracle representation."""
    n = a.rank + 1
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[0][0] = a.parity
    for i in range(1, n):
        rows[i][0] = -2 * a.shift[i - 1]
    return tuple(tuple(r) for r in rows)


def element_to_dict(a: WeylElement) -> dict:
    return {"eps": a.parity, "t": list(a.shift)}


def json_ints(data: dict, field: str, depth: int = 1, owner: str = "element"):
    """``data[field]``: a JSON integer (``depth`` 0), an array of them (1) or of such arrays (2).

    Floats, strings and booleans are not integers, even where ``int()`` would
    take them; they, a missing field and a non-array raise ``DomainError``
    naming the field.  Arrays come back as tuples.
    """
    name = f"{owner} field {field!r}"
    if not isinstance(data, dict) or field not in data:
        raise DomainError(f"{name} is missing")

    def read(value, depth: int):
        if not depth:
            if type(value) is not int:
                raise DomainError(f"{name}: {value!r} is not an integer")
            return value
        if not isinstance(value, (list, tuple)):
            raise DomainError(f"{name}: {value!r} is not an array")
        return tuple(read(v, depth - 1) for v in value)

    return read(data[field], depth)


def element_from_dict(data: dict) -> WeylElement:
    return WeylElement(json_ints(data, "eps", 0), json_ints(data, "t"))

"""Every relation over ``g_0..g_nu`` up to a length: counted, certified, replayed and traced.

The worlds are ``nu = 2`` up to 10 letters, ``nu = 3`` up to 8 and
``nu = 4`` up to 6.  Every word over the baby-base letters of a world is
enumerated and the relations are those ``is_relation_w`` accepts.  Their
number per length is pinned and checked against a closed form: over the
baby base a word is a relation exactly when its letters at even and at odd
positions sort alike, so there are sum over the multisets ``M`` of ``k``
letters of ``(k! / prod mult_M!)^2`` relations of length ``2k``.  Each
relation's certificate replays as the full expansion replays it, and each
relation of up to 8 letters reduces as a loop whose trace replays to its
base.
"""

import functools
import itertools
import math
from collections import Counter

import pytest

from a1weyl import (
    Word,
    baby_base,
    base_simplex,
    is_relation_w,
    path_of_word,
    reduce_loop,
    replay_certificate,
    replay_trace,
    rewrite_to_identity,
)
from references import expanding_replay_certificate, replay_outcome

# The number of relations of length 0, 2, 4, ... over g_0..g_nu, up to each world's length.
COUNTS = {
    2: (1, 3, 15, 93, 639, 4653),
    3: (1, 4, 28, 256, 2716),
    4: (1, 5, 45, 545),
}
LOOP_LETTERS = 8  # the longest relation also reduced as a loop


@functools.cache
def relations(nu, length):
    """Every word of ``length`` letters over ``g_0..g_nu`` that ``is_relation_w`` accepts."""
    crumbs = baby_base(nu)
    return [w for w in itertools.product(range(nu + 1), repeat=length) if is_relation_w(Word.from_indices(crumbs, w))]


def closed_form(letters, k):
    """The relations of length ``2k`` over ``letters`` letters: words whose even and odd halves sort alike."""
    arrangements = (math.factorial(k) // math.prod(map(math.factorial, Counter(m).values()))
                    for m in itertools.combinations_with_replacement(range(letters), k))
    return sum(a * a for a in arrangements)


def lengths(nu):
    return range(0, 2 * len(COUNTS[nu]), 2)


@pytest.mark.parametrize("nu", sorted(COUNTS))
def test_the_relations_of_each_length_are_counted_by_the_closed_form(nu):
    assert [closed_form(nu + 1, n // 2) for n in lengths(nu)] == list(COUNTS[nu])
    assert [len(relations(nu, n)) for n in lengths(nu)] == list(COUNTS[nu])


@pytest.mark.parametrize("nu", sorted(COUNTS))
def test_every_certificate_replays_as_the_full_expansion(nu):
    for n in lengths(nu):
        for w in relations(nu, n):
            cert = rewrite_to_identity(w, nu)
            expected = replay_outcome(expanding_replay_certificate, cert)
            assert expected[1] == [], w
            assert replay_outcome(replay_certificate, cert) == expected, w


@pytest.mark.parametrize("nu", sorted(COUNTS))
def test_every_short_relation_reduces_as_a_loop_that_replays_to_its_base(nu):
    crumbs, base = baby_base(nu), base_simplex(nu)
    loops = 0
    for n in lengths(nu):
        if n > LOOP_LETTERS:
            continue
        for w in relations(nu, n):
            trace = reduce_loop(path_of_word(Word.from_indices(crumbs, w), base))
            assert replay_trace(trace).simplices == (base,), w
            loops += 1
    assert loops == sum(COUNTS[nu][: LOOP_LETTERS // 2 + 1])

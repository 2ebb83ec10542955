"""Every relation over ``g_0..g_nu`` up to a length: counted, certified, replayed and traced.

The worlds are ``nu = 2`` up to 10 letters, ``nu = 3`` up to 8 and
``nu = 4`` up to 6.  Every word over the baby-base letters of a world is
enumerated and the relations are those ``is_relation_w`` accepts.  Their
number per length is pinned and checked against a closed form: over the
baby base a word is a relation exactly when its letters at even and at odd
positions sort alike, so there are sum over the multisets ``M`` of ``k``
letters of ``(k! / prod mult_M!)^2`` relations of length ``2k``.  Each
relation's certificate replays as the full expansion replays it and has
at most ``L^2/8 + L/2`` steps at length ``L``, and each relation of up to 8
letters reduces as a loop whose trace replays to its base.  Every word over
the base letters of five smaller (family, nu) cells, relation or not, has
the canonical forms of its matrix oracles.
"""

import functools
import itertools
import math
from collections import Counter

import pytest

from a1weyl import (
    ReflectableBase,
    Word,
    baby_base,
    baby_semilattice,
    base_simplex,
    is_relation_w,
    pairwise_semilattice,
    path_of_word,
    reduce_loop,
    replay_certificate,
    replay_trace,
    rewrite_to_identity,
    toroidal_semilattice,
)
from a1weyl.hyperbolic import oracles_agree
from references import expanding_replay_certificate, replay_outcome

# The number of relations of length 0, 2, 4, ... over g_0..g_nu, up to each world's length.
COUNTS = {
    2: (1, 3, 15, 93, 639, 4653),
    3: (1, 4, 28, 256, 2716),
    4: (1, 5, 45, 545),
}
# The most steps of a certificate of length 0, 2, 4, ... over g_0..g_nu.
MOST_STEPS = {
    2: (0, 1, 2, 4, 5, 8),
    3: (0, 1, 2, 4, 7),
    4: (0, 1, 2, 4),
}
LOOP_LETTERS = 8  # the longest relation also reduced as a loop
# (family, nu, most letters) -> the number of words over the base letters up to that length.
# Pairwise nu = 2 is toroidal nu = 2.
ORACLE_CELLS = {
    (baby_semilattice, 2, 7): 3280,
    (toroidal_semilattice, 2, 6): 5461,
    (baby_semilattice, 3, 6): 5461,
    (toroidal_semilattice, 3, 4): 4681,
    (pairwise_semilattice, 3, 4): 2801,
}


@functools.cache
def relations(nu, length):
    """Every word of ``length`` letters over ``g_0..g_nu`` that ``is_relation_w`` accepts."""
    crumbs = baby_base(nu)
    return [w for w in itertools.product(range(nu + 1), repeat=length) if is_relation_w(Word.from_indices(crumbs, w))]


@functools.cache
def certificates(nu, length):
    """The certificate of ``rewrite_to_identity`` for each of ``relations(nu, length)``, in order."""
    return [rewrite_to_identity(w, nu) for w in relations(nu, length)]


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
        for w, cert in zip(relations(nu, n), certificates(nu, n)):
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


@pytest.mark.parametrize("nu", sorted(COUNTS))
def test_every_certificate_has_at_most_l_squared_over_8_plus_l_over_2_steps(nu):
    most = [max(len(cert.steps) for cert in certificates(nu, n)) for n in lengths(nu)]
    assert most == list(MOST_STEPS[nu])
    assert all(8 * m <= n * n + 4 * n for m, n in zip(most, lengths(nu)))


@pytest.mark.parametrize("family, nu, most", ORACLE_CELLS)
def test_every_word_over_the_base_letters_has_the_canonical_forms_of_its_oracles(family, nu, most):
    base = ReflectableBase(family(nu))
    words = 0
    for n in range(most + 1):
        for w in itertools.product(range(len(base.roots)), repeat=n):
            assert oracles_agree(Word.from_indices(base, w)), w
            words += 1
    assert words == ORACLE_CELLS[family, nu, most]

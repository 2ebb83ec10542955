import hashlib
import json
import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a1weyl import (
    DomainError,
    ReflectableBase,
    Root,
    WeylElement,
    Word,
    act_on_root,
    baby_base,
    baby_semilattice,
    compose,
    enumerate_alternating,
    eval_word,
    identity_element,
    inverse,
    is_alternating,
    is_relation_w,
    matrix_of_element_w,
    matrix_of_word_w,
    pairwise_semilattice,
    presentation_alternating,
    reflect,
    toroidal_semilattice,
    witness_word_for_element,
)
from a1weyl.weyl import MAX_TUPLES, element_from_dict, power
from a1weyl.words import random_word

from conftest import root


E = root(1, 0, 0)
G1 = root(1, 1, 0)
G2 = root(1, 0, 1)


def word2(*letters):
    return Word(2, tuple(letters))


class TestEvalWord:
    def test_empty_is_identity(self):
        assert eval_word(Word.empty(2)) == identity_element(2)

    def test_single_reflection(self):
        assert eval_word(word2(G1)) == WeylElement(-1, (1, 0))

    def test_two_letters(self):
        assert eval_word(word2(G1, E)) == WeylElement(1, (-1, 0))

    def test_sign_normalisation_is_invisible(self):
        w = Word(2, (root(-1, -1, 0), root(1, 2, 1), root(-1, 0, 0)))
        assert eval_word(w) == eval_word(w.normalized())


class TestCompose:
    def test_identity_law(self):
        x = WeylElement(-1, (2, -3))
        assert compose(identity_element(2), x) == x
        assert compose(x, identity_element(2)) == x

    def test_matches_word_evaluation(self):
        a = eval_word(word2(G1))
        b = eval_word(word2(E))
        assert compose(a, b) == WeylElement(1, (-1, 0))
        assert compose(a, b) == eval_word(word2(G1, E))

    def test_rank_mismatch(self):
        with pytest.raises(DomainError):
            compose(identity_element(2), identity_element(3))


class TestInverse:
    def test_identity(self):
        assert inverse(identity_element(2)) == identity_element(2)

    def test_reflection_is_involutive(self):
        r = eval_word(word2(G1))
        assert inverse(r) == r

    def test_translation(self):
        assert inverse(WeylElement(1, (2, 3))) == WeylElement(1, (-2, -3))

    def test_group_law(self):
        rng = random.Random(3)
        for _ in range(100):
            x = WeylElement(rng.choice((1, -1)), (rng.randint(-9, 9), rng.randint(-9, 9)))
            assert compose(x, inverse(x)) == identity_element(2)


class TestActOnRoot:
    def test_identity_fixes(self):
        assert act_on_root(identity_element(2), G1) == G1

    def test_basic_reflection(self):
        assert act_on_root(eval_word(word2(E)), E) == root(-1, 0, 0)

    def test_translation_action_and_cross_check(self):
        elem = WeylElement(1, (-1, 0))
        image = act_on_root(elem, E)
        assert image == root(1, 2, 0)
        # same element as w_{e+s1} w_e, so compare against composed reflections
        assert image == reflect(G1, reflect(E, E))

    def test_isotropic_fixed_pointwise(self):
        iso = root(0, 3, -1)
        assert act_on_root(WeylElement(-1, (5, 7)), iso) == iso


class TestRelationW:
    def test_square_of_any_letter(self):
        for a in (E, G1, root(-1, 4, 5)):
            assert is_relation_w(word2(a, a))

    def test_sextic_relator(self):
        assert is_relation_w(word2(E, G1, G2, E, G1, G2))

    def test_nonrelation(self):
        assert not is_relation_w(word2(E, G1))

    def test_agrees_with_evaluation(self):
        rng = random.Random(5)
        s = toroidal_semilattice(2)
        for _ in range(300):
            w = random_word(rng, s, rng.randint(0, 10))
            assert is_relation_w(w) == eval_word(w).is_identity


class TestAlternating:
    def test_pair(self, baby2_base):
        P = baby2_base.roots
        assert is_alternating(P, (P[1], P[1]))

    def test_six_tuple(self, baby2_base):
        P = baby2_base.roots
        assert is_alternating(P, (P[0], P[1], P[2], P[0], P[1], P[2]))

    def test_distinct_pair_fails(self, baby2_base):
        P = baby2_base.roots
        assert not is_alternating(P, (P[1], P[2]))

    def test_letter_outside_pool(self, baby2_base):
        assert not is_alternating(baby2_base.roots, (root(1, 2, 0), root(1, 2, 0)))


class TestEnumerateAlternating:
    def test_k2_is_the_diagonal(self, baby2_base):
        P = baby2_base.roots
        got = list(enumerate_alternating(P, 2))
        assert got == [(a, a) for a in P]

    def test_k4_forms(self, baby2_base):
        P = baby2_base.roots
        got = set(enumerate_alternating(P, 4))
        expected = set()
        for a in P:
            for b in P:
                expected.add((a, a, b, b))
                expected.add((a, b, b, a))
        assert got == expected
        assert len(got) == 15

    def test_k0(self, baby2_base):
        assert list(enumerate_alternating(baby2_base.roots, 0)) == [()]

    def test_odd_k_rejected(self, baby2_base):
        with pytest.raises(DomainError):
            list(enumerate_alternating(baby2_base.roots, 3))

    def test_cap_enforced(self, baby2_base):
        with pytest.raises(DomainError):
            list(enumerate_alternating(baby2_base.roots, 14))

    def test_pool_cap_enforced(self):
        pool = tuple(Root(1, (c, 0)) for c in range(0, 18, 2))  # 9 letters
        with pytest.raises(DomainError):
            list(enumerate_alternating(pool, 2))

    def test_lexicographic_and_deterministic(self, baby2_base):
        P = baby2_base.roots
        got = list(enumerate_alternating(P, 4))
        index = {a: i for i, a in enumerate(P)}
        keys = [tuple(index[a] for a in tup) for tup in got]
        assert keys == sorted(keys)
        assert got == list(enumerate_alternating(P, 4))

    def test_every_enumerated_tuple_is_a_relation(self, baby2_base):
        for tup in enumerate_alternating(baby2_base.roots, 6):
            assert is_relation_w(Word(2, tup))

    def test_toroidal3_k8_count(self):
        roots = ReflectableBase(toroidal_semilattice(3)).roots
        assert sum(1 for _ in enumerate_alternating(roots, 8)) == 343_000 <= MAX_TUPLES

    def test_count_past_the_cap_is_refused_before_the_first_tuple(self):
        roots = ReflectableBase(toroidal_semilattice(3)).roots
        message = f"16003008 alternating 10-tuples exceed the cap {MAX_TUPLES}"
        with pytest.raises(DomainError, match=message):
            enumerate_alternating(roots, 10)

    def test_refusal_at_the_length_cap_builds_no_halves(self):
        roots = ReflectableBase(toroidal_semilattice(3)).roots
        message = f"788889024 alternating 12-tuples exceed the cap {MAX_TUPLES}"
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=message):
                enumerate_alternating(roots, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # a table of its 8**6 halves took about 62 MB

    def test_band_bound_is_checked_before_the_first_tuple(self):
        big = 2**62
        pool = (Root(1, (big,)), Root(-1, (big,)))
        with pytest.raises(OverflowError):  # two alternating tuples, but 2 * 2**62 > I64_MAX
            enumerate_alternating(pool, 2)
        edge = (Root(1, (big - 1,)), Root(-1, (big - 1,)))
        assert list(enumerate_alternating(edge, 2)) == [(a, a) for a in edge]


# ---------------------------------------------------------------------------
# Algebraic laws
# ---------------------------------------------------------------------------

signs = st.sampled_from((-1, 1))
coords2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
roots2 = st.builds(Root, signs, coords2)
words2 = st.lists(roots2, max_size=8).map(lambda ls: Word(2, tuple(ls)))


@settings(deadline=None)
@given(words2, words2)
def test_evaluation_is_a_homomorphism(u, v):
    assert eval_word(u + v) == compose(eval_word(u), eval_word(v))


@settings(deadline=None)
@given(words2, roots2)
def test_conjugation_law(w, a):
    conjugate = eval_word(w + Word(2, (a,)) + w.reversed())
    image = act_on_root(eval_word(w), a)
    assert conjugate == eval_word(Word(2, (image,)))


@settings(deadline=None)
@given(st.lists(roots2, min_size=3, max_size=7), st.data())
def test_triple_reversal(letters, data):
    i = data.draw(st.integers(0, len(letters) - 3))
    flipped = letters[:i] + letters[i : i + 3][::-1] + letters[i + 3 :]
    assert eval_word(Word(2, tuple(letters))) == eval_word(Word(2, tuple(flipped)))


@settings(deadline=None)
@given(st.lists(roots2, min_size=1, max_size=7).filter(lambda ls: len(ls) % 2 == 1))
def test_odd_word_squares_to_identity(letters):
    u = Word(2, tuple(letters))
    assert is_relation_w(u + u)


@settings(deadline=None)
@given(roots2, coords2, coords2)
def test_translated_reflection_splits(a, sigma, delta):
    both = Root(a.sign, tuple(x + s + d for x, s, d in zip(a.lat, sigma, delta)))
    left = Root(a.sign, tuple(x + s for x, s in zip(a.lat, sigma)))
    right = Root(a.sign, tuple(x + d for x, d in zip(a.lat, delta)))
    assert eval_word(Word(2, (both,))) == eval_word(Word(2, (left, a, right)))


@settings(deadline=None)
@given(roots2, coords2, st.integers(-5, 5))
def test_translated_reflection_powers(a, sigma, k):
    shifted_k = Root(a.sign, tuple(x + k * s for x, s in zip(a.lat, sigma)))
    shifted_1 = Root(a.sign, tuple(x + s for x, s in zip(a.lat, sigma)))
    lhs = eval_word(Word(2, (shifted_k, a)))
    rhs = power(eval_word(Word(2, (shifted_1, a))), k)
    assert lhs == rhs


def test_matrix_oracle_seeded():
    rng = random.Random(0)
    for _ in range(1000):
        nu = rng.randint(1, 4)
        s = rng.choice((baby_semilattice(nu), toroidal_semilattice(nu)))
        w = random_word(rng, s, rng.randint(0, 20))
        assert matrix_of_element_w(eval_word(w)) == matrix_of_word_w(w)


def test_witness_word_reaches_every_element():
    rng = random.Random(9)
    for _ in range(200):
        nu = rng.randint(0, 3)
        elem = WeylElement(rng.choice((1, -1)), tuple(rng.randint(-5, 5) for _ in range(nu)))
        w = witness_word_for_element(elem)
        assert eval_word(w) == elem
        w.to_indices(baby_base(nu))  # letters stay inside the baby base


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.9, "1", "-1"])
@pytest.mark.parametrize("field", ["eps", "t"])
def test_element_json_takes_only_int_values(field, bad):
    data = {"eps": 1, "t": [0, 3]}
    if field == "eps":
        data["eps"] = bad
    else:
        data["t"] = [bad, 3]
    with pytest.raises(DomainError, match=f"element field '{field}'"):
        element_from_dict(data)


@pytest.mark.parametrize("data, field", [
    ({"eps": 1}, "t"),  # was KeyError: 't'
    ({"eps": 1, "t": 5}, "t"),  # was TypeError
    ({"t": [0]}, "eps"),
])
def test_element_json_names_a_missing_or_non_array_field(data, field):
    with pytest.raises(DomainError, match=f"element field '{field}'"):
        element_from_dict(data)


def _pools():
    """Pools of rank 0..2 over a few small roots, so repeats and the empty pool are common."""
    def of_rank(rank):
        coords = st.tuples(*[st.integers(-2, 2)] * rank)
        return st.tuples(st.just(rank), st.lists(st.builds(Root, signs, coords), max_size=4))
    return st.integers(0, 2).flatmap(of_rank)


@settings(deadline=None, max_examples=60)
@given(_pools(), st.sampled_from((0, 2, 4, 6)))
@example((2, []), 0)
@example((2, []), 4)
@example((0, [Root(1, ()), Root(-1, ()), Root(1, ())]), 6)
def test_enumerate_alternating_matches_brute_force(rank_pool, k):
    rank, pool = rank_pool
    brute = [t for t in product(pool, repeat=k) if is_relation_w(Word(rank, t))]
    assert list(enumerate_alternating(pool, k)) == brute


# Recorded with the depth-first search that the half-sum join replaced.
ALTERNATING_RELATORS_SHA256 = "8646e6f87c35de27e7e61c019262d3cb2d289bd01ab5de8b1784f12a8b7f99bc"


def test_alternating_relators_are_pinned():
    digest = hashlib.sha256()
    families = {"baby": baby_semilattice, "toroidal": toroidal_semilattice,
                "pairwise": pairwise_semilattice}
    for family, make in families.items():
        for nu in (1, 2, 3):
            relators = presentation_alternating(ReflectableBase(make(nu)).roots, 6).relators
            digest.update(json.dumps([family, nu, [list(r) for r in relators]]).encode())
    assert digest.hexdigest() == ALTERNATING_RELATORS_SHA256


def test_alternating_relators_of_a_pool_with_equal_roots_built_apart():
    pool = (Root(1, (1, 0)), Root(1, (0, 0)), Root(1, (1, 0)))
    assert pool[0] == pool[2] and pool[0] is not pool[2]
    relators = presentation_alternating(pool, 4).relators
    # Both copies take the index of the last equal root, as a Root-keyed lookup gives.
    assert relators[:5] == ((2, 2), (2, 2), (1, 1), (2, 2), (2, 2))
    assert Counter(relators[5:]) == {(2, 2, 2, 2): 16, (2, 2, 1, 1): 4, (2, 1, 1, 2): 4,
                                     (1, 2, 2, 1): 4, (1, 1, 2, 2): 4, (1, 1, 1, 1): 1}

"""The bounded evaluations agree with the checked loops, on both sides of the bound.

``eval_word``, ``eval_word_hyp`` and ``is_relation_w`` sum a word's terms
when every ``B_c = sum_i |p_c(a_i)|`` is at most ``I64_MAX``, and fall back to
the checked loop otherwise.  The checked loops are the reference: every word
must give the same result, or the same exception with the same message.
"""

import gc
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1weyl import (
    DomainError,
    Root,
    Simplex,
    WeylElement,
    Word,
    base_simplex,
    eval_word,
    eval_word_hyp,
    is_central,
    is_loop,
    is_relation_w,
    matrix_of_word,
    matrix_of_word_w,
    path_of_word,
)
from a1weyl.hyperbolic import HyperbolicElement, matrix_of_element_hyp
from a1weyl.lattice import I64_MAX, I64_MIN, checked, checked_vec, vec_add, vec_scale, zero_vec
from a1weyl.weyl import alternating_sum, eval_word_checked


# The library's former checked loop for the extended group, kept verbatim as
# the reference: eval_word_hyp now takes its guard from weyl.eval_word_checked.
def eval_word_hyp_checked(word: Word) -> HyperbolicElement:
    """``eval_word_hyp`` in one pass, the running sum guarded at every letter.

    The path for words that are not ``Word.in_band``.
    """
    nu, k = word.rank, len(word)
    acc = zero_vec(nu)
    rows = [list(zero_vec(nu)) for _ in range(nu)]
    for i, a in enumerate(word.letters, start=1):
        coef = a.sign if (k - i) % 2 == 0 else -a.sign
        for j in range(nu):
            pj = a.lat[j]
            if pj == 0:
                continue
            row = rows[j]
            for c in range(nu):
                row[c] += pj * a.lat[c] + 2 * coef * pj * acc[c]
        acc = vec_add(acc, vec_scale(coef, a.lat))
    parity = 1 if k % 2 == 0 else -1
    return HyperbolicElement(parity, acc, vec_scale(-parity, acc), tuple(tuple(r) for r in rows))


def is_relation_w_checked(word):
    return len(word) % 2 == 0 and not any(alternating_sum(word))


PAIRS = [
    (eval_word, eval_word_checked),
    (eval_word_hyp, eval_word_hyp_checked),
    (is_relation_w, is_relation_w_checked),
]


def outcome(fn, word):
    try:
        return "value", fn(word)
    except Exception as exc:  # the type and the message must both match
        return "raises", type(exc), str(exc)


def assert_same_as_checked(word):
    for fast, reference in PAIRS:
        assert outcome(fast, word) == outcome(reference, word), fast.__name__


coords = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**57), 2**57),  # forty of them stay inside the bound
    st.integers(I64_MIN, I64_MAX),
)


@st.composite
def words(draw, coords, max_rank=8, max_len=40):
    rank = draw(st.integers(0, max_rank))
    length = draw(st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, max_len)))
    letters = draw(st.lists(
        st.builds(Root, st.sampled_from((-1, 1)), st.tuples(*[coords] * rank)),
        min_size=length, max_size=length,
    ))
    return Word(rank, tuple(letters))


@settings(deadline=None, max_examples=300)
@given(words(coords))
def test_bounded_evaluations_equal_the_checked_loops(word):
    assert_same_as_checked(word)


@st.composite
def words_at_the_bound(draw, total):
    """Words whose first coordinate has ``B_0 == total`` exactly."""
    rank = draw(st.integers(1, 3))
    length = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=length - 1, max_size=length - 1)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    letters = []
    for part in parts:
        # 2^63 is only in the band as -2^63
        p0 = -part if part > I64_MAX or draw(st.booleans()) else part
        rest = draw(st.tuples(*[st.integers(-3, 3)] * (rank - 1)))
        letters.append(Root(draw(st.sampled_from((-1, 1))), (p0, *rest)))
    return Word(rank, tuple(letters))


@settings(deadline=None, max_examples=150)
@given(words_at_the_bound(I64_MAX))
def test_a_word_with_b_equal_to_i64_max_is_summed_by_columns(word):
    assert word.in_band
    assert_same_as_checked(word)


@settings(deadline=None, max_examples=150)
@given(words_at_the_bound(I64_MAX + 1))
def test_a_word_with_b_one_past_i64_max_takes_the_checked_loop(word):
    assert not word.in_band
    assert_same_as_checked(word)


@pytest.mark.parametrize("letters, expected", [
    # B = I64_MAX, and so is the shift: the terms are summed unguarded
    ([(-1, I64_MAX - 5), (1, 5)], (1, (I64_MAX,))),
    # B = I64_MAX + 1: the checked loop raises where the sum leaves the band
    ([(-1, I64_MAX - 5), (1, 6)], OverflowError),
    # B = 2^63 from a single -2^63: the checked loop raises only where it negates it
    ([(1, I64_MIN), (1, 0)], OverflowError),
    ([(1, 0), (1, I64_MIN)], (1, (I64_MIN,))),
])
def test_eval_word_at_the_edge_of_the_band(letters, expected):
    word = Word(1, tuple(Root(sign, (c,)) for sign, c in letters))
    if expected is OverflowError:
        with pytest.raises(OverflowError):
            eval_word(word)
    else:
        element = eval_word(word)
        assert (element.parity, element.shift) == expected
    assert_same_as_checked(word)


@settings(deadline=None, max_examples=150)
@given(words(st.integers(-4, 4), max_rank=5, max_len=12))
def test_dual_rows_plus_their_transpose_are_twice_the_shift_square(word):
    h = eval_word_hyp(word)
    assert matrix_of_element_hyp(h) == matrix_of_word(word)
    for j in range(word.rank):
        assert h.dual_p[j][j] == h.shift[j] ** 2
        for c in range(word.rank):
            assert h.dual_p[j][c] + h.dual_p[c][j] == 2 * h.shift[j] * h.shift[c]


def checked_vec_reference(values):
    return tuple(checked(int(c)) for c in values)


@pytest.mark.parametrize("values", [
    (),
    [],
    (1, -2, 3),
    [I64_MIN, I64_MAX],
    (I64_MAX + 1,),
    (I64_MIN - 1, 0),
])
def test_checked_vec_converts_and_raises_as_the_per_entry_guard(values):
    expected = outcome(checked_vec_reference, values)
    assert outcome(checked_vec, values) == expected
    assert outcome(checked_vec, iter(values)) == expected


@pytest.mark.parametrize("values, bad", [
    (("7", 2.0, True), "7"),
    ((0, I64_MAX + 1, "x"), "x"),  # the entry types are checked before the band
    ((0, "x", I64_MAX + 1), "x"),
    ((None, I64_MAX + 1), None),
    ((float("inf"),), float("inf")),
    ((1.5, 2**70), 1.5),
])
def test_checked_vec_raises_domain_error_naming_the_first_entry_that_is_not_an_int(values, bad):
    for arg in (values, iter(values)):
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            checked_vec(arg)


@pytest.mark.parametrize("cls, args", [
    (Root, (1.0, (1, 1))),
    (Root, (True, (1, 1))),
    (Root, (1, (1.9, True))),
    (WeylElement, (1.0, (2,))),
    (WeylElement, (1, (2.5,))),
    (Simplex, ((0, 0), 1.0)),
    (Simplex, ((1.9, True), 1)),
])
def test_the_guarded_constructors_take_only_ints(cls, args):
    with pytest.raises(DomainError):
        cls(*args)


def test_every_reader_of_one_word_shares_one_build_of_its_terms(monkeypatch):
    build, builds = Word.terms.func, []

    def counted(word):
        builds.append(word)
        return build(word)

    monkeypatch.setattr(Word.terms, "func", counted)
    word = Word(2, (Root(1, (1, 0)), Root(1, (0, 0)), Root(-1, (0, 1))) * 2)
    eval_word(word)
    eval_word_hyp(word)
    is_central(word)
    is_loop(path_of_word(word, base_simplex(2)))
    assert len(builds) == 1 and builds[0] is word


def test_reading_a_long_word_sets_off_no_cyclic_collection():
    """Building ``terms`` and ``bounds`` of 20 000 letters keeps no collected object alive per letter."""
    rng = random.Random(20)
    pool = [Root(rng.choice((1, -1)), tuple(rng.randint(-9, 9) for _ in range(8))) for _ in range(64)]
    word = Word(8, tuple(rng.choice(pool) for _ in range(20_000)))
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        word.terms  # noqa: B018 - builds the view
        word.bounds  # noqa: B018 - sums it
    finally:
        gc.callbacks.remove(count)
    assert started == []
    assert word.bounds == tuple(sum(abs(a.lat[c]) for a in word.letters) for c in range(8))


def test_a_word_with_its_columns_built_equals_a_fresh_copy():
    word = Word(2, (Root(1, (1, 2)), Root(-1, (3, 0))))
    fresh = Word(2, word.letters)
    word.terms  # noqa: B018 - builds the view
    assert "terms" in word.__dict__ and "terms" not in fresh.__dict__
    assert word == fresh and hash(word) == hash(fresh) and repr(word) == repr(fresh)


def test_a_planted_view_moves_eval_word_but_not_the_matrix_oracles():
    word = Word(2, (Root(1, (1, 2)), Root(-1, (3, 0)), Root(1, (0, 4))))
    fresh = Word(2, word.letters)
    word.__dict__["terms"] = tuple(tuple(-t for t in ts) for ts in fresh.terms)
    assert eval_word(word) != eval_word(fresh)
    assert matrix_of_word_w(word) == matrix_of_word_w(fresh)
    assert matrix_of_word(word) == matrix_of_word(fresh)
    summed = Word(2, word.letters)  # both evaluations take the shift from the one planted sum
    summed.__dict__["sums"] = planted = tuple(t + 2 for t in fresh.sums)
    hyp = eval_word_hyp(summed)
    assert eval_word(summed).shift == hyp.shift == planted != fresh.sums
    assert hyp.dual_sgn == tuple(-hyp.parity * t for t in planted)
    assert matrix_of_word_w(summed) == matrix_of_word_w(fresh)
    assert matrix_of_word(summed) == matrix_of_word(fresh)


L = 2**62


@pytest.mark.parametrize("letters, rows_in_band", [
    ([(1, (L,)), (1, (L,))], True),
    ([(1, (L, 1)), (1, (L, 2))], True),  # dual_p = ((0, L), (-L, 1))
    ([(1, (L, 0, -L)), (-1, (-L, -1, L)), (-1, (1, 0, 1))], True),
    ([(-1, (0, 1, 2)), (-1, (-L, 2, 0)), (-1, (-L, 1, 0)), (1, (1, 2, 0)), (-1, (1, 2, 0))], True),
    ([(1, (L, 1)), (1, (L, 3))], False),  # dual_p[0][1] = 2^63
    ([(1, (L,)), (1, (L + 2**32,))], False),  # dual_p[0][0] = shift^2 = 2^64
    ([(1, (L, 0)), (1, (L, 3)), (-1, (5, -2))], False),
])
def test_past_the_bound_the_dual_rows_are_checked_where_they_are_stored(letters, rows_in_band):
    word = Word(len(letters[0][1]), tuple(Root(sign, p) for sign, p in letters))
    assert not word.in_band
    eval_word_checked(word)  # the running sum stays in the band
    expected = outcome(eval_word_hyp_checked, word)
    assert outcome(eval_word_hyp, word) == expected
    if rows_in_band:
        assert expected[0] == "value"
    else:
        assert expected[:2] == ("raises", OverflowError)

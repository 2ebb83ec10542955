import random

import pytest

from a1weyl import (
    DomainError,
    Root,
    Word,
    WordParseError,
    format_word,
    parse_word,
    random_relation_indices,
    random_word,
    validate_word,
)
from a1weyl.weyl import is_relation_w

from conftest import root


def test_word_rejects_isotropic_letters():
    with pytest.raises(DomainError):
        Word(2, (root(0, 1, 0),))


def test_word_rejects_rank_mismatch():
    with pytest.raises(DomainError):
        Word(2, (root(1, 1),))


def test_parse_generator_tokens(baby2_base):
    w = parse_word("g0 g1 g2", baby2_base)
    assert w.letters == baby2_base.roots


def test_parse_explicit_tokens(baby2_base):
    w = parse_word("+e:2,1 -e:0,-3", baby2_base)
    assert w.letters == (Root(1, (2, 1)), Root(-1, (0, -3)))


def test_parse_errors(baby2_base):
    for bad in ("g9", "gX", "h1", "+e:1", "+e:a,b", "e:1,2"):
        with pytest.raises(WordParseError):
            parse_word(bad, baby2_base)


def test_format_round_trip(baby2_base):
    text = "g0 g1 g2 +e:3,-1"
    w = parse_word(text, baby2_base)
    assert format_word(w, baby2_base) == text
    assert parse_word(format_word(w, baby2_base), baby2_base) == w


def test_normalized_flips_negative_letters():
    w = Word(2, (root(-1, 1, 0),))
    assert w.normalized().letters == (Root(1, (-1, 0)),)


def test_reversed_word():
    w = Word(2, (root(1, 1, 0), root(1, 0, 0)))
    assert w.reversed().letters == (root(1, 0, 0), root(1, 1, 0))


def test_to_indices(baby2_base):
    w = Word(2, (root(1, 0, 1), root(-1, 0, 0)))
    assert w.to_indices(baby2_base) == (2, 0)
    with pytest.raises(DomainError):
        Word(2, (root(1, 2, 0),)).to_indices(baby2_base)


def test_validate_word(baby2, baby2_base):
    validate_word(baby2, parse_word("g0 g1", baby2_base))
    with pytest.raises(DomainError):
        validate_word(baby2, Word(2, (root(1, 1, 1),)))


def test_random_word_letters_are_members(baby2):
    rng = random.Random(7)
    w = random_word(rng, baby2, 30)
    validate_word(baby2, w)


def test_random_relation_indices_are_relations(baby2_base):
    rng = random.Random(11)
    for _ in range(50):
        indices = random_relation_indices(rng, 2, rng.randint(1, 12))
        assert is_relation_w(Word.from_indices(baby2_base, indices))


@pytest.mark.parametrize("index", [True, False, 1.0, 0.0, "1", None])
def test_from_indices_takes_ints_only(baby2_base, index):
    with pytest.raises(DomainError, match=r"generator index .* is not an int"):
        Word.from_indices(baby2_base, (1, index))


@pytest.mark.parametrize("index", [-1, 3])
def test_from_indices_out_of_range_keeps_its_message(baby2_base, index):
    with pytest.raises(DomainError, match=f"generator index {index} out of range 0..2"):
        Word.from_indices(baby2_base, (index,))


def test_repeated_explicit_tokens_parse_as_one_built_token_by_token(baby2_base):
    tokens = ["+e:2,1", "-e:0,-3", "g1", "+e:2,1", "+e:2,3", "+e:2,1", "g1", "-e:0,-3", "+e:2,3"]
    word = parse_word(" ".join(tokens), baby2_base)
    by_token = Word(2, tuple(parse_word(t, baby2_base).letters[0] for t in tokens))
    assert word == by_token
    assert word.letters[0] == root(1, 2, 1) and word.letters[1] == root(-1, 0, -3)


def test_spellings_of_one_root_parse_to_equal_roots(baby2_base):
    word = parse_word("+e:01,2 +e:1,2 +e:+1,2", baby2_base)
    assert word.letters == (root(1, 1, 2),) * 3


@pytest.mark.parametrize("bad", ["g1_0", "g\u0662", "+e:1_0,0", "+e:0,\uff11", "g\u00b2"])
def test_digits_are_ascii_without_underscores(baby2_base, bad):
    with pytest.raises(WordParseError, match="non-ASCII character or an '_'"):
        parse_word(f"g1 {bad}", baby2_base)


@pytest.mark.parametrize("bad", ["+e:1", "+e:1,x", "g9", "h1", "gx"])
def test_a_bad_token_after_valid_repeats_raises_as_alone(baby2_base, bad):
    with pytest.raises(WordParseError) as alone:
        parse_word(bad, baby2_base)
    with pytest.raises(WordParseError) as after:
        parse_word(f"+e:1,0 g1 +e:1,0 g1 {bad} +e:1,0", baby2_base)
    assert str(after.value) == str(alone.value)


def test_validate_word_names_the_first_bad_letter_after_repeated_good_ones(baby2):
    good = (root(1, 0, 0), root(1, 1, 0), root(-1, 2, 0))
    word = Word(2, good * 500 + (root(-1, 1, 1), root(1, 3, 3), root(-1, 1, 1)))
    with pytest.raises(DomainError) as exc:
        validate_word(baby2, word)
    assert str(exc.value) == (
        "letter Root(sign=-1, lat=(1, 1)) is not a non-isotropic root of the system"
    )

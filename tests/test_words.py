import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1weyl import (
    DomainError,
    ReflectableBase,
    Root,
    Word,
    WordParseError,
    baby_semilattice,
    eval_word,
    eval_word_hyp,
    format_word,
    is_central,
    parse_word,
    random_relation_indices,
    random_word,
    toroidal_semilattice,
    validate_word,
)
from a1weyl.lattice import I64_MAX, I64_MIN, Semilattice, pairwise_semilattice, root_in_rx
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


def test_a_seeded_random_word_is_pinned(baby2):
    # The words behind ``oracle-compare --seed`` must not change unnoticed.
    w = random_word(random.Random(7), baby2, 6)
    assert w.letters == (root(-1, 2, -4), root(1, -4, 1), root(1, -2, -3),
                         root(1, 3, -4), root(1, 4, 2), root(1, -4, -1))


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


def test_a_generator_token_out_of_range_names_the_range(baby2_base):
    with pytest.raises(WordParseError) as exc:
        parse_word("g3", baby2_base)
    assert str(exc.value) == "generator token 'g3' out of range 0..2"


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


# --- the batch parse of explicit tokens against the token-by-token parse --------


def _spelled(c: int, prefix: str) -> str:
    """``c`` as ``int()`` reads it, with ``prefix`` ("", "0", "+", "+00") after any minus."""
    return ("-" + prefix.lstrip("+") + str(-c)) if c < 0 else prefix + str(c)


def _bad_tokens(rank: int) -> list[str]:
    """One token of every kind ``parse_word`` refuses, at ``rank``."""
    def explicit(first: str) -> str:
        return "+e:" + ",".join([first] + ["0"] * (rank - 1))

    return [
        explicit("1_0"),
        explicit("\u0662"),
        f"g{rank + 1}",
        "gX",
        "+e:" + ",".join(["0"] * (rank + 1)),
        "+e:1,",
        "+E:1,0",
        explicit(str(I64_MAX + 1)),
        explicit(str(I64_MIN - 1)),
        explicit("1" * 4301),
    ]


@st.composite
def token_words(draw):
    """A rank, its baby base, tokens with the root each names, and bad tokens to insert."""
    rank = draw(st.integers(0, 8))
    base = ReflectableBase(baby_semilattice(rank))
    coord = st.one_of(st.integers(-9, 9), st.integers(I64_MIN, I64_MAX),
                      st.sampled_from([I64_MIN, I64_MAX]))
    generator = st.integers(0, rank).map(lambda k: (f"g{k}", base.roots[k]))

    @st.composite
    def explicit(draw):
        sign = draw(st.sampled_from([1, -1]))
        lat = draw(st.lists(coord, min_size=rank, max_size=rank))
        spelling = st.sampled_from(["", "0", "+", "+00"])
        prefixes = draw(st.lists(spelling, min_size=rank, max_size=rank))
        text = ("+" if sign > 0 else "-") + "e:" + ",".join(map(_spelled, lat, prefixes))
        return text, Root(sign, tuple(lat))

    pool = draw(st.lists(st.one_of(generator, explicit()), min_size=1, max_size=6))
    named = draw(st.lists(st.sampled_from(pool), max_size=16))
    bad = draw(st.lists(st.sampled_from(_bad_tokens(rank)), max_size=2))
    spots = sorted(draw(st.lists(st.integers(0, len(named)), min_size=len(bad), max_size=len(bad))))
    return rank, base, named, list(zip(spots, bad))


@settings(deadline=None, max_examples=300)
@given(token_words())
def test_the_batch_parse_equals_the_token_by_token_parse(case):
    rank, base, named, bad = case
    tokens = [text for text, _ in named]
    if not bad:
        word = parse_word(" ".join(tokens), base)
        assert word == Word(rank, tuple(parse_word(t, base).letters[0] for t in tokens))
        for letter, (_, expected) in zip(word.letters, named, strict=True):
            assert letter == expected
            assert hash(letter) == hash(expected)
            assert repr(letter) == repr(expected)
        return
    for offset, (spot, token) in enumerate(bad):
        tokens.insert(spot + offset, token)
    with pytest.raises(Exception) as alone:
        parse_word(bad[0][1], base)
    with pytest.raises(type(alone.value)) as whole:
        parse_word(" ".join(tokens), base)
    assert type(whole.value) is type(alone.value)
    assert str(whole.value) == str(alone.value)


@pytest.mark.parametrize("rank", [1, 2, 5])
def test_coordinates_at_the_band_edges_parse(rank):
    base = ReflectableBase(toroidal_semilattice(rank))
    lat = tuple([I64_MAX, I64_MIN] * rank)[:rank]
    text = "+e:" + ",".join(map(str, lat)) + " -e:" + ",".join(map(str, reversed(lat)))
    assert parse_word(text, base).letters == (Root(1, lat), Root(-1, lat[::-1]))


def test_parsed_roots_have_no_instance_dict(baby2_base):
    letter = parse_word("+e:2,1", baby2_base).letters[0]
    assert not hasattr(letter, "__dict__") and not hasattr(Root(1, (2, 1)), "__dict__")


# --- each distinct letter object is checked once ----------------------------------


GOOD = [Root(1, (2 * (k % 5), 0)) for k in range(1000)]  # 1000 objects, five values


@pytest.mark.parametrize("bad, message", [
    (Root(1, (1, 0, 0)), "letter Root(sign=1, lat=(1, 0, 0)) has rank 3, word has rank 2"),
    (Root(0, (1, 1)), "word letters must be non-isotropic roots"),
])
def test_word_names_a_repeated_bad_letter_after_a_thousand_good_ones(bad, message):
    later = Root(1, (3, 0, 0, 0))
    with pytest.raises(DomainError) as exc:
        Word(2, (*GOOD, bad, bad, later, bad))
    assert str(exc.value) == message


def test_validate_word_names_a_repeated_letter_outside_the_system_after_good_ones(baby2):
    bad, later = Root(1, (1, 1)), Root(-1, (3, 3))
    word = Word(2, (*GOOD, bad, bad, later, bad))
    with pytest.raises(DomainError) as exc:
        validate_word(baby2, word)
    assert str(exc.value) == (
        "letter Root(sign=1, lat=(1, 1)) is not a non-isotropic root of the system"
    )


def test_equal_letters_built_apart_validate_and_evaluate_as_shared_ones(toroidal2, toroidal2_base):
    text = "+e:2,1 -e:0,-3 g3 +e:2,1 +e:2,1 -e:0,-3 g1 +e:1,1"
    shared = parse_word(text, toroidal2_base)
    apart = Word(2, tuple(Root(a.sign, a.lat) for a in shared.letters))
    assert len({id(a) for a in apart.letters}) == len(apart)
    assert len({id(a) for a in shared.letters}) < len(shared)
    validate_word(toroidal2, apart)
    assert apart == shared
    assert eval_word(apart) == eval_word(shared)
    assert eval_word_hyp(apart) == eval_word_hyp(shared)
    assert is_central(apart) == is_central(shared)


def test_to_indices_names_a_letter_outside_the_base_after_a_thousand_copies_of_one(baby2_base):
    good, bad, later = Root(-1, (0, -1)), Root(1, (2, 0)), Root(1, (4, 4))
    word = Word(2, (good,) * 1000 + (bad, good, later, bad))
    with pytest.raises(DomainError) as exc:
        word.to_indices(baby2_base)
    assert str(exc.value) == "letter Root(sign=1, lat=(2, 0)) is not a generator of the base"


def test_equal_letters_built_apart_give_the_indices_of_shared_ones(baby2_base):
    shared = parse_word("g2 -e:0,0 g2 g1 +e:0,1 g0 g1", baby2_base)
    apart = Word(2, tuple(Root(a.sign, a.lat) for a in shared.letters))
    assert len({id(a) for a in apart.letters}) == len(apart)
    assert apart.to_indices(baby2_base) == shared.to_indices(baby2_base) == (2, 0, 2, 1, 2, 0, 1)


# --- the checked constructor refuses what is not a word -----------------------------


@pytest.mark.parametrize("rank, letters, message", [
    (2, ((1, (0, 0)),), "word letter (1, (0, 0)) is not a Root"),
    (2, (Root(1, (0, 0)), "g1"), "word letter 'g1' is not a Root"),
    (2, None, "word letters None are not a sequence"),
    (True, (Root(1, (0,)),), "word rank True is not an int"),
    (2.0, (), "word rank 2.0 is not an int"),
])
def test_word_refuses_a_foreign_letter_or_rank(rank, letters, message):
    with pytest.raises(DomainError) as exc:
        Word(rank, letters)
    assert str(exc.value) == message


# --- the trusted parse against the checked constructor ------------------------------


SEMILATTICES = (baby_semilattice, pairwise_semilattice, toroidal_semilattice)


@st.composite
def parsable_words(draw):
    """A base at rank <= 4, the text of a word over it, and the reach of its explicit tokens.

    Coordinates include the band edges and the values ``I64_MAX // k`` and
    ``I64_MAX // k + 1`` for the word's length ``k``, so ``k * reach`` falls on
    both sides of ``I64_MAX``.
    """
    rank = draw(st.integers(0, 4))
    base = ReflectableBase(draw(st.sampled_from(SEMILATTICES))(rank))
    k = draw(st.integers(0, 12))
    edge = I64_MAX // max(k, 1)
    coord = st.one_of(
        st.integers(-9, 9),
        st.integers(I64_MIN, I64_MAX),
        st.sampled_from([c for c in (I64_MIN, I64_MAX, edge, edge + 1, -edge, -edge - 1)
                         if I64_MIN <= c <= I64_MAX]),
    )
    generator = st.integers(0, len(base.roots) - 1).map(lambda g: (f"g{g}", ()))

    @st.composite
    def explicit(draw):
        sign = draw(st.sampled_from("+-"))
        lat = draw(st.lists(coord, min_size=rank, max_size=rank))
        return sign + "e:" + ",".join(map(str, lat)), lat

    pool = draw(st.lists(st.one_of(generator, explicit()), min_size=1, max_size=6))
    named = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    coords = [c for _, lat in named for c in lat]
    reach = max(-min(coords), max(coords), 1) if coords else 1
    return base, " ".join(token for token, _ in named), reach


@settings(deadline=None, max_examples=400)
@given(parsable_words())
def test_the_trusted_parse_equals_the_checked_constructor(case):
    base, text, reach = case
    word = parse_word(text, base)
    planted = "columns" in word.__dict__  # read before anything caches the columns
    rebuilt = Word(word.rank, word.letters)
    assert word == rebuilt
    assert hash(word) == hash(rebuilt)
    assert repr(word) == repr(rebuilt)
    assert word.columns == rebuilt.columns
    assert planted == (word.rank >= 1 and len(word) * reach <= I64_MAX)


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("past", [0, 1])
def test_columns_are_planted_up_to_the_bound_of_length_times_reach(k, past):
    """The largest reach with ``k * reach <= I64_MAX`` plants the columns; one more does not."""
    reach = I64_MAX // k + past  # at k = 1 and past = 1 the coordinate is I64_MIN
    text = " ".join([f"-e:0,{-reach}"] + ["g0"] * (k - 1))
    word = parse_word(text, ReflectableBase(baby_semilattice(2)))
    assert ("columns" in word.__dict__) == (not past)
    assert word.columns == Word(2, word.letters).columns


def test_a_word_over_an_invalid_base_is_built_by_the_checked_constructor():
    short = ReflectableBase(Semilattice(2, ((0, 0), (1, 0), (0, 1, 0))))
    with pytest.raises(DomainError) as exc:
        parse_word("+e:0,0 g2 g2", short)
    assert str(exc.value) == "letter Root(sign=1, lat=(0, 1, 0)) has rank 3, word has rank 2"
    wide = ReflectableBase(Semilattice(2, ((0, 0), (2**62, 0), (0, 1))))
    word = parse_word("g1 g0 g1 -e:0,0 g1 g2", wide)
    assert "columns" not in word.__dict__
    assert word.columns == Word(2, word.letters).columns and not word.columns[2]
    with pytest.raises(OverflowError):
        eval_word(word)


# --- validation by parity class against the per-letter loop -------------------------


def validate_word_per_letter(s, word):
    """The library's former ``validate_word``, kept verbatim as the reference."""
    if word.rank != s.rank:
        raise DomainError(f"word has rank {word.rank}, semilattice has rank {s.rank}")
    for a in {id(a): a for a in word.letters}.values():
        if not root_in_rx(s, a):
            raise DomainError(f"letter {a} is not a non-isotropic root of the system")


def validation_outcome(s, word, validate):
    try:
        return validate(s, word)
    except Exception as exc:  # the type and the message must both match
        return type(exc), str(exc)


@st.composite
def semilattices_and_words(draw):
    """A valid semilattice at rank <= 4 (or ``Semilattice(0, ())``) and a word over its rank.

    Letters are drawn from every parity class, in and out of the semilattice;
    a run of good letters, repeated as one object, comes first.
    """
    rank = draw(st.integers(0, 4))
    if rank == 0:
        s = draw(st.sampled_from([Semilattice(0, ()), Semilattice(0, ((),))]))
    else:
        wide = [t for t in product((0, 1), repeat=rank) if sum(t) >= 2]
        extras = draw(st.lists(st.sampled_from(wide), unique=True)) if wide else []
        s = Semilattice(rank, baby_semilattice(rank).cosets + tuple(extras))
    classes = list(product((0, 1), repeat=rank))

    def letter(tau):
        lat = [t + 2 * draw(st.integers(-3, 3)) for t in tau]
        return Root(draw(st.sampled_from((1, -1))), tuple(lat))

    good = letter(draw(st.sampled_from(s.cosets))) if s.cosets else Root(1, ())
    tail = [letter(draw(st.sampled_from(classes))) for _ in range(draw(st.integers(0, 6)))]
    letters = [good] * draw(st.integers(0, 50)) + tail
    word_rank = draw(st.sampled_from([rank, rank, rank + 1]))
    if word_rank != rank:
        letters = [Root(a.sign, (*a.lat, 0)) for a in letters]
    return s, Word(word_rank, tuple(letters))


@settings(deadline=None, max_examples=400)
@given(semilattices_and_words())
def test_validation_by_parity_class_equals_the_per_letter_loop(case):
    s, word = case
    expected = validation_outcome(s, word, validate_word_per_letter)
    assert validation_outcome(s, word, validate_word) == expected
    if word.rank == s.rank:
        base = ReflectableBase(s)
        parsed = parse_word(format_word(word, base), base)
        assert validation_outcome(s, parsed, validate_word) == expected


import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1weyl import (
    DomainError,
    Move,
    MoveTrace,
    Root,
    Simplex,
    WeylElement,
    Word,
    act_on_simplex,
    baby_base,
    base_simplex,
    compose,
    eval_word,
    is_loop,
    path_of_word,
    reduce_loop,
    render_svg,
    replay_trace,
    witness_word_for_element,
)
from a1weyl.geometry import move_block
from a1weyl.words import random_relation_indices

WORKED_LOOP = (2, 0, 2, 1, 0, 1, 0, 2, 1, 2, 1, 0)

WORKED_PATH = (
    ((0, 0), 1), ((0, 0), -1), ((-1, 0), 1), ((-1, 1), -1), ((-2, 1), 1),
    ((-2, 2), -1), ((-2, 2), 1), ((-1, 2), -1), ((-1, 2), 1), ((0, 2), -1),
    ((0, 1), 1), ((0, 1), -1), ((0, 0), 1),
)

FIRST_MACRO_PATH = (
    ((0, 0), 1), ((0, 0), -1), ((-1, 0), 1), ((-1, 1), -1), ((-2, 1), 1),
    ((-2, 2), -1), ((-2, 2), 1), ((-1, 2), -1), ((-1, 1), 1), ((0, 1), -1),
    ((0, 0), 1),
)

SECOND_MACRO_PATH = (
    ((0, 0), 1), ((0, 0), -1), ((-1, 0), 1), ((-1, 1), -1), ((-1, 1), 1),
    ((0, 1), -1), ((0, 0), 1),
)


def simplices_of(path):
    return tuple((s.anchor, s.orient) for s in path.simplices)


class TestActOnSimplex:
    def test_identity(self):
        b = base_simplex(2)
        assert act_on_simplex(WeylElement(1, (0, 0)), b) == b

    def test_plain_reflection_flips_orientation(self, baby2_base):
        w = eval_word(Word.from_indices(baby2_base, (0,)))
        assert act_on_simplex(w, base_simplex(2)) == Simplex((0, 0), -1)

    def test_two_letter_word(self, baby2_base):
        w = eval_word(Word.from_indices(baby2_base, (1, 0)))
        assert act_on_simplex(w, base_simplex(2)) == Simplex((-1, 0), 1)

    def test_rank_mismatch(self):
        with pytest.raises(DomainError):
            act_on_simplex(WeylElement(1, (0, 0, 0)), base_simplex(2))


class TestPathOfWord:
    def test_trivial_loop(self):
        p = path_of_word(Word.empty(2), base_simplex(2))
        assert simplices_of(p) == (((0, 0), 1),)

    def test_worked_loop(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, WORKED_LOOP), base_simplex(2))
        assert simplices_of(p) == WORKED_PATH

    def test_involution_path(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, (1, 1)), base_simplex(2))
        assert simplices_of(p) == (((0, 0), 1), ((1, 0), -1), ((0, 0), 1))

    def test_last_entry_is_the_full_action(self, baby2_base):
        rng = random.Random(17)
        for _ in range(100):
            word = Word.from_indices(
                baby2_base, tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 10)))
            )
            p = path_of_word(word, base_simplex(2))
            assert p.simplices[-1] == act_on_simplex(eval_word(word), base_simplex(2))


class TestIsLoop:
    def test_trivial(self):
        assert is_loop(path_of_word(Word.empty(2), base_simplex(2)))

    def test_worked_loop(self, baby2_base):
        assert is_loop(path_of_word(Word.from_indices(baby2_base, WORKED_LOOP), base_simplex(2)))

    def test_open_path(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, (0, 1)), base_simplex(2))
        assert not is_loop(p)


class TestReduceLoop:
    def test_involution_is_one_delete(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, (1, 1)), base_simplex(2))
        trace = reduce_loop(p)
        assert [(m.kind, m.gens) for m in trace.moves] == [("delete", (1,))]
        assert trace.moves[0].base == base_simplex(2)

    def test_elementary_loop_is_one_delete(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, (0, 1, 2, 0, 1, 2)), base_simplex(2))
        trace = reduce_loop(p)
        assert [(m.kind, m.gens) for m in trace.moves] == [("delete", (0, 1, 2))]

    def test_worked_loop_first_two_macros(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, WORKED_LOOP), base_simplex(2))
        trace = reduce_loop(p)
        first = replay_trace(trace, trace.macros[0][1])
        second = replay_trace(trace, trace.macros[1][1])
        assert simplices_of(first) == FIRST_MACRO_PATH
        assert simplices_of(second) == SECOND_MACRO_PATH
        final = replay_trace(trace)
        assert simplices_of(final) == (((0, 0), 1),)

    def test_every_intermediate_state_is_a_loop(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, WORKED_LOOP), base_simplex(2))
        trace = reduce_loop(p)
        for upto in range(len(trace.moves) + 1):
            partial = replay_trace(trace, upto)
            assert is_loop(partial)
            assert partial.base == base_simplex(2)

    def test_open_path_rejected(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, (0, 1)), base_simplex(2))
        with pytest.raises(DomainError):
            reduce_loop(p)

    def test_letters_outside_the_baby_base_rejected(self, toroidal2_base):
        w = Word.from_indices(toroidal2_base, (3, 1, 0, 2, 3, 1, 0, 2))
        p = path_of_word(w, base_simplex(2))
        with pytest.raises(DomainError):
            reduce_loop(p)

    def test_random_loops_reduce_from_any_base(self):
        rng = random.Random(23)
        for _ in range(60):
            nu = rng.randint(1, 3)
            crumbs = baby_base(nu)
            indices = random_relation_indices(rng, nu, rng.randint(0, 8))
            start = Simplex(
                tuple(rng.randint(-2, 2) for _ in range(nu)), rng.choice((1, -1))
            )
            p = path_of_word(Word.from_indices(crumbs, indices), start)
            trace = reduce_loop(p)
            final = replay_trace(trace)
            assert simplices_of(final) == ((start.anchor, start.orient),)

    def test_long_loop_stress(self):
        rng = random.Random(37)
        crumbs = baby_base(5)
        indices = random_relation_indices(rng, 5, 25)  # length 50
        p = path_of_word(Word.from_indices(crumbs, indices), base_simplex(5))
        trace = reduce_loop(p)
        assert simplices_of(replay_trace(trace)) == (((0,) * 5, 1),)

    def test_equivariance_of_traces(self, baby2_base):
        # moving the base simplex re-bases the whole reduction: same move
        # shapes and macro spans, valid at the moved base
        w = eval_word(Word.from_indices(baby2_base, (1, 0, 2)))
        word = Word.from_indices(baby2_base, WORKED_LOOP)
        moved = act_on_simplex(w, base_simplex(2))
        here = reduce_loop(path_of_word(word, base_simplex(2)))
        there = reduce_loop(path_of_word(word, moved))
        assert [(m.kind, m.pos, m.gens) for m in here.moves] == [
            (m.kind, m.pos, m.gens) for m in there.moves
        ]
        assert here.macros == there.macros
        assert simplices_of(replay_trace(there)) == ((moved.anchor, moved.orient),)


def commutator(n):
    return (0, 1) * n + (0, 2) * n + (1, 0) * n + (2, 0) * n


def suffix_bases(trace, nu):
    """Every move's sub-loop base, from the whole word suffix evaluated afresh."""
    crumbs = baby_base(nu)
    word = list(trace.start)
    for mv in trace.moves:
        block = list(move_block(mv.gens))
        end = mv.pos + len(block)
        if mv.kind == "insert":
            suffix = word[mv.pos :]
            word[mv.pos : mv.pos] = block
        else:
            assert word[mv.pos : end] == block
            suffix = word[end:]
            del word[mv.pos : end]
        yield act_on_simplex(eval_word(Word.from_indices(crumbs, suffix)), trace.base)
    assert word == []


@st.composite
def loops_with_base(draw):
    nu = draw(st.sampled_from((2, 3)))
    if nu == 2 and draw(st.booleans()):
        indices = commutator(draw(st.integers(0, 6)))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        indices = random_relation_indices(rng, nu, draw(st.integers(0, 12)))
    anchor = draw(st.tuples(*[st.integers(-3, 3)] * nu))
    return nu, indices, Simplex(anchor, draw(st.sampled_from((1, -1))))


@settings(deadline=None, max_examples=60)
@given(loops_with_base())
def test_move_bases_match_fresh_suffix_evaluation(case):
    nu, indices, start = case
    trace = reduce_loop(path_of_word(Word.from_indices(baby_base(nu), indices), start))
    assert [mv.base for mv in trace.moves] == list(suffix_bases(trace, nu))
    assert simplices_of(replay_trace(trace)) == ((start.anchor, start.orient),)


class TestReplayRejectsTampering:
    START = (1, 1, 2, 2)

    @pytest.mark.parametrize(
        "kind, pos, gens",
        [
            ("insert", 5, (1,)),  # past the end of the word
            ("insert", -1, (1,)),
            ("delete", -4, (1,)),  # a negative slice that would hold the block
            ("delete", 1, (1,)),  # block absent
            ("delete", 0, (2,)),
            ("delete", 3, (2,)),  # runs past the end
            ("insert", 0, (7,)),  # generator outside 0..nu
            ("insert", 0, (0, 1, 3)),
            ("flip", 0, (1,)),  # unknown kind
        ],
    )
    def test_malformed_move(self, kind, pos, gens):
        b = base_simplex(2)
        trace = MoveTrace(self.START, b, (Move(kind, pos, gens, b),), ())
        with pytest.raises(DomainError):
            replay_trace(trace)

    def test_well_formed_moves_replay(self):
        b = base_simplex(2)
        moves = (Move("delete", 0, (1,), b), Move("insert", 2, (1,), b))
        path = replay_trace(MoveTrace(self.START, b, moves, ()))
        assert path.word.to_indices(baby_base(2)) == (2, 2, 1, 1)

    def test_any_wrong_base(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, WORKED_LOOP), base_simplex(2))
        trace = reduce_loop(p)
        for k, mv in enumerate(trace.moves):
            wrong = Simplex(mv.base.anchor, -mv.base.orient)
            moves = trace.moves[:k] + (dataclasses.replace(mv, base=wrong),) + trace.moves[k + 1 :]
            with pytest.raises(DomainError):
                replay_trace(dataclasses.replace(trace, moves=moves))

    @pytest.mark.parametrize(
        "kind, pos, gens",
        [
            ("insert", 1.5, (1,)),
            ("insert", "0", (1,)),
            ("insert", None, (1,)),
            ("delete", 0.0, (1,)),
            ("delete", "0", (1,)),
            ("insert", 0, (1.5,)),
            ("delete", 0, (1.0,)),
            ("insert", 0, (0, 1.0, 2)),
        ],
    )
    def test_non_int_move(self, kind, pos, gens):
        b = base_simplex(2)
        trace = MoveTrace(self.START, b, (Move(kind, pos, gens, b),), ())
        with pytest.raises(DomainError):
            replay_trace(trace)


I64_MAX, I64_MIN = 2**63 - 1, -(2**63)
PAST_MAX = "integer 9223372036854775808 exceeds the signed 64-bit guard"
PAST_MIN = "integer -9223372036854775809 exceeds the signed 64-bit guard"


@pytest.mark.parametrize("letter, base, message", [
    (Root(-1, (I64_MIN,)), base_simplex(1), PAST_MAX),  # sign(a) * p(a) leaves the band
    (Root(1, (I64_MIN,)), Simplex((0,), -1), PAST_MAX),  # orient * sign(a) * p(a) does
    (Root(1, (1, 0)), Simplex((I64_MAX, 0), 1), PAST_MAX),  # the anchor does
])
def test_a_path_step_past_the_band_raises_the_guard_error(letter, base, message):
    with pytest.raises(OverflowError) as exc:
        path_of_word(Word(base.rank, (letter,)), base)
    assert str(exc.value) == message


@pytest.mark.parametrize("base, gens, message", [
    (Simplex((I64_MAX, 0), 1), (1,), PAST_MAX),
    (Simplex((0, I64_MIN), -1), (0, 1, 2), PAST_MIN),
])
def test_an_insert_at_the_band_edge_raises_the_guard_error(base, gens, message):
    trace = MoveTrace((), base, (Move("insert", 0, gens, base),), ())
    with pytest.raises(OverflowError) as exc:
        replay_trace(trace)
    assert str(exc.value) == message


def test_a_path_step_next_to_the_band_edge_stays_in_it():
    path = path_of_word(Word(2, (Root(1, (1, 0)),)), Simplex((I64_MAX - 1, 0), 1))
    assert path.simplices[-1] == Simplex((I64_MAX, 0), -1)


class TestFreeTransitiveAction:
    def test_freeness_sampled(self):
        rng = random.Random(29)
        for _ in range(200):
            elem = WeylElement(rng.choice((1, -1)), (rng.randint(-5, 5), rng.randint(-5, 5)))
            simplex = Simplex((rng.randint(-5, 5), rng.randint(-5, 5)), rng.choice((1, -1)))
            if act_on_simplex(elem, simplex) == simplex:
                assert elem.is_identity

    def test_transitivity_witness_radius3(self):
        for x in range(-3, 4):
            for y in range(-3, 4):
                for orient in (1, -1):
                    elem = WeylElement(orient, (x, y))
                    assert act_on_simplex(elem, base_simplex(2)) == Simplex((x, y), orient)
                    witness = witness_word_for_element(elem)
                    assert eval_word(witness) == elem


elements2 = st.builds(
    WeylElement, st.sampled_from((-1, 1)), st.tuples(st.integers(-5, 5), st.integers(-5, 5))
)
simplices2 = st.builds(
    Simplex, st.tuples(st.integers(-5, 5), st.integers(-5, 5)), st.sampled_from((-1, 1))
)


@settings(deadline=None)
@given(elements2, elements2, simplices2)
def test_action_law(a, b, s):
    assert act_on_simplex(compose(a, b), s) == act_on_simplex(a, act_on_simplex(b, s))


class TestRenderSvg:
    def test_trivial_loop_has_one_label(self):
        svg = render_svg(path_of_word(Word.empty(2), base_simplex(2)))
        assert svg.count("<polygon") == 1
        assert ">B0</text>" in svg

    def test_worked_loop_has_twelve_labels(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, WORKED_LOOP), base_simplex(2))
        svg = render_svg(p)
        assert svg.count("<polygon") == 12
        for r in range(12):
            assert f"B{r}" in svg
        assert "B12" not in svg

    def test_reduced_loop_has_six_labels(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, (2, 1, 0, 2, 1, 0)), base_simplex(2))
        svg = render_svg(p)
        assert svg.count("<polygon") == 6
        assert "B5" in svg and "B6" not in svg

    def test_repeat_visits_share_a_label_slot(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, (1, 1, 1, 1)), base_simplex(2))
        svg = render_svg(p)
        assert "B0,B2" in svg and "B1,B3" in svg

    def test_deterministic(self, baby2_base):
        p = path_of_word(Word.from_indices(baby2_base, WORKED_LOOP), base_simplex(2))
        assert render_svg(p) == render_svg(p)

    def test_rank_restriction(self):
        with pytest.raises(DomainError):
            render_svg(path_of_word(Word.empty(3), base_simplex(3)))

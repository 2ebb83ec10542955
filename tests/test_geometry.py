import collections
import copy
import dataclasses
import importlib.util
import itertools
import pathlib
import pickle
import random
import re
from array import array
from functools import cached_property
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
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
    parse_word,
    path_of_word,
    reduce_loop,
    render_svg,
    replay_trace,
    witness_word_for_element,
)
from a1weyl import geometry, lattice
from a1weyl.errors import InternalCheckError
from a1weyl.geometry import Path, TraceMoves, _Tracer
from a1weyl.lattice import vec_add, vec_scale
from a1weyl.moves import WordMoves, move_block, reversal_width, reversible, shapes_proved
from a1weyl.presentation import RewriteCertificate, RewriteStep, StepColumns
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


class TestSimplexText:
    def test_str_is_the_path_text_form(self):
        assert str(Simplex((1, -2), -1)) == "B(1,-2;-)"
        assert str(Simplex((0, 3), 1)) == "B(0,3;+)"

    def test_rank_zero(self):
        assert str(base_simplex(0)) == "B(;+)"

    def test_repr_is_unchanged(self):
        assert repr(Simplex((1, -2), -1)) == "Simplex(anchor=(1, -2), orient=-1)"


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

    @pytest.mark.parametrize("start", [(True, True), (1.0, 1.0), (1, True)])
    def test_a_start_index_that_is_not_an_int(self, start):
        # (True, True) replayed to the empty path, and (1.0, 1.0) raised TypeError
        b = base_simplex(2)
        trace = MoveTrace(start, b, (Move("delete", 0, (1,), b),), ((0, 1, "cancel"),))
        with pytest.raises(DomainError, match="is not an int"):
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


# --- render_svg as it was before each distinct simplex was drawn once: its reference ---
# kept verbatim, renamed: it keys the labels by Simplex and computes a
# simplex's triangle for the bounds, for its polygon and for its label.

_SCALE = 40  # pixels per lattice unit
_PAD = 60


def _screen(x: int, y: int) -> tuple[int, int]:
    return (_SCALE * x, -_SCALE * y)


def _triangle(s: Simplex) -> tuple[tuple[int, int], ...]:
    ax, ay = 2 * s.anchor[0], 2 * s.anchor[1]
    return (
        _screen(ax, ay),
        _screen(ax + s.orient, ay),
        _screen(ax, ay + s.orient),
    )


def reference_render_svg(p: Path) -> str:
    if p.rank != 2:
        raise DomainError("SVG rendering is implemented for rank 2 only")
    n = len(p.simplices)
    closing = n > 1 and p.simplices[0] == p.simplices[-1]
    labelled = n - 1 if closing else n

    triangles: dict[Simplex, list[str]] = {}
    for r in range(labelled):
        triangles.setdefault(p.simplices[r], []).append(f"B{r}")
    for r in range(labelled, n):
        triangles.setdefault(p.simplices[r], [])

    xs, ys = [0], [0]
    for tri in map(_triangle, triangles):
        for x, y in tri:
            xs.append(x)
            ys.append(y)
    x0, x1 = min(xs) - _PAD, max(xs) + _PAD
    y0, y1 = min(ys) - _PAD, max(ys) + _PAD

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0} {y0} {x1 - x0} {y1 - y0}" '
        f'width="{x1 - x0}" height="{y1 - y0}">',
        f'<line x1="{x0 + 8}" y1="0" x2="{x1 - 8}" y2="0" stroke="#888" stroke-width="1"/>',
        f'<line x1="0" y1="{y0 + 8}" x2="0" y2="{y1 - 8}" stroke="#888" stroke-width="1"/>',
        f'<text x="{x1 - 30}" y="-6" font-size="14">s1</text>',
        f'<text x="6" y="{y0 + 24}" font-size="14">s2</text>',
    ]
    ordered = sorted(triangles, key=lambda s: (s.anchor, s.orient))
    for simplex in ordered:
        pts = " ".join(f"{x},{y}" for x, y in _triangle(simplex))
        parts.append(f'<polygon points="{pts}" fill="none" stroke="#000" stroke-width="2"/>')
    for simplex in ordered:
        labels = triangles[simplex]
        if not labels:
            continue
        tri = _triangle(simplex)
        cx = sum(x for x, _ in tri) // 3 + 4 * simplex.orient
        cy = sum(y for _, y in tri) // 3 - 4 * simplex.orient
        parts.append(f'<text x="{cx}" y="{cy}" font-size="12">{",".join(labels)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


@st.composite
def rank2_paths(draw):
    """A rank-2 path: of a loop (a relation, or ``w`` then ``w`` reversed) or any word, from any base.

    The anchor reaches ``+-2**40``.  As a hand-built ``Path`` every simplex
    is a fresh object, so its equal simplices are distinct objects.
    """
    shape = draw(st.sampled_from(("relation", "mirror", "any")))
    if shape == "relation":
        indices = random_relation_indices(random.Random(draw(st.integers(0, 2**32 - 1))), 2,
                                          draw(st.integers(0, 12)))
    else:
        indices = draw(st.lists(st.integers(0, 2), max_size=24))
        if shape == "mirror":
            indices += indices[::-1]
    coordinate = st.integers(-(2**40), 2**40)
    base = Simplex((draw(coordinate), draw(coordinate)), draw(st.sampled_from((1, -1))))
    path = path_of_word(Word.from_indices(baby_base(2), indices), base)
    if draw(st.booleans()):
        path = Path(tuple(Simplex(tuple(list(s.anchor)), s.orient) for s in path.simplices), path.word)
    return path


@settings(deadline=None, max_examples=200)
@given(rank2_paths())
def test_render_svg_writes_the_bytes_of_the_reference_renderer(path):
    assert render_svg(path).encode() == reference_render_svg(path).encode()


def test_a_hand_built_path_of_distinct_equal_simplices_renders_as_the_reference():
    walk = path_of_word(Word.from_indices(baby_base(2), WORKED_LOOP + (1, 1, 1, 1)), base_simplex(2))
    copies = tuple(Simplex(tuple(list(s.anchor)), s.orient) for s in walk.simplices)
    assert copies[0] == copies[2] and copies[0] is not copies[2]
    path = Path(copies, walk.word)
    assert render_svg(path).encode() == reference_render_svg(path).encode()


# --- the per-letter walk the column sums replaced: the references of _walk ---
# _step, path_of_word and _Tracer as they were before paths were summed by
# columns, kept verbatim but for the tracer, renamed, which records its own moves.


def _step(a: Root, b: Simplex) -> Simplex:
    """One step of a path: ``w_a . B(x, o) = B(x + o*sign(a)*p(a), -o)``."""
    return Simplex(vec_add(b.anchor, vec_scale(b.orient, vec_scale(a.sign, a.lat))), -b.orient)


def reference_path_of_word(word: Word, base: Simplex) -> Path:
    if word.rank != base.rank:
        raise DomainError("rank mismatch between word and base simplex")
    out = [base]
    for a in reversed(word.letters):
        out.append(_step(a, out[-1]))
    return Path(tuple(out), word)


class ReferenceTracer(_Tracer):
    """The per-letter walk and the full expansion of every reversal, recording each move in its own ``moves``.

    It subclasses ``_Tracer`` only for the live word and ``at`` its
    constructor sets up; every move is its own: the insert walks the block
    letter by letter, and no reversal is cited.
    """

    reverse_triple = WordMoves.reverse_triple

    def __init__(self, indices: Sequence[int], path: Path):
        super().__init__(indices, path)
        self.roots = baby_base(path.rank).roots
        self.moves: list[Move] = []

    def insert(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        block = WordMoves.insert(self, pos, gens)
        base = self.at[pos]
        entries = [base]
        for k in reversed(block):
            entries.append(_step(self.roots[k], entries[-1]))
        self.at[pos:pos] = entries[:0:-1]
        self.moves.append(Move("insert", pos, gens, base))
        return base

    def delete(self, pos: int, gens: tuple[int, ...]) -> Simplex:
        end = pos + len(WordMoves.delete(self, pos, gens))
        base = self.at[end]
        del self.at[pos:end]
        self.moves.append(Move("delete", pos, gens, base))
        return base


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the type and the message must both match
        return "raises", type(exc), str(exc)


def as_records(trace):
    """``trace`` with its moves read into a tuple of ``Move`` records."""
    return dataclasses.replace(trace, moves=tuple(trace.moves))


def test_the_reference_tracer_takes_every_cancellation_through_its_own_delete():
    deleted = []

    class CountingReference(ReferenceTracer):
        def delete(self, pos, gens):
            deleted.append((pos, gens))
            return super().delete(pos, gens)

    path = path_of_word(Word.from_indices(baby_base(2), WORKED_LOOP), base_simplex(2))
    trace = reference_reduce_loop(path, CountingReference)
    assert deleted == [(m.pos, m.gens) for m in trace.moves if m.kind == "delete"]
    assert any(len(gens) == 1 for _, gens in deleted)
    assert trace == reduce_loop(path)


walk_coords = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**57), 2**57),  # forty of them and an anchor stay inside the bound
    st.integers(I64_MIN + 1, I64_MAX),  # a term -(-2^63) is the one difference, pinned below
)


@st.composite
def walks(draw, coords=walk_coords, max_rank=4, max_len=40):
    rank = draw(st.integers(0, max_rank))
    length = draw(st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, max_len)))
    letters = draw(st.lists(
        st.builds(Root, st.sampled_from((-1, 1)), st.tuples(*[coords] * rank)),
        min_size=length, max_size=length,
    ))
    base = Simplex(draw(st.tuples(*[coords] * rank)), draw(st.sampled_from((-1, 1))))
    return Word(rank, tuple(letters)), base


@settings(deadline=None, max_examples=300)
@given(walks())
def test_path_of_word_equals_the_per_letter_walk(case):
    word, base = case
    assert outcome(path_of_word, word, base) == outcome(reference_path_of_word, word, base)


@st.composite
def walks_at_the_bound(draw, total):
    """Paths whose first coordinate has ``|x_0| + sum_t |p_0(a_t)| == total`` exactly."""
    rank = draw(st.integers(1, 4))
    length = draw(st.integers(1, 8))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=length, max_size=length)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    assume(max(parts[1:]) <= I64_MAX)  # no letter coordinate -2^63, whose term may be 2^63

    def first(part):  # 2^63 is only in the band as -2^63
        return -part if part > I64_MAX or draw(st.booleans()) else part

    def rest():
        return draw(st.tuples(*[st.integers(-3, 3)] * (rank - 1)))

    base = Simplex((first(parts[0]), *rest()), draw(st.sampled_from((-1, 1))))
    letters = [Root(draw(st.sampled_from((-1, 1))), (first(part), *rest())) for part in parts[1:]]
    return Word(rank, tuple(letters)), base


@settings(deadline=None, max_examples=150)
@given(walks_at_the_bound(I64_MAX))
def test_a_path_with_bound_equal_to_i64_max_stays_in_the_band(case):
    word, base = case
    result = outcome(path_of_word, word, base)
    assert result[0] == "value"
    assert result == outcome(reference_path_of_word, word, base)


@settings(deadline=None, max_examples=150)
@given(walks_at_the_bound(I64_MAX + 1))
def test_a_path_with_bound_one_past_i64_max_equals_the_per_letter_walk(case):
    word, base = case
    assert outcome(path_of_word, word, base) == outcome(reference_path_of_word, word, base)


def test_a_term_of_2_63_with_an_anchor_in_the_band_is_summed_exactly():
    """The per-letter walk raised on the term ``-(-2^63)``; the sums keep the in-band anchor."""
    word = Word(1, (Root(-1, (I64_MIN,)),))
    base = Simplex((-5,), 1)
    assert path_of_word(word, base).simplices == (base, Simplex((I64_MAX - 4,), -1))
    assert outcome(reference_path_of_word, word, base) == ("raises", OverflowError, PAST_MAX)


@st.composite
def tracers_with_inserts(draw):
    """A baby-base word, a base simplex near or past the bound, and blocks to insert."""
    nu = draw(st.integers(0, 4))
    indices = draw(st.lists(st.integers(0, nu), max_size=12))
    edge = st.one_of(st.integers(-3, 3), st.integers(I64_MAX - 3, I64_MAX), st.integers(I64_MIN, I64_MIN + 3))
    base = Simplex(draw(st.tuples(*[edge] * nu)), draw(st.sampled_from((-1, 1))))
    blocks = [(i,) for i in range(nu + 1)] + [(0, i, j) for i in range(1, nu + 1) for j in range(i + 1, nu + 1)]
    inserts = draw(st.lists(st.tuples(st.integers(0, 30), st.sampled_from(blocks)), max_size=6))
    return nu, indices, base, inserts


def tracer_states(tracer_type, indices, path, inserts):
    tracer = tracer_type(indices, path)
    states = []
    for pos, gens in inserts:
        pos %= len(tracer.word) + 1
        states.append((outcome(tracer.insert, pos, gens), tracer.word[:], tracer.at[:]))
        if states[-1][0][0] == "raises":
            break
    return states


@settings(deadline=None, max_examples=200)
@given(tracers_with_inserts())
def test_tracer_inserts_equal_the_per_letter_walk(case):
    nu, indices, base, inserts = case
    try:
        path = reference_path_of_word(Word.from_indices(baby_base(nu), indices), base)
    except OverflowError:
        path = path_of_word(Word.empty(nu), base)
        indices = []
    assert tracer_states(_Tracer, indices, path, inserts) == tracer_states(
        ReferenceTracer, indices, path, inserts
    )


@st.composite
def loops_with_far_base(draw):
    nu, indices, start = draw(loops_with_base())
    edge = st.one_of(st.integers(-3, 3), st.integers(I64_MAX - 40, I64_MAX), st.integers(I64_MIN, I64_MIN + 40))
    return nu, indices, Simplex(draw(st.tuples(*[edge] * nu)), start.orient)


@settings(deadline=None, max_examples=60)
@given(st.one_of(loops_with_base(), loops_with_far_base()))
def test_loop_traces_and_replays_equal_the_per_letter_walk(case):
    nu, indices, start = case
    word = Word.from_indices(baby_base(nu), indices)

    def library():
        trace = reduce_loop(path_of_word(word, start))
        return as_records(trace), [replay_trace(trace, b) for _, b, _ in trace.macros]

    def reference():
        trace = reference_reduce_loop(reference_path_of_word(word, start))
        return trace, [reference_replay_trace(trace, b) for _, b, _ in trace.macros]

    assert outcome(library) == outcome(reference)


def test_rank_zero_walks_alternate_the_orientation():
    word = Word.from_indices(baby_base(0), (0, 0, 0))
    path = path_of_word(word, Simplex((), -1))
    assert [s.orient for s in path.simplices] == [-1, 1, -1, 1]
    assert path == reference_path_of_word(word, Simplex((), -1))


class TestSimplexGuardsItsAnchor:
    @pytest.mark.parametrize("anchor, message", [
        ((2**70, 0), "integer 1180591620717411303424 exceeds the signed 64-bit guard"),
        ((0, I64_MAX + 1), PAST_MAX),
        ((I64_MIN - 1,), PAST_MIN),
    ])
    def test_an_anchor_past_the_band_raises_the_guard_error(self, anchor, message):
        with pytest.raises(OverflowError) as exc:
            Simplex(anchor, 1)
        assert str(exc.value) == message

    def test_the_band_edges_are_anchors(self):
        assert Simplex((I64_MAX, I64_MIN), -1).anchor == (I64_MAX, I64_MIN)


class TestReplayTraceUpto:
    def trace(self, baby2_base):
        return reduce_loop(path_of_word(Word.from_indices(baby2_base, WORKED_LOOP), base_simplex(2)))

    def test_none_replays_every_move(self, baby2_base):
        trace = self.trace(baby2_base)
        assert simplices_of(replay_trace(trace, None)) == (((0, 0), 1),)

    def test_zero_replays_no_move(self, baby2_base):
        trace = self.trace(baby2_base)
        assert simplices_of(replay_trace(trace, 0)) == WORKED_PATH

    def test_the_move_count_replays_every_move(self, baby2_base):
        trace = self.trace(baby2_base)
        assert replay_trace(trace, len(trace.moves)) == replay_trace(trace)

    @pytest.mark.parametrize("upto", [-1, "end", "len"])
    def test_outside_the_range_is_a_domain_error(self, baby2_base, upto):
        trace = self.trace(baby2_base)
        n = len(trace.moves)
        upto = {"end": n + 1, "len": n + 10}.get(upto, upto)
        with pytest.raises(DomainError, match=f"0..{n}"):
            replay_trace(trace, upto)

    @pytest.mark.parametrize("upto", [1.5, 2.0, "3", True])
    def test_a_non_int_is_a_domain_error(self, baby2_base, upto):
        trace = self.trace(baby2_base)
        with pytest.raises(DomainError, match=f"0..{len(trace.moves)}"):
            replay_trace(trace, upto)


# --- cited triple reversals: the replay loop they replaced is the reference ---


def reference_replay_trace(trace: MoveTrace, upto: int | None = None) -> Path:
    """``replay_trace`` as it was before reversals were cited, kept verbatim: every move on its own."""
    n = len(trace.moves)
    if upto is None:
        upto = n
    elif type(upto) is not int or not 0 <= upto <= n:
        raise DomainError(f"upto must be None or an int in 0..{n}, got {upto!r}")
    crumbs = baby_base(trace.base.rank)
    tracer = _Tracer(trace.start, path_of_word(Word.from_indices(crumbs, trace.start), trace.base))
    for mv in trace.moves[:upto]:
        if mv.kind == "insert":
            base = tracer.insert(mv.pos, mv.gens)
        elif mv.kind == "delete":
            base = tracer.delete(mv.pos, mv.gens)
        else:
            raise DomainError(f"unknown move kind {mv.kind!r}")
        if base != mv.base:
            raise DomainError("trace replay: recorded sub-loop base does not match")
    return Path(tuple(reversed(tracer.at)), Word.from_indices(crumbs, tracer.word))


def tamperings(mv):
    """One-field changes of ``mv``: each must replay as the per-move loop replays it."""
    anchor, orient = mv.base.anchor, mv.base.orient
    yield dataclasses.replace(mv, kind="delete" if mv.kind == "insert" else "insert")
    yield from (dataclasses.replace(mv, pos=pos) for pos in (mv.pos + 1, mv.pos - 1, True))
    yield dataclasses.replace(mv, gens=(True, *mv.gens[1:]))
    yield dataclasses.replace(mv, gens=tuple(True if g == 1 else g for g in mv.gens))
    yield dataclasses.replace(mv, gens=list(mv.gens))
    for c, step in itertools.product(range(len(anchor)), (1, -1)):
        if I64_MIN <= anchor[c] + step <= I64_MAX:
            moved = anchor[:c] + (anchor[c] + step,) + anchor[c + 1 :]
            yield dataclasses.replace(mv, base=Simplex(moved, orient))
    yield dataclasses.replace(mv, base=Simplex(anchor, -orient))
    yield dataclasses.replace(mv, base=(anchor, orient))


def every_upto_replays_as_the_reference(trace):
    for upto in (None, *range(len(trace.moves) + 1)):
        assert outcome(replay_trace, trace, upto) == outcome(reference_replay_trace, trace, upto)


@settings(deadline=None, max_examples=40)
@given(st.one_of(loops_with_base(), loops_with_far_base()), st.data())
def test_a_tampered_reversal_run_replays_as_the_reference(case, data):
    nu, indices, start = case
    try:
        trace = reduce_loop(path_of_word(Word.from_indices(baby_base(nu), indices), start))
    except OverflowError:
        return
    every_upto_replays_as_the_reference(trace)
    moves = trace.moves
    inserts = [k for k, mv in enumerate(moves) if mv.kind == "insert"]
    if not inserts:
        return
    k = data.draw(st.sampled_from(sorted({j for i in inserts for j in range(i, min(i + 14, len(moves)))})))
    tampered = list(tamperings(moves[k]))
    bad = data.draw(st.sampled_from(tampered))
    every_upto_replays_as_the_reference(dataclasses.replace(trace, moves=moves[:k] + (bad,) + moves[k + 1 :]))
    for bad in tampered:
        forged = dataclasses.replace(trace, moves=moves[:k] + (bad,) + moves[k + 1 :])
        assert outcome(replay_trace, forged) == outcome(reference_replay_trace, forged)


@pytest.mark.parametrize("nu, indices", [
    (2, WORKED_LOOP),
    (2, commutator(3)),
    (3, (1, 3, 2, 1, 3, 2)),  # runs holding pos 1 and gens (1,): look-alikes True and (True,)
])
def test_every_tampering_of_every_move_replays_as_the_reference(nu, indices):
    trace = reduce_loop(path_of_word(Word.from_indices(baby_base(nu), indices), base_simplex(nu)))
    moves = trace.moves
    assert any(mv.kind == "insert" for mv in moves)
    for k, mv in enumerate(moves):
        for bad in tamperings(mv):
            forged = dataclasses.replace(trace, moves=moves[:k] + (bad,) + moves[k + 1 :])
            assert outcome(replay_trace, forged) == outcome(reference_replay_trace, forged)


def reversible_triples(nu):
    return [t for t in itertools.product(range(nu + 1), repeat=3) if reversible(*t)]


def expansion_at(tracer_type, triple, y):
    """Reverse ``triple`` with ``at[3] = y``: the word, the entries and the moves, or the exception."""
    nu = y.rank
    path = path_of_word(Word.from_indices(baby_base(nu), triple), y)
    tracer = tracer_type(triple, path)

    def run():
        tracer.reverse_triple(0)
        return tracer.word, tracer.at, tracer.moves

    return outcome(run)


def reversal_trace(triple, y):
    """The trace of one reversal of ``triple`` with ``at[3] = y``: a view over a one-step certificate."""
    steps = StepColumns(3, bytes([3]), array("q", [0]), array("q", triple))
    moves = TraceMoves(triple, y, RewriteCertificate(triple, steps, ((0, 1, "bubble"),), False))
    return MoveTrace(triple, y, moves, moves.macros)


def read_reversal(triple, y):
    """The reversal read from its trace: the word and the entries its replay reaches, and the moves."""

    def run():
        trace = reversal_trace(triple, y)
        path = replay_trace(trace)
        return list(path.word.to_indices(baby_base(y.rank))), list(reversed(path.simplices)), list(trace.moves)

    return outcome(run)


def edge_placements(nu):
    """Each reversible triple with ``at[3] = Y`` at each edge of the band, 0 to 3 away, in one coordinate."""
    edges = [e for d in range(4) for e in (I64_MAX - d, I64_MIN + d)]
    for triple, c, edge, orient in itertools.product(reversible_triples(nu), range(nu), edges, (1, -1)):
        y = Simplex(tuple(edge if i == c else 0 for i in range(nu)), orient)
        try:
            yield triple, path_of_word(Word.from_indices(baby_base(nu), triple), y)
        except OverflowError:
            continue  # the path of the triple itself leaves the band


def counting_inserts(monkeypatch):
    """Patch ``_Tracer.insert`` to note each position it inserts at; a cited run inserts through none."""
    insert = _Tracer.insert
    inserted = []

    def counting_insert(self, pos, gens):
        inserted.append(pos)
        return insert(self, pos, gens)

    monkeypatch.setattr(_Tracer, "insert", counting_insert)
    return inserted


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_every_script_at_the_band_edge_writes_what_the_expansion_writes(monkeypatch, nu):
    inserted = counting_inserts(monkeypatch)
    placements = 0
    for triple, path in edge_placements(nu):
        y = path.base
        assert read_reversal(triple, y) == expansion_at(ReferenceTracer, triple, y)
        placements += 1
    assert placements


def test_at_the_band_edge_every_run_is_cited_and_replays_as_the_reference(monkeypatch):
    """At the edge a cited reversal replays as one swap, and the view and its records as the reference at every ``upto``."""
    inserted = counting_inserts(monkeypatch)
    placements = 0
    for triple, path in edge_placements(2):
        trace = reversal_trace(triple, path.base)
        every_upto_replays_as_the_reference(trace)
        every_upto_replays_as_the_reference(as_records(trace))
        del inserted[:]
        replay_trace(trace)
        assert inserted == []
        placements += 1
    assert placements


def test_a_traced_loop_replays_every_reversal_as_a_cited_run(monkeypatch):
    trace = reduce_loop(path_of_word(Word.from_indices(baby_base(2), commutator(4)), base_simplex(2)))
    assert any(mv.kind == "insert" for mv in trace.moves)
    inserted = []
    monkeypatch.setattr(_Tracer, "insert", lambda self, pos, gens: inserted.append(pos))
    assert simplices_of(replay_trace(trace)) == (((0, 0), 1),)
    assert inserted == []


def test_a_patched_expansion_gets_no_cited_script(monkeypatch, cold_proof):
    word = Word.from_indices(baby_base(2), WORKED_LOOP)
    trace = reduce_loop(path_of_word(word, base_simplex(2)))
    assert shapes_proved()
    # The no-op expansion cannot reverse a triple: once the proof is
    # cleared, it fails and no reversal is cited, in tracing or in replay.
    monkeypatch.setattr(WordMoves, "reverse_triple", lambda self, q: None)
    shapes_proved.cache_clear()
    with pytest.raises(InternalCheckError):
        reduce_loop(path_of_word(word, base_simplex(2)))
    assert outcome(replay_trace, trace) == outcome(reference_replay_trace, trace)
    assert not shapes_proved()
    monkeypatch.undo()
    shapes_proved.cache_clear()
    assert reduce_loop(path_of_word(word, base_simplex(2))) == trace


@pytest.mark.parametrize("nu", range(7))
def test_scripts_exist_for_distinct_letters_and_match_the_reference(nu):
    """Checked against the reference expansion, not against the prover: it reverses in the width counted."""
    y = base_simplex(nu)
    scripted = 0
    for triple in itertools.product(range(nu + 1), repeat=3):
        proved = reversible(*triple)
        assert proved == (len(set(triple)) == 3)
        if not proved:
            continue
        scripted += 1
        tracer = ReferenceTracer(triple, path_of_word(Word.from_indices(baby_base(nu), triple), y))
        tracer.reverse_triple(0)
        assert tracer.word == list(reversed(triple))
        assert len(tracer.moves) == reversal_width(triple) == (4 if 0 in triple else 14)
    assert scripted == (nu + 1) * nu * (nu - 1)


# --- records that are not what they claim ---


def test_a_path_must_be_the_walk_of_its_word():
    word = Word.from_indices(baby_base(2), (1, 0, 2, 1, 0, 2))
    walk = path_of_word(word, base_simplex(2)).simplices
    assert Path(walk, word) == path_of_word(word, base_simplex(2))
    forged = walk[:3] + (Simplex((9, 9), 1),) + walk[4:]
    with pytest.raises(DomainError, match="not the walk of its word"):
        Path(forged, word)
    with pytest.raises(DomainError, match="rank"):
        Path((base_simplex(3),) + walk[1:], word)


def test_a_hand_built_path_keeps_the_tuple_of_the_list_it_was_given():
    given = [base_simplex(2)]
    path = Path(given, Word.empty(2))
    assert type(path.simplices) is tuple
    assert hash(path) == hash(Path((base_simplex(2),), Word.empty(2)))
    given.append(base_simplex(2))
    assert path.simplices == (base_simplex(2),) and len(path.simplices) == len(path.word) + 1


def test_a_path_whose_walk_leaves_the_band_is_a_domain_error():
    word = Word.from_indices(baby_base(1), (1, 1))
    inside = (Simplex((I64_MAX,), 1), Simplex((I64_MAX,), 1), Simplex((I64_MAX,), 1))
    with pytest.raises(DomainError, match="leaves the band"):
        Path(inside, word)


@pytest.mark.parametrize("rank", range(4))
@pytest.mark.parametrize("orient", [1, -1])
def test_the_walk_of_the_empty_word_is_its_base_without_its_columns(rank, orient):
    word, b = Word.empty(rank), Simplex(tuple(range(-1, rank - 1)), orient)
    assert geometry._walk(word, b) == [b]
    assert "terms" not in vars(word)


def test_the_empty_walk_from_a_simplex_subclass_holds_a_plain_simplex():
    class Marked(Simplex):
        __slots__ = ()

    b = Marked((0, 0), 1)
    assert [type(s) for s in path_of_word(Word.empty(2), b).simplices] == [Simplex]
    with pytest.raises(DomainError, match="^the simplices of a path are not the walk of its word from the first$"):
        Path((b,), Word.empty(2))


@pytest.mark.parametrize("rank", range(4))
def test_a_path_of_the_empty_word_over_a_simplex_of_another_rank_is_refused(rank):
    other = base_simplex(rank + 1)
    with pytest.raises(DomainError, match=rf"^a path starts at a simplex of its word's rank, not at {re.escape(repr(other))}$"):
        Path((other,), Word.empty(rank))
    with pytest.raises(DomainError, match="^rank mismatch between word and base simplex$"):
        path_of_word(Word.empty(rank), other)


def empty_walk_loops():
    """``(nu, indices, base)``: every commutator n <= 10 and seeded random loops at nu 2 and 3."""
    for n in range(11):
        yield 2, commutator(n), Simplex((n - 5, 3 - n), (-1) ** n)
    rng = random.Random(38)
    for k in range(24):
        nu = 2 + k % 2
        base = Simplex(tuple(rng.randint(-4, 4) for _ in range(nu)), rng.choice((1, -1)))
        yield nu, random_relation_indices(rng, nu, rng.randint(0, 14)), base


@pytest.mark.parametrize("nu, indices, base", list(empty_walk_loops()))
def test_replay_of_a_loop_ends_at_the_path_of_the_empty_word_at_its_base(nu, indices, base):
    trace = reduce_loop(path_of_word(Word.from_indices(baby_base(nu), indices), base))
    replayed = replay_trace(trace)
    assert replayed == Path((trace.base,), Word.empty(nu))
    assert "terms" not in vars(replayed.word)


def test_foreign_trace_entries_are_domain_errors():
    with pytest.raises(DomainError, match=r"^trace entry 0 is not a Move: 'x'$"):
        replay_trace(MoveTrace((1, 1), base_simplex(2), ("x",), ()))
    with pytest.raises(DomainError, match=r"^trace base \(0, 0\) is not a Simplex$"):
        replay_trace(MoveTrace((1, 1), (0, 0), (), ()))
    b = base_simplex(2)
    with pytest.raises(DomainError, match=r"^trace entry 1 is not a Move: None$"):
        replay_trace(MoveTrace((1, 1), b, (Move("insert", 0, (2,), b), None), ()))


@pytest.mark.parametrize("start, moves, field", [(None, (), "start"), ((1, 1), None, "moves")])
def test_a_trace_field_that_is_not_a_sequence_is_a_domain_error(start, moves, field):
    # both raised TypeError
    with pytest.raises(DomainError, match=rf"^trace {field} None is not a sequence$"):
        replay_trace(MoveTrace(start, base_simplex(2), moves, ()))


class LengthOnly:
    """A length and nothing to iterate."""

    def __len__(self) -> int:
        return 2


def test_a_trace_start_that_cannot_be_iterated_is_a_domain_error():
    # raised TypeError
    with pytest.raises(DomainError, match=r"^trace start <.*> is not a sequence$"):
        replay_trace(MoveTrace(LengthOnly(), base_simplex(2), (), ()))


def test_a_deque_of_moves_replays_as_the_same_moves_in_a_tuple(baby2_base):
    # Record replay reads the moves one at a time, so a deque, which cannot be sliced, replays as a tuple.
    trace = reduce_loop(path_of_word(Word.from_indices(baby2_base, WORKED_LOOP), base_simplex(2)))
    queued = dataclasses.replace(trace, moves=collections.deque(trace.moves))
    for upto in (None, 0, *(b for _, b, _ in trace.macros)):
        assert replay_trace(queued, upto) == replay_trace(trace, upto)


def test_a_forged_insert_above_the_rank_is_refused_by_the_walk():
    b = base_simplex(2)
    with pytest.raises(DomainError, match=r"^generator index 7 out of range 0\.\.2$"):
        replay_trace(MoveTrace((1, 1, 2, 2), b, (Move("insert", 0, (7,), b),), ()))


# --- cancellations through ``_Tracer.delete``: the tracing loop of every step through ``apply`` is the reference ---


def reference_reduce_loop(p: Path, tracer_type=ReferenceTracer) -> MoveTrace:
    """``reduce_loop`` as it was before cancellations went through ``tracer.delete``: every step through ``apply``.

    Kept verbatim but for ``geometry.rewrite_to_identity``, looked up at the
    call so that a forged certificate reaches both versions, and for the
    tracer, which records its own moves: the reference's, which expands
    every reversal, unless the caller names another.
    """
    if not is_loop(p):
        raise DomainError("only loops can be reduced")
    nu = p.rank
    indices = p.word.to_indices(baby_base(nu))
    cert = geometry.rewrite_to_identity(indices, nu)
    tracer = tracer_type(indices, p)
    macros: list[tuple[int, int, str]] = []
    for a, b, kind in cert.macros:
        start = len(tracer.moves)
        for step in cert.steps[a:b]:
            try:
                tracer.apply(step)
            except DomainError as exc:
                raise InternalCheckError(f"certificate step {step} does not apply: {exc}") from exc
        macros.append((start, len(tracer.moves), kind))
    if tracer.word:
        raise InternalCheckError("reduction finished with a non-empty word")
    return MoveTrace(tuple(indices), p.base, tuple(tracer.moves), tuple(macros))


@settings(deadline=None, max_examples=60)
@given(st.one_of(loops_with_base(), loops_with_far_base()))
def test_reduce_loop_equals_the_reduction_through_apply(case):
    nu, indices, start = case
    word = Word.from_indices(baby_base(nu), indices)

    def reduce(reducer):
        return as_records(reducer(path_of_word(word, start)))

    assert outcome(reduce, reduce_loop) == outcome(reduce, reference_reduce_loop)


def forged_cancels(step):
    """One-field changes of a cancel step; each must trace as the reduction through ``apply`` traces it."""
    k = step.payload[0]
    for pos in (step.pos + 1, step.pos - 1, True, step.before_len - 1):
        yield dataclasses.replace(step, pos=pos)
    for payload in ((k + 1,), (True,), [k], (k, k), ()):
        yield dataclasses.replace(step, payload=payload)


def test_a_forged_cancel_traces_as_the_reduction_through_apply(monkeypatch):
    path = path_of_word(Word.from_indices(baby_base(2), WORKED_LOOP), base_simplex(2))
    cert = geometry.rewrite_to_identity(path.word.to_indices(baby_base(2)), 2)
    refused = 0
    for k, step in enumerate(cert.steps):
        if step.rule != "cancel-involution":
            continue
        for bad in forged_cancels(step):
            forged = dataclasses.replace(cert, steps=cert.steps[:k] + (bad,) + cert.steps[k + 1 :])
            monkeypatch.setattr(geometry, "rewrite_to_identity", lambda indices, nu: forged)
            got = outcome(reduce_loop, path)
            assert got == outcome(reference_reduce_loop, path)
            refused += got[:2] == ("raises", InternalCheckError)
    assert refused


def test_a_forged_cancel_that_does_not_apply_raises_the_same_check_error(monkeypatch):
    path = path_of_word(Word.from_indices(baby_base(1), (1, 0, 0, 1)), base_simplex(1))
    step = RewriteStep("cancel-involution", 0, (0,), 4, 2)  # the pair is at 1, not at 0
    forged = RewriteCertificate((1, 0, 0, 1), (step,), ((0, 1, "cancel"),), True)
    monkeypatch.setattr(geometry, "rewrite_to_identity", lambda indices, nu: forged)
    message = (f"certificate step {step} does not apply: cannot delete (0, 0) at 0: block absent")
    assert outcome(reduce_loop, path) == ("raises", InternalCheckError, message)
    assert outcome(reference_reduce_loop, path) == ("raises", InternalCheckError, message)


def first_failing_step(cert):
    """The first step of ``cert`` that does not apply, each step through ``WordMoves.apply``, and its error."""
    moves = WordMoves(cert.start)
    for step in cert.steps:
        try:
            moves.apply(step)
        except DomainError as exc:
            return step, exc
    raise AssertionError("every step applies")


@pytest.mark.parametrize("rule", ["cancel-involution", "triple-reverse", "delete-relator"])
@pytest.mark.parametrize("as_columns", [True, False])
def test_reduce_loop_names_a_middle_step_that_does_not_apply(monkeypatch, rule, as_columns):
    indices = random_relation_indices(random.Random(11), 3, 60) + (0, 1, 2, 0, 1, 2)
    path = path_of_word(Word.from_indices(baby_base(3), indices), base_simplex(3))
    cert = geometry.rewrite_to_identity(indices, 3)
    ks = [k for k, step in enumerate(cert.steps) if step.rule == rule]
    k = ks[len(ks) // 2]
    assert 0 < k < len(cert.steps) - 1
    positions = array("q", cert.steps.positions)
    positions[k] = 10**6  # past the end of any word the certificate passes through
    steps = StepColumns(cert.steps.length, cert.steps.rules, positions, cert.steps.letters)
    forged = dataclasses.replace(cert, steps=steps if as_columns else tuple(steps))
    monkeypatch.setattr(geometry, "rewrite_to_identity", lambda indices, nu: forged)
    bad, exc = first_failing_step(forged)
    assert bad == forged.steps[k]
    message = f"certificate step {bad} does not apply: {exc}"
    assert outcome(reduce_loop, path) == ("raises", InternalCheckError, message)
    assert outcome(reference_reduce_loop, path) == ("raises", InternalCheckError, message)


def test_trace_replay_builds_no_move_record(monkeypatch):
    path = path_of_word(Word.from_indices(baby_base(2), commutator(4)), base_simplex(2))
    replay_trace(reduce_loop(path))  # proves the scripts, which record moves of their own
    built = []

    def counting_move(*fields):
        built.append(fields)
        return Move(*fields)

    monkeypatch.setattr(geometry, "_move", counting_move)
    trace = reduce_loop(path)
    assert built == []
    assert simplices_of(replay_trace(trace)) == (((0, 0), 1),)
    assert built == []
    records = tuple(trace.moves)
    assert len(built) == len(records) == len(trace.moves) > 0  # the counter sees every record read


def test_each_reduction_and_each_replay_builds_at_most_one_base(monkeypatch):
    path = path_of_word(Word.from_indices(baby_base(2), commutator(4)), base_simplex(2))
    replay_trace(reduce_loop(path))  # proves the scripts, which build bases of their own
    built = []
    semilattice = lattice.baby_semilattice

    def counting_semilattice(nu):
        built.append(nu)
        return semilattice(nu)

    monkeypatch.setattr(lattice, "baby_semilattice", counting_semilattice)
    lattice.baby_base.cache_clear()
    trace = reduce_loop(path)
    assert built == [2]
    lattice.baby_base.cache_clear()
    replay_trace(trace)
    assert built == [2, 2]
    replay_trace(trace)
    assert built == [2, 2]


@pytest.mark.parametrize("kind", ["insert", "delete"])
@pytest.mark.parametrize("gens", [None, 5])
def test_gens_without_a_length_do_not_name_an_elementary_loop(kind, gens):
    # ``move_block`` raised TypeError from ``len(gens)``.
    trace = MoveTrace((1, 1), base_simplex(2), (Move(kind, 0, gens, base_simplex(2)),), ())
    with pytest.raises(DomainError, match=f"^{gens} does not name an elementary loop$"):
        replay_trace(trace)
    with pytest.raises(DomainError, match=f"^{gens} does not name an elementary loop$"):
        move_block(gens)


# --- a path's simplices are a view over its word and its base, built when read ---


@st.composite
def words_and_bases(draw):
    """A baby-base word of rank 0..4, a loop or any word, from a base anchored up to ``+-2**40`` or at the band edge."""
    nu = draw(st.integers(0, 4))
    indices = draw(st.lists(st.integers(0, nu), max_size=16))
    shape = draw(st.sampled_from(("relation", "mirror", "any")))
    if shape == "relation":
        indices = random_relation_indices(random.Random(draw(st.integers(0, 2**32 - 1))), nu, draw(st.integers(0, 10)))
    elif shape == "mirror":
        indices += indices[::-1]
    coordinate = st.one_of(st.integers(-(2**40), 2**40), st.integers(I64_MAX - 3, I64_MAX),
                           st.integers(I64_MIN, I64_MIN + 3))
    base = Simplex(draw(st.tuples(*[coordinate] * nu)), draw(st.sampled_from((1, -1))))
    return Word.from_indices(baby_base(nu), indices), base


def tuple_path(word, base):
    """The path of ``word`` from ``base`` as the constructor checks it: the tuple of the unchanged walk."""
    return Path(tuple(geometry._walk(word, base)), word)


CLONES = [
    *(lambda x, p=p: pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy, copy.deepcopy, dataclasses.replace, lambda p: Path(p.simplices, p.word),
]


def assert_reads_as_the_tuple_path(path, want):
    view, walk = path.simplices, want.simplices
    assert type(view) is geometry.WalkSimplices and type(walk) is tuple
    assert path == want and want == path and view == walk and walk == view
    assert hash(path) == hash(want) and hash(view) == hash(walk)
    assert repr(path) == repr(want) and repr(view) == repr(walk)
    for clone in CLONES:
        copied = clone(path)
        assert type(copied.simplices) is geometry.WalkSimplices
        assert copied == want and hash(copied) == hash(want) and repr(copied) == repr(want)
    n = len(walk)
    assert len(view) == n
    assert type(path.base) is Simplex and path.base is path.base is view[0] is view[-n] is tuple(view)[0]
    assert [str(s) for s in view] == [str(s) for s in walk]
    for r in range(-n, n):
        assert view[r] == walk[r] and type(view[r]) is Simplex and str(view[r]) == str(walk[r])
    for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1), slice(1, n, 2), slice(n, 0)):
        assert view[cut] == walk[cut]
    for index in (n, -n - 1, True, "0", 1.0):
        assert outcome(view.__getitem__, index) == outcome(walk.__getitem__, index)


@settings(deadline=None, max_examples=200)
@given(st.one_of(words_and_bases(), rank2_paths().map(lambda p: (p.word, p.base))))
def test_a_path_of_a_word_reads_as_the_tuple_of_its_walk(case):
    word, base = case
    got, want = outcome(path_of_word, word, base), outcome(tuple_path, word, base)
    if want[0] == "raises":
        assert got == want
    else:
        assert_reads_as_the_tuple_path(got[1], want[1])


@pytest.mark.parametrize("orient", [1, -1])
@pytest.mark.parametrize("anchor", [(I64_MAX, 0), (0, I64_MIN), (I64_MAX - 1, I64_MIN + 1)])
def test_a_path_at_the_band_edge_reads_as_the_tuple_of_its_walk(anchor, orient):
    for indices in itertools.product(range(3), repeat=3):
        word, base = Word.from_indices(baby_base(2), indices), Simplex(anchor, orient)
        got, want = outcome(path_of_word, word, base), outcome(tuple_path, word, base)
        if want[0] == "raises":
            assert got == want
        else:
            assert_reads_as_the_tuple_path(got[1], want[1])


def test_a_path_from_a_simplex_subclass_reads_from_the_plain_simplex():
    class Marked(Simplex):
        __slots__ = ()

    word = Word.from_indices(baby_base(2), WORKED_LOOP)
    path = path_of_word(word, Marked((1, -1), -1))
    assert_reads_as_the_tuple_path(path, tuple_path(word, Simplex((1, -1), -1)))


def test_a_path_built_from_a_view_over_another_word_is_refused():
    view = path_of_word(Word.from_indices(baby_base(2), WORKED_LOOP), base_simplex(2)).simplices
    other = Word.from_indices(baby_base(2), WORKED_LOOP[::-1])
    with pytest.raises(DomainError, match="^the simplices of a path are not the walk of its word from the first$"):
        Path(view, other)


def test_a_walk_that_leaves_the_band_and_comes_back_raises_at_path_of_word():
    word = Word.from_indices(baby_base(2), (1, 1))
    with pytest.raises(OverflowError) as exc:
        path_of_word(word, Simplex((I64_MAX, 0), 1))
    assert str(exc.value) == PAST_MAX


def counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` in a list, each call still made."""
    calls, inner = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_rank_3_loop_is_traced_and_replayed_without_building_a_simplex(monkeypatch):
    word = Word.from_indices(baby_base(3), random_relation_indices(random.Random(43), 3, 30))
    base = Simplex((3, -2, 5), -1)
    unchecked = counting(monkeypatch, geometry, "_unchecked_simplex")
    checked = counting(monkeypatch, Simplex, "__post_init__")
    path = path_of_word(word, base)
    replayed = replay_trace(reduce_loop(path))
    assert path.base is path.base is base
    assert (unchecked, checked) == ([], [])
    assert tuple(path.simplices)[-1] == base and len(unchecked) == len(word) + 1  # what a full read builds
    assert replayed == Path((base,), Word.empty(3))


def counting_view(monkeypatch, name):
    """Count the builds of the cached ``Word`` view ``name`` in a list of the words it is built for."""
    built, inner = [], vars(Word)[name].func

    def counted(word):
        built.append(word)
        return inner(word)

    view = cached_property(counted)
    view.__set_name__(Word, name)
    monkeypatch.setattr(Word, name, view)
    return built


def test_a_rank_3_loop_from_indices_builds_no_terms_and_sums_its_word_once(monkeypatch):
    word = Word.from_indices(baby_base(3), random_relation_indices(random.Random(44), 3, 30))
    assert len(word) == 60
    terms, sums = counting_view(monkeypatch, "terms"), counting_view(monkeypatch, "sums")
    path = path_of_word(word, Simplex((3, -2, 5), -1))
    trace = reduce_loop(path)
    replayed = replay_trace(trace)
    assert terms == []
    assert sum(w is word for w in sums) == 1
    assert replayed == Path((path.base,), Word.empty(3))


@pytest.mark.parametrize("base", [base_simplex(2), Simplex((-4, 7), -1)])
def test_a_read_and_a_record_replay_count_no_bounds_for_the_blocks_they_walk(monkeypatch, base):
    """A walk tests its own anchors: only the start's path view reads ``Word.bounds``, once."""
    start = Word.from_indices(baby_base(2), (0, 1) * 6 + (0, 2) * 6 + (1, 0) * 6 + (2, 0) * 6)
    trace = reduce_loop(path_of_word(start, base))
    records = dataclasses.replace(trace, moves=tuple(trace.moves))
    assert any(mv.kind == "insert" for mv in records.moves)
    bounds = counting_view(monkeypatch, "bounds")
    assert tuple(trace.moves) == records.moves
    assert bounds == [start]
    bounds.clear()
    assert replay_trace(records) == Path((base,), Word.empty(2))
    assert bounds == [start]


def test_a_replay_to_any_macro_end_counts_no_moves(monkeypatch):
    """Building the view counts each step's moves; a replay to a move finds its step in those counts."""
    widths = counting(monkeypatch, geometry, "move_widths")
    trace = reduce_loop(path_of_word(Word.from_indices(baby_base(3), (1, 3, 2, 1, 3, 2) * 3), base_simplex(3)))
    records = dataclasses.replace(trace, moves=tuple(trace.moves))
    assert len(widths) == 1
    for first, end, _ in trace.macros:
        for upto in (first, end):
            assert replay_trace(trace, upto) == replay_trace(records, upto)
    assert len(widths) == 1


@pytest.mark.parametrize("indices", [WORKED_LOOP, WORKED_LOOP[1:]])
def test_is_loop_refuses_a_loop_test_that_disagrees_with_the_word_problem(monkeypatch, indices):
    path = path_of_word(Word.from_indices(baby_base(2), indices), base_simplex(2))
    truth = geometry.is_relation_w(path.word)
    monkeypatch.setattr(geometry, "is_relation_w", lambda word: not truth)
    message = "^free action violated: loop test disagrees with the word problem$"
    with pytest.raises(InternalCheckError, match=message):
        is_loop(path)
    with pytest.raises(InternalCheckError, match=message):
        reduce_loop(path)


def test_render_svg_walks_the_word_once(monkeypatch):
    walks = counting(monkeypatch, geometry, "_walk")
    path = path_of_word(Word.from_indices(baby_base(2), WORKED_LOOP + (1, 1)), base_simplex(2))
    assert walks == []
    render_svg(path)
    assert len(walks) == 1


@pytest.mark.parametrize("word, base", [
    (Word.from_indices(baby_base(3), random_relation_indices(random.Random(45), 3, 10)), Simplex((3, -2, 5), -1)),
    (parse_word("+e:1,2 -e:-3,0 +e:3,0 +e:1,2", baby_base(2)), Simplex((4, -1), 1)),
])
def test_the_ends_of_a_path_are_read_without_a_walk_and_any_other_entry_with_one(monkeypatch, word, base):
    path = path_of_word(word, base)
    walks = counting(monkeypatch, geometry, "_walk")
    assert path.simplices[0] == path.simplices[-1] == base and is_loop(path)
    assert walks == []
    second = path.simplices[1]
    assert len(walks) == 1
    assert second == act_on_simplex(eval_word(Word(word.rank, word.letters[-1:])), base)


@pytest.mark.parametrize("base", [Simplex((1, 2, -3), 1), base_simplex(3)])
def test_the_replay_of_a_reduced_loop_reads_no_record(monkeypatch, base):
    def refused(moves, upto):
        raise AssertionError("the records of a reduced loop were read")

    monkeypatch.setattr(geometry, "_record_feed", refused)
    word = Word.from_indices(baby_base(3), random_relation_indices(random.Random(7), 3, 12))
    trace = reduce_loop(path_of_word(word, base))
    for upto in (None, *(b for _, b, _ in trace.macros)):
        assert replay_trace(trace, upto).base is base


# --- the benchmark's loops inputs: a word from indices answers as the checked word ---


def bench_inputs():
    """``bench/inputs.py``, loaded as a module of its own: the benchmark's inputs, read and not changed."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", pathlib.Path(__file__).resolve().parent.parent / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def loop_answers(word, inp):
    """What a loops op answers, with the replay at every macro end as its path's word and base."""
    path = path_of_word(word, Simplex(inp["anchor"], inp["orient"]))
    trace = reduce_loop(path)
    ends = [replay_trace(trace, end) for _, end, _ in trace.macros]
    assert all(type(p.simplices) is geometry.WalkSimplices for p in ends)  # each a view of its word and base
    return (path, (trace.start, trace.base, trace.macros, trace.moves.certificate, len(trace.moves)),
            [(p.word, p.base) for p in ends], render_svg(path) if word.rank == 2 else None)


def test_the_benchmark_loops_answer_alike_from_indices_and_from_the_checked_word():
    gen = bench_inputs()
    for seed in (1, 2, 3):
        inps = gen.make_inputs("loops", seed)
        for k in (0, 1, 2):
            for inp in gen.variant_inputs("loops", seed, k, inps):
                word = Word.from_indices(baby_base(inp["nu"]), inp["indices"])
                checked = Word(word.rank, word.letters)
                assert loop_answers(word, inp) == loop_answers(checked, inp)

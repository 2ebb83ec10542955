import dataclasses
import hashlib
import itertools
import random
import re
import time
import tracemalloc
from collections import Counter, deque
from typing import Iterator, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from a1weyl import (
    DomainError,
    InternalCheckError,
    ReflectableBase,
    Word,
    baby_base,
    base_simplex,
    eval_word,
    headline_relator_count,
    is_relation_w,
    path_of_word,
    presentation_alternating,
    presentation_baby_w,
    presentation_from_dict,
    presentation_hyp,
    presentation_to_dict,
    presentation_w_spre,
    reduce_loop,
    replay_certificate,
    rewrite_to_identity,
    toroidal_semilattice,
    verify_presentation,
)
from a1weyl import moves
from a1weyl.moves import REVERSALS, RULE_CANCEL, RULE_DELETE, RULE_REVERSE, WordMoves, move_block
from a1weyl.presentation import (
    MACRO_BUBBLE,
    MACRO_CANCEL,
    MACRO_DELETE,
    Presentation,
    ReplayedCertificate,
    RewriteCertificate,
    RewriteStep,
    _reduce,
    certificate_to_dict,
)
from a1weyl.words import random_relation_indices

WORKED_LOOP = (2, 0, 2, 1, 0, 1, 0, 2, 1, 2, 1, 0)


class TestPresentationAlternating:
    def test_k2_gives_the_involutions(self, baby2_base):
        p = presentation_alternating(baby2_base.roots, 2)
        assert p.relators == ((0, 0), (1, 1), (2, 2))
        assert p.truncated_at == 2

    def test_k6_contains_the_sextic(self, baby2_base):
        p = presentation_alternating(baby2_base.roots, 6)
        assert (0, 1, 2, 0, 1, 2) in p.relators

    def test_k0_has_no_relators(self, baby2_base):
        assert presentation_alternating(baby2_base.roots, 0).relators == ()

    def test_odd_kmax_rejected(self, baby2_base):
        with pytest.raises(DomainError):
            presentation_alternating(baby2_base.roots, 3)

    @pytest.mark.parametrize("kmax, message", [
        (-2, "kmax must be non-negative, got -2"),
        (-3, "kmax must be even, got -3"),
    ])
    def test_negative_kmax_rejected(self, baby2_base, kmax, message):
        with pytest.raises(DomainError, match=message):
            presentation_alternating(baby2_base.roots, kmax)


class TestPresentationBaby:
    def test_rank0(self):
        p = presentation_baby_w(0)
        assert p.generators == ("g0",)
        assert p.relators == ((0, 0),)

    def test_rank1(self):
        p = presentation_baby_w(1)
        assert p.generators == ("g0", "g1")
        assert p.relators == ((0, 0), (1, 1))

    def test_rank2(self):
        p = presentation_baby_w(2)
        assert len(p.generators) == 3
        assert len(p.relators) == 4
        assert (0, 1, 2, 0, 1, 2) in p.relators

    @pytest.mark.parametrize("nu", range(5))
    def test_counts(self, nu):
        p = presentation_baby_w(nu)
        assert len(p.generators) == nu + 1
        assert len(p.relators) == nu + 1 + nu * (nu - 1) // 2


class TestPresentationSpre:
    def test_empty_pair_set_is_the_plain_presentation(self):
        assert presentation_w_spre(3, []) == presentation_baby_w(3)

    def test_rank2_with_pair(self):
        p = presentation_w_spre(2, [(1, 2)])
        assert p.generators == ("g0", "g1", "g2", "g(1,2)")
        assert len(p.relators) == 5
        assert (3, 1, 0, 2) in p.relators  # g(1,2) g1 g0 g2
        assert (3, 3) in p.relators

    def test_rank1_forces_empty(self):
        p = presentation_w_spre(1, [])
        assert len(p.generators) == 2 and len(p.relators) == 2

    def test_out_of_range_pair(self):
        with pytest.raises(DomainError):
            presentation_w_spre(2, [(0, 1)])

    @pytest.mark.parametrize("pairs", [
        [(1.0, 2)],  # wrote the label g(1.0,2)
        [(True, 2)],
        [(1, 2), (1.0, 2)],  # the set kept whichever came first
        [(1.0, 2), (1, 2)],
        [(1, 2, 3)],
        [(1,)],
        [[1, 2]],
        [(2, 1)],
        [(1, 3)],
    ])
    def test_every_pair_is_two_ints_in_range(self, pairs):
        with pytest.raises(DomainError, match="is not a tuple of two ints"):
            presentation_w_spre(2, pairs)

    def test_a_repeated_pair_counts_once(self):
        assert presentation_w_spre(2, [(1, 2), (1, 2)]) == presentation_w_spre(2, [(1, 2)])


class TestPresentationHyp:
    def test_minimal_rank2(self, baby2_base):
        p = presentation_hyp(baby2_base)
        assert len(p.generators) == 3
        assert len(p.relators) == 6
        assert len(p.relators) == headline_relator_count(2)

    def test_toroidal_rank2(self, toroidal2_base):
        p = presentation_hyp(toroidal2_base)
        assert len(p.generators) == 4
        assert len(p.relators) == 8
        # commutators [g_k, g3 g1 g0 g2] for every generator k
        core = (3, 1, 0, 2)
        for k in range(4):
            assert (k,) + core + (k,) + core[::-1] in p.relators

    def test_rank1(self):
        p = presentation_hyp(baby_base(1))
        assert len(p.generators) == 2
        assert p.relators == ((0, 0), (1, 1))

    def test_headline_count_diverges_at_rank3(self, pairwise3_base):
        p = presentation_hyp(pairwise3_base)
        assert len(p.relators) == 7 + 7 * 3  # 7 involutions, one commutator per gen and pair
        assert len(p.relators) != headline_relator_count(3)

    def test_rejects_non_elliptic_like(self):
        with pytest.raises(DomainError):
            presentation_hyp(ReflectableBase(toroidal_semilattice(3)))


class TestVerifyPresentation:
    def test_baby_against_v_group(self, baby2_base):
        assert verify_presentation(presentation_baby_w(2), "W", baby2_base).ok

    def test_baby_against_extension_fails_on_the_sextic(self, baby2_base):
        report = verify_presentation(presentation_baby_w(2), "Wt", baby2_base)
        assert report.failures == (3,)

    def test_hyp_against_extension(self, baby2_base, toroidal2_base):
        for base in (baby2_base, toroidal2_base):
            assert verify_presentation(presentation_hyp(base), "Wt", base).ok

    def test_spre_with_composite_generators(self, toroidal2_base):
        p = presentation_w_spre(2, [(1, 2)])
        assert verify_presentation(p, "W", toroidal2_base).ok

    def test_alternating_presentation_is_sound(self, baby2_base):
        p = presentation_alternating(baby2_base.roots, 6)
        assert verify_presentation(p, "W", baby2_base).ok

    def test_unknown_target(self, baby2_base):
        with pytest.raises(DomainError):
            verify_presentation(presentation_baby_w(2), "X", baby2_base)

    def test_unresolvable_label(self, baby2_base):
        p = Presentation(("h0",), ((0, 0),), "W")
        with pytest.raises(DomainError):
            verify_presentation(p, "W", baby2_base)


class TestRewriteToIdentity:
    def test_single_cancellation(self):
        cert = rewrite_to_identity((1, 1), 2)
        assert [s.rule for s in cert.steps] == [RULE_CANCEL]
        assert cert.final_empty

    def test_relator_is_one_delete(self):
        cert = rewrite_to_identity((0, 1, 2, 0, 1, 2), 2)
        assert [s.rule for s in cert.steps] == [RULE_DELETE]

    def test_worked_loop_macros(self):
        cert = rewrite_to_identity(WORKED_LOOP, 2)
        states = replay_certificate(cert)
        boundaries = [states[b] for (_, b, _) in cert.macros]
        assert boundaries[0] == [2, 1, 2, 1, 0, 2, 1, 2, 1, 0]
        assert boundaries[1] == [2, 1, 0, 2, 1, 0]
        assert boundaries[-1] == []
        assert all(kind == MACRO_BUBBLE for (_, _, kind) in cert.macros)

    def test_not_a_relation_is_rejected(self):
        with pytest.raises(DomainError):
            rewrite_to_identity((0, 1), 2)

    def test_letters_out_of_range(self):
        with pytest.raises(DomainError):
            rewrite_to_identity((0, 3, 3, 0), 2)

    def test_deterministic(self):
        a = rewrite_to_identity(WORKED_LOOP, 2)
        b = rewrite_to_identity(WORKED_LOOP, 2)
        assert a == b

    def test_macro_lengths_strictly_decrease(self):
        cert = rewrite_to_identity(WORKED_LOOP, 2)
        states = replay_certificate(cert)
        lengths = [len(states[0])] + [len(states[b]) for (_, b, _) in cert.macros]
        assert all(x > y for x, y in zip(lengths, lengths[1:]))

    def test_triple_reversal_preserves_evaluation(self):
        base = baby_base(2)
        cert = rewrite_to_identity(WORKED_LOOP, 2)
        target = eval_word(Word.from_indices(base, WORKED_LOOP))
        for state in replay_certificate(cert):
            assert eval_word(Word.from_indices(base, state)) == target

    def test_random_relations_reduce(self):
        rng = random.Random(13)
        for _ in range(300):
            nu = rng.randint(1, 4)
            indices = random_relation_indices(rng, nu, rng.randint(0, 12))
            cert = rewrite_to_identity(indices, nu)
            states = replay_certificate(cert)
            assert states[-1] == []
            base = baby_base(nu)
            for state in states:
                assert is_relation_w(Word.from_indices(base, state))

    def test_certificate_serialises(self):
        cert = rewrite_to_identity(WORKED_LOOP, 2)
        data = certificate_to_dict(cert)
        assert data["final_empty"] is True
        assert len(data["steps"]) == len(cert.steps)

    def test_long_words_high_rank(self):
        rng = random.Random(31)
        for _ in range(10):
            nu = 6
            indices = random_relation_indices(rng, nu, 30)  # length 60
            cert = rewrite_to_identity(indices, nu)
            states = replay_certificate(cert)
            assert states[-1] == []
            lengths = [len(states[0])] + [len(states[b]) for (_, b, _) in cert.macros]
            assert all(x > y for x, y in zip(lengths, lengths[1:]))


def test_presentation_json_round_trip(baby2_base):
    for p in (
        presentation_baby_w(3),
        presentation_w_spre(2, [(1, 2)]),
        presentation_hyp(baby2_base),
        presentation_alternating(baby2_base.roots, 4),
    ):
        assert presentation_from_dict(presentation_to_dict(p)) == p


PRESENTATION = {"generators": ["g0", "g1"], "relators": [[1, 1]], "target": "W"}


@pytest.mark.parametrize("data, field", [
    ({**PRESENTATION, "relators": [[1.9, 0.2]]}, "relators"),  # int() made it ((1, 0),)
    ({**PRESENTATION, "relators": [["1", 0]]}, "relators"),
    ({**PRESENTATION, "relators": [[True, 1]]}, "relators"),
    ({**PRESENTATION, "truncated_at": "x"}, "truncated_at"),
    ({"generators": ["g0"], "target": "W"}, "relators"),  # was KeyError
    ({**PRESENTATION, "relators": 5}, "relators"),  # was TypeError
    ({**PRESENTATION, "relators": [5]}, "relators"),
    ({"relators": [[0, 0]], "target": "W"}, "generators"),
])
def test_presentation_json_takes_only_json_integers(data, field):
    with pytest.raises(DomainError, match=f"presentation field '{field}'"):
        presentation_from_dict(data)


@pytest.mark.parametrize("relators, truncated_at, field", [
    (((1.5, 1),), None, "relators"),  # verify_presentation raised TypeError on it
    (((True, 1),), None, "relators"),
    ((5,), None, "relators"),  # was TypeError
    (((1, 1),), 2.5, "truncated_at"),
])
def test_a_presentation_refuses_look_alike_fields(relators, truncated_at, field):
    with pytest.raises(DomainError, match=f"presentation field '{field}'"):
        Presentation(("g0", "g1"), relators, "W", truncated_at)


def test_a_presentation_keeps_its_relators_as_tuples():
    p = Presentation(("g0", "g1"), [[1, 1], (0, 0)], "W")
    assert p.relators == ((1, 1), (0, 0))
    assert p == Presentation(("g0", "g1"), ((1, 1), (0, 0)), "W")
    assert hash(p) == hash(Presentation(("g0", "g1"), ((1, 1), (0, 0)), "W"))


class TestReplayCertificateRejectsTampering:
    """Replay accepts only steps it can realise by relator moves on the live word."""

    @staticmethod
    def one_step(start, rule, pos, payload, after_len):
        step = RewriteStep(rule, pos, payload, len(start), after_len)
        return RewriteCertificate(tuple(start), (step,), ((0, 1, "tampered"),), after_len == 0)

    @pytest.mark.parametrize(
        "start, rule, pos, payload, after_len",
        [
            ((1, 2, 1, 2, 1, 2), RULE_DELETE, 0, (1, 2, 1, 2, 1, 2), 0),  # not a relator
            ((0, 2, 1, 0, 2, 1), RULE_DELETE, 0, (0, 2, 1, 0, 2, 1), 0),  # i > j
            ((0, 1, 2, 0, 1, 2), RULE_DELETE, 0, (0, 1, 2, 0, 1, 1), 0),  # payload is not the word
            ((1, 1), RULE_CANCEL, 0, (), 0),  # empty payload
            ((1, 1), RULE_CANCEL, 0, (1, 1), 0),
            ((1, 1), RULE_CANCEL, 1.5, (1,), 0),  # non-int position
            ((1, 1), RULE_CANCEL, "0", (1,), 0),
            ((1, 1), RULE_CANCEL, 0, (1.0,), 0),  # non-int payload entry
            ((1, 0, 2), RULE_REVERSE, 0, (2, 0, 1), 3),  # payload does not match the word
            ((1, 0, 2), RULE_REVERSE, 1, (0, 2), 3),
            ((1, 0, 2, 1), RULE_REVERSE, -3, (1, 0, 2), 4),  # a negative slice that matches
            ((), "insert-relator", 0, (1, 1), 2),  # no longer a rule
            ((1, 1), "flip", 0, (1,), 0),
        ],
    )
    def test_malformed_step(self, start, rule, pos, payload, after_len):
        with pytest.raises(DomainError):
            replay_certificate(self.one_step(start, rule, pos, payload, after_len))

    @pytest.mark.parametrize("field", ["before_len", "after_len"])
    def test_wrong_length_bookkeeping(self, field):
        cert = rewrite_to_identity(WORKED_LOOP, 2)
        for k, step in enumerate(cert.steps):
            bad = dataclasses.replace(step, **{field: getattr(step, field) + 1})
            steps = cert.steps[:k] + (bad,) + cert.steps[k + 1 :]
            with pytest.raises(DomainError):
                replay_certificate(dataclasses.replace(cert, steps=steps))

    def test_reverse_payload_tampered_in_a_real_certificate(self):
        cert = rewrite_to_identity(WORKED_LOOP, 2)
        k = next(n for n, s in enumerate(cert.steps) if s.rule == RULE_REVERSE)
        bad = dataclasses.replace(cert.steps[k], payload=cert.steps[k].payload[::-1])
        steps = cert.steps[:k] + (bad,) + cert.steps[k + 1 :]
        with pytest.raises(DomainError):
            replay_certificate(dataclasses.replace(cert, steps=steps))

    def test_claimed_empty_word_must_be_reached(self):
        cert = rewrite_to_identity(WORKED_LOOP, 2)
        with pytest.raises(DomainError):
            replay_certificate(dataclasses.replace(cert, steps=cert.steps[:-1]))


@pytest.mark.parametrize("nu", [2, 3])
def test_every_reduced_triple_reverses_by_relator_moves(nu):
    for a, b, c in itertools.product(range(nu + 1), repeat=3):
        moves = WordMoves((1, a, b, c, 2))
        if a == b or b == c:
            if a != c:
                with pytest.raises(DomainError):
                    moves.reverse_triple(1)
            continue
        moves.reverse_triple(1)
        assert moves.word == [1, c, b, a, 2]


@pytest.mark.parametrize("suffix", [(), (0,), (1, 2), (-1,)])
def test_a_reversal_applies_by_its_letters_alone(suffix):
    # No rank bounds a reversal: it moves distinct neighbours >= 0, leaves a == c, and refuses the rest.
    for a, b, c in itertools.product(range(-2, 4), repeat=3):
        moves = WordMoves((a, b, c, *suffix))
        if a == c:
            moves.reverse_triple(0)
            assert moves.word == [a, b, c, *suffix]
        elif min(a, b, c) >= 0 and a != b != c:
            moves.reverse_triple(0)
            assert moves.word == [c, b, a, *suffix]
        else:
            with pytest.raises(DomainError):
                moves.reverse_triple(0)


def test_a_reversal_of_negative_letters_does_not_replay():
    step = RewriteStep(RULE_REVERSE, 0, (-1, -2, -3), 3, 3)
    with pytest.raises(DomainError):
        replay_certificate(RewriteCertificate((-1, -2, -3), (step,), ((0, 1, MACRO_BUBBLE),), False))


def test_move_block_names_only_the_relators():
    assert move_block((3,)) == (3, 3)
    assert move_block((0, 1, 2)) == (0, 1, 2, 0, 1, 2)
    for gens in [(), (-1,), (1.0,), (True,), (1, 2), (0, 2, 1), (0, 1, 1), (1, 1, 2), (0, 1.0, 2)]:
        with pytest.raises(DomainError):
            move_block(gens)


def reference_delete(word: list, pos, gens) -> tuple:
    """``WordMoves.delete`` as it was before a ``g_k^2`` was spliced in place: every block through ``move_block``."""
    block = move_block(gens)
    if type(pos) is not int or pos < 0 or tuple(word[pos : pos + len(block)]) != block:
        raise DomainError(f"cannot delete {block} at {pos!r}: block absent")
    del word[pos : pos + len(block)]
    return block


@settings(max_examples=400)
@given(
    st.lists(st.integers(-1, 2), max_size=7),
    st.one_of(st.integers(-3, 8), st.sampled_from([True, 1.0])),
    st.one_of(
        st.tuples(st.integers(-1, 2)),
        st.sampled_from([(True,), (1.0,), [1], (), (1, 1)]),
        st.tuples(st.just(0), st.integers(1, 2), st.integers(1, 3)),
    ),
)
@example([2, -1, -1], 1, (-1,))  # a negative letter names no loop
@example([1, 1, 2], -3, (1,))  # a negative position counts from no end
def test_delete_equals_the_delete_through_move_block(letters, pos, gens):
    def run(delete, word):
        try:
            return delete(word, pos, gens), word
        except DomainError as exc:
            return str(exc), word

    moves = WordMoves(letters)
    assert run(lambda word, pos, gens: moves.delete(pos, gens), moves.word) == run(reference_delete, list(letters))


def test_a_square_delete_at_the_last_letter_is_a_block_absent_domain_error():
    with pytest.raises(DomainError, match="block absent"):
        WordMoves([1, 2, 1]).delete(2, (1,))
    cert = RewriteCertificate((1, 2, 1), (RewriteStep(RULE_CANCEL, 2, (1,), 3, 1),), ((0, 1, MACRO_CANCEL),), False)
    with pytest.raises(DomainError, match="block absent"):
        replay_certificate(cert)


def test_replay_rejects_a_non_int_start_letter_as_a_domain_error():
    for start in ((1, "x", 1, "x"), ("x", "x")):
        step = RewriteStep(RULE_CANCEL, 0, (1,), len(start), len(start) - 2)
        with pytest.raises(DomainError):
            replay_certificate(RewriteCertificate(start, (step,), ((0, 1, "tampered"),), False))


@pytest.mark.parametrize("letters", [(1.0, 1.0), ("1", "1"), (1, None), (None, None), (True, True)])
def test_rewrite_rejects_a_non_int_letter_as_a_domain_error(letters):
    with pytest.raises(DomainError):
        rewrite_to_identity(letters, 2)


def test_rewrite_rejects_numpy_integer_letters_as_a_domain_error():
    np = pytest.importorskip("numpy")
    with pytest.raises(DomainError):
        rewrite_to_identity(tuple(np.array([1, 1])), 2)


@pytest.mark.parametrize("make", [iter, lambda letters: (g for g in letters)], ids=["iterator", "generator"])
@pytest.mark.parametrize("letters", [(1, 2), (1, 1)], ids=["no-relation", "relation"])
def test_rewrite_rejects_indices_that_are_not_a_sequence(make, letters):
    # The letter check used to consume an iterator, so g1 g2 got a proof of the empty word.
    with pytest.raises(DomainError, match=r"^word indices <.*> is not a sequence$"):
        rewrite_to_identity(make(letters), 2)


# --- the rewriter that rescans from position 0 after every change: the oracle ---


def _leftmost_pair(word: Sequence[int]) -> int | None:
    for q in range(len(word) - 1):
        if word[q] == word[q + 1]:
            return q
    return None


def _leftmost_relator(word: Sequence[int], nu: int) -> int | None:
    for q in range(len(word) - 5):
        i, j = word[q + 1], word[q + 2]
        if (
            word[q] == 0
            and word[q + 3] == 0
            and word[q + 4] == i
            and word[q + 5] == j
            and 1 <= i < j <= nu
        ):
            return q
    return None


def _partner_position(word: Sequence[int]) -> int:
    first = word[0]
    for q in range(1, len(word), 2):
        if word[q] == first:
            return q
    raise InternalCheckError("no opposite-parity partner; input was not a relation word")


def _macro_once(word: list[int], nu: int, steps: list[RewriteStep]) -> str:
    def cancel_cascade() -> bool:
        did = False
        q = _leftmost_pair(word)
        while q is not None:
            steps.append(RewriteStep(RULE_CANCEL, q, (word[q],), len(word), len(word) - 2))
            del word[q : q + 2]
            did = True
            q = _leftmost_pair(word)
        return did

    if cancel_cascade():
        return MACRO_CANCEL

    q = _leftmost_relator(word, nu)
    if q is not None:
        payload = tuple(word[q : q + 6])
        steps.append(RewriteStep(RULE_DELETE, q, payload, len(word), len(word) - 6))
        del word[q : q + 6]
        return MACRO_DELETE

    partner = _partner_position(word)
    c = 0
    while True:
        if c + 2 >= len(word) or c >= partner:
            raise InternalCheckError("bubble ran past the partner; input was not a relation word")
        if word[c] == word[c + 2]:
            c += 2
            continue
        payload = tuple(word[c : c + 3])
        steps.append(RewriteStep(RULE_REVERSE, c, payload, len(word), len(word)))
        word[c : c + 3] = word[c : c + 3][::-1]
        c += 2
        if _leftmost_pair(word) is not None:
            cancel_cascade()
            return MACRO_BUBBLE


def rescan_certificate(indices: Sequence[int], nu: int) -> RewriteCertificate:
    """The certificate of the rewriter that rescans from position 0 after every change."""
    word = list(indices)
    steps: list[RewriteStep] = []
    macros = []
    while word:
        start = len(steps)
        kind = _macro_once(word, nu, steps)
        macros.append((start, len(steps), kind))
    return RewriteCertificate(tuple(indices), tuple(steps), tuple(macros), True)


def assert_same_as_rescan(indices, nu):
    cert = rewrite_to_identity(indices, nu)
    oracle = rescan_certificate(indices, nu)
    for f in dataclasses.fields(RewriteCertificate):
        assert getattr(cert, f.name) == getattr(oracle, f.name), f.name
    assert replay_certificate(cert)[-1] == []
    return cert


@st.composite
def pair_up_relations(draw, min_nu=1, max_half=100, max_nu=5):
    """``(nu, word)``: two shuffles of one multiset of letters, interleaved."""
    nu = draw(st.integers(min_nu, max_nu))
    n = draw(st.integers(0, max_half))
    half = draw(st.lists(st.integers(0, nu), min_size=n, max_size=n))
    odd, even = draw(st.permutations(half)), draw(st.permutations(half))
    return nu, tuple(x for pair in zip(odd, even) for x in pair)


@st.composite
def relations_with_relators(draw):
    """A pair-up relation with relator blocks ``(0 i j)^2`` and ``k k`` spliced in anywhere.

    Later blocks can land inside earlier ones, so deleting one block or
    cancelling a pair makes a relator across the seam.
    """
    nu, start = draw(pair_up_relations(min_nu=2, max_half=60))
    word = list(start)
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            i, j = sorted(draw(st.lists(st.integers(1, nu), min_size=2, max_size=2, unique=True)))
            block = [0, i, j, 0, i, j]
        else:
            k = draw(st.integers(0, nu))
            block = [k, k]
        q = draw(st.integers(0, len(word)))
        word[q:q] = block
    return nu, tuple(word)


@settings(deadline=None, max_examples=150)
@given(pair_up_relations())
@example((2, (1, 2, 2, 1)))
def test_pair_up_certificates_equal_the_rescan_rewriters(case):
    assert_same_as_rescan(case[1], case[0])


@settings(deadline=None, max_examples=150)
@given(relations_with_relators())
@example((4, (0, 1, 2, 0, 1, 0, 3, 4, 0, 3, 4, 2)))
@example((4, (0, 1, 2, 0, 1, 3, 3, 2)))
def test_certificates_with_relators_equal_the_rescan_rewriters(case):
    assert_same_as_rescan(case[1], case[0])


def test_a_bubble_without_partner_is_an_internal_check_error():
    with pytest.raises(InternalCheckError):
        _reduce((1, 2, 1, 3))  # not a relation: g1 has no odd-position partner


def test_a_bubble_that_reaches_the_end_of_the_word_is_an_internal_check_error():
    # The reversal at 0 leaves c + 3 == n, so the pair check after it must
    # not read word[c + 3]; the next triple then runs off the end.
    with pytest.raises(InternalCheckError):
        _reduce((1, 2, 3))


def test_a_relator_made_five_letters_before_a_cut_is_deleted():
    cert = assert_same_as_rescan((0, 1, 2, 0, 1, 0, 3, 4, 0, 3, 4, 2), 4)
    assert [kind for _, _, kind in cert.macros] == [MACRO_DELETE, MACRO_DELETE]
    assert [s.pos for s in cert.steps] == [5, 0]


# sha256 of repr(rewrite_to_identity(w + reverse(w), 4)), w cycling g1..g4 from
# g(1 + phase), 8000 letters: recorded from the rewriter that rescanned.
PALINDROME_8000_SHA256 = {
    0: "cd0454909e086604fa8f0edb9654b4ebf5a37763ada2319b777fa2ff7b6c3abf",
    1: "8606017ff1a195cd0710199c8b5162fbeaaeafa2287517c57ec6320e012b5687",
    2: "ef6cad83818b24bf187fbe5f794f473c798eafa2d64a9b98ac8d844a6bed0744",
    3: "e70bd8714791c795e530d7092b63898ad844eb2c838f2cb8ae74bf827be365b9",
}


@pytest.mark.parametrize("phase", sorted(PALINDROME_8000_SHA256))
def test_nested_palindrome_certificate_is_unchanged(phase):
    w = [1 + (phase + k) % 4 for k in range(4000)]
    cert = rewrite_to_identity(tuple(w + w[::-1]), 4)
    assert hashlib.sha256(repr(cert).encode()).hexdigest() == PALINDROME_8000_SHA256[phase]


def test_a_64000_letter_palindrome_is_one_cancel_macro_in_closed_form():
    # The free reduction cancels at the middle first, then outwards: the
    # cancel at step s sits at L/2 - 1 - s and removes w[-1 - s].
    length = 64000
    w = [1 + k % 4 for k in range(length // 2)]
    cert = rewrite_to_identity(tuple(w + w[::-1]), 4)
    steps = cert.steps
    assert cert.macros == ((0, length // 2, MACRO_CANCEL),)
    assert steps.rules == b"\x01" * (length // 2)
    assert steps.positions.tolist() == list(range(length // 2 - 1, -1, -1))
    assert steps.letters.tolist() == w[::-1]
    assert steps[0] == RewriteStep(RULE_CANCEL, length // 2 - 1, (w[-1],), length, length - 2)
    assert steps[-1] == RewriteStep(RULE_CANCEL, 0, (w[0],), 2, 0)
    assert replay_certificate(cert)[-1] == []


BIG = 2**63  # one past the 64-bit range


@pytest.mark.parametrize("indices", [
    (BIG, 1, 1, BIG),  # every cancel in the free reduction
    (BIG, 1, 2, BIG, 1, 2),  # no free cancel: a bubble, then its cascade
    (BIG, BIG, BIG, 1, 2, BIG, 1, 2),  # cancels in the free reduction and after it
])
def test_letters_past_the_64_bit_range_give_records_and_replay(indices):
    cert = assert_same_as_rescan(indices, BIG)
    assert type(cert.steps) is tuple and cert.steps
    assert all(type(s) is RewriteStep for s in cert.steps)
    assert any(BIG in s.payload for s in cert.steps)
    assert list(replay_certificate(cert)) == eager_replay(cert)


def test_a_big_letter_cancelled_in_the_free_reduction_is_a_record():
    cert = rewrite_to_identity((BIG, 1, 1, BIG), BIG)
    assert cert.steps == (RewriteStep(RULE_CANCEL, 1, (1,), 4, 2), RewriteStep(RULE_CANCEL, 0, (BIG,), 2, 0))
    assert cert.macros == ((0, 2, MACRO_CANCEL),)
    assert replay_certificate(cert)[-1] == []


@st.composite
def index_words(draw):
    """``(nu, word)``: a pair-up relation or any word over ``0..nu``, maybe one letter changed."""
    nu = draw(st.integers(0, 4))
    if draw(st.booleans()):
        n = draw(st.integers(0, 30))
        half = draw(st.lists(st.integers(0, nu), min_size=n, max_size=n))
        odd, even = draw(st.permutations(half)), draw(st.permutations(half))
        word = [x for pair in zip(odd, even) for x in pair]
    else:
        word = draw(st.lists(st.integers(0, nu), max_size=60))
    if word and draw(st.booleans()):
        word[draw(st.integers(0, len(word) - 1))] = draw(st.integers(0, nu))
    return nu, tuple(word)


@settings(deadline=None, max_examples=300)
@given(index_words())
@example((0, (0,)))
@example((3, (1, 2, 2, 1)))
@example((3, (1, 2, 1, 2)))
def test_rewrite_precondition_counts_letters_as_is_relation_w_decides(case):
    nu, word = case
    if is_relation_w(Word.from_indices(baby_base(nu), word)):
        assert replay_certificate(rewrite_to_identity(word, nu))[-1] == []
    else:
        with pytest.raises(DomainError, match="^the word is not a relation, no reduction"):
            rewrite_to_identity(word, nu)


def counted_precondition(indices, nu):
    """The message ``rewrite_to_identity`` refuses ``indices`` with, or None, as when each half was a ``Counter``."""
    for g in indices:
        if type(g) is not int or not 0 <= g <= nu:
            return f"letter {g!r} is not an int in the generator range 0..{nu}"
    if Counter(itertools.islice(indices, 0, None, 2)) != Counter(itertools.islice(indices, 1, None, 2)):
        return "the word is not a relation, no reduction certificate exists"
    return None


@st.composite
def near_relations(draw):
    """``(nu, indices)``: a pair-up relation, maybe with one letter changed, added, dropped or a look-alike added.

    The look-alikes are ``True``, ``1.0``, ``-1`` and ``nu + 1``; an added
    letter makes the length odd.  The word is a tuple, a list or a ``deque``.
    """
    nu = draw(st.integers(0, 4))
    n = draw(st.integers(0, 20))
    half = draw(st.lists(st.integers(0, nu), min_size=n, max_size=n))
    odd, even = draw(st.permutations(half)), draw(st.permutations(half))
    word = [x for pair in zip(odd, even) for x in pair]
    at = draw(st.integers(0, len(word)))
    change = draw(st.sampled_from(("none", "replace", "add", "drop", "look-alike")))
    if change == "replace" and word:
        word[min(at, len(word) - 1)] = draw(st.integers(0, nu))
    elif change == "add":
        word.insert(at, draw(st.integers(0, nu)))
    elif change == "drop" and word:
        del word[min(at, len(word) - 1)]
    elif change == "look-alike":
        word.insert(at, draw(st.sampled_from((True, 1.0, -1, nu + 1))))
    return nu, draw(st.sampled_from((tuple, list, deque)))(word)


@settings(deadline=None, max_examples=400)
@given(near_relations())
@example((1, (1, 1.0)))
@example((1, deque([1, 2])))
@example((2, [True, 1, 1]))
@example((2, deque([2, 1, 1, 2])))
def test_the_relation_test_accepts_and_refuses_as_counting_each_half(case):
    nu, indices = case
    message = counted_precondition(indices, nu)
    if message is None:
        cert = rewrite_to_identity(indices, nu)
        assert cert == rewrite_to_identity(tuple(indices), nu)
        assert replay_certificate(cert)[-1] == []
    else:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            rewrite_to_identity(indices, nu)


# --- the replay that kept every intermediate word in a list: the view's oracle ---


def eager_replay(cert: RewriteCertificate) -> list[list[int]]:
    """All intermediate words, starting from the input and ending empty.

    Every step is replayed as relator moves, so a certificate that replays
    proves its word trivial from the relators alone.  Replay inserts only
    ``g_0`` and letters already in the word.
    """
    moves = WordMoves(cert.start)
    word = moves.word  # changed in place by every move
    states = [word[:]]
    for step in cert.steps:
        if len(word) != step.before_len:
            raise DomainError("certificate does not chain: length mismatch")
        moves.apply(step)
        if len(word) != step.after_len:
            raise DomainError("step length bookkeeping does not match")
        states.append(word[:])
    if cert.final_empty and word:
        raise DomainError("certificate claims the empty word but replay does not reach it")
    return states


def palindrome(phase: int, letters: int) -> tuple[int, ...]:
    """``w + reverse(w)`` at baby nu = 4, ``w`` cycling g1..g4 from ``g(1 + phase)``."""
    w = [1 + (phase + k) % 4 for k in range(letters // 2)]
    return tuple(w + w[::-1])


def assert_view_matches_eager_replay(indices, nu):
    cert = rewrite_to_identity(indices, nu)
    view = replay_certificate(cert)
    oracle = eager_replay(cert)
    n = len(oracle)
    assert isinstance(view, ReplayedCertificate) and len(view) == n
    assert list(view) == oracle
    for i in range(-n, n):
        assert view[i] == oracle[i], i
    for i in (n, n + 3, -n - 1, -n - 4):
        with pytest.raises(IndexError):
            view[i]
    for s in (slice(None), slice(None, -1), slice(1, None, 2), slice(None, None, -3), slice(n, None)):
        assert view[s] == oracle[s], s


@settings(deadline=None, max_examples=150)
@given(pair_up_relations(min_nu=0, max_half=120, max_nu=6))
@example((4, palindrome(0, 8000)))
@example((2, (0, 1) * 20 + (0, 2) * 20 + (1, 0) * 20 + (2, 0) * 20))  # translation commutator, n = 20
def test_a_certificate_has_at_most_l_squared_over_8_plus_l_over_2_steps(case):
    nu, indices = case
    n = len(indices)
    cert = rewrite_to_identity(indices, nu)
    assert 8 * len(cert.steps) <= n * n + 4 * n


@settings(deadline=None, max_examples=100)
@given(st.one_of(pair_up_relations(max_half=30), relations_with_relators()))
@example((2, ()))
@example((2, WORKED_LOOP))
def test_replay_view_reads_what_the_eager_replay_listed(case):
    assert_view_matches_eager_replay(case[1], case[0])


@pytest.mark.parametrize("phase", range(4))
def test_replay_view_of_a_palindrome_reads_what_the_eager_replay_listed(phase):
    assert_view_matches_eager_replay(palindrome(phase, 240), 4)


@pytest.mark.parametrize("index", [1.0, "0", None])
def test_replay_view_index_must_be_an_integer(index):
    view = replay_certificate(rewrite_to_identity(WORKED_LOOP, 2))
    with pytest.raises(TypeError):
        view[index]


def test_replay_view_returns_fresh_lists():
    view = replay_certificate(rewrite_to_identity(WORKED_LOOP, 2))
    oracle = eager_replay(view.cert)
    for read in (lambda: view[0], lambda: view[-1], lambda: view[3], lambda: view[1:4][1],
                 lambda: next(iter(view))):
        read().append(7)
    for states in (list(view), list(view), view[:]):
        states[0].clear()
    assert [view[i] for i in range(len(view))] == oracle
    assert list(view) == oracle


def test_replay_keeps_only_the_live_word():
    cert = rewrite_to_identity(palindrome(0, 8000), 4)  # 4000 steps; the list of states took 122 MiB
    tracemalloc.start()
    try:
        view = replay_certificate(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert len(view) == len(cert.steps) + 1 and view[-1] == []


def test_a_view_built_directly_replays_for_its_last_state():
    cert = rewrite_to_identity((1, 1, 2, 2), 2)
    first = dataclasses.replace(cert, steps=cert.steps[:1], final_empty=False)
    view = ReplayedCertificate(first)
    assert view[-1] == list(view)[-1] == [2, 2]
    assert view[-1] == replay_certificate(first)[-1]


def test_a_tampered_middle_step_fails_the_replay_call_itself():
    cert = rewrite_to_identity(palindrome(1, 400), 4)
    k = len(cert.steps) // 2
    step = cert.steps[k]
    for bad in (
        dataclasses.replace(step, payload=tuple(g % 4 + 1 for g in step.payload)),
        dataclasses.replace(step, pos=step.pos + 1),
    ):
        tampered = dataclasses.replace(cert, steps=cert.steps[:k] + (bad,) + cert.steps[k + 1 :])
        with pytest.raises(DomainError):
            replay_certificate(tampered)


def test_replay_view_reads_backwards_by_a_slice_only():
    view = replay_certificate(rewrite_to_identity(palindrome(2, 120), 4))
    with pytest.raises(TypeError):
        reversed(view)
    assert not hasattr(view, "index") and not hasattr(view, "count")
    assert view[::-1] == eager_replay(view.cert)[::-1]


# --- the replay that expanded every reversal into relator moves: the lemma replay's oracle ---


class ExpandingReplayedCertificate(ReplayedCertificate):
    def _live(self) -> Iterator[list[int]]:
        """The one live word after 0, 1, 2, ... checked steps; callers copy what they keep."""
        moves = WordMoves(self.cert.start)
        word = moves.word  # changed in place by every move
        yield word
        for step in self.cert.steps:
            if len(word) != step.before_len:
                raise DomainError("certificate does not chain: length mismatch")
            moves.apply(step)
            if len(word) != step.after_len:
                raise DomainError("step length bookkeeping does not match")
            yield word


def expanding_replay_certificate(cert: RewriteCertificate) -> ReplayedCertificate:
    """Check every step of ``cert`` on one live word; the states as a lazy view.

    Every step is replayed as relator moves, so a certificate that replays
    proves its word trivial from the relators alone.  Replay inserts only
    ``g_0`` and letters already in the word.  A step that does not apply, a
    length that does not chain, or a claimed empty word that is not reached
    raises ``DomainError`` here, before anything is returned.  No
    intermediate word is stored, so memory is O(word length); the returned
    :class:`ReplayedCertificate` rebuilds the words when they are read.
    """
    view = ExpandingReplayedCertificate(cert)
    for word in view._live():
        pass
    if cert.final_empty and word:
        raise DomainError("certificate claims the empty word but replay does not reach it")
    view._final = word
    return view


def replay_outcome(replay, cert):
    """The states of an accepted certificate, read three ways, or the error's type and message."""
    try:
        view = replay(cert)
    except Exception as exc:  # noqa: BLE001 - the oracle compares every failure
        return type(exc), str(exc)
    return list(view), view[-1], view[len(view) // 2]


def assert_replays_as_the_expansion(cert):
    expected = replay_outcome(expanding_replay_certificate, cert)
    assert replay_outcome(replay_certificate, cert) == expected
    return expected


# Same hash and equality as the int letter, but move_block refuses them.
LOOKALIKES = {0: (False, 0.0), 1: (True, 1.0)}

STEP_FIELDS = ("rule", "pos", "payload", "before_len", "after_len")


@st.composite
def tampered_value(draw, step, field, nu):
    if field == "rule":
        return draw(st.sampled_from([RULE_CANCEL, RULE_REVERSE, RULE_DELETE, "flip"]))
    if field == "pos":
        return draw(st.one_of(st.integers(-3, 3).map(lambda d: step.pos + d),
                              st.sampled_from([1.5, "0", True, None, float(step.pos)])))
    if field == "payload":
        payload = step.payload
        letters = st.one_of(st.integers(-1, nu + 1), st.sampled_from([True, False, 1.0, 0.0]))
        return draw(st.one_of(
            st.just(payload[::-1]),
            st.just(list(payload)),
            st.just(tuple(LOOKALIKES.get(g, (float(g),))[0] for g in payload)),
            st.lists(letters, max_size=7).map(tuple),
        ))
    return getattr(step, field) + draw(st.sampled_from([-2, -1, 1, 2]))


@st.composite
def replay_cases(draw):
    """A certificate of a relation at nu 1-5 or of a palindrome, possibly altered.

    Some start letters 0 and 1 may become ``False``/``0.0`` and ``True``/``1.0``
    (or a letter ``g`` the float ``g``), next to int triples that hash alike,
    and one step may have one field tampered.
    """
    nu, indices = draw(st.one_of(
        pair_up_relations(max_half=40),
        relations_with_relators(),
        st.tuples(st.just(4), st.builds(palindrome, st.integers(0, 3), st.integers(1, 60).map(lambda n: 2 * n))),
    ))
    cert = rewrite_to_identity(indices, nu)
    start, steps = list(cert.start), list(cert.steps)
    if start:
        for q in draw(st.lists(st.integers(0, len(start) - 1), max_size=4)):
            start[q] = draw(st.sampled_from(LOOKALIKES.get(start[q], (float(start[q]),))))
    if steps and draw(st.booleans()):
        k = draw(st.integers(0, len(steps) - 1))
        field = draw(st.sampled_from(STEP_FIELDS))
        steps[k] = dataclasses.replace(steps[k], **{field: draw(tampered_value(steps[k], field, nu))})
    return dataclasses.replace(cert, start=tuple(start), steps=tuple(steps))


def one_reversal(start, q):
    """A one-step certificate that reverses ``start[q:q+3]``."""
    triple = tuple(start[q : q + 3])
    step = RewriteStep(RULE_REVERSE, q, triple, len(start), len(start))
    return RewriteCertificate(tuple(start), (step,), ((0, 1, MACRO_BUBBLE),), False)


@settings(deadline=None, max_examples=400)
@given(replay_cases())
@example(rewrite_to_identity(WORKED_LOOP, 2))
@example(one_reversal((1, 1, 2, 2, 1, 1), 0))
@example(TestReplayCertificateRejectsTampering.one_step((-1, -1), RULE_CANCEL, 0, (-1,), 0))
@example(TestReplayCertificateRejectsTampering.one_step((1, 1), RULE_CANCEL, 0, (True,), 0))
@example(TestReplayCertificateRejectsTampering.one_step((2, 1, 1), RULE_CANCEL, 2, (1,), 1))
def test_replay_accepts_rejects_and_reads_as_the_full_expansion(cert):
    assert_replays_as_the_expansion(cert)


def test_tampering_is_rejected_with_the_full_expansions_message():
    cert = rewrite_to_identity(random_relation_indices(random.Random(5), 4, 40), 4)
    assert sum(s.rule == RULE_REVERSE for s in cert.steps) > 10
    rejected = 0
    for k, step in enumerate(cert.steps):
        for field, value in (("pos", step.pos + 1), ("payload", step.payload[::-1]),
                             ("before_len", step.before_len + 1), ("after_len", step.after_len - 1),
                             ("rule", RULE_CANCEL if step.rule == RULE_REVERSE else RULE_REVERSE)):
            bad = dataclasses.replace(step, **{field: value})
            tampered = dataclasses.replace(cert, steps=cert.steps[:k] + (bad,) + cert.steps[k + 1 :])
            rejected += assert_replays_as_the_expansion(tampered)[0] is DomainError
    assert rejected > 200


@pytest.mark.parametrize("a, b, c", [t for t in itertools.product(range(4), repeat=3)
                                     if t[0] != t[2] and (t[0] == t[1] or t[1] == t[2])])
def test_a_triple_whose_lemma_fails_alone_is_expanded_in_place(a, b, c):
    assert REVERSALS.script((a, b, c)) == ()
    for prefix, suffix in (((), ()), ((3,), (0, a, b)), ((1, 2), (c, b, a, 0, 3, 3))):
        start = prefix + (a, b, c) + suffix
        outcome = assert_replays_as_the_expansion(one_reversal(start + (3,), len(prefix)))
        assert outcome[0] is DomainError


def test_lookalike_letters_never_hit_the_int_lemma():
    # (1, 0, 2) reverses by its lemma; (True, 0, 2) and (1.0, 0, 2) hash alike,
    # but move_block refuses them.
    for lookalike in (True, 1.0):
        start = (1, 0, 2, lookalike, 0, 2)
        steps = (RewriteStep(RULE_REVERSE, 0, (1, 0, 2), 6, 6), RewriteStep(RULE_REVERSE, 3, (1, 0, 2), 6, 6))
        cert = RewriteCertificate(start, steps, ((0, 2, MACRO_BUBBLE),), False)
        error = assert_replays_as_the_expansion(cert)
        assert error == (DomainError, f"(0, {lookalike!r}, 2) does not name an elementary loop")


@pytest.mark.parametrize("indices, nu", [
    (random_relation_indices(random.Random(11), 4, 300), 4),
    (random_relation_indices(random.Random(12), 5, 400), 5),
])
def test_one_replay_expands_each_distinct_triple_at_most_once(monkeypatch, cold_lemmas, indices, nu):
    cert = rewrite_to_identity(indices, nu)
    reversals = [s.payload for s in cert.steps if s.rule == RULE_REVERSE]
    assert len(reversals) > len(set(reversals))  # a replay that expands every step fails here
    expanded = Counter()
    depth = 0
    reverse_triple = WordMoves.reverse_triple

    def counting_reverse_triple(self, q):
        nonlocal depth
        if not depth:
            expanded[tuple(self.word[q : q + 3])] += 1
        depth += 1
        try:
            return reverse_triple(self, q)
        finally:
            depth -= 1

    monkeypatch.setattr(WordMoves, "reverse_triple", counting_reverse_triple)
    assert replay_certificate(cert)[-1] == []
    assert expanded and max(expanded.values()) == 1


def test_a_lemma_holds_only_if_the_expansion_gives_the_reversed_triple(monkeypatch, cold_lemmas):
    assert REVERSALS.script((1, 0, 2))
    monkeypatch.setattr(WordMoves, "reverse_triple", lambda self, q: None)
    REVERSALS.clear()
    assert REVERSALS.script((1, 0, 2)) == ()
    # (2, 1, 2) moves nothing, so it has no script either way and replay leaves it as it is.
    assert REVERSALS.script((2, 1, 2)) == ()
    assert assert_replays_as_the_expansion(one_reversal((2, 1, 2), 0))[1] == [2, 1, 2]


# --- one lemma table for the whole process ---


def lemma_snapshot():
    return dict(REVERSALS)


def replay_every_triple(nu):
    """Replay one reversal of each triple over ``0..nu`` (accepted or not), proving its lemma at ``nu``."""
    for triple in itertools.product(range(nu + 1), repeat=3):
        replay_outcome(replay_certificate, one_reversal(triple + (nu,), 0))


@settings(deadline=None, max_examples=200)
@given(replay_cases())
@example(rewrite_to_identity(WORKED_LOOP, 2))
@example(one_reversal((1, 1, 2, 2, 1, 1), 0))
@example(one_reversal((1, 0, 2, True, 0, 2), 3))
def test_a_warmed_table_replays_as_a_cleared_one_and_as_the_full_expansion(cert):
    expected = replay_outcome(expanding_replay_certificate, cert)
    REVERSALS.clear()
    assert replay_outcome(replay_certificate, cert) == expected
    REVERSALS.clear()
    replay_every_triple(max((g for g in cert.start if type(g) is int), default=0))
    assert replay_outcome(replay_certificate, cert) == expected


def test_a_second_replay_expands_no_triple(monkeypatch, cold_lemmas):
    cert = rewrite_to_identity(random_relation_indices(random.Random(11), 4, 300), 4)
    expanded = Counter()
    reverse_triple = WordMoves.reverse_triple

    def counting_reverse_triple(self, q):
        expanded[tuple(self.word[q : q + 3])] += 1
        return reverse_triple(self, q)

    monkeypatch.setattr(WordMoves, "reverse_triple", counting_reverse_triple)
    view = replay_certificate(cert)
    assert view[-1] == [] and expanded
    expanded.clear()
    again = replay_certificate(cert)
    assert again[-1] == [] and view[len(view) // 2] == again[len(view) // 2]
    assert not expanded


def test_one_table_serves_certificate_replay_and_loop_tracing(monkeypatch, cold_lemmas):
    cert = rewrite_to_identity(WORKED_LOOP, 2)
    assert any(s.rule == RULE_REVERSE for s in cert.steps)
    loop = path_of_word(Word.from_indices(baby_base(2), WORKED_LOOP), base_simplex(2))
    expanded = Counter()
    reverse_triple = WordMoves.reverse_triple

    def counting_reverse_triple(self, q):
        expanded[tuple(self.word[q : q + 3])] += 1
        return reverse_triple(self, q)

    monkeypatch.setattr(WordMoves, "reverse_triple", counting_reverse_triple)
    for first, second in ((lambda: reduce_loop(loop), lambda: replay_certificate(cert)[-1]),
                          (lambda: replay_certificate(cert)[-1], lambda: reduce_loop(loop))):
        REVERSALS.clear()
        first()
        assert expanded
        expanded.clear()
        second()
        assert not expanded


@pytest.mark.parametrize("big", [10**6, 3000])
def test_the_proof_of_a_reversal_does_not_grow_with_nu(big):
    """A certificate with one letter near ``10**6`` replays at once; a proof walking rank-``nu`` paths would not."""
    cert = one_reversal((big, 0, big - 1, big), 0)
    REVERSALS.clear()
    start = time.perf_counter()
    replayed = replay_outcome(replay_certificate, cert)
    assert time.perf_counter() - start < 1.0
    assert replayed == replay_outcome(expanding_replay_certificate, cert)
    assert replayed[1] == [big - 1, 0, big, big]


def test_a_patched_expansion_starts_with_no_lemmas(monkeypatch, cold_lemmas):
    cert = one_reversal((1, 0, 2), 0)
    assert replay_certificate(cert)[-1] == [2, 0, 1]
    assert REVERSALS[(1, 0, 2)]
    # The no-op expansion cannot reverse (1, 0, 2): once the table is
    # cleared, it proves no lemma and replay expands every reversal.
    monkeypatch.setattr(WordMoves, "reverse_triple", lambda self, q: None)
    REVERSALS.clear()
    expected = replay_outcome(expanding_replay_certificate, cert)
    assert expected[1] == [1, 0, 2]
    assert replay_outcome(replay_certificate, cert) == expected
    assert lemma_snapshot() == {(1, 0, 2): ()}


def test_the_table_never_holds_more_than_the_cap(monkeypatch):
    cert = rewrite_to_identity(random_relation_indices(random.Random(12), 5, 400), 5)
    assert len({s.payload for s in cert.steps if s.rule == RULE_REVERSE}) > 3 * 5
    monkeypatch.setattr(moves, "LEMMA_CAP", 5)
    REVERSALS.clear()
    sizes = []
    for _ in replay_certificate(cert):
        sizes.append(len(REVERSALS))
    assert max(sizes) == 5 and sum(b < a for a, b in zip(sizes, sizes[1:])) > 1  # emptied twice or more
    assert replay_outcome(replay_certificate, cert) == replay_outcome(expanding_replay_certificate, cert)


@pytest.mark.parametrize("lookalike", [True, 1.0])
def test_lookalike_triples_never_read_or_write_the_table(lookalike):
    REVERSALS.clear()
    lookalike_only = one_reversal((lookalike, 0, 2, 1), 0)
    error = (DomainError, f"(0, {lookalike!r}, 2) does not name an elementary loop")
    assert replay_outcome(replay_certificate, lookalike_only) == error
    assert lemma_snapshot() == {}  # not written
    assert replay_certificate(one_reversal((1, 0, 2), 0))[-1] == [2, 0, 1]
    assert list(REVERSALS) == [(1, 0, 2)] and REVERSALS[(1, 0, 2)]
    warmed = lemma_snapshot()
    assert replay_outcome(replay_certificate, lookalike_only) == error  # (1, 0, 2) -> True not read
    assert lemma_snapshot() == warmed


def test_the_reader_gives_lookalike_triples_no_script_and_leaves_the_table(cold_lemmas):
    lookalikes = [(True, 0, 2), (1.0, 0, 2), (1, 0, False)]
    for triple in lookalikes:
        assert REVERSALS.script(triple) == ()
        assert lemma_snapshot() == {}  # cold: not written
    # Warm: each look-alike equals a triple that is held, with or without a script.
    assert REVERSALS.script((1, 0, 2)) and REVERSALS.script((1, 0, 0)) == ()
    warmed = lemma_snapshot()
    for triple in lookalikes:
        assert REVERSALS.script(triple) == ()
        assert lemma_snapshot() == warmed


@pytest.mark.parametrize("steps, k, entry", [
    (("x",), 0, "'x'"),
    ((RewriteStep(RULE_CANCEL, 0, (1,), 4, 2), (1, 0)), 1, "(1, 0)"),
])
def test_a_certificate_entry_that_is_not_a_step_is_a_domain_error(steps, k, entry):
    cert = RewriteCertificate((1, 1, 2, 2), steps, (), False)
    with pytest.raises(DomainError, match=rf"^certificate entry {k} is not a RewriteStep: {re.escape(entry)}$"):
        replay_certificate(cert)


@pytest.mark.parametrize("start, steps, field", [(None, (), "start"), ((1, 1), None, "steps")])
def test_a_certificate_field_that_is_not_a_sequence_is_a_domain_error(start, steps, field):
    # both raised TypeError
    cert = RewriteCertificate(start, steps, (), True)
    with pytest.raises(DomainError, match=rf"^certificate {field} None is not a sequence$"):
        replay_certificate(cert)


class LengthOnly:
    """A length and nothing to iterate."""

    def __len__(self) -> int:
        return 2


def test_indices_that_cannot_be_iterated_are_a_domain_error():
    with pytest.raises(DomainError, match=r"^word indices <.*> is not a sequence$"):
        rewrite_to_identity(LengthOnly(), 2)


@pytest.mark.parametrize("start, steps, field", [(LengthOnly(), (), "start"), ((1, 1), LengthOnly(), "steps")])
def test_a_certificate_field_that_cannot_be_iterated_is_a_domain_error(start, steps, field):
    # both raised TypeError
    with pytest.raises(DomainError, match=rf"^certificate {field} <.*> is not a sequence$"):
        replay_certificate(RewriteCertificate(start, steps, (), False))


@pytest.mark.parametrize("before_len, after_len", [(2.0, 0.0), (2, False), (2.0, 0), (2, 0.0), (True, 0)])
def test_step_lengths_must_be_ints(before_len, after_len):
    step = RewriteStep(RULE_CANCEL, 0, (1,), before_len, after_len)
    cert = RewriteCertificate((1, 1), (step,), ((0, 1, MACRO_CANCEL),), False)
    with pytest.raises(DomainError, match="^step lengths .* are not both ints$"):
        replay_certificate(cert)


@pytest.mark.parametrize("field", ["before_len", "after_len"])
def test_a_float_length_in_a_real_certificate_is_refused(field):
    cert = rewrite_to_identity(WORKED_LOOP, 2)
    k = len(cert.steps) // 2
    bad = dataclasses.replace(cert.steps[k], **{field: float(getattr(cert.steps[k], field))})
    with pytest.raises(DomainError, match="are not both ints"):
        replay_certificate(dataclasses.replace(cert, steps=cert.steps[:k] + (bad,) + cert.steps[k + 1 :]))


def test_an_int_length_mismatch_keeps_its_messages():
    for before_len, after_len, message in ((3, 0, "certificate does not chain: length mismatch"),
                                           (2, 1, "step length bookkeeping does not match")):
        step = RewriteStep(RULE_CANCEL, 0, (1,), before_len, after_len)
        cert = RewriteCertificate((1, 1), (step,), ((0, 1, MACRO_CANCEL),), False)
        assert replay_outcome(replay_certificate, cert) == (DomainError, message)


@pytest.mark.parametrize("final_empty", [1, 0, 1.0, None, "true"])
def test_final_empty_must_be_a_bool(final_empty):
    cert = dataclasses.replace(rewrite_to_identity(WORKED_LOOP, 2), final_empty=final_empty)
    with pytest.raises(DomainError, match=f"^final_empty {final_empty!r} is not a bool$"):
        replay_certificate(cert)


@pytest.mark.parametrize("nu", [2.5, True, False, 2.0, "2", None, -1])
def test_rewrite_refuses_a_nu_that_is_not_an_int_from_zero(nu):
    for word in ((1, 1), ()):
        with pytest.raises(DomainError, match=f"^nu {nu!r} is not an int >= 0$"):
            rewrite_to_identity(word, nu)


@pytest.mark.parametrize("payload", [None, 5])
def test_a_payload_that_cannot_be_iterated_is_a_domain_error_naming_the_step(payload):
    # It raised TypeError from ``tuple(payload)`` in ``WordMoves.apply``.
    cert = RewriteCertificate((1, 1), (RewriteStep(RULE_CANCEL, 0, payload, 2, 0),), (), True)
    message = f"^'cancel-involution' step with payload {payload} does not apply at 0$"
    with pytest.raises(DomainError, match=message):
        replay_certificate(cert)
    with pytest.raises(DomainError, match=message):
        WordMoves((1, 1)).apply_rule(RULE_CANCEL, 0, payload)

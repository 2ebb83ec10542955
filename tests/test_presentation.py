import dataclasses
import itertools
import random

import pytest

from a1weyl import (
    DomainError,
    ReflectableBase,
    Word,
    baby_base,
    eval_word,
    headline_relator_count,
    is_relation_w,
    presentation_alternating,
    presentation_baby_w,
    presentation_from_dict,
    presentation_hyp,
    presentation_to_dict,
    presentation_w_spre,
    replay_certificate,
    rewrite_to_identity,
    toroidal_semilattice,
    verify_presentation,
)
from a1weyl.presentation import (
    MACRO_BUBBLE,
    Presentation,
    RULE_CANCEL,
    RULE_DELETE,
    RULE_REVERSE,
    RewriteCertificate,
    RewriteStep,
    WordMoves,
    certificate_to_dict,
    move_block,
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
        moves = WordMoves((1, a, b, c, 2), nu)
        if a == b or b == c:
            if a != c:
                with pytest.raises(DomainError):
                    moves.reverse_triple(1)
            continue
        moves.reverse_triple(1)
        assert moves.word == [1, c, b, a, 2]


def test_move_block_names_only_the_relators():
    assert move_block((3,)) == (3, 3)
    assert move_block((0, 1, 2)) == (0, 1, 2, 0, 1, 2)
    for gens in [(), (-1,), (1.0,), (True,), (1, 2), (0, 2, 1), (0, 1, 1), (1, 1, 2), (0, 1.0, 2)]:
        with pytest.raises(DomainError):
            move_block(gens)


def test_replay_rejects_a_non_int_start_letter_as_a_domain_error():
    for start in ((1, "x", 1, "x"), ("x", "x")):
        step = RewriteStep(RULE_CANCEL, 0, (1,), len(start), len(start) - 2)
        with pytest.raises(DomainError):
            replay_certificate(RewriteCertificate(start, (step,), ((0, 1, "tampered"),), False))

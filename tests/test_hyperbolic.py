import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1weyl import (
    DomainError,
    HyperbolicElement,
    InternalCheckError,
    ReflectableBase,
    Root,
    WeylElement,
    Word,
    baby_base,
    baby_semilattice,
    center_basis,
    eval_word,
    eval_word_hyp,
    gram_matrix,
    identity_element_hyp,
    is_central,
    is_relation_hyp,
    is_relation_w,
    matrix_of_element_hyp,
    matrix_of_word,
    pairwise_semilattice,
    preserves_gram,
    toroidal_semilattice,
)
from a1weyl.hyperbolic import element_from_dict, element_to_dict
from a1weyl.intmat import mat_identity, mat_mul, mat_rank
from a1weyl.words import random_word

from conftest import root


E = root(1, 0, 0)
G1 = root(1, 1, 0)
G2 = root(1, 0, 1)


def word2(*letters):
    return Word(2, tuple(letters))


class TestEvalWordHyp:
    def test_empty(self):
        assert eval_word_hyp(Word.empty(2)) == identity_element_hyp(2)

    def test_center_word_of_the_minimal_system(self):
        # (g1 g0 g2)^2 moves l1 by +2*s2 and l2 by -2*s1, fixing V
        h = eval_word_hyp(word2(G1, E, G2, G1, E, G2))
        assert (h.parity, h.shift) == (1, (0, 0))
        assert h.dual_sgn == (0, 0)
        assert h.dual_p == ((0, -2), (2, 0))

    def test_sextic_relator_word(self):
        # (g0 g1 g2)^2: l1 moves by -2*s2
        h = eval_word_hyp(word2(E, G1, G2, E, G1, G2))
        assert h.dual_sgn == (0, 0)
        assert h.dual_p[0] == (0, 2)

    def test_projection_drops_dual_data(self):
        rng = random.Random(2)
        s = toroidal_semilattice(3)
        for _ in range(100):
            w = random_word(rng, s, rng.randint(0, 12))
            assert eval_word_hyp(w).projection() == eval_word(w)

    def test_sign_normalisation_is_invisible(self):
        w = Word(2, (root(-1, -1, 2), root(1, 1, 0), root(-1, 0, 1), root(1, 0, 0)))
        assert eval_word_hyp(w) == eval_word_hyp(w.normalized())


class TestRelationHyp:
    def test_involution(self):
        for a in (E, G1, root(-1, 3, -2)):
            assert is_relation_hyp(word2(a, a))

    def test_central_but_nontrivial(self):
        w = word2(E, G1, G2, E, G1, G2)
        assert not is_relation_hyp(w)
        assert is_central(w)

    def test_toroidal_center_word(self, toroidal2_base):
        w = Word.from_indices(toroidal2_base, (3, 1, 0, 2))
        assert not is_relation_hyp(w)
        assert is_central(w)

    def test_hyp_relation_implies_v_relation(self):
        rng = random.Random(4)
        s = toroidal_semilattice(2)
        for _ in range(200):
            w = random_word(rng, s, rng.randint(0, 10))
            if is_relation_hyp(w):
                assert is_relation_w(w)


class TestIsCentral:
    def test_rejects_rank_zero(self):
        with pytest.raises(DomainError):
            is_central(Word(0, (Root(1, ()),)))

    def test_single_reflection_not_central(self):
        assert not is_central(word2(E))

    def test_odd_square_is_central(self):
        rng = random.Random(6)
        s = toroidal_semilattice(2)
        for _ in range(100):
            u = random_word(rng, s, 2 * rng.randint(0, 4) + 1)
            assert is_central(u + u)


class TestMatrixOracle:
    def test_empty_word(self):
        assert matrix_of_word(Word.empty(2)) == mat_identity(5)

    def test_plain_reflection_fixes_duals(self):
        m = matrix_of_word(word2(E))
        n = 5
        for c in range(1, n):
            col = tuple(m[r][c] for r in range(n))
            assert col == tuple(1 if r == c else 0 for r in range(n))
        assert m[0][0] == -1

    def test_center_word_matrix(self, baby2_base):
        w = Word.from_indices(baby2_base, (1, 0, 2, 1, 0, 2))
        m = matrix_of_word(w)
        assert m == matrix_of_element_hyp(eval_word_hyp(w))
        # l1 -> l1 + 2*s2, l2 -> l2 - 2*s1, everything else fixed
        assert tuple(m[r][3] for r in range(5)) == (0, 0, 2, 1, 0)
        assert tuple(m[r][4] for r in range(5)) == (0, -2, 0, 0, 1)

    def test_oracle_equivalence_seeded(self):
        rng = random.Random(1)
        for _ in range(1000):
            nu = rng.randint(1, 3)
            s = rng.choice((baby_semilattice(nu), toroidal_semilattice(nu)))
            w = random_word(rng, s, rng.randint(0, 16))
            assert matrix_of_element_hyp(eval_word_hyp(w)) == matrix_of_word(w)

    def test_form_preservation_seeded(self):
        rng = random.Random(8)
        for _ in range(200):
            nu = rng.randint(1, 3)
            s = toroidal_semilattice(nu)
            w = random_word(rng, s, rng.randint(0, 10))
            assert preserves_gram(matrix_of_word(w), nu)


signs = st.sampled_from((-1, 1))
roots2 = st.builds(Root, signs, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))


@settings(deadline=None, max_examples=60)
@given(st.lists(roots2, max_size=6))
def test_gram_matrix_is_preserved(letters):
    w = Word(2, tuple(letters))
    assert preserves_gram(matrix_of_word(w), 2)


@pytest.mark.parametrize("mat,rank", [
    (((1, 2),), 1),
    (mat_identity(5), 1),
    (mat_identity(3)[:2], 1),
    (((1, 0, 0), (0, 1), (0, 0, 1)), 1),
    (mat_identity(3), 2),
])
def test_the_gram_test_takes_only_a_square_matrix_of_its_rank(mat, rank):
    with pytest.raises(DomainError, match="Gram test takes a"):
        preserves_gram(mat, rank)


@pytest.mark.parametrize("rank", [-1, 1.5, "1"])
def test_the_gram_matrix_takes_only_a_non_negative_int_rank(rank):
    with pytest.raises(DomainError, match="rank must be a non-negative int"):
        gram_matrix(rank)
    with pytest.raises(DomainError, match="rank must be a non-negative int"):
        preserves_gram(mat_identity(3), rank)


def test_a_product_of_mismatched_matrices_is_a_domain_error():
    with pytest.raises(DomainError, match="inner dimension mismatch"):
        mat_mul(((1, 2),), ((1,),))


def test_bad_gram_input_is_a_domain_error_under_python_dash_O():
    code = (
        "from a1weyl import DomainError, gram_matrix, preserves_gram\n"
        "from a1weyl.intmat import mat_mul\n"
        "if __debug__:\n"
        "    raise SystemExit('asserts are on')\n"
        "calls = [lambda: preserves_gram(((1, 2),), 1), lambda: gram_matrix(-1),\n"
        "         lambda: mat_mul(((1, 2),), ((1,),))]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except DomainError:\n"
        "        continue\n"
        "    raise SystemExit('no DomainError')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")


class TestCenterBasis:
    def test_minimal_rank2(self, baby2_base):
        (z,) = center_basis(baby2_base)
        assert z.pair == (1, 2)
        assert z.word.to_indices(baby2_base) == (1, 0, 2, 1, 0, 2)
        assert z.element.dual_p == ((0, -2), (2, 0))

    def test_toroidal_rank2(self, toroidal2_base):
        (z,) = center_basis(toroidal2_base)
        assert z.word.letters == (
            Root(1, (1, 1)),
            Root(1, (1, 0)),
            Root(1, (0, 0)),
            Root(1, (0, 1)),
        )
        assert z.element.dual_p == ((0, -1), (1, 0))

    def test_rank1_center_is_trivial(self):
        assert center_basis(baby_base(1)) == ()

    def test_rank_counts(self):
        for nu in (2, 3):
            for s in (baby_semilattice(nu), pairwise_semilattice(nu)):
                assert len(center_basis(ReflectableBase(s))) == nu * (nu - 1) // 2

    def test_rejects_non_elliptic_like(self):
        with pytest.raises(DomainError):
            center_basis(ReflectableBase(toroidal_semilattice(3)))

    def test_generators_commute_with_base(self, baby2_base, toroidal2_base):
        for base in (baby2_base, toroidal2_base):
            for z in center_basis(base):
                for k in range(len(base.roots)):
                    g = Word.from_indices(base, (k,))
                    assert eval_word_hyp(z.word + g) == eval_word_hyp(g + z.word)

    @pytest.mark.parametrize("nu", [2, 3])
    @pytest.mark.parametrize("make", [baby_semilattice, pairwise_semilattice])
    def test_freeness_witness(self, make, nu):
        base = ReflectableBase(make(nu))
        rows = [
            [c for row in z.element.dual_p for c in row] for z in center_basis(base)
        ]
        assert mat_rank(rows) == nu * (nu - 1) // 2

    def test_a_non_central_element_is_an_internal_error(self, baby2_base, monkeypatch):
        # centrality is read from the one evaluation of each word
        from a1weyl import hyperbolic

        def drop_a_letter(word):
            return eval_word_hyp(Word(word.rank, word.letters[1:]))

        monkeypatch.setattr(hyperbolic, "eval_word_hyp", drop_a_letter)
        with pytest.raises(InternalCheckError, match="is not central"):
            center_basis(baby2_base)


def test_element_json_round_trip():
    h = eval_word_hyp(word2(G1, E, G2, G1, E, G2))
    assert element_from_dict(element_to_dict(h)) == h


def test_parity_other_than_plus_or_minus_one_is_rejected():
    with pytest.raises(DomainError):
        HyperbolicElement(5, (0,), (0,), ((0,),))
    with pytest.raises(DomainError):
        element_from_dict({"eps": 5, "t": [0], "s": [0], "q": [[0]]})


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, "1", "-1"])
@pytest.mark.parametrize("field", ["eps", "t", "s", "q"])
def test_element_json_takes_only_int_values(field, bad):
    data = element_to_dict(eval_word_hyp(word2(G1, E, G2, G1, E, G2)))
    if field == "eps":
        data["eps"] = bad
    elif field == "q":
        data["q"][1][0] = bad
    else:
        data[field][0] = bad
    with pytest.raises(DomainError, match=f"element field '{field}'"):
        element_from_dict(data)


L = 2**62


def rank1_word(*letters):
    return Word(1, tuple(Root(sign, (c,)) for sign, c in letters))


OVERFLOW_PROBES = {
    "+L -L -L": rank1_word((1, L), (-1, L), (-1, L)),
    "+L -L -L +L": rank1_word((1, L), (-1, L), (-1, L), (1, L)),
    "+max -max": rank1_word((1, 2**63 - 1), (-1, 2**63 - 1)),
    "+2^32 +(-2^32) +2^32": rank1_word((1, 2**32), (1, -(2**32)), (1, 2**32)),
}


@pytest.mark.parametrize(
    "probe, fn, expected",
    [
        ("+L -L -L", eval_word, OverflowError),
        ("+L -L -L", eval_word_hyp, OverflowError),
        ("+L -L -L", is_relation_w, False),
        ("+L -L -L", is_central, False),
        ("+L -L -L +L", eval_word, WeylElement(1, (0,))),
        ("+L -L -L +L", eval_word_hyp, identity_element_hyp(1)),
        ("+L -L -L +L", is_relation_w, True),
        ("+L -L -L +L", is_central, True),
        ("+max -max", eval_word, OverflowError),
        ("+max -max", eval_word_hyp, OverflowError),
        ("+max -max", is_relation_w, OverflowError),
        ("+max -max", is_central, OverflowError),
        ("+2^32 +(-2^32) +2^32", eval_word, WeylElement(-1, (3 * 2**32,))),
        ("+2^32 +(-2^32) +2^32", eval_word_hyp, OverflowError),  # the dual rows reach 9 * 2^64
        ("+2^32 +(-2^32) +2^32", is_relation_w, False),
        ("+2^32 +(-2^32) +2^32", is_central, False),
    ],
)
def test_which_evaluation_overflows_at_the_edge_of_the_64_bit_band(probe, fn, expected):
    """The guard band is asymmetric, so the same word can overflow one evaluation only."""
    word = OVERFLOW_PROBES[probe]
    if expected is OverflowError:
        with pytest.raises(OverflowError):
            fn(word)
    else:
        assert fn(word) == expected


def test_eval_word_hyp_overflows_only_where_the_w_form_or_the_dual_rows_do():
    # -2^63 is in the band and 2^63 is not: the running shift passes through
    # -2^63, which the W form accepts, and the word is the reflection in
    # -e + s_1.
    word = rank1_word((1, -(2**63)), (1, -(2**63 - 1)), (1, 0))
    assert eval_word(word) == WeylElement(-1, (-1,))
    assert eval_word_hyp(word) == eval_word_hyp(rank1_word((-1, 1)))


@pytest.mark.parametrize("data, field", [
    ({"eps": 1}, "t"),  # was KeyError: 't'
    ({"eps": 1, "t": 5}, "t"),  # was TypeError
    ({"eps": 1, "t": [0]}, "s"),
    ({"eps": 1, "t": [0], "s": [0], "q": 3}, "q"),
    ({"eps": 1, "t": [0], "s": [0], "q": [3]}, "q"),
])
def test_element_json_names_a_missing_or_non_array_field(data, field):
    with pytest.raises(DomainError, match=f"element field '{field}'"):
        element_from_dict(data)


@pytest.mark.parametrize("data, field", [
    ({"eps": 1, "t": [0, 0], "s": [5, 0], "q": [[0, 0], [0, 0]]}, "s"),  # s != -eps * t
    ({"eps": -1, "t": [1], "s": [-1], "q": [[1]]}, "s"),
    ({"eps": 1, "t": [0, 0], "s": [0, 0], "q": [[7, 0], [0, 0]]}, "q"),  # q[0][0] != t_0^2
    ({"eps": 1, "t": [1, 2], "s": [-1, -2], "q": [[1, 3], [0, 4]]}, "q"),  # q[0][1] + q[1][0] != 4
])
def test_element_json_refuses_data_no_element_has(data, field):
    with pytest.raises(DomainError, match=f"element field '{field}'"):
        element_from_dict(data)


def test_element_json_takes_a_consistent_element_not_from_a_word():
    data = {"eps": 1, "t": [1, 2], "s": [-1, -2], "q": [[1, 5], [-1, 4]]}
    assert element_to_dict(element_from_dict(data)) == data


@pytest.mark.parametrize("q", [[[0], [0, 0, 0]], [[0, 0], [0]], [[0, 0, 0], [0, 0]]])
def test_every_dual_row_has_one_entry_per_rank(q):
    with pytest.raises(DomainError, match="one entry per lattice rank"):
        HyperbolicElement(1, (0, 0), (0, 0), q)
    with pytest.raises(DomainError, match="one entry per lattice rank"):
        element_from_dict({"eps": 1, "t": [0, 0], "s": [0, 0], "q": q})

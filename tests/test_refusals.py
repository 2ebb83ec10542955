"""Refusals of malformed input, each with its documented error and message.

Malformed semilattice configurations are a ``ConfigError``, which the CLI
ends with exit 2 and ``configuration error: ...`` on stderr.  The other
cases are the ``DomainError`` and ``WordParseError`` refusals of the
library's constructors and operations, one test per refusal.
"""

import json

import pytest

from a1weyl import (
    Path,
    Presentation,
    ReflectableBase,
    Root,
    Word,
    act_on_root,
    baby_semilattice,
    base_simplex,
    check_reflectable_set,
    parse_word,
    presentation_alternating,
    presentation_baby_w,
    root_in_r0,
    semilattice_from_dict,
)
from a1weyl.cli import main
from a1weyl.errors import ConfigError, DomainError, WordParseError
from a1weyl.lattice import vec_add
from a1weyl.moves import WordMoves, _reverses_alone, reversible
from a1weyl.weyl import identity_element

MALFORMED = [
    ({"cosets": [[0]]}, "malformed semilattice configuration: 'rank'"),
    ({"rank": 1, "cosets": 5}, "malformed semilattice configuration: 'int' object is not iterable"),
    ({"rank": -1, "cosets": [[]]}, "rank must be non-negative, got -1"),
    ({"rank": 1, "cosets": []}, "at least the zero coset representative is required"),
]


@pytest.mark.parametrize("data, message", MALFORMED)
def test_a_malformed_configuration_is_a_config_error(data, message):
    with pytest.raises(ConfigError) as info:
        semilattice_from_dict(data)
    assert str(info.value) == message


@pytest.mark.parametrize("data, message", MALFORMED)
def test_validate_ends_a_malformed_configuration_with_exit_2(capsys, tmp_path, data, message):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(data))
    code = main(["validate", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


def test_a_presentation_refuses_an_unknown_target():
    with pytest.raises(DomainError, match=r"^unknown target group 'X'$"):
        Presentation(("g0",), ((0, 0),), "X")


def test_a_presentation_refuses_a_relator_index_out_of_range():
    with pytest.raises(DomainError, match=r"^relator index 1 out of range for 1 generators$"):
        Presentation(("g0",), ((0, 1),), "W")


def test_the_alternating_presentation_refuses_kmax_past_the_cap():
    pool = ReflectableBase(baby_semilattice(1)).roots
    with pytest.raises(DomainError, match=r"^kmax 14 exceeds the cap 12$"):
        presentation_alternating(pool, 14)


def test_the_baby_presentation_refuses_a_negative_rank():
    with pytest.raises(DomainError, match=r"^rank must be non-negative$"):
        presentation_baby_w(-1)


def test_words_of_different_ranks_do_not_concatenate():
    with pytest.raises(DomainError, match=r"^cannot concatenate words of different ranks$"):
        Word.empty(1) + Word.empty(2)


def test_an_explicit_root_token_without_its_colon_is_a_parse_error():
    base = ReflectableBase(baby_semilattice(1))
    with pytest.raises(WordParseError, match=r"^explicit root token '\+ex' must look like"):
        parse_word("+ex", base)


def test_act_on_root_refuses_a_rank_mismatch():
    with pytest.raises(DomainError, match=r"^rank mismatch between element and root$"):
        act_on_root(identity_element(1), Root(1, (0, 0)))


def test_vec_add_refuses_a_rank_mismatch():
    with pytest.raises(DomainError, match=r"^rank mismatch: 1 vs 2$"):
        vec_add((1,), (1, 2))


def test_root_in_r0_refuses_a_rank_mismatch():
    with pytest.raises(DomainError, match=r"^root has rank 2, semilattice has rank 1$"):
        root_in_r0(baby_semilattice(1), Root(0, (0, 0)))


def test_a_reflectable_set_candidate_must_be_a_non_isotropic_root():
    with pytest.raises(DomainError, match=r"is not a non-isotropic root of the system$"):
        check_reflectable_set(baby_semilattice(1), [Root(0, (0,))], 1)


def test_a_hand_built_path_of_the_wrong_length_is_refused():
    word = Word.from_indices(ReflectableBase(baby_semilattice(1)), (1, 1))
    with pytest.raises(DomainError, match=r"^a path has one simplex per word suffix, ends included$"):
        Path((base_simplex(1),), word)


def test_an_expansion_that_raises_proves_no_shape(monkeypatch, cold_proof):
    def refused(self, q):
        raise DomainError("no expansion")

    monkeypatch.setattr(WordMoves, "reverse_triple", refused)
    assert not _reverses_alone((1, 2, 3))
    assert not cold_proof()
    assert not reversible(1, 2, 3)  # citing is off

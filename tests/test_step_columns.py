"""The steps of a library-built certificate are ``StepColumns``, which read as the tuple of their records.

The rewriter writes each step into typed columns and builds a
``RewriteStep`` only when one is read.  To everything but the two readers
that take the columns directly (replay and ``reduce_loop``) the sequence is
the tuple it replaces: equal in both directions, the same hash and
``repr``, tuples for slices.
"""

import copy
import dataclasses
import itertools
import pickle
import random
from array import array

import pytest

from a1weyl import (
    DomainError,
    InternalCheckError,
    Word,
    baby_base,
    base_simplex,
    path_of_word,
    reduce_loop,
    replay_certificate,
    rewrite_to_identity,
)
from a1weyl import geometry, presentation
from a1weyl.moves import RULE_CANCEL, RULE_DELETE, RULE_REVERSE, WordMoves
from a1weyl.presentation import RewriteCertificate, RewriteStep, StepColumns, certificate_to_dict
from a1weyl.words import random_relation_indices

WORKED_LOOP = (2, 0, 2, 1, 0, 1, 0, 2, 1, 2, 1, 0)
# A relation at nu = 3 whose certificate holds every rule: 54 cancellations, 51 reversals, 2 deletions.
EVERY_RULE = random_relation_indices(random.Random(0), 3, 60)


@pytest.fixture
def cert():
    made = rewrite_to_identity(EVERY_RULE, 3)
    assert type(made.steps) is StepColumns
    assert {s.rule for s in made.steps} == {RULE_CANCEL, RULE_REVERSE, RULE_DELETE}
    return made


def test_the_steps_equal_and_hash_as_the_tuple_of_their_records(cert):
    records = tuple(cert.steps)
    assert all(type(s) is RewriteStep for s in records)
    assert cert.steps == records and records == cert.steps
    assert not cert.steps != records and not records != cert.steps
    assert hash(cert.steps) == hash(records)
    assert repr(cert.steps) == repr(records)
    as_tuple = dataclasses.replace(cert, steps=records)
    assert cert == as_tuple and as_tuple == cert and hash(cert) == hash(as_tuple)
    assert repr(cert) == repr(as_tuple)
    assert certificate_to_dict(cert) == certificate_to_dict(as_tuple)
    assert cert.steps != records[:-1] and records[:-1] != cert.steps
    assert cert.steps != list(records)


def test_small_certificates_print_as_their_tuples():
    assert repr(rewrite_to_identity((), 2).steps) == "()"
    steps = rewrite_to_identity((1, 1), 2).steps
    assert type(steps) is StepColumns
    assert repr(steps) == "(RewriteStep(rule='cancel-involution', pos=0, payload=(1,), before_len=2, after_len=0),)"


@pytest.mark.parametrize("index", [
    slice(None), slice(None, 40), slice(40, None), slice(7, 9), slice(9, 7), slice(None, None, 2),
    slice(None, None, -1), slice(-3, None), slice(100, 10, -7), slice(500, 600),
])
def test_a_slice_is_the_tuple_of_the_records_it_selects(cert, index):
    part = cert.steps[index]
    assert type(part) is tuple and part == tuple(cert.steps)[index]


def test_an_index_reads_the_records_and_counts_from_either_end(cert):
    records = tuple(cert.steps)
    n = len(records)
    assert len(cert.steps) == n
    assert [cert.steps[k] for k in range(-n, n)] == [records[k] for k in range(-n, n)]
    for k in (n, -n - 1, 10**6):
        with pytest.raises(IndexError):
            cert.steps[k]
    assert list(reversed(cert.steps)) == list(reversed(records))
    assert records[5] in cert.steps and cert.steps.index(records[5]) == records.index(records[5])


@pytest.mark.parametrize("index", [1.5, "a", None])
def test_an_index_that_is_not_an_int_raises_as_the_tuple_does(cert, index):
    with pytest.raises(TypeError) as want:
        tuple(cert.steps)[index]
    with pytest.raises(TypeError) as got:
        cert.steps[index]
    assert str(got.value) == str(want.value)


def test_index_builds_each_record_at_most_once(cert, monkeypatch):
    records = tuple(cert.steps)
    step, built = presentation._step, []

    def counting_step(*fields):
        built.append(fields)
        return step(*fields)

    monkeypatch.setattr(presentation, "_step", counting_step)
    assert cert.steps.index(records[-1]) == records.index(records[-1])
    assert 0 < len(built) <= len(records)


def test_a_spliced_slice_is_a_tuple_of_records(cert):
    k = 10
    bad = dataclasses.replace(cert.steps[k], pos=cert.steps[k].pos + 1)
    spliced = cert.steps[:k] + (bad,) + cert.steps[k + 1 :]
    assert type(spliced) is tuple and len(spliced) == len(cert.steps) and spliced[k] == bad


@pytest.mark.parametrize("clone", [
    *(lambda x, p=p: pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy, copy.deepcopy,
])
def test_the_columns_pickle_and_copy_as_columns(cert, clone):
    for original in (cert.steps, cert):
        copied = clone(original)
        assert type(copied) is type(original)
        assert copied == original and hash(copied) == hash(original) and repr(copied) == repr(original)
    assert type(clone(cert).steps) is StepColumns


def test_the_readers_of_a_library_certificate_build_no_record(cert, monkeypatch):
    path = path_of_word(Word.from_indices(baby_base(3), EVERY_RULE), base_simplex(3))
    trace = reduce_loop(path)

    def no_record(*args):
        raise AssertionError("a RewriteStep was built")

    monkeypatch.setattr(presentation, "_step", no_record)
    fresh = rewrite_to_identity(EVERY_RULE, 3)
    assert replay_certificate(fresh)[-1] == []
    assert reduce_loop(path) == trace
    with pytest.raises(AssertionError, match="a RewriteStep was built"):
        list(fresh.steps)


@pytest.mark.parametrize("columns", [
    lambda s: (s.length, bytearray(s.rules), s.positions, s.letters),  # not bytes
    lambda s: (s.length, s.rules, list(s.positions), s.letters),  # not an array
    lambda s: (s.length, s.rules, s.positions, array("l", s.letters)),  # another typecode
    lambda s: (s.length, s.rules, s.positions[:-1], s.letters),  # one position short
    lambda s: (s.length, s.rules, s.positions, s.letters[:-1]),  # one letter short
    lambda s: (s.length, s.rules[:-1] + b"\x02", s.positions, s.letters),  # a code no rule has
    lambda s: (float(s.length), s.rules, s.positions, s.letters),
])
def test_the_constructor_refuses_columns_that_are_not_steps(cert, columns):
    with pytest.raises(DomainError, match="do not hold the codes, positions and letters"):
        StepColumns(*columns(cert.steps))


def forged(cert, column, k, value):
    """``cert`` with entry ``k`` of one column set to ``value``, as columns and as records."""
    steps = cert.steps
    fields = {"positions": array("q", steps.positions), "letters": array("q", steps.letters)}
    fields[column][k] = value
    columns = StepColumns(steps.length, steps.rules, fields["positions"], fields["letters"])
    return dataclasses.replace(cert, steps=columns), dataclasses.replace(cert, steps=tuple(columns))


def outcome(cert):
    try:
        return "replays", replay_certificate(cert)[-1]
    except DomainError as exc:
        return "raises", str(exc)


@pytest.mark.parametrize("column, value", [
    ("positions", None), ("positions", -1), ("positions", -5), ("positions", 10**6),
    ("letters", None), ("letters", 0), ("letters", -1), ("letters", 4),
])
def test_forged_columns_replay_as_their_records_do(cert, column, value):
    """One entry of the first step of each rule is set to ``value`` (``None``: one more than it was)."""
    width = {RULE_CANCEL: 1, RULE_REVERSE: 3, RULE_DELETE: 6}
    firsts, o = {}, 0  # the index and the first letter of the first step of each rule
    for k, s in enumerate(cert.steps):
        firsts.setdefault(s.rule, (k, o))
        o += width[s.rule]
    refused = 0
    for k, o in firsts.values():
        at = k if column == "positions" else o
        columns, records = forged(cert, column, at, getattr(cert.steps, column)[at] + 1 if value is None else value)
        got = outcome(columns)
        assert got == outcome(records)
        refused += got[0] == "raises"
    assert refused


def test_a_forged_letter_of_each_rule_is_refused(cert):
    """The column path still matches every payload against the live word."""
    o, seen = 0, set()
    for s in cert.steps:
        if s.rule not in seen:
            seen.add(s.rule)
            columns, _ = forged(cert, "letters", o, cert.steps.letters[o] + 1)
            with pytest.raises(DomainError, match=f"^(cannot delete .* block absent|'{s.rule}' step with payload)"):
                replay_certificate(columns)
        o += len(s.payload)
    assert len(seen) == 3


def test_a_start_of_another_length_does_not_chain(cert):
    for start in (cert.start[:-2], cert.start + (1, 1)):
        with pytest.raises(DomainError, match="certificate does not chain: length mismatch"):
            replay_certificate(dataclasses.replace(cert, start=start))


def test_letters_past_64_bits_give_the_tuple_of_records():
    big = 2**64
    wide = rewrite_to_identity(tuple(big if g == 2 else g for g in WORKED_LOOP), big)
    assert type(wide.steps) is tuple and all(type(s) is RewriteStep for s in wide.steps)
    narrow = rewrite_to_identity(WORKED_LOOP, 2)
    relabel = lambda payload: tuple(big if g == 2 else g for g in payload)  # noqa: E731
    assert wide.steps == tuple(dataclasses.replace(s, payload=relabel(s.payload)) for s in narrow.steps)
    assert wide.macros == narrow.macros
    assert replay_certificate(wide)[-1] == []


def test_a_forged_column_step_fails_reduce_loop_naming_its_record(cert, monkeypatch):
    path = path_of_word(Word.from_indices(baby_base(3), EVERY_RULE), base_simplex(3))
    columns, records = forged(cert, "positions", 0, cert.steps.positions[0] + 1)
    messages = []
    for forgery in (columns, records):
        monkeypatch.setattr(geometry, "rewrite_to_identity", lambda indices, nu, forgery=forgery: forgery)
        with pytest.raises(InternalCheckError) as info:
            reduce_loop(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"certificate step {records.steps[0]!r} does not apply: ")


LOOKALIKES = (0, 1, 2, -1, True, 1.0)


@pytest.mark.parametrize("k", LOOKALIKES)
def test_a_replayed_cancellation_accepts_and_refuses_as_the_delete_move(k):
    """Replay splices a cancellation after the test of ``WordMoves.delete``'s fast path; the two agree."""
    for start in itertools.product(LOOKALIKES, repeat=3):
        for q in range(-1, 4):
            moves = WordMoves(start)
            try:
                moves.delete(q, (k,))
                expected = "replays", moves.word
            except DomainError as exc:
                expected = "raises", str(exc)
            step = RewriteStep(RULE_CANCEL, q, (k,), 3, 1)
            assert outcome(RewriteCertificate(start, (step,), (), False)) == expected

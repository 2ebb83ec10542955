"""The moves of a library-built trace are a ``TraceMoves`` view, which reads as the tuple of its records.

The view holds the loop's start, its base and its certificate, and nothing
else: each step stands for its moves, and a ``Move`` is built only when one
is read, by the tracer run over the steps.  To everything but
``replay_trace``, which replays the certificate itself, the sequence is the
tuple it replaces; and replay of the view accepts and refuses, with the same
message, what replay of that tuple does.
"""

import copy
import dataclasses
import gc
import itertools
import pickle
import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a1weyl import DomainError, InternalCheckError, Move, MoveTrace, Simplex, Word, baby_base, base_simplex
from a1weyl import geometry, path_of_word, reduce_loop, replay_certificate, replay_trace
from a1weyl.geometry import TraceMoves, _Tracer
from a1weyl.moves import RULE_REVERSE, WordMoves, reversible, shapes_proved
from a1weyl.presentation import RewriteCertificate, RewriteStep, StepColumns, rewrite_to_identity
from a1weyl.words import random_relation_indices
from references import expansion_alone

WORKED_LOOP = (2, 0, 2, 1, 0, 1, 0, 2, 1, 2, 1, 0)


def commutator(n):
    return (0, 1) * n + (0, 2) * n + (1, 0) * n + (2, 0) * n


LOOPS = [(2, commutator(3)), (2, WORKED_LOOP), (3, (1, 3, 2, 1, 3, 2))]


def traced(nu, indices, base=None):
    return reduce_loop(path_of_word(Word.from_indices(baby_base(nu), indices), base or base_simplex(nu)))


def as_records(trace):
    return dataclasses.replace(trace, moves=tuple(trace.moves))


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the type and the message must both match
        return "raises", type(exc), str(exc)


def reversal_steps(certificate):
    return [k for k, step in enumerate(certificate.steps) if step.rule == RULE_REVERSE]


def step_ends(certificate):
    """The index of each step's first move, then the number of moves: a reversal's counted by its expansion alone."""
    widths = (len(expansion_alone(s.payload)) if s.rule == RULE_REVERSE else 1 for s in certificate.steps)
    return [0, *itertools.accumulate(widths)]


@pytest.fixture(scope="module")
def trace():
    made = traced(2, commutator(4))
    assert type(made.moves) is TraceMoves
    assert (made.moves.start, made.moves.base) == (made.start, made.base)
    cert = made.moves.certificate
    assert reversal_steps(cert) and len(made.moves) > len(cert.steps)  # a reversal stands for all its script's moves
    return made


def test_the_moves_equal_and_hash_as_the_tuple_of_their_records(trace):
    records = tuple(trace.moves)
    assert all(type(m) is Move for m in records)
    assert trace.moves == records and records == trace.moves
    assert not trace.moves != records and not records != trace.moves
    assert hash(trace.moves) == hash(records)
    assert repr(trace.moves) == repr(records)
    as_tuple = as_records(trace)
    assert trace == as_tuple and as_tuple == trace and hash(trace) == hash(as_tuple)
    assert repr(trace) == repr(as_tuple)
    assert trace.moves != records[:-1] and records[:-1] != trace.moves
    assert trace.moves != list(records)


@pytest.mark.parametrize("index", [
    slice(None), slice(None, 40), slice(40, None), slice(7, 9), slice(9, 7), slice(None, None, 2),
    slice(None, None, -1), slice(-3, None), slice(100, 10, -7), slice(500, 600), slice(3, 4),
])
def test_a_slice_is_the_tuple_of_the_records_it_selects(trace, index):
    part = trace.moves[index]
    assert type(part) is tuple and part == tuple(trace.moves)[index]


def test_an_index_reads_the_records_and_counts_from_either_end(trace):
    records = tuple(trace.moves)
    n = len(records)
    assert len(trace.moves) == n
    assert [trace.moves[k] for k in range(-n, n)] == [records[k] for k in range(-n, n)]
    for k in (n, -n - 1, 10**6):
        with pytest.raises(IndexError):
            trace.moves[k]
    assert list(reversed(trace.moves)) == list(reversed(records))
    assert records[5] in trace.moves and trace.moves.index(records[5]) == records.index(records[5])


@pytest.mark.parametrize("index", [1.5, "a", None])
def test_an_index_that_is_not_an_int_raises_as_the_tuple_does(trace, index):
    with pytest.raises(TypeError) as want:
        tuple(trace.moves)[index]
    with pytest.raises(TypeError) as got:
        trace.moves[index]
    assert str(got.value) == str(want.value)


def test_index_builds_each_record_at_most_once(trace, monkeypatch):
    records = tuple(trace.moves)
    move, built = geometry._move, []

    def counting_move(*fields):
        built.append(fields)
        return move(*fields)

    monkeypatch.setattr(geometry, "_move", counting_move)
    assert trace.moves.index(records[-1]) == records.index(records[-1])
    assert 0 < len(built) <= len(records)


@pytest.mark.parametrize("clone", [
    *(lambda x, p=p: pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy, copy.deepcopy,
])
def test_the_view_pickles_and_copies_as_its_start_base_and_certificate(trace, clone):
    for original in (trace.moves, trace):
        copied = clone(original)
        assert type(copied) is type(original)
        assert copied == original and hash(copied) == hash(original) and repr(copied) == repr(original)
    moves = clone(trace).moves
    assert type(moves) is TraceMoves
    assert (moves.start, moves.base, moves.certificate) == (trace.start, trace.base, trace.moves.certificate)
    assert len(moves) == len(trace.moves) and moves.macros == trace.macros


def one_reversal(triple):
    steps = StepColumns(3, bytes([3]), array("q", [0]), array("q", triple))
    return RewriteCertificate(triple, steps, ((0, 1, "bubble"),), False)


def fields(trace):
    return trace.start, trace.base, trace.moves.certificate


def with_macros(cert, macros):
    return dataclasses.replace(cert, macros=macros)


VIEW_FORGERIES = {
    "a start that is a list": lambda s, b, c: (list(s), b, c),
    "a start the certificate does not hold": lambda s, b, c: (s[2:], b, c),
    "a letter above the rank": lambda s, b, c: ((3,) + s[1:], b, dataclasses.replace(c, start=(3,) + s[1:])),
    "a look-alike letter": lambda s, b, c: ((True,) + s[1:], b, dataclasses.replace(c, start=(True,) + s[1:])),
    "a base that is not a Simplex": lambda s, b, c: (s, (b.anchor, b.orient), c),
    "a certificate that is not one": lambda s, b, c: (s, b, (c.start, c.steps, c.macros, True)),
    "a macro past the steps": lambda s, b, c: (s, b, with_macros(c, c.macros + ((0, len(c.steps) + 1, "x"),))),
    "a macro that ends before it starts": lambda s, b, c: (s, b, with_macros(c, ((2, 1, "x"),))),
    "a macro of two fields": lambda s, b, c: (s, b, with_macros(c, ((0, 1),))),
    "macros that are a list": lambda s, b, c: (s, b, with_macros(c, list(c.macros))),
}


@pytest.mark.parametrize("forgery", VIEW_FORGERIES)
def test_the_constructor_refuses_what_is_not_a_start_base_and_certificate(trace, forgery):
    with pytest.raises(DomainError, match="^the moves of a trace are read from|^the certificate macros"):
        TraceMoves(*VIEW_FORGERIES[forgery](*fields(trace)))


@pytest.mark.parametrize("triple", [(1, 0, 1), (1, 1, 2), (0, 0, 1), (2, 2, 2)])
def test_the_constructor_refuses_a_reversal_without_a_script(triple):
    message = f"certificate step 0 reverses {triple!r}, which has no proved script"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        TraceMoves(triple, base_simplex(2), one_reversal(triple))
    step = RewriteStep("triple-reverse", 0, triple, 3, 3)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        TraceMoves(triple, base_simplex(2), RewriteCertificate(triple, (step,), ((0, 1, "bubble"),), False))


def test_the_constructor_refuses_an_entry_that_is_not_a_step(trace):
    start, base, cert = fields(trace)
    steps = tuple(cert.steps)
    forged = dataclasses.replace(cert, steps=steps[:1] + ("x",) + steps[2:])
    with pytest.raises(DomainError, match=r"^certificate entry 1 is not a RewriteStep: 'x'$"):
        TraceMoves(start, base, forged)


def test_reduce_loop_refuses_a_certificate_whose_reversal_has_no_script(monkeypatch):
    """The rewriter reverses only triples of three distinct letters; a reversal without a script is an internal fault."""
    triple = (1, 0, 1)
    path = path_of_word(Word.from_indices(baby_base(1), (1, 1, 0, 0)), base_simplex(1))
    step = RewriteStep("triple-reverse", 0, triple, 4, 4)
    monkeypatch.setattr(geometry, "rewrite_to_identity",
                        lambda indices, nu: RewriteCertificate(indices, (step,), ((0, 1, "bubble"),), True))
    with pytest.raises(InternalCheckError, match=r"reverses \(1, 0, 1\), which has no proved script"):
        reduce_loop(path)


def test_reduce_loop_refuses_a_certificate_that_stops_short(monkeypatch):
    path = path_of_word(Word.from_indices(baby_base(2), WORKED_LOOP), base_simplex(2))
    cert = rewrite_to_identity(WORKED_LOOP, 2)
    short = dataclasses.replace(cert, steps=tuple(cert.steps)[:-1], macros=cert.macros[:-1])
    monkeypatch.setattr(geometry, "rewrite_to_identity", lambda indices, nu: short)
    with pytest.raises(InternalCheckError, match=r"^reduction finished with a non-empty word$"):
        reduce_loop(path)


def every_upto_replays_as_the_records(trace, uptos=None):
    records = as_records(trace)
    for upto in (None, *range(len(trace.moves) + 1)) if uptos is None else uptos:
        assert outcome(replay_trace, trace, upto) == outcome(replay_trace, records, upto)


@pytest.mark.parametrize("nu, indices", LOOPS)
def test_every_upto_replays_the_view_as_its_records(nu, indices):
    trace = traced(nu, indices)
    assert reversal_steps(trace.moves.certificate)
    every_upto_replays_as_the_records(trace)


def forged_positions(trace):
    """Views over the certificate with one step's position moved: each fails or replays as its records do."""
    start, base, cert = fields(trace)
    steps = cert.steps
    for k, shift in itertools.product(range(len(steps)), (1, -1, -100)):
        positions = array("q", steps.positions)
        positions[k] += shift
        forged = StepColumns(steps.length, steps.rules, positions, steps.letters)
        yield TraceMoves(start, base, dataclasses.replace(cert, steps=forged))


@pytest.mark.parametrize("nu, indices", LOOPS)
def test_a_view_over_a_forged_certificate_fails_as_its_reading_and_its_certificate_replay_fail(nu, indices):
    trace = traced(nu, indices)
    refused = 0
    for moves in forged_positions(trace):
        forged = dataclasses.replace(trace, moves=moves)
        read = outcome(tuple, moves)
        got = outcome(replay_trace, forged)
        if read[0] == "raises":
            assert read[1] is DomainError
            assert got == read == outcome(replay_certificate, moves.certificate)
            refused += 1
        else:
            assert got == outcome(replay_trace, dataclasses.replace(forged, moves=read[1]))
    assert refused


WORKED_START = (1, 1) + WORKED_LOOP[2:]  # the first deleted block of the worked loop is absent from it


@pytest.mark.parametrize("start, message", [
    (WORKED_START, "cannot delete (0, 0) at 1: block absent"),
    (WORKED_LOOP[::-1], "trace replay: recorded sub-loop base does not match"),
    (WORKED_LOOP[2:] + WORKED_LOOP[:2], "trace replay: recorded sub-loop base does not match"),
    (tuple(map(float, WORKED_LOOP)), "generator index 2.0 is not an int"),  # equal to the start, letter by letter
    (tuple(True if g == 1 else g for g in WORKED_LOOP), "generator index True is not an int"),
])
def test_a_trace_with_a_replaced_start_replays_move_by_move_and_is_refused(start, message):
    trace = traced(2, WORKED_LOOP)
    for moves in (trace.moves, tuple(trace.moves)):
        with pytest.raises(DomainError) as exc:
            replay_trace(dataclasses.replace(trace, start=start, moves=moves))
        assert str(exc.value) == message


def test_a_trace_with_an_equal_start_and_base_replays_move_by_move(monkeypatch):
    """Only the start and base ``reduce_loop`` gave the view take its certificate's replay; equal copies replay the records."""
    trace = traced(2, WORKED_LOOP)
    copied = dataclasses.replace(trace, start=tuple(list(trace.start)), base=Simplex(trace.base.anchor, 1))
    cut = geometry._certificate_word
    cuts = []
    monkeypatch.setattr(geometry, "_certificate_word", lambda moves, upto: cuts.append(upto) or cut(moves, upto))
    expected = replay_trace(trace)
    assert cuts == [len(trace.moves)]
    assert replay_trace(copied) == expected
    assert cuts == [len(trace.moves)]


@pytest.mark.parametrize("base", [Simplex((1, 0), 1), Simplex((0, 0), -1), Simplex((0, -1), 1)])
def test_a_trace_with_a_replaced_base_replays_move_by_move_and_is_refused(base):
    trace = traced(2, WORKED_LOOP)
    with pytest.raises(DomainError) as exc:
        replay_trace(dataclasses.replace(trace, base=base))
    assert str(exc.value) == "trace replay: recorded sub-loop base does not match"


def assert_records_replay_as_the_view(trace):
    records = as_records(trace)
    for upto in (None, 0, *(b for _, b, _ in trace.macros)):
        assert replay_trace(records, upto) == replay_trace(trace, upto)


@pytest.mark.parametrize("n", range(11))
def test_the_records_of_a_commutator_replay_move_by_move_as_its_view(n):
    assert_records_replay_as_the_view(traced(2, commutator(n)))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from((2, 3)), st.integers(0, 2**32 - 1), st.integers(0, 12),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)), st.sampled_from((1, -1)))
def test_the_records_of_a_random_loop_replay_move_by_move_as_its_view(nu, seed, half, anchor, orient):
    indices = random_relation_indices(random.Random(seed), nu, half)
    assert_records_replay_as_the_view(traced(nu, indices, Simplex(anchor[:nu], orient)))


def palindrome(phase, letters):
    """``w + reverse(w)`` at baby nu = 4, ``w`` cycling g1..g4 from ``g(1 + phase)``."""
    w = [1 + (phase + k) % 4 for k in range(letters // 2)]
    return tuple(w + w[::-1])


def assert_every_reversal_has_a_script(indices, nu):
    cert = rewrite_to_identity(indices, nu)
    for k in reversal_steps(cert):
        triple = cert.steps[k].payload
        assert len(set(triple)) == 3, (k, triple)
        assert reversible(*triple) and expansion_alone(triple), (k, triple)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 4).flatmap(lambda nu: st.tuples(
    st.just(nu), st.integers(0, 2**32 - 1), st.integers(0, 40))))
def test_every_reversal_of_a_certificate_is_of_three_distinct_letters_with_a_script(case):
    nu, seed, half = case
    assert_every_reversal_has_a_script(random_relation_indices(random.Random(seed), nu, half), nu)


@pytest.mark.parametrize("phase", range(4))
def test_every_reversal_of_a_palindrome_certificate_has_a_script(phase):
    assert_every_reversal_has_a_script(palindrome(phase, 240), 4)


LOOKALIKES = (0, 1, 2, -1, True, 1.0)


@pytest.mark.parametrize("k", LOOKALIKES)
def test_a_replayed_delete_accepts_and_refuses_as_the_delete_move(k):
    """Replay of a ``g_k^2`` cancel, as a view or as its record, accepts and refuses as ``WordMoves.delete`` does."""
    crumbs, b = baby_base(2), base_simplex(2)
    for start in itertools.product((0, 1, 2), repeat=3):
        at = path_of_word(Word.from_indices(crumbs, start), b).simplices[::-1]
        for q in range(-1, 4):
            base = at[q + 2] if 0 <= q + 2 < len(at) else b
            moves = WordMoves(start)
            try:
                moves.delete(q, (k,))
                expected = "value", moves.word
            except DomainError as exc:
                expected = "raises", DomainError, str(exc)
            step = RewriteStep("cancel-involution", q, (k,), 3, 1)
            view = TraceMoves(start, b, RewriteCertificate(start, (step,), ((0, 1, "cancel"),), False))
            records = (Move("delete", q, (k,), base),)
            for trace in (MoveTrace(start, b, view, view.macros), MoveTrace(start, b, records, ())):
                got = outcome(replay_trace, trace)
                if got[0] == "value":
                    got = "value", list(got[1].word.to_indices(crumbs))
                assert got == expected


@pytest.mark.parametrize("k", LOOKALIKES)
def test_a_traced_delete_accepts_and_refuses_as_the_delete_move(k):
    """``_Tracer.delete`` of a ``g_k^2`` accepts and refuses as ``WordMoves.delete`` does, and cuts what it deletes."""
    crumbs, b = baby_base(2), base_simplex(2)
    for start in itertools.product((0, 1, 2), repeat=3):
        path = path_of_word(Word.from_indices(crumbs, start), b)
        for q in range(-1, 4):
            moves = WordMoves(start)
            try:
                moves.delete(q, (k,))
                expected = "value", moves.word
            except DomainError as exc:
                expected = "raises", DomainError, str(exc)
            tracer = _Tracer(start, path)
            at = tracer.at[:]
            got = outcome(tracer.delete, q, (k,))
            if got[0] == "value":
                assert got[1] == at[q + 2]
                assert tracer.at == at[:q] + at[q + 2 :]
                got = "value", tracer.word
            else:
                assert tracer.at == at
            assert got == expected


def counting_inserts(monkeypatch, owner):
    insert = owner.insert
    inserted = []

    def counting_insert(self, pos, gens):
        inserted.append(pos)
        return insert(self, pos, gens)

    monkeypatch.setattr(owner, "insert", counting_insert)
    return inserted


def test_a_reversal_cut_by_upto_replays_as_the_records(trace):
    cert = trace.moves.certificate
    k = reversal_steps(cert)[0]
    assert expansion_alone(cert.steps[k].payload)[0][0] == "insert"
    every_upto_replays_as_the_records(trace, [step_ends(cert)[k] + 1])


def test_under_a_patched_expansion_a_view_fails_as_its_certificate_replay_and_its_records_replay(
        trace, monkeypatch, cold_proof):
    records = as_records(trace)
    monkeypatch.setattr(WordMoves, "reverse_triple", lambda self, q: None)
    shapes_proved.cache_clear()
    got = outcome(replay_trace, trace)
    assert got[:2] == ("raises", DomainError)  # no script: the reversal did nothing
    assert got == outcome(replay_certificate, trace.moves.certificate) == outcome(tuple, trace.moves)
    assert replay_trace(records).simplices == (trace.base,)  # the records hold every move
    assert not shapes_proved()


def test_a_script_proved_again_is_still_cited(trace, monkeypatch, cold_proof):
    records = replay_trace(as_records(trace))  # replayed move by move, before the count
    assert shapes_proved()  # the shapes proved again, before the count: a read proves none
    inserted = counting_inserts(monkeypatch, WordMoves)
    assert replay_trace(trace) == records
    assert inserted == []


def test_a_read_neither_reads_nor_runs_the_proof(cold_proof):
    made = traced(2, commutator(4))
    records = tuple(made.moves)
    assert any(mv.kind == "insert" for mv in records)
    shapes_proved.cache_clear()
    assert tuple(made.moves) == records
    assert shapes_proved.cache_info()[:2] == (0, 0)  # no hit, no miss


def test_a_trace_holds_at_most_15_bytes_a_move():
    path = path_of_word(Word.from_indices(baby_base(2), commutator(40)), base_simplex(2))
    reduce_loop(path)  # runs the proof the trace cites
    gc.collect()
    tracemalloc.start()
    try:
        trace = reduce_loop(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 15 * len(trace.moves)

"""The moves of a library-built trace are ``MoveColumns``, which read as the tuple of their records.

The tracer writes one entry per move or per cited triple reversal into
typed columns and builds a ``Move`` only when one is read.  To everything
but ``replay_trace``, which reads the columns directly, the sequence is the
tuple it replaces; and replay of the columns accepts and refuses, with the
same message, what replay of that tuple does.
"""

import copy
import dataclasses
import gc
import itertools
import pickle
import tracemalloc
from array import array

import pytest

from a1weyl import DomainError, Move, MoveTrace, Simplex, Word, baby_base, base_simplex, path_of_word
from a1weyl import geometry, reduce_loop, replay_trace
from a1weyl.geometry import MoveColumns, _Tracer
from a1weyl.moves import REVERSALS, WordMoves

WORKED_LOOP = (2, 0, 2, 1, 0, 1, 0, 2, 1, 2, 1, 0)


def commutator(n):
    return (0, 1) * n + (0, 2) * n + (1, 0) * n + (2, 0) * n


def traced(nu, indices, base=None):
    return reduce_loop(path_of_word(Word.from_indices(baby_base(nu), indices), base or base_simplex(nu)))


def as_records(trace):
    return dataclasses.replace(trace, moves=tuple(trace.moves))


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the type and the message must both match
        return "raises", type(exc), str(exc)


def cited_entries(columns):
    return [e for e, code in enumerate(columns.codes) if type(columns.table[code][0]) is tuple]


def delete_entries(columns):
    return [e for e, code in enumerate(columns.codes) if columns.table[code][0] == "delete"]


def first_moves(columns):
    """The index of each entry's first move, then the number of moves."""
    widths = (1 if type(columns.table[c][0]) is str else len(columns.table[c][1].moves) for c in columns.codes)
    return [0, *itertools.accumulate(widths)]


@pytest.fixture(scope="module")
def trace():
    made = traced(2, commutator(4))
    assert type(made.moves) is MoveColumns
    assert cited_entries(made.moves) and delete_entries(made.moves)
    assert len(made.moves) > len(made.moves.codes)  # a cited entry stands for all the moves of its run
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
def test_the_columns_pickle_and_copy_as_columns(trace, clone):
    for original in (trace.moves, trace):
        copied = clone(original)
        assert type(copied) is type(original)
        assert copied == original and hash(copied) == hash(original) and repr(copied) == repr(original)
    assert type(clone(trace).moves) is MoveColumns


def fields(columns):
    return columns.table, columns.codes, columns.positions, columns.bases


@pytest.mark.parametrize("forge", [
    lambda t, c, p, b: (list(t), c, p, b),  # a table that is not a tuple
    lambda t, c, p, b: (t, list(c), p, b),  # codes that are not an array
    lambda t, c, p, b: (t, c, array("l", p), b),  # another typecode
    lambda t, c, p, b: (t, c, p, tuple(b)),  # bases that are not a list
    lambda t, c, p, b: (t, c, p[:-1], b),  # one position short
    lambda t, c, p, b: (t, c, p, b[:-1]),  # one base short
    lambda t, c, p, b: (t, c[:-1] + array("q", [len(t)]), p, b),  # an entry the table does not hold
    lambda t, c, p, b: (t, c[:-1] + array("q", [-1]), p, b),
    lambda t, c, p, b: (t, c, p, b[:-1] + [(b[-1].anchor, b[-1].orient)]),  # a base that is not a Simplex
    lambda t, c, p, b: (t + (("flip", (1,)),), c, p, b),  # a kind no move has
    lambda t, c, p, b: (t + (((1, 0, 2), ()),), c, p, b),  # a triple without a script
    lambda t, c, p, b: (t + (((1, True, 2), REVERSALS.script((1, 0, 2))),), c, p, b),  # a look-alike letter
    lambda t, c, p, b: (t + (("delete",),), c, p, b),  # an entry of one field
])
def test_the_constructor_refuses_columns_that_are_not_moves(trace, forge):
    with pytest.raises(DomainError, match="do not hold the entries, positions and bases of loop moves"):
        MoveColumns(*forge(*fields(trace.moves)))


def every_upto_replays_as_the_records(trace, uptos=None):
    records = as_records(trace)
    for upto in (None, *range(len(trace.moves) + 1)) if uptos is None else uptos:
        assert outcome(replay_trace, trace, upto) == outcome(replay_trace, records, upto)


@pytest.mark.parametrize("nu, indices", [(2, commutator(3)), (2, WORKED_LOOP), (3, (1, 3, 2, 1, 3, 2))])
def test_every_upto_replays_the_columns_as_their_records(nu, indices):
    trace = traced(nu, indices)
    assert cited_entries(trace.moves)
    every_upto_replays_as_the_records(trace)


def forged(trace, e, entry=None, pos=None, base=None):
    """``trace`` with entry ``e`` of its columns given another table entry, position or base."""
    table, codes, positions, bases = fields(trace.moves)
    table, codes, positions, bases = list(table), array("q", codes), array("q", positions), list(bases)
    if entry is not None:
        codes[e] = len(table)
        table.append(entry)
    if pos is not None:
        positions[e] = pos
    if base is not None:
        bases[e] = base
    return dataclasses.replace(trace, moves=MoveColumns(tuple(table), codes, positions, bases))


def moved_bases(base):
    anchor, orient = base.anchor, base.orient
    for c, step in itertools.product(range(len(anchor)), (1, -1)):
        yield Simplex(anchor[:c] + (anchor[c] + step,) + anchor[c + 1 :], orient)
    yield Simplex(anchor, -orient)


def forgeries(trace, e):
    """One-field changes of entry ``e``: each must replay as its records replay."""
    columns = trace.moves
    first, second = columns.table[columns.codes[e]]
    q, base = columns.positions[e], columns.bases[e]
    for pos in (q + 1, q - 1, -1, q + 100):
        yield forged(trace, e, pos=pos)
    for other in moved_bases(base):
        yield forged(trace, e, base=other)
    if type(first) is str:  # a move: its gens
        for gens in ((second[0] + 1,) + second[1:], (True,) + second[1:], second + second, (0, 1, 2), (1,)):
            yield forged(trace, e, entry=(first, gens))
        yield forged(trace, e, entry=("insert" if first == "delete" else "delete", second))
        return
    for triple in ((first[2], first[1], first[0]), (0, 1, 2), (2, 1, 0)):  # the triple and its script
        script = REVERSALS.script(triple)
        if script:
            yield forged(trace, e, entry=(first, script))
            yield forged(trace, e, entry=(triple, second))
    kind, off, gens, slot = second.moves[0]
    for move in ((kind, off + 1, gens, slot), (kind, off, (9,), slot), (kind, off, gens, (slot + 1) % 4)):
        yield forged(trace, e, entry=(first, second._replace(moves=(move,) + second.moves[1:])))


@pytest.mark.parametrize("nu, indices", [(2, commutator(3)), (2, WORKED_LOOP), (3, (1, 3, 2, 1, 3, 2))])
def test_each_forged_delete_or_cited_entry_replays_as_its_records(nu, indices):
    trace = traced(nu, indices)
    columns = trace.moves
    starts = first_moves(columns)
    forged_count = refused = 0
    for e in cited_entries(columns) + delete_entries(columns):
        for bad in forgeries(trace, e):
            # the whole trace, the moves before the entry, and a cut inside it
            uptos = {None, starts[e], starts[e] + (starts[e + 1] - starts[e]) // 2 + 1}
            every_upto_replays_as_the_records(bad, sorted(uptos, key=lambda u: -1 if u is None else u))
            forged_count += 1
            refused += outcome(replay_trace, bad)[0] == "raises"
    assert forged_count and refused


def test_a_stored_point_past_the_band_raises_as_a_walk_does(trace):
    """A forged script's points are built by the checked ``Simplex``: reading and replay both raise."""
    e = cited_entries(trace.moves)[0]
    triple, script = trace.moves.table[trace.moves.codes[e]]
    (offset, f), *rest = script.points
    far = script._replace(points=((((0, 2**63), *offset), f), *rest))
    bad = forged(trace, e, entry=(triple, far))
    with pytest.raises(OverflowError) as read:
        tuple(bad.moves)
    assert "exceeds the signed 64-bit guard" in str(read.value)
    assert outcome(replay_trace, bad) == ("raises", OverflowError, str(read.value))


FIRST_MOVE = ("insert", 1, (0, 1, 2), 1)  # of the script of (0, 2, 1), which has two points
FORGED_MOVES = {"slot": ("insert", 1, (0, 1, 2), 6), "offset": ("insert", "1", (0, 1, 2), 1),
                "lookalike offset": ("insert", 1.0, (0, 1, 2), 1)}  # 1.0 == 1: the forgery equals the script


@pytest.mark.parametrize("fault", [*FORGED_MOVES, "coordinate"])
def test_a_stored_script_that_does_not_place_its_moves_is_a_domain_error(trace, fault):
    """Reading the moves and replay both refuse the script, with one message that names the move or point."""
    e = cited_entries(trace.moves)[0]
    triple, script = trace.moves.table[trace.moves.codes[e]]
    assert triple == (0, 2, 1) and script.moves[0] == FIRST_MOVE and len(script.points) == 2
    if fault == "coordinate":
        point = (((2, 1),), 1)  # coordinate 2 of a rank-2 anchor
        bad, named = script._replace(points=(point,) + script.points[1:]), f"point {point!r} off the 2 coordinates"
    else:
        move = FORGED_MOVES[fault]
        bad, named = script._replace(moves=(move,) + script.moves[1:]), f"move {move!r} whose offset is not an int"
    forgery = forged(trace, e, entry=(triple, bad))
    with pytest.raises(DomainError) as read:
        tuple(forgery.moves)
    assert str(read.value).startswith(f"the script cited for {triple!r} has a {named}")
    assert outcome(replay_trace, forgery) == ("raises", DomainError, str(read.value))


MALFORMED_SCRIPTS = {
    "3-field move": lambda s: s._replace(moves=(s.moves[0][:3],) + s.moves[1:]),
    "None move": lambda s: s._replace(moves=(None,) + s.moves[1:]),
    "1-element point": lambda s: s._replace(points=(s.points[0][:1],) + s.points[1:]),
    "1-element offset pair": lambda s: s._replace(points=(((s.points[0][0][0][:1],), s.points[0][1]),) + s.points[1:]),
    "offset that is not a tuple": lambda s: s._replace(points=((7, s.points[0][1]),) + s.points[1:]),
    "3 ends": lambda s: s._replace(ends=s.ends + (4,)),
    "ends that are not ints": lambda s: s._replace(ends=(float(s.ends[0]), s.ends[1])),
}


@pytest.mark.parametrize("reader", [lambda t: tuple(t.moves), replay_trace], ids=["read", "replay"])
@pytest.mark.parametrize("shape", MALFORMED_SCRIPTS)
def test_a_cited_script_of_another_shape_is_a_domain_error(trace, shape, reader):
    """The columns refuse a script that reading or replay would not take apart, so neither reader meets it."""
    e = cited_entries(trace.moves)[0]
    triple, script = trace.moves.table[trace.moves.codes[e]]
    assert script.points[0][0]  # the first point has an offset to break
    with pytest.raises(DomainError, match="do not hold the entries, positions and bases of loop moves"):
        reader(forged(trace, e, entry=(triple, MALFORMED_SCRIPTS[shape](script))))


LOOKALIKES = (0, 1, 2, -1, True, 1.0)


@pytest.mark.parametrize("k", LOOKALIKES)
def test_a_replayed_delete_accepts_and_refuses_as_the_delete_move(k):
    """Replay of a ``g_k^2`` delete, from columns or records, accepts and refuses as ``WordMoves.delete`` does."""
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
            columns = MoveColumns((("delete", (k,)),), array("q", [0]), array("q", [q]), [base])
            for trace in (MoveTrace(start, b, columns, ()), MoveTrace(start, b, tuple(columns), ())):
                got = outcome(replay_trace, trace)
                if got[0] == "value":
                    got = "value", list(got[1].word.to_indices(crumbs))
                assert got == expected


@pytest.mark.parametrize("k", LOOKALIKES)
def test_a_traced_delete_accepts_and_refuses_as_the_delete_move(k):
    """``_Tracer.delete`` of a ``g_k^2`` accepts and refuses as ``WordMoves.delete`` does, and records what it cuts."""
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
                base = at[q + 2]
                assert got[1] == base
                assert tracer.at == at[:q] + at[q + 2 :]
                assert tracer.moves == [Move("delete", q, (k,), base)]
                got = "value", tracer.word
            else:
                assert (tracer.at, tracer.moves) == (at, [])
            assert got == expected


def counting_inserts(monkeypatch):
    insert = _Tracer.insert
    inserted = []

    def counting_insert(self, pos, gens):
        inserted.append(pos)
        return insert(self, pos, gens)

    monkeypatch.setattr(_Tracer, "insert", counting_insert)
    return inserted


def test_a_cited_entry_cut_by_upto_is_replayed_move_by_move(trace, monkeypatch):
    inserted = counting_inserts(monkeypatch)
    columns = trace.moves
    every_upto_replays_as_the_records(trace, [first_moves(columns)[cited_entries(columns)[0]] + 1])
    assert inserted  # the run's first move is an insert, replayed on its own


def test_a_patched_expansion_replays_the_stored_scripts_move_by_move(trace, monkeypatch, cold_lemmas):
    records = as_records(trace)
    monkeypatch.setattr(WordMoves, "reverse_triple", lambda self, q: None)
    REVERSALS.clear()
    inserted = counting_inserts(monkeypatch)
    assert outcome(replay_trace, trace) == outcome(replay_trace, records)
    assert replay_trace(trace).simplices == (trace.base,)
    assert inserted  # no live script: every cited entry went move by move
    assert not any(REVERSALS.values())


def test_a_script_proved_again_is_still_cited(trace, monkeypatch, cold_lemmas):
    REVERSALS.clear()  # each script is proved again: equal to the stored one, not the same object
    records = replay_trace(as_records(trace))  # replayed move by move, before the count
    inserted = counting_inserts(monkeypatch)
    assert replay_trace(trace) == records
    assert inserted == []


def test_a_trace_holds_at_most_50_bytes_a_move():
    path = path_of_word(Word.from_indices(baby_base(2), commutator(40)), base_simplex(2))
    reduce_loop(path)  # proves the scripts the trace cites
    gc.collect()
    tracemalloc.start()
    try:
        trace = reduce_loop(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 50 * len(trace.moves)

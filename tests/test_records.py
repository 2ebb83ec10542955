"""The per-step records ``RewriteStep``, ``Move`` and ``Simplex`` are slotted frozen dataclasses.

They are built once per rewrite step, tracer move or path entry, so they
carry no instance ``__dict__``; ``RewriteStep`` and ``Move`` store their
fields through a hand-written ``__init__``.  Whatever the constructor, a
record compares, hashes, prints, pickles, copies and ``dataclasses.replace``-s
as a plain frozen dataclass does.
"""

import copy
import dataclasses
import pickle

import pytest

from a1weyl import (
    Move,
    RewriteStep,
    Simplex,
    Word,
    baby_base,
    base_simplex,
    path_of_word,
    reduce_loop,
    rewrite_to_identity,
)
from a1weyl.geometry import _unchecked_simplex, _walk

WORKED_LOOP = (2, 0, 2, 1, 0, 1, 0, 2, 1, 2, 1, 0)  # a relation over the baby base, nu = 2

RECORDS = {  # class, positional fields, repr, one field change for ``replace``
    "step": (RewriteStep, ("cancel-involution", 6, (1,), 8, 6),
             "RewriteStep(rule='cancel-involution', pos=6, payload=(1,), before_len=8, after_len=6)",
             {"pos": 2}),
    "move": (Move, ("insert", 3, (0, 1, 2), Simplex((1, -2), -1)),
             "Move(kind='insert', pos=3, gens=(0, 1, 2), "
             "base=Simplex(anchor=(1, -2), orient=-1))",
             {"kind": "delete"}),
    "simplex": (Simplex, ((1, -2), -1), "Simplex(anchor=(1, -2), orient=-1)", {"orient": 1}),
}


@pytest.fixture(params=list(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_records_have_no_instance_dict(record):
    cls, args, *_ = record
    assert not hasattr(cls(*args), "__dict__")


def test_positional_and_keyword_construction_agree(record):
    cls, args, *_ = record
    names = [f.name for f in dataclasses.fields(cls)]
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert [getattr(by_keyword, n) for n in names] == list(args)


def test_records_keep_their_repr(record):
    cls, args, text, _ = record
    assert repr(cls(*args)) == text


def test_replace_changes_one_field(record):
    cls, args, _, change = record
    x = cls(*args)
    assert dataclasses.replace(x) == x
    changed = dataclasses.replace(x, **change)
    names = [f.name for f in dataclasses.fields(cls)]
    assert changed == cls(*[change.get(n, a) for n, a in zip(names, args)]) != x


def test_fields_cannot_be_assigned(record):
    cls, args, *_ = record
    x = cls(*args)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))


def test_unchecked_simplex_is_the_checked_record():
    fast, checked = _unchecked_simplex((1, -2), -1), Simplex((1, -2), -1)
    assert fast == checked and hash(fast) == hash(checked) and repr(fast) == repr(checked)
    assert not hasattr(fast, "__dict__")
    walk = _walk(Word.from_indices(baby_base(2), WORKED_LOOP), base_simplex(2))
    assert all(type(s) is Simplex and not hasattr(s, "__dict__") for s in walk)


def _certificate():
    return rewrite_to_identity(WORKED_LOOP, 2)


def _trace():
    return reduce_loop(path_of_word(Word.from_indices(baby_base(2), WORKED_LOOP), base_simplex(2)))


@pytest.mark.parametrize("make", [_certificate, _trace], ids=["certificate", "trace"])
@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_whole_certificates_and_traces_round_trip(make, clone):
    original = make()
    copied = clone(original)
    assert copied == original and hash(copied) == hash(original)
    assert repr(copied) == repr(original)
    records = copied.steps if hasattr(copied, "steps") else copied.moves
    assert records and not any(hasattr(r, "__dict__") for r in records)

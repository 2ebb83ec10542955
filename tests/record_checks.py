"""Checks that a per-step record is the plain frozen dataclass its constructor builds.

Stdlib only, so that a bare interpreter without pytest runs them too:

    PYTHONPATH=src python3.10 tests/record_checks.py

checks one record of each class built by its constructor and one built by
its builder, and prints ``ok`` and the interpreter's version.
``test_records.py`` runs the same checks under pytest, and under every
supported interpreter it finds through this script.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys

from a1weyl import Move, RewriteStep, Root, Simplex
from a1weyl.geometry import _move, _unchecked_simplex
from a1weyl.presentation import _step
from a1weyl.words import _unchecked_root

RECORDS = {  # class, builder, positional fields, repr, one field change for ``replace``
    "step": (RewriteStep, _step, ("cancel-involution", 6, (1,), 8, 6),
             "RewriteStep(rule='cancel-involution', pos=6, payload=(1,), before_len=8, after_len=6)",
             {"pos": 2}),
    "move": (Move, _move, ("insert", 3, (0, 1, 2), Simplex((1, -2), -1)),
             "Move(kind='insert', pos=3, gens=(0, 1, 2), "
             "base=Simplex(anchor=(1, -2), orient=-1))",
             {"kind": "delete"}),
    "simplex": (Simplex, _unchecked_simplex, ((1, -2), -1), "Simplex(anchor=(1, -2), orient=-1)",
                {"orient": 1}),
    "root": (Root, _unchecked_root, (-1, (3, 0, -5)), "Root(sign=-1, lat=(3, 0, -5))", {"sign": 1}),
}


def clones(x):
    """``x`` through every pickle protocol, ``copy.copy``, ``copy.deepcopy`` and ``dataclasses.replace``."""
    out = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return out + [copy.copy(x), copy.deepcopy(x), dataclasses.replace(x)]


def check_record(name: str, x) -> None:
    """Raise ``AssertionError`` unless ``x`` is the record ``RECORDS[name]`` describes, as its constructor builds it."""
    cls, _, args, text, change = RECORDS[name]
    names = [f.name for f in dataclasses.fields(cls)]
    reference = cls(*args)
    assert type(x) is cls, type(x)
    assert [getattr(x, n) for n in names] == list(args)
    assert x == reference and hash(x) == hash(reference) and repr(x) == text, repr(x)
    for clone in clones(x):
        assert type(clone) is cls and clone == x and hash(clone) == hash(x) and repr(clone) == text
    changed = dataclasses.replace(x, **change)
    assert type(changed) is cls and changed == cls(*[change.get(n, a) for n, a in zip(names, args)]) != x
    assert not hasattr(x, "__dict__")
    for n in names:
        try:
            setattr(x, n, getattr(x, n))
        except dataclasses.FrozenInstanceError:
            continue
        raise AssertionError(f"{name} field {n} was assigned")


def check_every_record() -> None:
    for name, (cls, build, args, *_) in RECORDS.items():
        check_record(name, cls(*args))
        check_record(name, build(*args))


if __name__ == "__main__":
    check_every_record()
    print("ok", *sys.version_info[:2])

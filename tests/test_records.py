"""The per-step records ``RewriteStep``, ``Move``, ``Simplex`` and ``Root`` are slotted frozen dataclasses.

They are built once per rewrite step, tracer move, path entry or parsed
letter, so they carry no instance ``__dict__``.  The hot paths build them
through a private builder that fills a mutable twin of the class and then
sets its ``__class__`` (the rule of the ``lattice`` docstring).  Whether
built by the constructor or by the builder, a record compares, hashes,
prints, pickles, copies and ``dataclasses.replace``-s as a plain frozen
dataclass does.  ``record_checks.py`` holds the cases and the checks, stdlib
only, so that each supported interpreter runs them too.
"""

import copy
import dataclasses
import os
import pickle
import shutil
import subprocess
from pathlib import Path

import pytest

from a1weyl import (
    Simplex,
    Word,
    baby_base,
    base_simplex,
    path_of_word,
    reduce_loop,
    rewrite_to_identity,
)
from a1weyl.geometry import _unchecked_simplex, _walk
from record_checks import RECORDS, check_record

ROOT = Path(__file__).resolve().parents[1]
WORKED_LOOP = (2, 0, 2, 1, 0, 1, 0, 2, 1, 2, 1, 0)  # a relation over the baby base, nu = 2


@pytest.fixture(params=[(name, built) for built in (False, True) for name in RECORDS],
                ids=lambda p: f"built-{p[0]}" if p[1] else p[0])
def record(request):
    """``(name, make)``: the record's constructor, or its builder for the ``built-`` ids."""
    name, built = request.param
    cls, build, *_ = RECORDS[name]
    return name, build if built else cls


def test_records_have_no_instance_dict(record):
    name, make = record
    assert not hasattr(make(*RECORDS[name][2]), "__dict__")


def test_positional_and_keyword_construction_agree(record):
    name, make = record
    cls, _, args, *_ = RECORDS[name]
    names = [f.name for f in dataclasses.fields(cls)]
    by_position, by_keyword = make(*args), make(**dict(zip(names, args)))
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert [getattr(by_keyword, n) for n in names] == list(args)


def test_records_keep_their_repr(record):
    name, make = record
    _, _, args, text, _ = RECORDS[name]
    assert repr(make(*args)) == text


def test_replace_changes_one_field(record):
    name, make = record
    cls, _, args, _, change = RECORDS[name]
    x = make(*args)
    assert dataclasses.replace(x) == x
    changed = dataclasses.replace(x, **change)
    names = [f.name for f in dataclasses.fields(cls)]
    assert changed == cls(*[change.get(n, a) for n, a in zip(names, args)]) != x


def test_fields_cannot_be_assigned(record):
    name, make = record
    cls, _, args, *_ = RECORDS[name]
    x = make(*args)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))


def test_record_is_the_one_its_constructor_builds(record):
    """Type, fields, ``==``, ``hash``, ``repr``, pickle, copies and ``replace``, no ``__dict__``, frozen."""
    name, make = record
    check_record(name, make(*RECORDS[name][2]))


def test_unchecked_simplex_is_the_checked_record():
    fast, checked = _unchecked_simplex((1, -2), -1), Simplex((1, -2), -1)
    assert fast == checked and hash(fast) == hash(checked) and repr(fast) == repr(checked)
    assert not hasattr(fast, "__dict__")
    walk = _walk(Word.from_indices(baby_base(2), WORKED_LOOP), base_simplex(2))
    assert all(type(s) is Simplex and not hasattr(s, "__dict__") for s in walk)


@pytest.mark.parametrize("version", ["3.10", "3.13"])
def test_builders_under_each_supported_interpreter(version):
    """The twin swap rests on a CPython layout rule: check it in a fresh process of each version.

    ``python<version>`` is looked up on PATH and skipped if absent or if it
    does not run that version.  ``PYENV_VERSION`` lets a pyenv shim run an
    installed interpreter of that version; anything else ignores it.
    """
    exe = shutil.which(f"python{version}")
    env = {**os.environ, "PYENV_VERSION": version, "PYTHONPATH": str(ROOT / "src")}
    probe = exe and subprocess.run([exe, "-c", "import sys; print(*sys.version_info[:2])"],
                                   capture_output=True, text=True, env=env, timeout=60)
    if not probe or probe.returncode or probe.stdout.split() != version.split("."):
        pytest.skip(f"no python{version} runs on PATH")
    done = subprocess.run([exe, str(ROOT / "tests" / "record_checks.py")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok", *version.split(".")]


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

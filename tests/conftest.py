import faulthandler
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from a1weyl import (  # noqa: E402
    ReflectableBase,
    Root,
    baby_semilattice,
    pairwise_semilattice,
    toroidal_semilattice,
)

# Seconds one test may run before the process dumps every thread's traceback
# and exits nonzero: about 75 times the slowest test, so only a hang reaches it.
LIMIT = 300
_stderr_fd = 2


def pytest_configure(config):
    # Output capture is off while plugins are configured, so this copies the
    # terminal's stderr: a traceback written to the captured one is lost at the exit.
    global _stderr_fd
    _stderr_fd = os.dup(2)


@pytest.fixture(autouse=True)
def time_limit():
    faulthandler.dump_traceback_later(LIMIT, exit=True, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def cold_proof():
    """The proof of the reversal shapes not yet run, and cleared again when the test ends.

    A test that patches ``WordMoves.reverse_triple`` requests this after
    ``monkeypatch``: the proof then runs on the patched expansion, and what
    it finds does not outlive the test.
    """
    from a1weyl.moves import shapes_proved

    shapes_proved.cache_clear()
    yield shapes_proved
    shapes_proved.cache_clear()


def root(sign, *coords):
    return Root(sign, tuple(coords))


@pytest.fixture
def baby2():
    return baby_semilattice(2)


@pytest.fixture
def toroidal2():
    return toroidal_semilattice(2)


@pytest.fixture
def baby2_base(baby2):
    return ReflectableBase(baby2)


@pytest.fixture
def toroidal2_base(toroidal2):
    return ReflectableBase(toroidal2)


@pytest.fixture
def baby3_base():
    return ReflectableBase(baby_semilattice(3))


@pytest.fixture
def pairwise3_base():
    return ReflectableBase(pairwise_semilattice(3))

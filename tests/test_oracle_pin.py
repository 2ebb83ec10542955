"""The two matrix oracles, pinned by one digest of what they return and raise.

``PINNED`` was recorded from the oracles as full products of reflection
matrices through ``intmat.mat_mul``.  Any later form of ``matrix_of_word_w``
and ``matrix_of_word`` must reproduce it: the same matrices on seeded random
words, and the same results or the same ``OverflowError`` (type and message)
on words at the edge of the 64-bit band.
"""

import hashlib
import random

from a1weyl import (
    Root,
    Word,
    baby_semilattice,
    matrix_of_word,
    matrix_of_word_w,
    pairwise_semilattice,
    toroidal_semilattice,
)
from a1weyl.words import random_word

PINNED = "cbc007a590570ef256c05553e7a61fb5c3dbcac70414b2606ddd93742bcd4697"

FAMILIES = (
    ("baby", baby_semilattice),
    ("toroidal", toroidal_semilattice),
    ("pairwise", pairwise_semilattice),
)

L = 2**62

# (sign, coordinate) letters of the rank-1 overflow probes in test_hyperbolic.py
PROBES = (
    ((1, L), (-1, L), (-1, L)),
    ((1, L), (-1, L), (-1, L), (1, L)),
    ((1, 2**63 - 1), (-1, 2**63 - 1)),
    ((1, 2**32), (1, -(2**32)), (1, 2**32)),
)


def random_lines():
    rng = random.Random(20120710)
    for name, make in FAMILIES:
        for nu in range(9):
            s = make(nu)
            for spread in (1, 3, 50):
                for length in (0, 1, rng.randint(2, 63), 64):
                    w = random_word(rng, s, length, spread)
                    key = f"{name} {nu} {spread} {length}"
                    yield f"{key}: {matrix_of_word_w(w)!r} {matrix_of_word(w)!r}"


def outcome(oracle, word):
    try:
        return repr(oracle(word))
    except Exception as exc:  # the type and the message are part of the pin
        return f"{type(exc).__name__}: {exc}"


def placements(nu):
    """Where a probe coordinate goes: each single axis, and all axes at once."""
    out = [tuple(int(i == k) for i in range(nu)) for k in range(nu)]
    if nu > 1:
        out.append((1,) * nu)
    return out


def probe_outcomes():
    """Every prefix of every probe, at ranks 1-3, also with coordinates shifted right.

    The dual columns of ``matrix_of_word`` grow like the square of a
    coordinate, so the shifted probes (near 2^31) bring its edge into range.
    """
    for nu in (1, 2, 3):
        for axes in placements(nu):
            for p, probe in enumerate(PROBES):
                for shift in (0, 31, 32):
                    for end in range(1, len(probe) + 1):
                        letters = [
                            Root(sign, tuple((c >> shift) * a for a in axes))
                            for sign, c in probe[:end]
                        ]
                        w = Word(nu, tuple(letters))
                        key = f"probe {nu} {axes} {p} {shift} {end}"
                        yield key, outcome(matrix_of_word_w, w), outcome(matrix_of_word, w)


def probe_lines():
    for key, in_w, in_hyp in probe_outcomes():
        yield f"{key}: {in_w} | {in_hyp}"


def oracle_digest():
    h = hashlib.sha256()
    for line in (*random_lines(), *probe_lines()):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_the_probes_reach_both_outcomes_in_each_oracle():
    outcomes = [(in_w, in_hyp) for _, in_w, in_hyp in probe_outcomes()]
    for column in zip(*outcomes):
        raised = [o.startswith("OverflowError: ") for o in column]
        assert any(raised) and not all(raised)


def test_oracles_reproduce_the_pinned_digest():
    assert oracle_digest() == PINNED

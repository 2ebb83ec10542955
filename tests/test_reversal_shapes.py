"""The 26 shapes of a triple of letters >= 0, re-proved with this suite's own recording of the expansion.

A triple's shape is the order of its letters, ties included, and whether
its least letter is 0: the only facts about its letters that
``WordMoves.reverse_triple`` and ``move_block`` read.  The representative
of a shape ranks its letters from 0 if the least is 0 and from 1 otherwise.
Twelve shapes, the orderings of three distinct letters, reverse alone, by
the scripts pinned here, and the other 14 do not.  These 12 scripts are
every lemma that a library certificate cites: replay cites a reversal only
where ``moves.reversible`` holds, which is exactly where the isolated
expansion succeeds, and there the expansion is its shape's script with the
letters renamed (checked here on a grid of letters, some past 2^63).
:mod:`references` records the expansion; nothing here reads the proof that
``moves`` runs.
"""

import itertools
import random

import pytest

from a1weyl import rewrite_to_identity
from a1weyl.moves import RULE_REVERSE, reversible
from a1weyl.words import random_relation_indices
from references import expansion_alone

# Each move is ``+pos:gens`` (insert) or ``-pos:gens`` (delete), at an offset from the triple.
SCRIPTS = {
    (0, 1, 2): "+3:0 +4:1 +5:2 -0:012",
    (0, 2, 1): "+1:012 -0:0 -4:2 -3:1",
    (1, 0, 2): "+2:012 -1:0 -0:1 -3:2",
    (1, 2, 0): "+3:1 +4:2 +0:0 -1:012",
    (2, 0, 1): "+3:2 +0:1 +1:0 -2:012",
    (2, 1, 0): "+0:012 -5:2 -4:1 -3:0",
    (1, 2, 3): "+2:0 +3:1 +4:2 +0:0 -1:012 +4:013 -3:0 -2:1 -5:3 +3:0 +4:2 +5:3 -0:023 -2:0",
    (1, 3, 2): "+2:0 +3:1 +4:3 +0:0 -1:013 +4:012 -3:0 -2:1 -5:2 +1:023 -0:0 -4:3 -3:2 -2:0",
    (2, 1, 3): "+2:0 +0:012 -5:2 -4:1 -3:0 +4:023 -3:0 -2:2 -5:3 +3:0 +4:1 +5:3 -0:013 -2:0",
    (2, 3, 1): "+2:0 +3:2 +4:3 +0:0 -1:023 +5:2 +2:1 +3:0 -4:012 +1:013 -0:0 -4:3 -3:1 -2:0",
    (3, 1, 2): "+2:0 +0:013 -5:3 -4:1 -3:0 +5:3 +2:2 +3:0 -4:023 +3:0 +4:1 +5:2 -0:012 -2:0",
    (3, 2, 1): "+2:0 +0:023 -5:3 -4:2 -3:0 +5:3 +2:1 +3:0 -4:013 +1:012 -0:0 -4:2 -3:1 -2:0",
}

# Letters below 0, around 0, and past 2^63.
GRID = (*range(-2, 8), 2**40, 2**63 - 1, 2**63, 2**70)


def moves_of(script):
    """The ``(kind, pos, gens)`` moves a pinned script spells."""
    out = []
    for move in script.split():
        pos, gens = move[1:].split(":")
        out.append(("insert" if move[0] == "+" else "delete", int(pos), tuple(map(int, gens))))
    return tuple(out)


def shape(triple):
    """The representative of the shape of ``triple``, three letters >= 0."""
    letters = sorted(set(triple))
    first = 0 if letters[0] == 0 else 1
    return tuple(letters.index(x) + first for x in triple)


SHAPES = sorted({shape(t) for t in itertools.product(range(4), repeat=3)})


def test_a_triple_of_letters_at_least_0_has_one_of_26_shapes_and_12_are_scripted():
    assert len(SHAPES) == 26
    assert sorted(SCRIPTS) == [s for s in SHAPES if len(set(s)) == 3]


@pytest.mark.parametrize("representative", sorted(SCRIPTS))
def test_each_of_the_12_shapes_reverses_alone_by_its_pinned_script(representative):
    moves = expansion_alone(representative)
    assert moves == moves_of(SCRIPTS[representative])
    assert len(moves) == (4 if 0 in representative else 14)
    assert reversible(*representative)


def test_the_other_14_shapes_have_no_script():
    others = [s for s in SHAPES if s not in SCRIPTS]
    assert len(others) == 14
    for representative in others:
        assert expansion_alone(representative) is None, representative
        assert not reversible(*representative)


def test_the_predicate_holds_where_the_isolated_expansion_runs_its_shapes_script():
    reversed_alone = 0
    for triple in itertools.product(GRID, repeat=3):
        moves = expansion_alone(triple)
        assert reversible(*triple) == (moves is not None), triple
        if moves is None:
            continue
        reversed_alone += 1
        name = {0: 0, **dict(zip(shape(triple), triple))}  # the shape's letters renamed; 0 stays 0
        renamed = tuple((kind, pos, tuple(name[g] for g in gens)) for kind, pos, gens in moves_of(SCRIPTS[shape(triple)]))
        assert moves == renamed, triple
    assert reversed_alone == 12 * 11 * 10  # the distinct triples of the 12 letters >= 0 of the grid


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 6])
def test_every_reversal_a_library_certificate_makes_has_a_scripted_shape(nu):
    rng = random.Random(nu)
    cited = set()
    for half in range(0, 60, 3):
        cert = rewrite_to_identity(random_relation_indices(rng, nu, half), nu)
        for step in cert.steps:
            if step.rule == RULE_REVERSE:
                assert reversible(*step.payload), step
                cited.add(shape(step.payload))
    assert cited == {s for s in SCRIPTS if max(s) <= nu}  # each scripted shape with letters <= nu, no other

"""The presentations, centre basis and label lookup against the earlier code.

The functions below are the earlier constructors verbatim: each spelled the
central word ``z_ij`` itself, and ``_resolve_label`` parsed labels with
``int()``.  The library now builds every ``z_ij`` with
``hyperbolic.central_word`` and looks labels up among the spellings the
constructors write; it must give what these gave on every canonical input.
"""

import itertools
from collections.abc import Iterable

import pytest

from a1weyl import hyperbolic, presentation
from a1weyl.errors import DomainError, InternalCheckError
from a1weyl.hyperbolic import CentralGenerator, _expected_dual_p, eval_word_hyp
from a1weyl.lattice import (
    ReflectableBase,
    baby_semilattice,
    is_elliptic_like,
    pairwise_semilattice,
    support_pairs,
    toroidal_semilattice,
)
from a1weyl.presentation import (
    TARGET_W,
    TARGET_WT,
    Presentation,
    VerificationReport,
    presentation_from_dict,
    presentation_to_dict,
)
from a1weyl.weyl import eval_word
from a1weyl.words import Word


# --- the earlier code, verbatim ---

def presentation_baby_w(nu: int) -> Presentation:
    """Finite presentation of the group on ``V``: involutions plus ``(g0 gi gj)^2``."""
    if nu < 0:
        raise DomainError("rank must be non-negative")
    labels = tuple(f"g{k}" for k in range(nu + 1))
    relators = [(k, k) for k in range(nu + 1)]
    for i in range(1, nu + 1):
        for j in range(i + 1, nu + 1):
            relators.append((0, i, j, 0, i, j))
    return Presentation(labels, tuple(relators), TARGET_W)


def presentation_w_spre(nu: int, pairs: Iterable[tuple[int, int]]) -> Presentation:
    pairs = sorted(set(tuple(p) for p in pairs))
    for i, j in pairs:
        if not 1 <= i < j <= nu:
            raise DomainError(f"pair {(i, j)} out of range for rank {nu}")
    if not pairs:
        return presentation_baby_w(nu)
    labels = [f"g{k}" for k in range(nu + 1)] + [f"g({i},{j})" for i, j in pairs]
    pair_index = {p: nu + 1 + n for n, p in enumerate(pairs)}
    relators = [(k, k) for k in range(len(labels))]
    for i in range(1, nu + 1):
        for j in range(i + 1, nu + 1):
            if (i, j) in pair_index:
                relators.append((pair_index[(i, j)], i, 0, j))
            else:
                relators.append((i, 0, j, i, 0, j))
    return Presentation(tuple(labels), tuple(relators), TARGET_W)


def presentation_hyp(base: ReflectableBase) -> Presentation:
    if not is_elliptic_like(base):
        raise DomainError("the hyperbolic presentation requires an elliptic-like base")
    nu = base.rank
    m = len(base.roots) - 1
    labels = tuple(f"g{k}" for k in range(m + 1))
    pairs = support_pairs(base)
    relators = [(k, k) for k in range(m + 1)]
    for i in range(1, nu + 1):
        for j in range(i + 1, nu + 1):
            witness = pairs.get((i, j))
            if witness is not None:
                z = (witness, i, 0, j)
            else:
                z = (i, 0, j, i, 0, j)
            z_inv = z[::-1]
            for k in range(m + 1):
                relators.append((k,) + z + (k,) + z_inv)
    return Presentation(labels, tuple(relators), TARGET_WT)


def center_basis(base: ReflectableBase) -> tuple[CentralGenerator, ...]:
    if not is_elliptic_like(base):
        raise DomainError("center basis is only provided for elliptic-like bases")
    nu = base.rank
    pairs = support_pairs(base)
    out = []
    for i in range(1, nu + 1):
        for j in range(i + 1, nu + 1):
            witness = pairs.get((i, j))
            if witness is not None:
                indices = (witness, i, 0, j)
            else:
                indices = (i, 0, j, i, 0, j)
            word = Word.from_indices(base, indices)
            elem = eval_word_hyp(word)
            if not elem.projection().is_identity:
                raise InternalCheckError(f"center word for pair {(i, j)} is not central")
            expected = _expected_dual_p(nu, (i, j), doubled=witness is None)
            if any(elem.dual_sgn) or elem.dual_p != expected:
                raise InternalCheckError(f"center word for pair {(i, j)} has wrong dual action")
            out.append(CentralGenerator((i, j), word, elem))
    return tuple(out)


def _resolve_label(label: str, base: ReflectableBase) -> tuple[int, ...]:
    """Expand a generator label to base root indices; composite pairs expand
    to the three-letter word g_j g_0 g_i."""
    if label.startswith("g(") and label.endswith(")"):
        try:
            i, j = (int(part) for part in label[2:-1].split(","))
        except ValueError as exc:
            raise DomainError(f"unresolvable generator label {label!r}") from exc
        if not (1 <= i <= base.rank and 1 <= j <= base.rank):
            raise DomainError(f"composite label {label!r} out of range for rank {base.rank}")
        return (j, 0, i)
    if label.startswith("g"):
        try:
            k = int(label[1:])
        except ValueError as exc:
            raise DomainError(f"unresolvable generator label {label!r}") from exc
        if not 0 <= k < len(base.roots):
            raise DomainError(f"generator label {label!r} out of range")
        return (k,)
    raise DomainError(f"unresolvable generator label {label!r}")


def verify_presentation(p: Presentation, target: str, base: ReflectableBase) -> VerificationReport:
    """Evaluate every relator in the chosen group; report the ones that survive."""
    if target not in (TARGET_W, TARGET_WT):
        raise DomainError(f"unknown target group {target!r}")
    expansions = [_resolve_label(label, base) for label in p.generators]
    failures = []
    for n, rel in enumerate(p.relators):
        indices = tuple(itertools.chain.from_iterable(expansions[g] for g in rel))
        word = Word.from_indices(base, indices)
        if target == TARGET_W:
            trivial = eval_word(word).is_identity
        else:
            trivial = eval_word_hyp(word).is_identity
        if not trivial:
            failures.append(n)
    return VerificationReport(target, len(p.relators), tuple(failures))


# --- the comparison ---

FAMILIES = {"baby": baby_semilattice, "pairwise": pairwise_semilattice,
            "toroidal": toroidal_semilattice}
# Toroidal only up to rank 2: from rank 3 on it is not elliptic-like.
BASES = [(family, nu) for family, nu in itertools.product(FAMILIES, range(5))
         if family != "toroidal" or nu <= 2]


def base_of(family: str, nu: int) -> ReflectableBase:
    return ReflectableBase(FAMILIES[family](nu))


def spre_pair_sets(nu: int) -> list[list[tuple[int, int]]]:
    """No pairs, each pair on its own, and all pairs."""
    every = list(itertools.combinations(range(1, nu + 1), 2))
    return [[], *([p] for p in every), every]


def presentations_of(base: ReflectableBase) -> list[Presentation]:
    nu = base.rank
    out = [presentation.presentation_baby_w(nu), presentation.presentation_hyp(base)]
    out += [presentation.presentation_w_spre(nu, pairs) for pairs in spre_pair_sets(nu)]
    return out


def resolved_words(monkeypatch, base: ReflectableBase, labels) -> list[tuple[int, ...]]:
    """The index word ``verify_presentation`` evaluates for each label on its own."""
    seen = []

    class RecordingWord:
        @staticmethod
        def from_indices(b, indices):
            seen.append(tuple(indices))
            return Word.from_indices(b, indices)

    monkeypatch.setattr(presentation, "Word", RecordingWord)
    p = Presentation(tuple(labels), tuple((n,) for n in range(len(labels))), TARGET_W)
    presentation.verify_presentation(p, TARGET_W, base)
    return seen


@pytest.mark.parametrize("nu", range(5))
def test_baby_presentation_is_the_earlier_one(nu):
    assert presentation.presentation_baby_w(nu) == presentation_baby_w(nu)


@pytest.mark.parametrize("nu", range(5))
def test_spre_presentations_are_the_earlier_ones(nu):
    for pairs in spre_pair_sets(nu):
        assert presentation.presentation_w_spre(nu, pairs) == presentation_w_spre(nu, pairs)


@pytest.mark.parametrize("family, nu", BASES)
def test_hyp_presentation_and_center_basis_are_the_earlier_ones(family, nu):
    base = base_of(family, nu)
    assert presentation.presentation_hyp(base) == presentation_hyp(base)
    assert hyperbolic.center_basis(base) == center_basis(base)


@pytest.mark.parametrize("family, nu", BASES)
def test_verification_reports_are_the_earlier_ones(family, nu):
    base = base_of(family, nu)
    for p in presentations_of(base):
        for target in (TARGET_W, TARGET_WT):
            assert presentation.verify_presentation(p, target, base) == verify_presentation(
                p, target, base
            )


@pytest.mark.parametrize("family, nu", BASES)
def test_every_label_resolves_to_the_earlier_word(monkeypatch, family, nu):
    base = base_of(family, nu)
    span = range(1, nu + 1)
    labels = {label for p in presentations_of(base) for label in p.generators}
    labels |= {f"g{k}" for k in range(len(base.roots))}
    labels |= {f"g({i},{j})" for i, j in itertools.product(span, span)}
    labels = sorted(labels)
    assert resolved_words(monkeypatch, base, labels) == [_resolve_label(g, base) for g in labels]


def test_central_word_is_the_earlier_spelling():
    pairs = {(1, 2): 7}
    assert hyperbolic.central_word(pairs, 1, 2) == (7, 1, 0, 2)
    assert hyperbolic.central_word(pairs, 1, 3) == (1, 0, 3, 1, 0, 3)


# pairwise_semilattice(4) has 11 roots, so int("1_0") = 10 named one of them.
NON_CANONICAL = ["g٢", "g 1", "g+1", "g01", "g(1,٢)", "g( 1,2)", "g1_0"]


@pytest.mark.parametrize("label", NON_CANONICAL)
def test_a_non_canonical_label_is_refused(label):
    base = base_of("pairwise", 4)
    _resolve_label(label, base)  # the earlier code took it
    data = {"generators": ["g0", label], "relators": [[1, 1]], "target": "W"}
    for p in (Presentation(("g0", label), ((1, 1),), TARGET_W), presentation_from_dict(data)):
        assert presentation_to_dict(p) == {**data, "truncated_at": None}
        for target in (TARGET_W, TARGET_WT):
            with pytest.raises(DomainError, match="unresolvable generator label"):
                presentation.verify_presentation(p, target, base)

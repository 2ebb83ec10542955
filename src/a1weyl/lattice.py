"""Integer lattice, semilattices and the rank-one root systems built on them.

A rank-``nu`` configuration consists of the lattice ``Z^nu`` together with a
semilattice ``S``: a union of cosets ``tau + 2*Z^nu`` that contains ``0`` and
generates the lattice.  Non-isotropic roots have the shape ``sign*e + p`` with
``sign`` in ``{+1, -1}`` and ``p`` congruent to one of the coset
representatives mod 2; isotropic roots carry ``sign == 0``.

All arithmetic is exact.  Coordinates are Python ints guarded to the signed
64-bit range: overflow raises, it never wraps.  There is one guard policy.
Values are checked where they enter, by the constructors of ``Root``,
``WeylElement``, ``HyperbolicElement`` and ``geometry.Simplex`` through
:func:`checked_vec`, which takes ``int`` entries only (no floats, booleans
or strings), and the ``vec_*`` helpers check every result they build.  Two
callers check a whole batch instead and build their records through a
private factory that skips the constructor's checks, the only bypasses of
them: ``words.parse_word`` reads all the explicit coordinates of a word with
one ``int`` map and tests them against the band with one ``min`` / ``max``
(``words._unchecked_root``), and ``geometry._walk`` tests all the anchors of
a walk the same way and then builds its simplices column by column, each
slot descriptor mapped over the walk (``geometry._unchecked_simplex`` builds
one simplex the same way, for the points of a cited triple reversal, after
one band test of its reach); where a batch test fails, the constructors
check value by value and raise as they would alone.  ``Root`` and
``Simplex`` are slotted frozen dataclasses, and these builders store the
fields through the slot descriptors, past the frozen ``__setattr__``: the
record holds what the checked constructor would have stored, so it
compares, hashes and pickles the same.  A ``words.Word`` checks that its
rank is an ``int`` and that its letters are non-isotropic ``Root`` records
of that rank; ``parse_word``
builds its word through ``words._parsed_word``, which skips that check,
because each letter it holds passed it already: a root of a valid base, a
batch root (sign 1 or -1 and ``rank`` coordinates by construction) or a
root that ``Root`` checked and ``_parse_explicit`` built at the word's
rank.  It also plants the word's columns when ``k`` times the largest
``|p|`` the batch read is at most ``I64_MAX``, which keeps every ``B_c``
within the band.  A ``geometry.Path`` checks that its simplices are the
walk of its word; ``path_of_word`` and ``replay_trace``, which hold that
walk already, build theirs through ``geometry._unchecked_path``.
A word's running sum is guarded in ``weyl``: when ``B_c = sum_i |p_c(a_i)|``
is at most ``I64_MAX`` for every coordinate ``c`` (the flag of
``words.Word.columns``), no partial sum of its letters can leave the band,
so it is summed without per-step guards; otherwise
``weyl.eval_word_checked`` sums it letter by letter and raises where it
leaves the band.  Values derived from such sums are exact ints, checked once
when they are stored: the dual rows of ``hyperbolic``, and the anchors of a
path, which ``geometry._walk`` takes as prefix sums of ``Word.columns``.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import ConfigError, DomainError

I64_MAX = 2**63 - 1
I64_MIN = -(2**63)

Vec = tuple[int, ...]


def checked(n: int) -> int:
    """Return ``n`` unchanged, or raise once it leaves the 64-bit guard band."""
    if n > I64_MAX or n < I64_MIN:
        raise OverflowError(f"integer {n} exceeds the signed 64-bit guard")
    return n


def checked_rank(nu: int) -> int:
    """Return ``nu`` unchanged, or raise ``DomainError`` unless it is a non-negative ``int``.

    ``isinstance``, not ``type``: ``baby_base`` keeps ``True`` as a rank of its own.
    """
    if not isinstance(nu, int) or nu < 0:
        raise DomainError(f"rank must be a non-negative int, got {nu!r}")
    return nu


def checked_vec(values: Iterable) -> Vec:
    """The entries of ``values`` as a tuple, each an ``int`` in the 64-bit guard band.

    An entry that is not an ``int`` (a float, a bool, a string) raises
    ``DomainError`` naming it.  Then the band is tested once with ``min`` /
    ``max``; past it, ``checked`` raises on the first entry outside.
    """
    vec = tuple(values)
    for c in vec:
        if type(c) is not int:
            raise DomainError(f"vector entry {c!r} is not an int")
    if vec and (min(vec) < I64_MIN or max(vec) > I64_MAX):
        for c in vec:
            checked(c)
    return vec


def zero_vec(rank: int) -> Vec:
    return (0,) * rank


def unit_vec(rank: int, i: int) -> Vec:
    """Standard basis vector ``e_i`` with ``i`` counted from 1."""
    return tuple(1 if k == i - 1 else 0 for k in range(rank))


def _require_same_rank(a: Vec, b: Vec) -> None:
    if len(a) != len(b):
        raise DomainError(f"rank mismatch: {len(a)} vs {len(b)}")


def vec_add(a: Vec, b: Vec) -> Vec:
    _require_same_rank(a, b)
    return tuple(checked(x + y) for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    _require_same_rank(a, b)
    return tuple(checked(x - y) for x, y in zip(a, b))


def vec_neg(a: Vec) -> Vec:
    return tuple(checked(-x) for x in a)


def vec_scale(k: int, a: Vec) -> Vec:
    return tuple(checked(k * x) for x in a)


def vec_mod2(a: Vec) -> Vec:
    return tuple([x & 1 for x in a])


@dataclass(frozen=True, slots=True)
class Root:
    """A root ``sign*e + sum_i lat[i]*s_i``; isotropic exactly when sign is 0."""

    sign: int
    lat: Vec

    def __post_init__(self) -> None:
        if type(self.sign) is not int or self.sign not in (-1, 0, 1):
            raise DomainError(f"root sign must be -1, 0 or +1, got {self.sign}")
        object.__setattr__(self, "lat", checked_vec(self.lat))

    @property
    def rank(self) -> int:
        return len(self.lat)

    def negated(self) -> "Root":
        return Root(-self.sign, vec_neg(self.lat))

    def normalized(self) -> "Root":
        """The representative with sign +1 of the pair {a, -a} (identity on isotropic roots)."""
        return self.negated() if self.sign < 0 else self


def reflect(alpha: Root, beta: Root) -> Root:
    """Apply the reflection in ``alpha`` to ``beta``.

    Uses the pairing ``(beta, alpha) = 2*sign(beta)*sign(alpha)``, so the image
    is ``beta - 2*sign(beta)*sign(alpha)*alpha``.  Reflections in isotropic
    vectors act as the identity.
    """
    if alpha.rank != beta.rank:
        raise DomainError("rank mismatch between roots")
    if alpha.sign == 0:
        return beta
    c = 2 * beta.sign * alpha.sign
    return Root(beta.sign - c * alpha.sign, vec_sub(beta.lat, vec_scale(c, alpha.lat)))


@dataclass(frozen=True)
class Semilattice:
    """Union of cosets ``tau_i + 2*Z^rank`` given by 0/1 representatives.

    ``cosets[0]`` must be the zero vector and ``cosets[1..rank]`` the standard
    basis vectors, in order; any further representative must have at least two
    nonzero entries.  Closure ``S +- 2S <= S`` holds for every coset union and
    is therefore structural, not searched.  The rank and the entries are
    stored as given; :func:`validate_semilattice` reports any that is not
    an ``int``.
    """

    rank: int
    cosets: tuple[Vec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cosets", tuple(map(tuple, self.cosets)))

    @cached_property
    def coset_set(self) -> frozenset[Vec]:
        return frozenset(self.cosets)

    @cached_property
    def isotropic_cosets(self) -> frozenset[Vec]:
        """Residues mod 2 of ``S + S``, the lattice parts allowed for isotropic roots."""
        return frozenset(
            vec_mod2(vec_add(a, b)) for a, b in itertools.product(self.cosets, repeat=2)
        )


def validate_semilattice(s: Semilattice) -> list[str]:
    """Return all invariant violations of ``s`` (empty list means valid)."""
    # Floats, strings and booleans are not integers, even where int() would take them.
    if type(s.rank) is not int:
        return [f"rank {s.rank!r} is not an integer"]
    errors = [
        f"coset {k} entry {c!r} is not an integer"
        for k, t in enumerate(s.cosets) for c in t if type(c) is not int
    ]
    if errors:
        return errors
    if s.rank < 0:
        return [f"rank must be non-negative, got {s.rank}"]
    if not s.cosets:
        return ["at least the zero coset representative is required"]
    for k, t in enumerate(s.cosets):
        if len(t) != s.rank:
            errors.append(f"coset {k} has length {len(t)}, expected rank {s.rank}")
        if any(c not in (0, 1) for c in t):
            errors.append(f"coset {k} has entries outside {{0,1}}: {list(t)}")
    if errors:
        return errors
    if s.cosets[0] != zero_vec(s.rank):
        errors.append("the first coset representative must be the zero vector")
    seen: dict[Vec, int] = {}
    for k, t in enumerate(s.cosets):
        if t in seen:
            errors.append(f"duplicate coset representative at indices {seen[t]} and {k}")
        else:
            seen[t] = k
    if len(s.cosets) < s.rank + 1:
        errors.append(f"need the {s.rank} standard basis representatives, got only {len(s.cosets) - 1}")
    else:
        for i in range(1, s.rank + 1):
            if s.cosets[i] != unit_vec(s.rank, i):
                errors.append(f"coset {i} must be the standard basis vector e{i}")
        for k in range(s.rank + 1, len(s.cosets)):
            if sum(s.cosets[k]) < 2:
                errors.append(f"coset {k} beyond the basis block must have >= 2 nonzero entries")
    return errors


def baby_semilattice(nu: int) -> Semilattice:
    """The minimal semilattice: zero and the standard basis representatives only."""
    checked_rank(nu)
    return Semilattice(nu, (zero_vec(nu),) + tuple(unit_vec(nu, i) for i in range(1, nu + 1)))


def toroidal_semilattice(nu: int) -> Semilattice:
    """The full lattice: every 0/1 vector is a representative."""
    extras = sorted(
        (t for t in itertools.product((0, 1), repeat=checked_rank(nu)) if sum(t) >= 2),
        key=lambda t: (sum(t), tuple(-c for c in t)),
    )
    return Semilattice(nu, baby_semilattice(nu).cosets + tuple(extras))


def pairwise_semilattice(nu: int) -> Semilattice:
    """The largest semilattice whose representatives all have support size <= 2."""
    return Semilattice(nu, tuple(t for t in toroidal_semilattice(nu).cosets if sum(t) <= 2))


def semilattice_from_dict(data: dict) -> Semilattice:
    try:
        rank = data["rank"]
        cosets = tuple(tuple(row) for row in data["cosets"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed semilattice configuration: {exc}") from exc
    s = Semilattice(rank, cosets)
    problems = validate_semilattice(s)
    if problems:
        raise ConfigError("; ".join(problems))
    return s


def semilattice_to_dict(s: Semilattice) -> dict:
    return {"rank": s.rank, "cosets": [list(t) for t in s.cosets]}


def load_semilattice(path: str) -> Semilattice:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return semilattice_from_dict(data)


def root_in_rx(s: Semilattice, a: Root) -> bool:
    """Membership of ``a`` in the non-isotropic roots of the system over ``s``."""
    if a.rank != s.rank:
        raise DomainError(f"root has rank {a.rank}, semilattice has rank {s.rank}")
    return a.sign in (-1, 1) and vec_mod2(a.lat) in s.coset_set


def root_in_r0(s: Semilattice, a: Root) -> bool:
    """Membership of ``a`` in the isotropic roots (lattice parts from ``S + S``)."""
    if a.rank != s.rank:
        raise DomainError(f"root has rank {a.rank}, semilattice has rank {s.rank}")
    return a.sign == 0 and vec_mod2(a.lat) in s.isotropic_cosets


def support(s: Semilattice, a: Root) -> tuple[int, ...]:
    """Indices (1-based, ascending) where the lattice part of ``a`` is odd."""
    if not root_in_rx(s, a):
        raise DomainError("support is only defined for non-isotropic roots of the system")
    return tuple(i for i in range(1, s.rank + 1) if a.lat[i - 1] % 2 == 1)


@dataclass(frozen=True)
class ReflectableBase:
    """The distinguished generating set: the roots ``e + tau_k`` for every coset rep."""

    semilattice: Semilattice

    @cached_property
    def roots(self) -> tuple[Root, ...]:
        return tuple(Root(1, t) for t in self.semilattice.cosets)

    @cached_property
    def root_index(self) -> dict[Root, int]:
        """Each root of ``roots`` with its position ``k``, the ``g<k>`` of the text format."""
        return {a: k for k, a in enumerate(self.roots)}

    @property
    def rank(self) -> int:
        return self.semilattice.rank

    @cached_property
    def is_valid(self) -> bool:
        """Whether the semilattice is valid, so every root has rank ``rank`` and 0/1 coordinates."""
        return not validate_semilattice(self.semilattice)


@lru_cache(maxsize=64, typed=True)
def baby_base(nu: int) -> ReflectableBase:
    """The base of the baby semilattice of rank ``nu``, one record per rank.

    The record is frozen and its ``roots`` and ``root_index`` are cached on
    it, so every caller of a rank shares one build of them; ``typed`` keeps
    ``True`` apart from ``1``.
    """
    return ReflectableBase(baby_semilattice(nu))


def is_elliptic_like(base: ReflectableBase) -> bool:
    """True when every base root has support of size at most two."""
    s = base.semilattice
    return all(len(support(s, a)) <= 2 for a in base.roots)


def support_pairs(base: ReflectableBase) -> dict[tuple[int, int], int]:
    """Pairs ``(i, j)`` (1-based, i < j) realised as the support of a base root.

    The value stored under ``(i, j)`` is the index of the unique base root
    whose support is exactly ``{i, j}``.
    """
    s = base.semilattice
    pairs: dict[tuple[int, int], int] = {}
    for k, a in enumerate(base.roots):
        sp = support(s, a)
        if len(sp) == 2:
            pairs[(sp[0], sp[1])] = k
    return dict(sorted(pairs.items()))


@dataclass(frozen=True)
class ReflectableReport:
    """Outcome of the boxed orbit search in :func:`check_reflectable_set`.

    ``covered`` is evidence, not proof: the search is restricted to a finite
    box, so only a failure (a root in the box missed by the orbit) is a
    counterexample to the generating property at this radius.
    """

    covered: bool
    uncovered: tuple[Root, ...]
    radius: int
    explored: int
    note: str


def _roots_in_box(s: Semilattice, radius: int) -> list[Root]:
    out = []
    for sign in (1, -1):
        for p in itertools.product(range(-radius, radius + 1), repeat=s.rank):
            if vec_mod2(p) in s.coset_set:
                out.append(Root(sign, p))
    return out


def check_reflectable_set(s: Semilattice, roots: Sequence[Root], radius: int) -> ReflectableReport:
    """Breadth-first closure of ``roots`` under reflection in ``roots``.

    The exploration is cut off at sup-norm ``radius + 2*max|p|`` so that one
    out-and-back excursion beyond the reported box is still seen; the coverage
    report itself is for the box of the given radius.  The uncovered list is
    sorted, so the report is deterministic.
    """
    if not roots:
        raise DomainError("the candidate reflectable set must be non-empty")
    if radius < 1:
        raise DomainError("radius must be at least 1")
    for a in roots:
        if not root_in_rx(s, a):
            raise DomainError(f"candidate root {a} is not a non-isotropic root of the system")
    step = max((max(abs(c) for c in a.lat) if a.lat else 0) for a in roots)
    explore_radius = radius + 2 * step
    seen: set[Root] = set()
    queue: deque[Root] = deque()
    for a in roots:
        if a not in seen:
            seen.add(a)
            queue.append(a)
    while queue:
        b = queue.popleft()
        for a in roots:
            c = reflect(a, b)
            if c in seen:
                continue
            if c.lat and max(abs(x) for x in c.lat) > explore_radius:
                continue
            seen.add(c)
            queue.append(c)
    target = _roots_in_box(s, radius)
    uncovered = tuple(sorted((r for r in target if r not in seen), key=lambda r: (r.sign, r.lat)))
    note = (
        "coverage of the radius-%d box is evidence only; a nonempty uncovered list "
        "is a counterexample within the box" % radius
    )
    return ReflectableReport(not uncovered, uncovered, radius, len(seen), note)

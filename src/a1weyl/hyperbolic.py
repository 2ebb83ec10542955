"""The reflection group on the hyperbolic extension and its center.

The extension adds dual basis vectors l_1..l_nu pairing with s_1..s_nu, so an
element is determined by its restriction to ``V`` (parity, shift) together
with, for each j, the vector ``l_j - w(l_j)`` lying in ``V``.  We store that
vector split into its sign component ``dual_sgn[j]`` and its lattice part
``dual_p[j]``; the sign components repeat the ``W`` form,
``dual_sgn = -parity * shift`` (see :func:`eval_word_hyp`).  The group is a
central extension of the group on ``V``: a word is central exactly when it
restricts to the identity on ``V``, and the center is free abelian with an
explicit basis indexed by pairs ``i < j``: the words ``z_ij`` of
:func:`central_word`, which ``presentation`` also builds its relators from.

A full matrix representation on the ordered basis (e, s_1..s_nu, l_1..l_nu)
is kept alongside as an independent oracle; the two are compared entry by
entry in the test suite and by the ``oracle-compare`` command.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, combinations_with_replacement
from operator import add, mul

from .errors import DomainError, InternalCheckError
from .intmat import Mat, mat_mul
from .lattice import ReflectableBase, Vec, checked_rank, checked_vec, is_elliptic_like, support_pairs, zero_vec
from . import weyl
from .weyl import WeylElement, is_relation_w, reflection_product
from .words import Word


@dataclass(frozen=True)
class HyperbolicElement:
    """Canonical form of an element of the extended reflection group.

    ``dual_sgn[j]`` and ``dual_p[j]`` are the sign and lattice components of
    ``l_j - w(l_j)``; together with (parity, shift) they pin the element down.
    """

    parity: int
    shift: Vec
    dual_sgn: Vec
    dual_p: tuple[Vec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shift", WeylElement(self.parity, self.shift).shift)
        object.__setattr__(self, "dual_sgn", checked_vec(self.dual_sgn))
        object.__setattr__(self, "dual_p", tuple(checked_vec(row) for row in self.dual_p))
        nu = len(self.shift)
        if len(self.dual_sgn) != nu or len(self.dual_p) != nu or any(
            len(row) != nu for row in self.dual_p
        ):
            raise DomainError("dual data must have one entry per lattice rank")

    @property
    def rank(self) -> int:
        return len(self.shift)

    @property
    def is_identity(self) -> bool:
        return (
            self.parity == 1
            and not any(self.shift)
            and not any(self.dual_sgn)
            and not any(any(row) for row in self.dual_p)
        )

    def projection(self) -> WeylElement:
        """Restriction to ``V``: forget the dual-basis data."""
        return WeylElement(self.parity, self.shift)


def identity_element_hyp(rank: int) -> HyperbolicElement:
    zero = zero_vec(rank)
    return HyperbolicElement(1, zero, zero, tuple(zero for _ in range(rank)))


def eval_word_hyp(word: Word) -> HyperbolicElement:
    """Evaluate a word in the extended group.

    For ``w = w_{a_1}...w_{a_k}`` let ``c_i = (-1)^(k-i) sign(a_i)`` and let
    ``acc_i = sum_{r<=i} c_r p(a_r)`` be the running sum of ``eval_word``
    (``acc_0 = 0``, and ``acc_k`` is the shift).  For each dual index j:

      dual_p[j]   = sum_i p_j(a_i) (p(a_i) + 2 c_i acc_{i-1})
      dual_sgn[j] = sum_i (-1)^(i+1) sign(a_i) p_j(a_i) = -(-1)^k acc_k[j]

    that is, ``dual_sgn = -parity * shift``.  The sign of dual_sgn is pinned
    by the matrix representation (the k = 1 case is
    ``l_j - w(l_j) = p_j(a) * a``, with a plus sign).

    As ``c_i^2 = 1`` and ``c_i p(a_i) = acc_i - acc_{i-1}``, each entry is

      dual_p[j][c] = sum_i (acc_i[j] - acc_{i-1}[j]) (acc_i[c] + acc_{i-1}[c]).

    Adding ``dual_p[c][j]`` telescopes the sum to
    ``dual_p[j][c] + dual_p[c][j] = 2 shift_j shift_c``, as ``w``
    preserving the Gram form requires, and on the diagonal
    ``dual_p[j][j] = shift_j^2``.  So the sum is needed only for ``j < c``,
    over the prefix sums of the columns of ``Word.columns``.

    Only ``weyl`` guards the running sum: past the bound,
    ``weyl.eval_word_checked`` raises where a partial sum leaves the 64-bit
    band.  The dual rows are exact ints, checked once when
    ``HyperbolicElement`` stores them.
    """
    coefs, cols, within = word.columns
    if not within:
        weyl.eval_word_checked(word)  # raises where the running sum leaves the band
    nu = word.rank
    steps = [list(map(mul, coefs, col)) for col in cols]  # c_i p_c(a_i)
    rows = [[0] * nu for _ in range(nu)]
    shift = [sum(steps[0])] if nu else []  # each later column's sum is the last of its prefix sums
    for c in range(1, nu):
        acc = [0, *accumulate(steps[c])]
        shift.append(acc[-1])
        both = list(map(add, acc, acc[1:]))  # acc_{i-1}[c] + acc_i[c]
        for j in range(c):
            rows[j][c] = entry = sum(map(mul, steps[j], both))
            rows[c][j] = 2 * shift[j] * shift[c] - entry
    for c, t in enumerate(shift):
        rows[c][c] = t * t
    parity = 1 if len(word) % 2 == 0 else -1
    return HyperbolicElement(parity, tuple(shift), tuple(-parity * t for t in shift), rows)


def is_relation_hyp(word: Word) -> bool:
    """Word problem for the extended group: the full canonical form is trivial."""
    return eval_word_hyp(word).is_identity


def is_central(word: Word) -> bool:
    """Centrality test: equivalent to triviality of the restriction to ``V``.

    The equivalence needs a nonzero radical, so rank 0 is rejected rather
    than answered.
    """
    if word.rank == 0:
        raise DomainError("centrality via the restriction to V requires rank >= 1")
    return is_relation_w(word)


def gram_matrix(rank: int) -> Mat:
    """Pairing on (e, s_1..s_nu, l_1..l_nu): (e,e)=2, (s_i,l_j)=delta_ij, rest 0."""
    n = 2 * checked_rank(rank) + 1
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 2
    for i in range(rank):
        rows[1 + i][1 + rank + i] = 1
        rows[1 + rank + i][1 + i] = 1
    return tuple(tuple(r) for r in rows)


def matrix_of_word(word: Word) -> Mat:
    """Independent oracle: exact product of hyperbolic reflection matrices."""
    return reflection_product(word, 2 * word.rank + 1)


def matrix_of_element_hyp(h: HyperbolicElement) -> Mat:
    """Matrix a canonical form must equal: columns read off the defining data."""
    nu = h.rank
    n = 2 * nu + 1
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[0][0] = h.parity
    for i in range(nu):
        rows[1 + i][0] = -2 * h.shift[i]
    for j in range(nu):
        col = 1 + nu + j
        rows[0][col] = -h.dual_sgn[j]
        for i in range(nu):
            rows[1 + i][col] = -h.dual_p[j][i]
    return tuple(tuple(r) for r in rows)


def preserves_gram(mat: Mat, rank: int) -> bool:
    g = gram_matrix(rank)
    n = len(g)
    if len(mat) != n or any(len(row) != n for row in mat):
        raise DomainError(f"a rank-{rank} Gram test takes a {n}x{n} matrix")
    mt = tuple(zip(*mat))
    return mat_mul(mat_mul(mt, g), mat) == g


@dataclass(frozen=True)
class CentralGenerator:
    """One free generator of the center, with the word realising it."""

    pair: tuple[int, int]
    word: Word
    element: HyperbolicElement


def _expected_dual_p(rank: int, pair: tuple[int, int], doubled: bool) -> tuple[Vec, ...]:
    # l_k - w(l_k) = c*(delta_kj*s_i - delta_ki*s_j) with c = 2 outside the
    # support pairs and c = 1 on them.
    i, j = pair
    c = 2 if doubled else 1
    rows = [list(zero_vec(rank)) for _ in range(rank)]
    rows[j - 1][i - 1] = c
    rows[i - 1][j - 1] = -c
    return tuple(tuple(r) for r in rows)


def central_word(pairs: dict[tuple[int, int], int], i: int, j: int) -> tuple[int, ...]:
    """The word ``z_ij`` as generator indices: ``g_s g_i g_0 g_j`` when ``pairs``
    maps ``(i, j)`` to ``s``, else ``(g_i g_0 g_j)^2``."""
    s = pairs.get((i, j))
    return (i, 0, j, i, 0, j) if s is None else (s, i, 0, j)


def center_basis(base: ReflectableBase) -> tuple[CentralGenerator, ...]:
    """Explicit free basis of the center for an elliptic-like base.

    For each pair ``i < j``: the word :func:`central_word` over
    ``support_pairs(base)``.  Each word is checked to be central and to move
    every dual vector exactly as the basis element it names; a violation is
    an internal error.
    """
    if not is_elliptic_like(base):
        raise DomainError("center basis is only provided for elliptic-like bases")
    nu = base.rank
    pairs = support_pairs(base)
    out = []
    for i, j in combinations(range(1, nu + 1), 2):
        word = Word.from_indices(base, central_word(pairs, i, j))
        elem = eval_word_hyp(word)
        if not elem.projection().is_identity:
            raise InternalCheckError(f"center word for pair {(i, j)} is not central")
        expected = _expected_dual_p(nu, (i, j), doubled=(i, j) not in pairs)
        if any(elem.dual_sgn) or elem.dual_p != expected:
            raise InternalCheckError(f"center word for pair {(i, j)} has wrong dual action")
        out.append(CentralGenerator((i, j), word, elem))
    return tuple(out)


def element_to_dict(h: HyperbolicElement) -> dict:
    """The ``W`` form's ``"eps"`` / ``"t"`` plus the dual data ``"s"`` / ``"q"``."""
    return {
        **weyl.element_to_dict(h.projection()),
        "s": list(h.dual_sgn),
        "q": [list(row) for row in h.dual_p],
    }


def element_from_dict(data: dict) -> HyperbolicElement:
    """Read an element, refusing data that no element has.

    Every element has ``s == -eps * t`` and ``q[j][c] + q[c][j] == 2 t_j t_c``
    (so ``q[j][j] == t_j^2``), as :func:`eval_word_hyp` derives; data that
    breaks either raises ``DomainError`` naming the field.
    """
    w = weyl.element_from_dict(data)
    s, q = weyl.json_ints(data, "s"), weyl.json_ints(data, "q", 2)
    h = HyperbolicElement(w.parity, w.shift, s, q)
    t = h.shift
    if h.dual_sgn != tuple(-h.parity * x for x in t):
        raise DomainError(f"element field 's': {list(s)} is not -eps * t")
    for j, c in combinations_with_replacement(range(h.rank), 2):
        if q[j][c] + q[c][j] != 2 * t[j] * t[c]:
            raise DomainError(f"element field 'q': q[{j}][{c}] + q[{c}][{j}] != 2 t_{j} t_{c}")
    return h

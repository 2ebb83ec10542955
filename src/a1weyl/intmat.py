"""Small exact integer matrices (tuples of tuples), with overflow guards.

numpy is deliberately not used here: its fixed-width integers wrap silently
on overflow, and exactness is the whole point of these kernels.  The matrices
involved are at most (2*rank+1)-square, so plain Python is plenty.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError
from .lattice import checked

Mat = tuple[tuple[int, ...], ...]


def mat_identity(n: int) -> Mat:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    if not all(len(row) == mid for row in a):
        raise DomainError(f"inner dimension mismatch: rows of length {mid} expected")
    return tuple(
        tuple(checked(sum(a[r][k] * b[k][c] for k in range(mid))) for c in range(m))
        for r in range(n)
    )


def mat_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    from fractions import Fraction  # here, so importing intmat does not load it

    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col]
        work[rank] = [x / inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank

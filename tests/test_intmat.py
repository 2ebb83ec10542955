"""``intmat.mat_rank`` on dependent rows, and against sympy's rank on small integer matrices."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from a1weyl.intmat import mat_rank


@pytest.mark.parametrize("rows, rank", [
    (((1, 2), (2, 4)), 1),
    (((1, 2, 3), (4, 5, 6), (7, 8, 9)), 2),
    (((0, 1), (1, 0)), 2),
])
def test_mat_rank_of_dependent_and_swapped_rows(rows, rank):
    assert mat_rank(rows) == rank


small_matrices = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(small_matrices)
def test_mat_rank_agrees_with_sympy(rows):
    assert mat_rank(rows) == sympy.Matrix(rows).rank()

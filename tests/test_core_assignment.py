"""The in-repo rectangular assignment solver.

The sequence predictor's output (Table II, Fig. 6) depends on which of
several equal-cost optimal assignments the solver returns, so the
solver must reproduce ``scipy.optimize.linear_sum_assignment`` pair for
pair, ties included.  The differential test runs only where scipy is
installed; it is not a dependency of the package.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import linear_sum_assignment

#: The predictor's "not within tolerance" cost.
SENTINEL = 1e12


def _brute_force_minimum(cost):
    rows, cols = len(cost), len(cost[0])
    if rows <= cols:
        return min(
            sum(cost[row][col] for row, col in enumerate(perm))
            for perm in itertools.permutations(range(cols), rows)
        )
    return min(
        sum(cost[row][col] for col, row in enumerate(perm))
        for perm in itertools.permutations(range(rows), cols)
    )


def test_empty_matrices():
    assert linear_sum_assignment([]) == ([], [])
    assert linear_sum_assignment([[]]) == ([], [])


def test_constant_matrix_yields_identity():
    cost = [[1.0] * 4 for _ in range(4)]
    assert linear_sum_assignment(cost) == ([0, 1, 2, 3], [0, 1, 2, 3])


def test_wide_and_tall_shapes():
    # Two optima cost 3 (1 + 2 and 3 + 0); the tie-break picks the first.
    wide =[[4.0, 1.0, 3.0], [2.0, 0.0, 5.0]]
    assert linear_sum_assignment(wide) == ([0, 1], [1, 0])
    tall = [list(column) for column in zip(*wide)]
    assert linear_sum_assignment(tall) == ([0, 1], [1, 0])


def test_rejects_ragged_and_non_finite():
    with pytest.raises(ValueError):
        linear_sum_assignment([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        linear_sum_assignment([[1.0, float("nan")]])
    with pytest.raises(ValueError):
        linear_sum_assignment([[1.0, float("inf")]])


costs = st.one_of(
    st.integers(0, 3).map(float),  # dense ties
    st.sampled_from([SENTINEL, 0.0, 17.0, 350.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def matrices(draw, max_rows=9, max_cols=25):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    if draw(st.booleans()):
        rows, cols = cols, rows  # tall
    return [
        [draw(costs) for _ in range(cols)] for _ in range(rows)
    ]


@settings(max_examples=300, deadline=None)
@given(cost=matrices(max_rows=5, max_cols=5))
def test_assignment_is_optimal(cost):
    rows, cols = linear_sum_assignment(cost)
    assert len(rows) == min(len(cost), len(cost[0]))
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    total = sum(cost[row][col] for row, col in zip(rows, cols))
    assert total == pytest.approx(_brute_force_minimum(cost), rel=1e-9, abs=1e-6)


@settings(max_examples=300, deadline=None)
@given(cost=matrices())
def test_matches_scipy_pair_for_pair(cost):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    import numpy as np

    expected_rows, expected_cols = scipy_optimize.linear_sum_assignment(
        np.array(cost)
    )
    assert linear_sum_assignment(cost) == (
        expected_rows.tolist(), expected_cols.tolist()
    )

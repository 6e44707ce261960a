"""Exact minimum-cost rectangular assignment.

The sequence predictor matches up to a dozen candidate objects against
a few dozen size estimates per window.  This module solves that
bipartite matching exactly with the shortest augmenting path method of
Crouse ("On implementing 2D rectangular assignment algorithms", IEEE
TAES 2016) — the algorithm behind SciPy's ``linear_sum_assignment`` —
and keeps that implementation's tie-breaks, so equal-cost optima
resolve to the same pairs:

* the columns still unscanned are kept in reverse order, so a constant
  cost matrix yields the identity assignment;
* among columns at the same shortest-path cost, a free column wins;
* a tall matrix (more rows than columns) is solved transposed and the
  pairs are reported sorted by row.

Pure Python: the matrices are small, and it saves a heavy import in
every fresh process.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

_INF = math.inf


def linear_sum_assignment(
    cost: Sequence[Sequence[float]],
) -> Tuple[List[int], List[int]]:
    """Minimum-cost assignment of rows to columns.

    Args:
        cost: a rectangular ``rows × cols`` matrix of finite costs.

    Returns:
        ``(row_ind, col_ind)``: ``min(rows, cols)`` pairs, sorted by row,
        such that ``sum(cost[r][c])`` is minimal.

    Raises:
        ValueError: on a ragged matrix or a NaN / infinite cost.
    """
    matrix = [[float(value) for value in row] for row in cost]
    if not matrix or not matrix[0]:
        return [], []
    rows, cols = len(matrix), len(matrix[0])
    if any(len(row) != cols for row in matrix):
        raise ValueError("cost matrix must be rectangular")
    if any(not math.isfinite(value) for row in matrix for value in row):
        raise ValueError("cost matrix must be finite")
    transpose = cols < rows
    if transpose:
        matrix = [list(column) for column in zip(*matrix)]
        rows, cols = cols, rows
    col4row = _solve(matrix, rows, cols)
    if transpose:
        order = sorted(range(rows), key=col4row.__getitem__)
        return [col4row[row] for row in order], order
    return list(range(rows)), col4row


def _solve(matrix: List[List[float]], rows: int, cols: int) -> List[int]:
    """Column of each row in an optimal assignment (``rows <= cols``)."""
    u = [0.0] * rows
    v = [0.0] * cols
    path = [-1] * cols
    col4row = [-1] * rows
    row4col = [-1] * cols
    for current in range(rows):
        # Shortest augmenting path from ``current`` to a free column.
        shortest = [_INF] * cols
        scanned_rows = [False] * rows
        scanned_cols = [False] * cols
        remaining = list(range(cols - 1, -1, -1))
        min_val = 0.0
        row = current
        sink = -1
        while sink == -1:
            scanned_rows[row] = True
            cost_row = matrix[row]
            u_row = u[row]
            index = -1
            lowest = _INF
            for position, col in enumerate(remaining):
                reduced = min_val + cost_row[col] - u_row - v[col]
                if reduced < shortest[col]:
                    path[col] = row
                    shortest[col] = reduced
                distance = shortest[col]
                if distance < lowest or (
                    distance == lowest and row4col[col] == -1
                ):
                    lowest = distance
                    index = position
            min_val = lowest
            col = remaining[index]
            if row4col[col] == -1:
                sink = col
            else:
                row = row4col[col]
            scanned_cols[col] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        # Dual update.
        u[current] += min_val
        for other in range(rows):
            if scanned_rows[other] and other != current:
                u[other] += min_val - shortest[col4row[other]]
        for col in range(cols):
            if scanned_cols[col]:
                v[col] -= min_val - shortest[col]
        # Augment along the path back to ``current``.
        col = sink
        while True:
            row = path[col]
            row4col[col] = row
            col4row[row], col = col, col4row[row]
            if row == current:
                break
    return col4row

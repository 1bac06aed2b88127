"""Optimal one-to-one assignment with deterministic tie-breaking.

The solver is the O(n^3) shortest-augmenting-path Hungarian algorithm.
Rectangular matrices are padded to square with a large finite sentinel so
all arithmetic stays finite; padded pairings carry a constant total offset
and therefore never distort which real pairs are chosen.

Among equally cheap assignments the result is pinned: scanning rows upward,
each row takes the lowest column index compatible with some minimum-cost
completion. The refinement runs on the zero-reduced-cost subgraph left by
the main solve, so it costs nothing when the optimum is unique.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .errors import NumericError, ShapeMismatchError


def solve_assignment(cost) -> List[Tuple[int, int]]:
    """Minimum-cost one-to-one assignment of rows to columns.

    Args:
        cost: n x m array-like of finite reals.

    Returns:
        List of (row, col) pairs of size min(n, m), sorted by row, with
        globally minimal total cost. Ties break toward the lowest row
        index, then the lowest column index. An empty matrix yields an
        empty assignment.

    Raises:
        ShapeMismatchError on a non-2D input, NumericError on non-finite entries.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2:
        raise ShapeMismatchError(f"cost matrix must be 2-D, got shape {matrix.shape}")
    n, m = matrix.shape
    if n == 0 or m == 0:
        return []
    if not np.all(np.isfinite(matrix)):
        raise NumericError("cost matrix entries must be finite")

    k = max(n, m)
    scale = max(1.0, float(np.abs(matrix).max()))
    sentinel = scale * k + 1.0
    square = np.full((k, k), sentinel)
    square[:n, :m] = matrix

    col_of_row, u, v = _hungarian_square(square)
    col_of_row = _lexicographic_refine(square, col_of_row, u, v, scale, real_rows=n)
    return [(r, c) for r, c in enumerate(col_of_row) if r < n and c < m]


def gated_assignment(cost, accept) -> Tuple[List[Tuple[int, int]], List[int], List[int]]:
    """Minimum-cost assignment with a gate on which solved pairs count.

    Args:
        cost: n x m array handed to ``solve_assignment`` as it is.
        accept: n x m booleans; a solved pair (r, c) is kept only when
            ``accept[r, c]`` is true.

    Returns:
        (pairs, unmatched_rows, unmatched_cols): the kept pairs sorted by
        row, then the rows and the columns in no kept pair, in index order.
        When either side is empty the solver is not called and everything
        is unmatched.
    """
    n, m = np.shape(cost)
    pairs = [(r, c) for r, c in solve_assignment(cost) if accept[r, c]] if n and m else []
    rows = {r for r, _ in pairs}
    cols = {c for _, c in pairs}
    return pairs, [r for r in range(n) if r not in rows], [c for c in range(m) if c not in cols]


def _hungarian_square(a: np.ndarray):
    """Solve a square assignment problem, returning (col_of_row, u, v).

    Potentials satisfy a[i, j] - u[i] - v[j] >= 0 with equality on matched
    pairs, up to floating rounding. The matrices the tracker solves are
    small, so the loops run on Python floats, which round exactly as numpy
    float64 does.
    """
    k = a.shape[0]
    cost = a.tolist()
    # 1-based arrays with a virtual column 0, classic formulation.
    u = [0.0] * (k + 1)
    v = [0.0] * (k + 1)
    match = [0] * (k + 1)  # match[j] = row currently matched to column j
    way = [0] * (k + 1)

    for i in range(1, k + 1):
        match[0] = i
        j0 = 0
        minv = [math.inf] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, k + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:  # lowest column index wins ties
                        delta, j1 = minv[j], j
            for j in range(k + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            match[j0] = match[way[j0]]
            j0 = way[j0]

    return sorted(range(k), key=lambda col: match[col + 1]), np.array(u[1:]), np.array(v[1:])


def _lexicographic_refine(
    square: np.ndarray, match_col: List[int], u, v, scale: float, real_rows: int
):
    """Pick the row-by-row lowest-column optimum among tied solutions, in place.

    Every minimum-cost assignment lives in the zero-reduced-cost subgraph of
    the final potentials, so feasibility checks are bipartite matchings
    there. Only real rows are refined; the padding rows' columns never reach
    the output, and their all-equal costs would make the walk quadratic.
    """
    k = square.shape[0]
    eps = 1e-9 * max(1.0, scale)
    reduced = square - u[:, None] - v[None, :]
    zero_adj = [np.flatnonzero(reduced[r] <= eps).tolist() for r in range(k)]

    taken = set()
    for r in range(min(real_rows, k)):
        current = match_col[r]
        for c in zero_adj[r]:
            if c >= current:
                break
            if c in taken:
                continue
            rematch = _perfect_matching(zero_adj, k, r, taken, c)
            if rematch is not None:
                match_col[r] = c
                for rr in range(r + 1, k):
                    match_col[rr] = rematch[rr]
                break
        taken.add(match_col[r])
    return match_col


def _perfect_matching(zero_adj, k: int, fixed_row: int, taken: set, forced_col: int):
    """Try to match rows fixed_row+1..k-1 to free zero-columns (Kuhn's DFS).

    Returns {row: col} on success, None when no perfect completion exists.
    """
    blocked = taken | {forced_col}
    owner = {}  # col -> row

    def try_row(r, visited) -> bool:
        for c in zero_adj[r]:
            if c in blocked or c in visited:
                continue
            visited.add(c)
            if c not in owner or try_row(owner[c], visited):
                owner[c] = r
                return True
        return False

    for r in range(fixed_row + 1, k):
        if not try_row(r, set()):
            return None
    return {r: c for c, r in owner.items()}

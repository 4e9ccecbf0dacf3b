"""Exact triplet-preserving ranks for a finite point set.

For every pivot x, the learner sorts the remaining points by their (unknown)
distance from x using only triplet queries (x, y, y'), then assigns dense
ranks 1..g (nearest group first; ties share a rank).  sign(rank(y) - rank(y'))
then reproduces sign(d(x, y) - d(x, y')) for every ordered triplet.

Query cost per pivot: a top-down mergesort over m = n-1 points
(<= ceil(m*log2(m)) comparisons) and nothing more.  The pass that splits the
sorted order into tie groups reads the labels the merge already got: a
stable mergesort compares every pair that ends up adjacent in its output
(Knuth, TAOCP Vol. 3, 5.3).  ``evaluation.query_budget("thm1")`` bounds the
whole table.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._json import JsonArtifact
from .core import CountingOracle


def _merge_sort(items: list[int], cmp) -> list[int]:
    """Stable top-down mergesort; cmp(a, b) <= 0 keeps a before b."""
    if len(items) <= 1:
        return list(items)
    mid = len(items) // 2
    left = _merge_sort(items[:mid], cmp)
    right = _merge_sort(items[mid:], cmp)
    out: list[int] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if cmp(left[i], right[j]) <= 0:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return out


def learn_ranking(pivot, others, oracle: CountingOracle) -> list[list[int]]:
    """Tie groups of row-indices of ``others``, ordered nearest-to-farthest from ``pivot``.

    Each query is a triplet (pivot, others[a], others[b]), asked only by the
    mergesort.  Points at equal distance from the pivot (0 labels) land in
    the same group; the tie pass reuses the merge's labels and asks nothing.
    """
    pivot = np.asarray(pivot, dtype=np.float64)
    rows = list(np.asarray(others, dtype=np.float64))
    m = len(rows)
    if m == 0:
        return []

    labels: dict[tuple[int, int], int] = {}

    def cmp(a: int, b: int) -> int:
        label = oracle.query(pivot, rows[a], rows[b])
        labels[a, b] = label
        return label

    order = _merge_sort(list(range(m)), cmp)
    groups = [[order[0]]]
    for prev, nxt in zip(order, order[1:]):
        # sorted order guarantees d(pivot, prev) <= d(pivot, nxt); a 0 label
        # means the two are tied, anything else starts a new group.  A merge
        # that compared them as (nxt, prev) put nxt second, so that label was +1.
        if (prev, nxt) in labels:
            tied = labels[prev, nxt] == 0
        elif (nxt, prev) in labels:
            tied = False
        else:
            raise RuntimeError(f"the mergesort never compared adjacent points {prev} and {nxt}")
        if tied:
            groups[-1].append(nxt)
        else:
            groups.append([nxt])
    for g in groups:
        g.sort()
    return groups


@dataclasses.dataclass
class RankTable(JsonArtifact):
    """Distance surrogate for a finite set: ranks[i, j] = dense rank of j around pivot i.

    ranks[i, i] = 0; ranks are in [1, n-1] off the diagonal.
    """

    points: np.ndarray
    ranks: np.ndarray
    query_count: int = 0

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def tie_groups(self) -> list[list[list[int]]]:
        """Per pivot i, nearest first, the groups of point indices equidistant from i."""
        return [[np.flatnonzero(row == r).tolist() for r in range(1, row.max() + 1)]
                for row in self.ranks]

    def rank(self, i: int, j: int) -> int:
        n = self.n
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"point index out of range for table of size {n}")
        return int(self.ranks[i, j])

    def answer(self, i: int, j: int, k: int) -> int:
        """sign(rank(i,j) - rank(i,k)), the table's triplet answer."""
        diff = self.rank(i, j) - self.rank(i, k)
        return 0 if diff == 0 else (1 if diff > 0 else -1)


def learn_finite_distance(points, oracle: CountingOracle) -> RankTable:
    """Build the full rank table for a finite point set using only triplet queries."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array (n, p)")
    n = points.shape[0]
    if n < 1:
        raise ValueError("need at least one point")
    uniq = np.unique(points, axis=0)
    if uniq.shape[0] != n:
        raise ValueError("duplicate points are not allowed")

    start = oracle.query_count
    ranks = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        others_idx = [j for j in range(n) if j != i]
        groups = learn_ranking(points[i], points[others_idx], oracle)
        for r, group in enumerate(groups, start=1):
            for a in group:
                ranks[i, others_idx[a]] = r
    return RankTable(points=points, ranks=ranks, query_count=oracle.query_count - start)

"""Exact rank-table learning on finite point sets."""

import collections
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletdist import (
    CountingOracle,
    RankTable,
    SqrtMahalanobis,
    SquaredMahalanobis,
    learn_finite_distance,
    learn_ranking,
    query_budget,
)

from tripletdist import finite

from conftest import brute_force_ranks, random_spd


def _euclid_oracle(points_dim: int, tol: float = 0.0) -> CountingOracle:
    return CountingOracle(SqrtMahalanobis(np.eye(points_dim)), equality_tolerance=tol)


# ---------------------------------------------------------------------------
# ranking a single pivot


def test_learn_ranking_orders_three_points():
    oracle = _euclid_oracle(1)
    pivot = np.array([0.0])
    others = np.array([[3.0], [1.0], [2.0]])
    groups = learn_ranking(pivot, others, oracle)
    # indices into `others`, nearest first: 1.0, 2.0, 3.0
    assert groups == [[1], [2], [0]]


def test_learn_ranking_groups_exact_ties():
    oracle = _euclid_oracle(1)
    pivot = np.array([0.0])
    others = np.array([[2.0], [-1.0], [-2.0], [1.0]])
    groups = learn_ranking(pivot, others, oracle)
    assert groups == [[1, 3], [0, 2]]


def test_learn_ranking_single_other_zero_queries():
    oracle = _euclid_oracle(1)
    groups = learn_ranking(np.array([0.0]), np.array([[1.0]]), oracle)
    assert groups == [[0]]
    assert oracle.query_count == 0


# ---------------------------------------------------------------------------
# whole-table learning: frozen examples


def test_three_point_line_table():
    points = np.array([[0.0], [1.0], [3.0]])
    oracle = _euclid_oracle(1)
    table = learn_finite_distance(points, oracle)
    # from 0: 1 is nearest (rank 1), 3 farthest (rank 2)
    assert table.rank(0, 1) == 1 and table.rank(0, 2) == 2
    # from 1: 0 at distance 1, 3 at distance 2
    assert table.rank(1, 0) == 1 and table.rank(1, 2) == 2
    # from 3: 1 at distance 2, 0 at distance 3
    assert table.rank(2, 1) == 1 and table.rank(2, 0) == 2
    assert all(table.rank(i, i) == 0 for i in range(3))


def test_two_points_need_zero_queries():
    oracle = _euclid_oracle(2)
    table = learn_finite_distance(np.array([[0.0, 0.0], [1.0, 1.0]]), oracle)
    assert oracle.query_count == 0
    assert table.query_count == 0
    assert table.rank(0, 1) == 1 and table.rank(1, 0) == 1


def test_single_point_trivial_table():
    oracle = _euclid_oracle(2)
    table = learn_finite_distance(np.array([[0.5, 0.5]]), oracle)
    assert table.n == 1
    assert oracle.query_count == 0


def test_circle_of_eight_tie_structure():
    """Regular octagon: every pivot sees three tied pairs plus the antipode."""
    angles = 2.0 * math.pi * np.arange(8) / 8.0
    points = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    oracle = _euclid_oracle(2, tol=1e-12)
    table = learn_finite_distance(points, oracle)
    for i in range(8):
        groups = table.tie_groups[i]
        sizes = sorted(len(g) for g in groups)
        assert sizes == [1, 2, 2, 2]
        row = np.delete(table.ranks[i], i)
        assert sorted(row) == [1, 1, 2, 2, 3, 3, 4]
    # cross-check the full table against a dense brute-force ranking
    truth = SqrtMahalanobis(np.eye(2))
    np.testing.assert_array_equal(table.ranks,
                                  brute_force_ranks(points, truth, tol=1e-12))


def test_ranks_dense_in_one_to_n_minus_one(rng):
    points = rng.uniform(-1, 1, (9, 3))
    oracle = CountingOracle(SquaredMahalanobis(random_spd(3, 4.0, rng)))
    table = learn_finite_distance(points, oracle)
    for i in range(9):
        row = np.delete(table.ranks[i], i)
        assert row.min() == 1
        assert row.max() <= 8
        # dense: every rank from 1..max appears
        assert set(row) == set(range(1, row.max() + 1))


def test_learned_ranks_match_brute_force(rng):
    truth = SquaredMahalanobis(random_spd(2, 6.0, rng))
    points = rng.uniform(-2, 2, (12, 2))
    oracle = CountingOracle(truth)
    table = learn_finite_distance(points, oracle)
    np.testing.assert_array_equal(table.ranks, brute_force_ranks(points, truth))


def test_answers_agree_with_truth_on_all_ordered_triplets(rng):
    truth = SqrtMahalanobis(random_spd(2, 3.0, rng))
    points = rng.uniform(0, 1, (10, 2))
    oracle = CountingOracle(truth)
    table = learn_finite_distance(points, oracle)
    for i in range(10):
        for j in range(10):
            for k in range(10):
                diff = truth.distance(points[i], points[j]) - truth.distance(
                    points[i], points[k])
                expected = 0 if diff == 0 else (1 if diff > 0 else -1)
                assert table.answer(i, j, k) == expected


def test_duplicate_points_rejected():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="duplicate"):
        learn_finite_distance(points, _euclid_oracle(2))


def test_one_dimensional_input_rejected():
    with pytest.raises(ValueError):
        learn_finite_distance(np.array([0.0, 1.0, 3.0]), _euclid_oracle(1))


# ---------------------------------------------------------------------------
# query budgets


def test_budget_formulas():
    # n * (ceil(m log2 m) + m) with m = n - 1; the sort term is 0 for m <= 1
    assert query_budget("thm1", n=1) == 0
    assert query_budget("thm1", n=2) == 2  # 2 * (0 + 1)
    assert query_budget("thm1", n=3) == 3 * (2 + 2)  # ceil(2 * 1) = 2
    assert query_budget("thm1", n=9) == 9 * (24 + 8)  # ceil(8 * 3) = 24


@pytest.mark.parametrize("n", [2, 5, 8, 16])
def test_query_count_within_budget(n, rng):
    points = rng.uniform(-1, 1, (n, 2))
    oracle = _euclid_oracle(2)
    table = learn_finite_distance(points, oracle)
    assert table.query_count == oracle.query_count
    assert table.query_count <= query_budget("thm1", n=n)
    # the acceptance-level closed form is also respected
    if n > 2:
        m = n - 1
        assert table.query_count <= n * m * (math.log2(m) + 1)


def test_tie_heavy_input_stays_within_budget():
    # 16 points at 8 distinct distances from each pivot stress the tie pass
    xs = np.array([[float(k)] for k in range(-8, 8)])
    oracle = _euclid_oracle(1)
    table = learn_finite_distance(xs, oracle)
    assert table.query_count <= query_budget("thm1", n=16)
    np.testing.assert_array_equal(
        table.ranks, brute_force_ranks(xs, SqrtMahalanobis(np.eye(1))))


class _RecordingOracle(CountingOracle):
    """Counts how often each (pivot, {y, z}) triplet is asked."""

    def __init__(self, truth):
        super().__init__(truth)
        self.asked = collections.Counter()

    def query(self, x, y, z):
        pair = frozenset((np.asarray(y).tobytes(), np.asarray(z).tobytes()))
        self.asked[np.asarray(x).tobytes(), pair] += 1
        return super().query(x, y, z)


def _merge_comparisons(points, truth) -> int:
    """Comparisons the mergesort makes over all pivots when fed true distances."""
    n = points.shape[0]
    total = 0
    for i in range(n):
        d = [truth.distance(points[i], points[j]) for j in range(n) if j != i]

        def cmp(a, b):
            nonlocal total
            total += 1
            return (d[a] > d[b]) - (d[a] < d[b])

        finite._merge_sort(list(range(n - 1)), cmp)
    return total


@pytest.mark.parametrize("case", ["grid-7x7", "random"])
def test_no_triplet_asked_twice(case, rng):
    """The tie pass reads the merge's labels: only the sort's comparisons are asked."""
    if case == "grid-7x7":   # integer grid: many exactly tied distances
        points = np.array([(a, b) for a in range(7) for b in range(7)], dtype=np.float64)
    else:
        points = rng.uniform(-1, 1, (30, 2))
    truth = SqrtMahalanobis(np.eye(2))
    oracle = _RecordingOracle(truth)
    table = learn_finite_distance(points, oracle)
    assert max(oracle.asked.values()) == 1
    np.testing.assert_array_equal(table.ranks, brute_force_ranks(points, truth))
    assert table.query_count == oracle.query_count == _merge_comparisons(points, truth)


def test_tie_pass_raises_on_an_uncompared_adjacent_pair(monkeypatch):
    # a "sort" that compares nothing leaves the tie pass no label to read
    monkeypatch.setattr(finite, "_merge_sort", lambda items, cmp: list(items))
    oracle = _euclid_oracle(1)
    with pytest.raises(RuntimeError, match="never compared"):
        learn_ranking(np.array([0.0]), np.array([[1.0], [2.0]]), oracle)
    assert oracle.query_count == 0


# ---------------------------------------------------------------------------
# RankTable behaviour


def test_rank_table_answer_sign_convention():
    points = np.array([[0.0], [1.0], [3.0]])
    table = learn_finite_distance(points, _euclid_oracle(1))
    assert table.answer(0, 1, 2) == -1  # y closer than z
    assert table.answer(0, 2, 1) == 1
    assert table.answer(0, 1, 1) == 0
    assert table.answer(0, 0, 1) == -1  # rank(i, i) = 0 beats every other rank


def test_rank_table_index_errors():
    table = learn_finite_distance(np.array([[0.0], [1.0]]), _euclid_oracle(1))
    with pytest.raises(IndexError):
        table.rank(0, 2)
    with pytest.raises(IndexError):
        table.rank(-3, 0)


def test_json_round_trip(rng):
    points = rng.uniform(-1, 1, (6, 2))
    table = learn_finite_distance(points, _euclid_oracle(2, tol=1e-12))
    blob = json.dumps(table.to_json_dict())
    data = json.loads(blob)
    assert set(data) >= {"points", "ranks", "query_count"}
    back = RankTable.from_json_dict(data)
    np.testing.assert_array_equal(back.ranks, table.ranks)
    np.testing.assert_allclose(back.points, table.points)
    assert back.tie_groups == table.tie_groups
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert back.answer(i, j, k) == table.answer(i, j, k)


# ---------------------------------------------------------------------------
# properties


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=12, unique=True))
@settings(max_examples=60, deadline=None)
def test_integer_line_matches_brute_force(xs):
    """Exact-tie inputs (integers) learned with a zero-tolerance oracle."""
    points = np.array([[float(v)] for v in xs])
    truth = SquaredMahalanobis(np.eye(1))
    oracle = CountingOracle(truth)
    table = learn_finite_distance(points, oracle)
    np.testing.assert_array_equal(table.ranks, brute_force_ranks(points, truth))
    assert oracle.query_count <= query_budget("thm1", n=len(xs))


@given(st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_point_order_permutation_equivalence(seed):
    """Relabeling the input points permutes the table without changing answers."""
    r = np.random.default_rng(seed)
    points = r.uniform(-1, 1, (7, 2))
    perm = r.permutation(7)
    truth = SqrtMahalanobis(np.eye(2))
    t1 = learn_finite_distance(points, CountingOracle(truth))
    t2 = learn_finite_distance(points[perm], CountingOracle(truth))
    for i in range(7):
        for j in range(7):
            for k in range(7):
                assert t1.answer(perm[i], perm[j], perm[k]) == t2.answer(i, j, k)

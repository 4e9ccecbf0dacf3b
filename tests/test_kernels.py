"""The numpy batch kernels: scan references, the per-axis nearest and lower-index
rules, bit-exactness and bounded memory."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tripletdist import _kernels
from tripletdist._kernels import (
    HAS_NUMBA,
    active_backend,
    assign_centers,
    grid_of,
    quad_forms_by_index,
)
from tripletdist.cover import Domain, build_cover


def test_active_backend_is_numpy_provenance():
    assert active_backend() == "numpy"
    assert HAS_NUMBA is False


# ---------------------------------------------------------------------------
# assign_centers


def _reference_assign(X, centers):
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    idx = d2.argmin(axis=1)
    return idx, d2[np.arange(X.shape[0]), idx]


def _product_grid(rng, counts, lo=-1.0, hi=1.0):
    """Centers of a grid whose per-axis coordinates are random, sorted and distinct."""
    axes = [np.sort(rng.choice(np.linspace(lo, hi, 1000), k, replace=False)) for k in counts]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def test_assign_centers_matches_reference_numpy(rng):
    centers = _product_grid(rng, [3, 2, 4])
    X = rng.uniform(-1.5, 1.5, (300, 3))
    idx, d2 = assign_centers(X, centers)
    ref_idx, ref_d2 = _reference_assign(X, centers)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(d2, ref_d2)


def test_assign_centers_tie_takes_first_center():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    X = np.array([[0.5, 0.0], [0.5, 3.0]])
    idx, _ = assign_centers(X, centers)
    np.testing.assert_array_equal(idx, [0, 0])


def test_assign_centers_chunked_path_consistent(rng):
    """Inputs longer than one block agree with the unblocked reference."""
    centers = _product_grid(rng, [5, 3])
    n = 2 * _kernels._BLOCK_ROWS + 123
    X = rng.uniform(-1, 1, (n, 2))
    idx, d2 = assign_centers(X, centers)
    ref_idx, ref_d2 = _reference_assign(X, centers)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(d2, ref_d2)


def _near_midpoints(axis):
    """Each midpoint of neighbouring coordinates and the floats either side of it."""
    mid = (axis[:-1] + axis[1:]) / 2
    return np.concatenate([mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)])


def _edge_values(axis, lo, hi):
    """Centers, ``_near_midpoints``, and points outside the box, near and far."""
    side = hi - lo
    far = [lo - 0.2 * side, hi + 0.2 * side, -1e3, 1e3, -1e8, 1e8]
    return np.concatenate([axis, _near_midpoints(axis), far])


def _assert_nearest_per_axis(X, idx, axes):
    """On each axis a row's coordinate c[j] is a nearest one in exact arithmetic,
    |x - c[j]| <= |x - c[j+1]| and |x - c[j]| < |x - c[j-1]|, so of two exactly
    as near the lower wins."""
    J = np.unravel_index(idx, [c.size for c in axes])
    for x_a, j_a, c in zip(X.T, J, axes):
        for x, j in set(zip(x_a.tolist(), j_a.tolist())):
            gap = [abs(Fraction(x) - Fraction(v)) for v in c[max(j - 1, 0):j + 2].tolist()]
            if j > 0:
                assert gap[1] < gap[0], (x, j)
                gap = gap[1:]
            assert all(gap[0] <= g for g in gap), (x, j)


COVER_CASES = [
    ([0.0], [1.0], 0.07, [8]),
    ([-1.0], [2.0], 5.0, [1]),
    ([0.0, 0.0], [1.0, 1.0], 0.0375, [19, 19]),
    ([0.0, 0.0], [4.0, 0.3], 0.5, [6, 1]),
    ([-1.0, 0.0, 0.5], [2.0, 0.1, 2.0], 0.45, [6, 1, 3]),
]
COVER_IDS = ["p1", "p1-one-center", "p2-benchmark-grid", "p2-one-center-axis", "p3-uneven"]


@pytest.mark.parametrize("lower, upper, radius, counts", COVER_CASES, ids=COVER_IDS)
def test_assign_centers_exact_on_grid_edge_cases(rng, lower, upper, radius, counts):
    """On cover grids: bit-identical idx and d2 to the scan on centers, points
    near and far outside the box (up to 1e3) and random points, none within an
    ulp of a midpoint; every row takes a nearest coordinate per axis; and every
    in-box point, midpoints and the floats either side of them included, lies
    within the cover radius of its center."""
    dom = Domain.box(lower, upper)
    centers = build_cover(dom, radius).centers
    axes = [np.unique(centers[:, a]) for a in range(dom.dim)]
    assert [a.size for a in axes] == counts
    values = []
    for ax, (lo, hi) in zip(axes, dom.bounds):
        v = np.concatenate([_edge_values(ax, lo, hi), rng.uniform(lo - 1.0, hi + 1.0, 200)])
        values.append(np.setdiff1d(v[np.abs(v) <= 1e3], _near_midpoints(ax)))
    X = np.column_stack([rng.choice(v, 4000) for v in values])
    idx, d2 = assign_centers(X, centers)
    ref_idx, ref_d2 = _reference_assign(X, centers)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(d2, ref_d2)
    inside = [np.concatenate([ax, _near_midpoints(ax), [lo, hi], rng.uniform(lo, hi, 200)])
              for ax, (lo, hi) in zip(axes, dom.bounds)]
    X = np.column_stack([rng.choice(v[(v >= lo) & (v <= hi)], 4000)
                         for v, (lo, hi) in zip(inside, dom.bounds)])
    idx, d2 = assign_centers(X, centers)
    _assert_nearest_per_axis(X, idx, axes)
    assert d2.max() <= radius ** 2


def _midpoint_edge_values(axis, mids):
    """``_edge_values`` plus each of the lookup's midpoints and the floats either
    side of it, points far outside any grid, and non-finite values."""
    return np.concatenate([
        _edge_values(axis, axis[0], axis[-1]),
        mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
        [-1e300, 1e300, 0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf]])


GRID_CASES = [
    ([7, 3], 0.0, 1.0),
    ([1, 9], -1.0, 1.0),
    ([5, 1, 4], -3.0, 0.5),
    ([2, 2, 2, 3], -1.0, 1.0),
    ([11], -1e150, 1e150),
    ([6, 4], 1e12, 1e12 + 3.0),
    ([6, 5], -1e-150, 1e-150),
    ([8, 3], -1e-300, 1e-300),
]
GRID_IDS = ["uneven", "one-center-axis", "p3-spans-0", "p4", "huge", "huge-offset",
            "tiny", "subnormal-spacing"]


@pytest.mark.parametrize("counts, lo, hi", GRID_CASES, ids=GRID_IDS)
def test_assign_centers_exact_at_breakpoints(rng, counts, lo, hi):
    """On random grids, at every midpoint (where the lookup breaks from one
    coordinate to the next) and the floats either side of it, on the centers and
    far outside the grid: each axis takes a nearest coordinate in exact
    arithmetic, the lower one at an exact midpoint, and d2 is the in-order sum of
    the rounded squared per-axis differences to it."""
    centers = _product_grid(rng, counts, lo, hi)
    grid = grid_of(centers)
    values = [_midpoint_edge_values(c, m) for c, m in zip(grid.axes, grid.mids)]
    X = np.column_stack([rng.choice(v, 5000) for v in values])
    with np.errstate(over="ignore"):
        idx, d2 = assign_centers(X, centers, grid)
        terms = (X - centers[idx]) ** 2
    finite = np.isfinite(d2)
    assert 1000 < finite.sum() < finite.size
    _assert_nearest_per_axis(X[finite], idx[finite], grid.axes)
    np.testing.assert_array_equal(idx[~finite], 0)
    in_order = terms[:, 0].copy()
    for t in terms.T[1:]:
        in_order += t
    np.testing.assert_array_equal(d2[finite], in_order[finite])


@pytest.mark.parametrize("counts, lo, hi", GRID_CASES, ids=GRID_IDS)
def test_breakpoint_is_where_the_upper_coordinate_starts_to_win(rng, counts, lo, hi):
    """Each axis's breakpoint is its midpoint: the lower neighbour is at least as
    near there, in exact arithmetic, and the upper one is strictly nearer one
    float above it."""
    for c, m in zip(*grid_of(_product_grid(rng, counts, lo, hi))):
        assert m.shape == (c.size - 1,) and np.all(np.diff(m) >= 0)
        for below, above, mid in zip(c[:-1].tolist(), c[1:].tolist(), m.tolist()):
            exact = (Fraction(below) + Fraction(above)) / 2
            assert Fraction(mid) <= exact < Fraction(float(np.nextafter(mid, np.inf)))


@pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (2.0 ** -1000, 0.0),
                                           (2.0 ** 500, 0.0), (2.0 ** -10, 1e12)],
                         ids=["unit", "tiny", "huge", "huge-offset"])
def test_assign_centers_exact_midpoint_goes_to_lower_index(rng, scale, offset):
    """On dyadic grids, where every midpoint is a double, a coordinate exactly
    midway between two neighbours goes to the lower one on every axis."""
    axes = [offset + scale * np.sort(rng.choice(np.arange(-500.0, 500.0), k, replace=False))
            for k in (7, 1, 4)]
    centers = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    J = [rng.integers(0, max(c.size - 1, 1), 2000) for c in axes]
    X = np.column_stack([c[j] / 2 + c[j + 1] / 2 if c.size > 1 else c[j] for c, j in zip(axes, J)])
    for x, c, j in zip(X.T, axes, J):
        if c.size > 1:
            assert all(Fraction(v) == (Fraction(a) + Fraction(b)) / 2
                       for v, a, b in zip(x.tolist(), c[j].tolist(), c[j + 1].tolist()))
    idx, _ = assign_centers(X, centers)
    np.testing.assert_array_equal(idx, np.ravel_multi_index(J, [c.size for c in axes]))


def test_assign_centers_non_finite_rows_get_index_zero():
    centers = build_cover(Domain.unit_box(2), 0.3).centers
    X = np.array([[np.nan, 0.5], [0.9, np.inf], [-np.inf, -np.inf], [0.9, 0.9]])
    idx, d2 = assign_centers(X, centers)
    ref_idx, ref_d2 = _reference_assign(X, centers)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(idx[:3], [0, 0, 0])
    np.testing.assert_array_equal(d2, ref_d2)


def test_assign_centers_shape_validation():
    with pytest.raises(ValueError):
        assign_centers(np.zeros((3, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        assign_centers(np.zeros(3), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="not a grid"):
        assign_centers(np.zeros((3, 2)), np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_assign_centers_fine_cover_memory_is_bounded(rng):
    """80,089 grid centers: 10k rows peak well under 64 MB and match brute force."""
    cover = build_cover(Domain.unit_box(2), 0.0025)
    assert cover.size == 80_089
    X = rng.uniform(0, 1, (10_000, 2))
    tracemalloc.start()
    try:
        idx, d2 = assign_centers(X, cover.centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    sub = np.arange(0, 10_000, 250)
    ref_idx, ref_d2 = _reference_assign(X[sub], cover.centers)
    np.testing.assert_array_equal(idx[sub], ref_idx)
    np.testing.assert_array_equal(d2[sub], ref_d2)


def test_assign_centers_block_buffers_stay_small(rng):
    """120k rows against 361 centers: the peak is the outputs plus two small blocks."""
    centers = build_cover(Domain.unit_box(2), 0.0375).centers
    assert centers.shape == (361, 2)
    X = rng.uniform(0, 1, (120_000, 2))
    tracemalloc.start()
    try:
        assign_centers(X, centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # idx and d2 take 1.9 MB; the rest is one block's per-row temporaries, 64 KB
    # each, and the grid's axes and midpoints
    assert peak < 4 * 2 ** 20


def test_assign_centers_cell_boundary_goes_to_lower_index():
    """A point exactly between two grid centers is assigned to the lower index."""
    cover = build_cover(Domain.unit_box(2), 0.4)  # 2 x 2 grid
    np.testing.assert_array_equal(cover.centers,
                                  [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    X = np.array([[0.25, 0.5], [0.5, 0.25], [0.5, 0.5], [0.75, 0.5]])
    idx, _ = assign_centers(X, cover.centers)
    np.testing.assert_array_equal(idx, [0, 0, 0, 2])


# ---------------------------------------------------------------------------
# quad_forms_by_index


def _reference_quad(V, H_stack, idx):
    return np.array([V[i] @ H_stack[idx[i]] @ V[i] for i in range(V.shape[0])])


def _reference_quad_gathers(V, H_stack, idx):
    """One whole-batch gather per (a, b) entry, accumulated in (a, b) order."""
    out = np.zeros(V.shape[0])
    for a in range(V.shape[1]):
        for b in range(V.shape[1]):
            out += H_stack[:, a, b][idx] * V[:, a] * V[:, b]
    return out


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_quad_forms_equal_per_entry_gathers_bitwise(rng, p):
    """Gathering each row's entries once, block by block, adds the same terms in
    the same order as one gather per entry over the whole batch."""
    n = 2 * _kernels._BLOCK_ROWS + 77
    V = rng.standard_normal((n, p)) * rng.choice([1e-3, 1.0, 1e3], (n, 1))
    H = rng.standard_normal((50, p, p))
    H = H + H.transpose(0, 2, 1)
    idx = rng.integers(0, 50, n)
    np.testing.assert_array_equal(quad_forms_by_index(V, H, idx),
                                  _reference_quad_gathers(V, H, idx))


def test_quad_forms_matches_reference_numpy(rng):
    V = rng.standard_normal((200, 3))
    H = rng.standard_normal((7, 3, 3))
    H = H + H.transpose(0, 2, 1)
    idx = rng.integers(0, 7, 200)
    np.testing.assert_allclose(quad_forms_by_index(V, H, idx),
                               _reference_quad(V, H, idx), rtol=1e-12)


def test_quad_forms_one_row_equals_full_batch_bitwise(rng):
    V = rng.standard_normal((5000, 2))
    H = rng.standard_normal((361, 2, 2))
    H = H + H.transpose(0, 2, 1)
    idx = rng.integers(0, 361, 5000)
    full = quad_forms_by_index(V, H, idx)
    one = np.array([quad_forms_by_index(V[i:i + 1], H, idx[i:i + 1])[0]
                    for i in range(5000)])
    np.testing.assert_array_equal(one, full)


def test_quad_forms_validation(rng):
    V = rng.standard_normal((10, 2))
    H = rng.standard_normal((3, 2, 2))
    with pytest.raises(ValueError, match="idx"):
        quad_forms_by_index(V, H, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="range"):
        quad_forms_by_index(V, H, np.full(10, 3, dtype=np.int64))
    with pytest.raises(ValueError):
        quad_forms_by_index(V, rng.standard_normal((3, 4, 4)), np.zeros(10, dtype=np.int64))

"""The numpy batch kernels: references, tie rule, bit-exactness and bounded memory."""

import tracemalloc

import numpy as np
import pytest

from tripletdist import _kernels
from tripletdist._kernels import (
    HAS_NUMBA,
    active_backend,
    assign_centers,
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


def test_assign_centers_matches_reference_numpy(rng):
    X = rng.uniform(-1, 1, (300, 3))
    centers = rng.uniform(-1, 1, (17, 3))
    idx, d2 = assign_centers(X, centers)
    ref_idx, ref_d2 = _reference_assign(X, centers)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_allclose(d2, ref_d2, rtol=1e-12)


def test_assign_centers_tie_takes_first_center():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    X = np.array([[0.5, 0.0], [0.5, 3.0]])
    idx, _ = assign_centers(X, centers)
    np.testing.assert_array_equal(idx, [0, 0])


def test_assign_centers_chunked_path_consistent(rng):
    """Inputs longer than one block agree with the unblocked reference."""
    centers = rng.uniform(-1, 1, (5, 2))
    n = 2 * (_kernels._BLOCK_ELEMS // 5) + 123
    X = rng.uniform(-1, 1, (n, 2))
    idx, d2 = assign_centers(X, centers)
    ref_idx, ref_d2 = _reference_assign(X, centers)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_allclose(d2, ref_d2, rtol=1e-12)


def test_assign_centers_shape_validation():
    with pytest.raises(ValueError):
        assign_centers(np.zeros((3, 2)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        assign_centers(np.zeros(3), np.zeros((4, 3)))


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

"""Batch kernels: nearest grid center and per-row quadratic forms.

``assign_centers`` looks the nearest center of a grid up axis by axis: the
nearest point of a product grid is the product of each axis's nearest
coordinate (Conway & Sloane, "Fast quantizing and decoding algorithms for
lattice quantizers and codes", IEEE Trans. IT 1982). Each axis of a grid
carries the midpoints between neighbouring coordinates, derived once from them
(``grid_of``). One binary search into the midpoints gives the axis's nearest
coordinate, the lower one at an exact midpoint, and C-order index arithmetic
combines the axes, O(n p log k) for n rows and k centers. The squared distance
is summed over the axes in axis order. ``quad_forms_by_index`` accumulates per
(a, b) entry in a fixed order. So each row's result is the same whatever the
batch size or block split, and both kernels work in blocks of ``_BLOCK_ROWS``
rows, so their temporaries stay bounded for any number of rows.

``HAS_NUMBA`` and ``active_backend()`` are provenance facts, not switches:
benchmark results record them, and runs are only compared when they agree.
numpy is the one backend.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HAS_NUMBA = False

# Rows per block; each per-row temporary of a block is 64 KB, so memory stays
# bounded for any number of rows.
_BLOCK_ROWS = 2 ** 13


def active_backend() -> str:
    """Name of the kernel backend, recorded with benchmark results."""
    return "numpy"


class Grid(NamedTuple):
    """A grid's sorted per-axis coordinates and the midpoints between them.

    ``mids[a][i]`` is the largest double at most (axes[a][i] + axes[a][i + 1]) / 2,
    so a coordinate x is nearer to ``axes[a][i]`` than to ``axes[a][i + 1]``, or
    as near, exactly when x <= mids[a][i].
    """

    axes: tuple[np.ndarray, ...]
    mids: tuple[np.ndarray, ...]


def grid_of(centers) -> Grid:
    """The per-axis coordinates and midpoints of a grid of centers.

    ``centers`` must be the C-order product of strictly increasing per-axis
    coordinates, the layout ``cover.build_cover`` emits; anything else raises
    ValueError.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or 0 in centers.shape:
        raise ValueError("centers must be a non-empty 2-D array")
    axes = tuple(np.unique(centers[:, a]) for a in range(centers.shape[1]))
    mesh = np.meshgrid(*axes, indexing="ij")
    if mesh[0].size != centers.shape[0] or not all(
            np.array_equal(m.ravel(), centers[:, a]) for a, m in enumerate(mesh)):
        raise ValueError("centers are not a grid: they must be the C-order product of "
                         "strictly increasing per-axis coordinates")
    return Grid(axes, tuple(_midpoints(c) for c in axes))


def _midpoints(c):
    """The largest double at most (c[i] + c[i+1]) / 2, for each pair of neighbours.

    The halves are exact above the subnormal range, and the error term of their
    rounded sum is exact (Knuth's TwoSum). Where the sum rounded up past the
    exact midpoint, the double below it is taken, so a point strictly nearer
    the upper neighbour never goes to the lower one.
    """
    a, b = c[:-1] / 2, c[1:] / 2
    s = a + b
    t = s - a
    err = (a - (s - t)) + (b - t)
    return np.where(err < 0, np.nextafter(s, -np.inf), s)


def assign_centers(X, centers, grid=None):
    """Index of the nearest center for each row of X, plus squared distances.

    ``centers`` must be a grid (see ``grid_of``); ``grid`` is its ``Grid``,
    derived from ``centers`` when not given. Each axis takes a nearest
    coordinate, the lower one when two are exactly as near, so a point midway
    between two centers goes to the lower index. A row whose squared distance
    is NaN or infinite gets index 0.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or np.ndim(centers) != 2 or X.shape[1] != np.shape(centers)[1]:
        raise ValueError("X and centers must be 2-D with matching dimension")
    if grid is None:
        grid = grid_of(centers)
    n = X.shape[0]
    if n <= _BLOCK_ROWS:
        return _lookup(X, grid)
    idx = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    for s in range(0, n, _BLOCK_ROWS):
        block = slice(s, s + _BLOCK_ROWS)
        idx[block], d2[block] = _lookup(X[block], grid)
    return idx, d2


def _lookup(B, grid):
    """``assign_centers`` on one block of rows."""
    idx = np.zeros(B.shape[0], dtype=np.int64)
    d2 = np.zeros(B.shape[0], dtype=np.float64)
    for x, c, mids in zip(B.T, grid.axes, grid.mids):
        j = np.searchsorted(mids, x, side="left")
        t = x - c[j]
        d2 += t * t
        idx = idx * c.size + j
    idx[~np.isfinite(d2)] = 0
    return idx, d2


def quad_forms_by_index(V, H_stack, idx):
    """v_i^T H_{idx_i} v_i for each row v_i of V."""
    V = np.ascontiguousarray(V, dtype=np.float64)
    H_stack = np.ascontiguousarray(H_stack, dtype=np.float64)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if V.ndim != 2 or H_stack.ndim != 3 or V.shape[1] != H_stack.shape[1]:
        raise ValueError("shape mismatch between V and H_stack")
    if idx.shape[0] != V.shape[0]:
        raise ValueError("idx must have one entry per row of V")
    if idx.size and (idx.min() < 0 or idx.max() >= H_stack.shape[0]):
        raise ValueError("idx out of range for H_stack")
    p = V.shape[1]
    entries = H_stack.reshape(H_stack.shape[0], p * p)
    out = np.zeros(V.shape[0], dtype=np.float64)
    for s in range(0, V.shape[0], _BLOCK_ROWS):
        block = slice(s, s + _BLOCK_ROWS)
        v, h, acc = V[block], np.take(entries, idx[block], axis=0), out[block]  # h: (rows, p*p)
        for a in range(p):
            for b in range(p):
                acc += h[:, a * p + b] * v[:, a] * v[:, b]
    return out

"""Batch kernels: nearest grid center and per-row quadratic forms.

``assign_centers`` looks the nearest center of a grid up axis by axis: a
binary search into each axis's sorted coordinates, then C-order index
arithmetic, O(n p log k) for n rows and k centers. It returns what a scan of
all k centers returns, bit for bit. The squared distance is summed over the
axes in axis order, and of the centers that reach the same sum the one with
the lowest index wins. ``quad_forms_by_index`` accumulates per (a, b) entry in
a fixed order. So each row's result is the same whatever the batch size or
block split.

``HAS_NUMBA`` and ``active_backend()`` are provenance facts, not switches:
benchmark results record them, and runs are only compared when they agree.
numpy is the one backend.
"""

from __future__ import annotations

import numpy as np

HAS_NUMBA = False

# Rows per lookup block; each per-row temporary of a block is 64 KB, so
# memory stays bounded for any number of rows.
_BLOCK_ROWS = 2 ** 13


def active_backend() -> str:
    """Name of the kernel backend, recorded with benchmark results."""
    return "numpy"


def grid_axes(centers) -> tuple[np.ndarray, ...]:
    """The per-axis coordinates of a grid of centers, one sorted array per axis.

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
    return axes


def assign_centers(X, centers, axes=None):
    """Index of the nearest center for each row of X, plus squared distances.

    ``centers`` must be a grid (see ``grid_axes``); ``axes`` are its per-axis
    coordinates, derived from ``centers`` when not given. Ties go to the
    smallest center index, and a row whose squared distance is NaN or
    infinite gets index 0.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or np.ndim(centers) != 2 or X.shape[1] != np.shape(centers)[1]:
        raise ValueError("X and centers must be 2-D with matching dimension")
    if axes is None:
        axes = grid_axes(centers)
    n = X.shape[0]
    if n <= _BLOCK_ROWS:
        return _lookup(X, axes)
    idx = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    for s in range(0, n, _BLOCK_ROWS):
        block = slice(s, s + _BLOCK_ROWS)
        idx[block], d2[block] = _lookup(X[block], axes)
    return idx, d2


def _square_diff(x, c):
    d = x - c
    d *= d
    return d


def _in_order_sum(terms):
    acc = terms[0].copy()
    for t in terms[1:]:
        acc += t
    return acc


def _lookup(B, axes):
    """``assign_centers`` on one block of rows."""
    J, T = [], []
    for a, c in enumerate(axes):
        x = B[:, a]
        j = np.searchsorted(c, x)                      # c[j-1] < x <= c[j]
        lo = np.maximum(j - 1, 0)
        t_lo = _square_diff(x, c[lo])
        t_hi = _square_diff(x, c[np.minimum(j, c.size - 1)])
        J.append(lo + (t_hi < t_lo))                   # the lower index on a tie
        T.append(np.minimum(t_lo, t_hi))
    d2 = _in_order_sum(T)
    # Rounding can absorb a larger term into the sum, so a center below the
    # per-axis choice may reach the same d2; a scan would pick that one.
    finite = np.isfinite(d2)
    ties = np.zeros(B.shape[0], dtype=bool)
    for a, c in enumerate(axes):
        below = _square_diff(B[:, a], c[J[a] - 1])     # J = 0 wraps; masked below
        ties |= (_in_order_sum(T[:a] + [below] + T[a + 1:]) == d2) & (J[a] > 0)
    ties &= finite
    if ties.any():
        _lowest_ties(B, axes, J, T, d2, np.flatnonzero(ties))
    idx = J[0]
    for j, c in zip(J[1:], axes[1:]):
        idx = idx * c.size + j
    idx[~finite] = 0
    return idx, d2


def _lowest_ties(B, axes, J, T, d2, rows):
    """Move ``rows`` to the lowest-index center whose in-order sum equals d2.

    Per-axis terms grow away from the chosen index, and rounding is monotone,
    so the centers that keep the sum are a run below it on each axis.  Walking
    axis 0 down first, then axis 1, and so on, finds the lowest C-order index.
    """
    for a, c in enumerate(axes):
        r = rows[J[a][rows] > 0]
        while r.size:
            j = J[a][r] - 1
            t = _square_diff(B[r, a], c[j])
            keep = _in_order_sum([t if b == a else T[b][r] for b in range(len(T))]) == d2[r]
            r = r[keep]
            J[a][r] = j[keep]
            T[a][r] = t[keep]
            r = r[J[a][r] > 0]


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
    out = np.zeros(V.shape[0], dtype=np.float64)
    for a in range(p):
        for b in range(p):
            out += H_stack[:, a, b][idx] * V[:, a] * V[:, b]
    return out

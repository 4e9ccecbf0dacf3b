"""Batch kernels: nearest-center assignment and per-row quadratic forms.

Both kernels accumulate elementwise in a fixed order (per axis for
``assign_centers``, per (a, b) entry for ``quad_forms_by_index``), so each
row's result is bit-identical whatever the batch size or block split.

``HAS_NUMBA`` and ``active_backend()`` are provenance facts, not switches:
benchmark results record them, and runs are only compared when they agree.
numpy is the one backend.
"""

from __future__ import annotations

import numpy as np

HAS_NUMBA = False

# assign_centers works through (rows, k) blocks of about this many float64s
_BLOCK_ELEMS = 2 ** 20


def active_backend() -> str:
    """Name of the kernel backend, recorded with benchmark results."""
    return "numpy"


def assign_centers(X, centers):
    """Index of the nearest center for each row of X, plus squared distances.

    Ties go to the smallest center index.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    if X.ndim != 2 or centers.ndim != 2 or X.shape[1] != centers.shape[1]:
        raise ValueError("X and centers must be 2-D with matching dimension")
    n, p = X.shape
    k = centers.shape[0]
    cols = np.ascontiguousarray(centers.T)
    idx = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    rows = max(1, _BLOCK_ELEMS // max(k, 1))
    acc_buf = np.empty((min(rows, n), k))
    tmp_buf = np.empty_like(acc_buf)
    for s in range(0, n, rows):
        block = X[s : s + rows]
        m = block.shape[0]
        acc, tmp = acc_buf[:m], tmp_buf[:m]
        np.subtract(block[:, :1], cols[0], out=acc)
        np.multiply(acc, acc, out=acc)
        for a in range(1, p):
            np.subtract(block[:, a : a + 1], cols[a], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(acc, tmp, out=acc)
        best = np.argmin(acc, axis=1)
        idx[s : s + m] = best
        d2[s : s + m] = acc[np.arange(m), best]
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
    out = np.zeros(V.shape[0], dtype=np.float64)
    for a in range(p):
        for b in range(p):
            out += H_stack[:, a, b][idx] * V[:, a] * V[:, b]
    return out

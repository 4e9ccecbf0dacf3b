"""Batch kernels: nearest grid center and per-row quadratic forms.

``assign_centers`` looks the nearest center of a grid up axis by axis. Each
axis of a grid carries breakpoints, derived once from its coordinates
(``grid_of``): the first double at which a coordinate is strictly nearer, in
rounded squared difference, than the coordinate below it. One binary search
into the breakpoints then gives the axis's nearest coordinate, and C-order
index arithmetic combines the axes, O(n p log k) for n rows and k centers. It
returns what a scan of all k centers returns, bit for bit. The squared distance
is summed over the axes in axis order, and of the centers that reach the same
sum the one with the lowest index wins. ``quad_forms_by_index`` accumulates per
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

_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)
_SIGN = np.int64(-2 ** 63)


def active_backend() -> str:
    """Name of the kernel backend, recorded with benchmark results."""
    return "numpy"


class Grid(NamedTuple):
    """A grid's sorted per-axis coordinates and per-axis breakpoints.

    ``breaks[a][i]`` is the first double x at which ``axes[a][i + 1]`` is
    strictly nearer to x than ``axes[a][i]`` (see ``axis_breakpoints``).
    """

    axes: tuple[np.ndarray, ...]
    breaks: tuple[np.ndarray, ...]


def grid_of(centers) -> Grid:
    """The per-axis coordinates and breakpoints of a grid of centers.

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
    return Grid(axes, tuple(axis_breakpoints(c) for c in axes))


def _order_key(x):
    """Each double's position among the ordered doubles, as an int64."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, -(bits & _MAGNITUDE), bits)


def _from_order_key(key):
    return np.where(key < 0, -key | _SIGN, key).view(np.float64)


def axis_breakpoints(c) -> np.ndarray:
    """For each pair of neighbours c[i] < c[i+1], the first double x at which
    fl((x - c[i+1])**2) < fl((x - c[i])**2).

    On [c[i], c[i+1]] the upper term falls and the lower one rises with x, and
    rounding keeps both monotone, so the test flips once and a bisection over
    the ordered doubles finds the flip.  If the test never holds there (the
    squared spacing underflows to 0), the breakpoint is the double after
    c[i+1], where the next pair takes over.  Every x in [bp[i], bp[i+1]) then
    has c[i+1] as its per-axis choice, the lower index on a tie.
    """
    c = np.asarray(c, dtype=np.float64)
    below, above = c[:-1], c[1:]
    lo = _order_key(below)                          # the test fails at c[i]
    hi = _order_key(np.nextafter(above, np.inf))    # counted as passing
    # The flip is usually within a few doubles of the midpoint: probing either
    # side of it first leaves a short bracket.
    guess = _order_key(below / 2 + above / 2)
    for probe in (guess - 64, guess + 64):
        lo, hi = _bisect_step(np.clip(probe, lo, hi - 1), lo, hi, below, above)
    while np.any(lo + 1 < hi):
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)  # floor((lo + hi) / 2), no overflow
        lo, hi = _bisect_step(mid, lo, hi, below, above)
    return _from_order_key(hi)


def _bisect_step(key, lo, hi, below, above):
    """Narrow each bracket [lo, hi) of ``axis_breakpoints`` at ``key``."""
    x = _from_order_key(key)
    with np.errstate(over="ignore"):                # huge coordinates square to inf
        wins = _square_diff(x, above) < _square_diff(x, below)
    return np.where(wins, lo, key), np.where(wins, key, hi)


def assign_centers(X, centers, grid=None):
    """Index of the nearest center for each row of X, plus squared distances.

    ``centers`` must be a grid (see ``grid_of``); ``grid`` is its ``Grid``,
    derived from ``centers`` when not given. Ties go to the smallest center
    index, and a row whose squared distance is NaN or infinite gets index 0.
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


def _square_diff(x, c):
    d = x - c
    d *= d
    return d


def _in_order_sum(terms):
    acc = terms[0].copy()
    for t in terms[1:]:
        acc += t
    return acc


def _lookup(B, grid):
    """``assign_centers`` on one block of rows."""
    axes = grid.axes
    J = [np.searchsorted(bp, B[:, a], side="right") for a, bp in enumerate(grid.breaks)]
    T = [_square_diff(B[:, a], c[j]) for a, (c, j) in enumerate(zip(axes, J))]
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
    entries = H_stack.reshape(H_stack.shape[0], p * p)
    out = np.zeros(V.shape[0], dtype=np.float64)
    for s in range(0, V.shape[0], _BLOCK_ROWS):
        block = slice(s, s + _BLOCK_ROWS)
        v, h, acc = V[block], np.take(entries, idx[block], axis=0), out[block]  # h: (rows, p*p)
        for a in range(p):
            for b in range(p):
                acc += h[:, a * p + b] * v[:, a] * v[:, b]
    return out

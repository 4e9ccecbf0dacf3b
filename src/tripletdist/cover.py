"""Box domains and their midpoint-grid covers."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _kernels
from ._json import JsonArtifact


class CoverSizeError(RuntimeError):
    """Raised when a cover would need more centers than the configured cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(f"cover needs {required} centers, exceeding the cap of {cap}")
        self.required = required
        self.cap = cap


@dataclasses.dataclass(frozen=True)
class Domain:
    """An axis-aligned box; ``bounds`` has shape (p, 2), one (lower, upper) row per axis."""

    bounds: np.ndarray

    @classmethod
    def box(cls, lower, upper) -> "Domain":
        lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
        upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower/upper must be 1-D with matching shapes")
        if np.any(upper <= lower):
            raise ValueError("box must have positive side lengths")
        return cls(bounds=np.column_stack([lower, upper]))

    @classmethod
    def unit_box(cls, p: int) -> "Domain":
        return cls.box(np.zeros(p), np.ones(p))

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    @property
    def side_lengths(self) -> np.ndarray:
        return self.bounds[:, 1] - self.bounds[:, 0]

    def diameter(self) -> float:
        return float(np.linalg.norm(self.side_lengths))

    def contains(self, X, atol: float = 1e-12) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        lo = self.bounds[:, 0] - atol
        hi = self.bounds[:, 1] + atol
        return np.all((X >= lo) & (X <= hi), axis=1)

    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.bounds[:, 0], self.bounds[:, 1], size=(n, self.dim))

    def shrunk(self, factor: float) -> "Domain":
        """Box scaled about its lower corner by ``factor`` (downscaling aid)."""
        lo = self.bounds[:, 0]
        return Domain.box(lo, lo + factor * self.side_lengths)


@dataclasses.dataclass
class EpsCover(JsonArtifact):
    """A grid of centers with covering radius <= radius over its domain.

    ``centers`` must be the C-order product of strictly increasing per-axis
    coordinates, as ``build_cover`` emits them; any other point set raises
    ValueError, here and when loading.  ``grid`` holds those coordinates and
    the midpoints between them, which the nearest-center lookup searches.
    It is derived from ``centers`` whenever a cover is built or loaded and is
    never stored, so the stored format is ``radius`` and ``centers`` alone.
    """

    radius: float
    centers: np.ndarray

    def __post_init__(self):
        self.grid = _kernels.grid_of(self.centers)

    @property
    def size(self) -> int:
        return self.centers.shape[0]


def grid_cover_counts(domain: Domain, radius: float) -> np.ndarray:
    """Per-axis center counts ceil(side_a * sqrt(p) / (2 * radius))."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    p = domain.dim
    counts = np.ceil(domain.side_lengths * math.sqrt(p) / (2.0 * radius)).astype(np.int64)
    return np.maximum(counts, 1)


def grid_cover_size(domain: Domain, radius: float) -> int:
    """Number of grid centers, computable without building them."""
    counts = grid_cover_counts(domain, radius)
    size = 1
    for k in counts:
        size *= int(k)
    return size


def build_cover(domain: Domain, radius: float, max_centers: int = 10 ** 6) -> EpsCover:
    """The axis-aligned midpoint grid covering the box at ``radius``.

    Per-axis spacing is at most 2*radius/sqrt(p), so every box point lies
    within ``radius`` of a center; the size prod_a ceil(side_a*sqrt(p)/(2*radius))
    is known before building (``grid_cover_size``).
    """
    counts = grid_cover_counts(domain, radius)
    size = grid_cover_size(domain, radius)
    if size > max_centers:
        raise CoverSizeError(required=size, cap=max_centers)
    axes = []
    for a in range(domain.dim):
        lo, hi = domain.bounds[a]
        k = int(counts[a])
        h = (hi - lo) / k
        axes.append(lo + h * (np.arange(k) + 0.5))
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    return EpsCover(centers=centers, radius=float(radius))


def nearest_center_batch(cover: EpsCover, X, *more):
    """Nearest-center index for each row of X, and of each further array in ``more``.

    Each axis is one binary search into the midpoints between the cover's
    coordinates, O(n p log k) for n rows and k centers, where a scan of the
    centers costs O(n k p).  Each axis takes a nearest coordinate, the lower
    one at an exact midpoint, so a point midway between two centers goes to
    the lower index.  A finite point outside the box gets its nearest boundary
    center, however far out it lies; a row with a NaN or infinite coordinate
    gets index 0.

    Several arrays, all with the same number of rows, are looked up together:
    one ``assign_centers`` call per block of rows takes that block of every
    array, so the per-call cost is paid once per block, not once per array.
    Returns one index array for one input array, else a tuple of them.
    """
    arrays = [np.asarray(A, dtype=np.float64) for A in (X, *more)]
    if any(A.ndim != 2 or A.shape[0] != arrays[0].shape[0] for A in arrays):
        raise ValueError("point arrays must be 2-D with the same number of rows")
    m, n = len(arrays), arrays[0].shape[0]
    out = np.empty((m, n), dtype=np.int64)
    step = max(1, _kernels._BLOCK_ROWS // m)
    for s in range(0, n, step):
        block = slice(s, s + step)
        idx, _ = _kernels.assign_centers(np.concatenate([A[block] for A in arrays]),
                                         cover.centers, cover.grid)
        out[:, block] = idx.reshape(m, -1)
    return out[0] if m == 1 else tuple(out)


def covering_radius_check(cover: EpsCover, domain: Domain, n_samples: int = 100_000,
                          rng: np.random.Generator | None = None) -> float:
    """Max distance from uniformly sampled domain points to their nearest center."""
    rng = rng or np.random.default_rng(0)
    X = domain.sample_uniform(rng, n_samples)
    _, d2 = _kernels.assign_centers(X, cover.centers, cover.grid)
    return float(np.sqrt(d2.max()))

"""Domains (axis boxes and finite point sets) and epsilon-covers over them."""

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
    """Either an axis-aligned box (bounds, shape (p, 2)) or a finite point set."""

    kind: str
    bounds: np.ndarray | None = None
    points: np.ndarray | None = None

    @classmethod
    def box(cls, lower, upper) -> "Domain":
        lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
        upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower/upper must be 1-D with matching shapes")
        if np.any(upper <= lower):
            raise ValueError("box must have positive side lengths")
        return cls(kind="axis-box", bounds=np.column_stack([lower, upper]))

    @classmethod
    def unit_box(cls, p: int) -> "Domain":
        return cls.box(np.zeros(p), np.ones(p))

    @classmethod
    def finite(cls, points) -> "Domain":
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("points must be a non-empty 2-D array")
        return cls(kind="finite-point-set", points=points)

    @property
    def dim(self) -> int:
        if self.kind == "axis-box":
            return self.bounds.shape[0]
        return self.points.shape[1]

    @property
    def side_lengths(self) -> np.ndarray:
        if self.kind != "axis-box":
            raise ValueError("side_lengths only defined for boxes")
        return self.bounds[:, 1] - self.bounds[:, 0]

    def diameter(self) -> float:
        if self.kind == "axis-box":
            return float(np.linalg.norm(self.side_lengths))
        # exact for the small finite sets used here
        P = self.points
        d2 = ((P[:, None, :] - P[None, :, :]) ** 2).sum(-1)
        return float(np.sqrt(d2.max()))

    def contains(self, X, atol: float = 1e-12) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.kind == "axis-box":
            lo = self.bounds[:, 0] - atol
            hi = self.bounds[:, 1] + atol
            return np.all((X >= lo) & (X <= hi), axis=1)
        eq = np.all(np.isclose(X[:, None, :], self.points[None, :, :], atol=atol), axis=2)
        return eq.any(axis=1)

    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "axis-box":
            lo = self.bounds[:, 0]
            hi = self.bounds[:, 1]
            return rng.uniform(lo, hi, size=(n, self.dim))
        idx = rng.integers(0, self.points.shape[0], size=n)
        return self.points[idx]

    def shrunk(self, factor: float) -> "Domain":
        """Box scaled about its lower corner by ``factor`` (downscaling aid)."""
        if self.kind != "axis-box":
            raise ValueError("shrunk only defined for boxes")
        lo = self.bounds[:, 0]
        return Domain.box(lo, lo + factor * self.side_lengths)


@dataclasses.dataclass
class EpsCover(JsonArtifact):
    """Finite set of centers with covering radius <= radius over its domain."""

    radius: float
    centers: np.ndarray
    method: str = "grid"

    @property
    def size(self) -> int:
        return self.centers.shape[0]


def grid_cover_counts(domain: Domain, radius: float) -> np.ndarray:
    """Per-axis center counts ceil(side_a * sqrt(p) / (2 * radius)) for a box."""
    if domain.kind != "axis-box":
        raise ValueError("grid covers are defined for axis-box domains only")
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


def _build_grid(domain: Domain, radius: float, max_centers: int) -> EpsCover:
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
    return EpsCover(centers=centers, radius=float(radius), method="grid")


# fraction of the radius sacrificed to the candidate lattice in greedy box covers
_GREEDY_BOX_MARGIN = 0.05
_GREEDY_MAX_CANDIDATES = 1 << 20


def _greedy_candidates(domain: Domain, radius: float) -> tuple[np.ndarray, float]:
    """Candidate lattice whose cells have half-diagonal <= margin * radius."""
    p = domain.dim
    sides = domain.side_lengths
    h = 2.0 * _GREEDY_BOX_MARGIN * radius / math.sqrt(p)
    counts = np.maximum(np.ceil(sides / h).astype(np.int64), 1)
    total = int(np.prod(counts.astype(np.float64)))
    while total > _GREEDY_MAX_CANDIDATES:
        h *= 1.5
        counts = np.maximum(np.ceil(sides / h).astype(np.int64), 1)
        total = int(np.prod(counts.astype(np.float64)))
    axes = []
    half_diag_sq = 0.0
    for a in range(p):
        lo, hi = domain.bounds[a]
        k = int(counts[a])
        step = (hi - lo) / k
        axes.append(lo + step * (np.arange(k) + 0.5))
        half_diag_sq += (step / 2.0) ** 2
    mesh = np.meshgrid(*axes, indexing="ij")
    cand = np.stack([m.ravel() for m in mesh], axis=1)
    return cand, math.sqrt(half_diag_sq)


def _greedy_over_points(cand: np.ndarray, stop_radius: float, start: int,
                        max_centers: int) -> np.ndarray:
    """Farthest-first traversal until every candidate is within stop_radius."""
    m = cand.shape[0]
    chosen = [start]
    d2 = ((cand - cand[start]) ** 2).sum(axis=1)
    stop2 = stop_radius * stop_radius
    while True:
        far = int(np.argmax(d2))
        if d2[far] <= stop2:
            break
        if len(chosen) >= max_centers:
            raise CoverSizeError(required=len(chosen) + 1, cap=max_centers)
        chosen.append(far)
        nd2 = ((cand - cand[far]) ** 2).sum(axis=1)
        np.minimum(d2, nd2, out=d2)
    return cand[np.asarray(chosen, dtype=np.int64)]


def _build_greedy(domain: Domain, radius: float, max_centers: int) -> EpsCover:
    if domain.kind == "finite-point-set":
        centers = _greedy_over_points(domain.points, radius, start=0, max_centers=max_centers)
        return EpsCover(centers=centers, radius=float(radius), method="greedy")
    cand, half_diag = _greedy_candidates(domain, radius)
    eff = radius - half_diag
    if eff <= 0:
        raise ValueError("radius too small for the greedy candidate lattice on this box")
    centers = _greedy_over_points(cand, eff, start=0, max_centers=max_centers)
    return EpsCover(centers=centers, radius=float(radius), method="greedy")


def build_cover(domain: Domain, radius: float, method: str = "grid",
                max_centers: int = 10 ** 6) -> EpsCover:
    """An epsilon-cover of the domain.

    method="grid" (boxes only): axis-aligned midpoint grid with per-axis
    spacing 2*radius/sqrt(p), hence worst-case covering radius exactly
    radius and deterministic size prod_a ceil(side_a*sqrt(p)/(2*radius)).

    method="greedy": farthest-first traversal.  Exact on finite point sets
    (separation > radius, covering <= radius).  On boxes the traversal runs
    over a fine candidate lattice; covering <= radius holds for *all* box
    points, while pairwise separation is > 0.95 * radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if method == "grid":
        return _build_grid(domain, radius, max_centers)
    if method == "greedy":
        return _build_greedy(domain, radius, max_centers)
    raise ValueError(f"unknown cover method {method!r}")


def nearest_center_batch(cover: EpsCover, X) -> np.ndarray:
    """Nearest-center index for each row of X (ties: smallest index)."""
    idx, _ = _kernels.assign_centers(np.asarray(X, dtype=np.float64), cover.centers)
    return idx


def covering_radius_check(cover: EpsCover, domain: Domain, n_samples: int = 100_000,
                          rng: np.random.Generator | None = None) -> float:
    """Max distance from sampled domain points to the cover (exhaustive for finite sets)."""
    if domain.kind == "finite-point-set":
        X = domain.points
    else:
        rng = rng or np.random.default_rng(0)
        X = domain.sample_uniform(rng, n_samples)
    _, d2 = _kernels.assign_centers(X, cover.centers)
    return float(np.sqrt(d2.max()))


def min_pairwise_separation(cover: EpsCover) -> float:
    C = cover.centers
    if C.shape[0] < 2:
        return math.inf
    d2 = ((C[:, None, :] - C[None, :, :]) ** 2).sum(-1)
    d2[np.arange(C.shape[0]), np.arange(C.shape[0])] = np.inf
    return float(np.sqrt(d2.min()))

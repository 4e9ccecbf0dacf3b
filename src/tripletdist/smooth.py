"""Triplet learners for smooth distances on continuous domains.

Additive guarantee: cover the domain at a radius where point perturbations
move distances by at most omega/2, learn exact ranks on the centers, answer
triplets through the centers.  Every triplet whose distance gap exceeds omega
is then answered correctly.

Multiplicative guarantee: same construction at a much finer radius, plus a
learned local Hessian at every center.  Pairs whose center-Hessian quadratic
form is small are answered by the local quadratic model, pairs that are far
apart are answered by center ranks; mixed pairs are ordered far > near.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _kernels
from ._json import JsonArtifact
from .core import CountingOracle, GroundTruth, SmoothnessParams
from .cover import (CoverSizeError, Domain, EpsCover, build_cover, grid_cover_size,
                    nearest_center_batch)
from .finite import RankTable, learn_finite_distance
from .maha import learn_local_hessian


def _finite_rows(*batches) -> list[np.ndarray]:
    """Each batch of points as a float64 array.  Raises ValueError naming how many
    rows have a NaN or infinite coordinate: no center answers for those."""
    batches = [np.asarray(A, dtype=np.float64) for A in batches]
    if not all(np.isfinite(A).all() for A in batches):
        bad = np.logical_or.reduce([~np.isfinite(A).all(axis=-1) for A in batches])
        raise ValueError(f"non-finite coordinate in {np.count_nonzero(bad)} of {bad.size} rows")
    return batches


def _one_row(*points) -> list[np.ndarray]:
    """Each point as a one-row batch, checked by ``_finite_rows``."""
    return _finite_rows(*(np.asarray(v, dtype=np.float64)[None] for v in points))


def additive_radius(omega: float, params: SmoothnessParams) -> float:
    """Cover radius for the additive guarantee (thm3).

    min(1, (omega / (4 L))^(1/alpha)) from the Hölder constants.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    return min(1.0, (omega / (4.0 * params.L_smooth)) ** (1.0 / params.alpha))


@dataclasses.dataclass
class AdditiveModel(JsonArtifact):
    """Cover centers + exact center ranks; answers triplets through the nearest centers."""

    omega: float
    radius: float
    query_count: int
    cover: EpsCover
    table: RankTable

    def eval(self, x, y) -> float:
        """Surrogate distance: the rank of c(y) around c(x)."""
        cx, cy = nearest_center_batch(self.cover, *_one_row(x, y))
        return float(self.table.ranks[cx[0], cy[0]])

    def answer(self, x, y, z) -> int:
        """``answer_batch`` on one triplet."""
        return int(self.answer_batch(*_one_row(x, y, z))[0])

    def answer_batch(self, X, Y, Z) -> np.ndarray:
        ix, iy, iz = nearest_center_batch(self.cover, *_finite_rows(X, Y, Z))
        diff = self.table.ranks[ix, iy]
        diff -= self.table.ranks[ix, iz]
        return np.sign(diff, out=diff).astype(np.int64, copy=False)


def learn_additive(domain: Domain, oracle: CountingOracle, omega: float,
                   params: SmoothnessParams | None = None, radius: float | None = None,
                   max_centers: int = 10 ** 6) -> AdditiveModel:
    """Learn a rank surrogate correct on every triplet with distance gap > omega."""
    if radius is None:
        if params is None:
            raise ValueError("params are required unless an explicit radius is given")
        radius = additive_radius(omega, params)
    cover = build_cover(domain, radius, max_centers=max_centers)
    start = oracle.query_count
    table = learn_finite_distance(cover.centers, oracle)
    return AdditiveModel(cover=cover, table=table, omega=omega, radius=radius,
                         query_count=oracle.query_count - start)


# ---------------------------------------------------------------------------
# multiplicative path


@dataclasses.dataclass(frozen=True)
class MultiplicativeThresholds(JsonArtifact):
    """All derived scales for the hybrid learner, from the regularity constants."""

    beta_hat: float
    eps: float
    xi: float
    theta: float
    omega: float
    terms: dict[str, float]


def multiplicative_thresholds(params: SmoothnessParams, omega: float,
                              p: int) -> MultiplicativeThresholds:
    """Compute beta_hat, the cover radius eps, the Hessian accuracy xi, and theta.

    beta_hat is the minimum of three terms: a curvature/third-derivative term,
    a separation term (infinite when delta_floor is infinite, i.e. the domain
    has no pairs beyond the delta scale), and a squared perturbation term.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    e, E = params.eig_lo, params.eig_hi
    M, L, k0 = params.M_third, params.L_hess, params.kappa0
    t1 = (e / (8.0 * E)) * (9.0 * e * e / (4.0 * M * M * p ** 3))
    t2 = 4.0 * params.delta_floor * E / (e * e * k0)
    denom = 8.0 * (omega + 2.0) * (params.taylor_constant(p) * math.sqrt(8.0 * k0 * E / e)
                                   + (L / 2.0) * math.sqrt(omega))
    t3 = (e * omega / denom) ** 2
    beta_hat = min(t1, t2, t3)
    if not (beta_hat > 0 and math.isfinite(beta_hat)):
        raise ValueError(f"degenerate beta_hat = {beta_hat}")
    eps = math.sqrt(e * e * beta_hat * omega / (16.0 * E * E * (1.0 + omega)))
    xi = e * omega / (4.0 * E * (omega + 2.0))
    return MultiplicativeThresholds(beta_hat=beta_hat, eps=eps, xi=xi, theta=4.0 * beta_hat,
                                    omega=omega, terms={"curvature": t1, "separation": t2,
                                                        "perturbation": t3})


@dataclasses.dataclass
class HybridDistance(JsonArtifact):
    """Center ranks for far pairs, local quadratic models for near pairs.

    d'(x, y) = rank(c(x), c(y)) + theta   if (y-x)^T H_{c(x)} (y-x) > theta
             = (y-x)^T H_{c(x)} (y-x)     otherwise (ties at theta go local).
    """

    cover: EpsCover
    table: RankTable
    hessians: np.ndarray  # (n_centers, p, p)
    theta: float
    thresholds: MultiplicativeThresholds
    omega: float
    query_count: int
    scale: float = 1.0  # domain shrink factor applied before learning (1 = none)

    def eval(self, x, y) -> float:
        X, Y = _one_row(x, y)
        ix, iy = nearest_center_batch(self.cover, X, Y)
        form = float(_kernels.quad_forms_by_index(Y - X, self.hessians, ix)[0])
        if form <= self.theta:
            return form
        return float(self.table.ranks[ix[0], iy[0]]) + self.theta

    def answer(self, x, y, z) -> int:
        """``answer_batch`` on one triplet."""
        return int(self.answer_batch(*_one_row(x, y, z))[0])

    def answer_batch(self, X, Y, Z) -> np.ndarray:
        """The answering rule.  Only both-global rows read the centers of y and z,
        so only those rows look them up."""
        X, Y, Z = _finite_rows(X, Y, Z)
        ix = nearest_center_batch(self.cover, X)
        out, y_glob, z_glob = self._branches(X, Y, Z, ix)
        out[y_glob & ~z_glob] = 1
        out[~y_glob & z_glob] = -1
        both_g = y_glob & z_glob
        if both_g.any():
            iy, iz = nearest_center_batch(self.cover, Y[both_g], Z[both_g])
            diff = self.table.ranks[ix[both_g], iy] - self.table.ranks[ix[both_g], iz]
            out[both_g] = np.sign(diff)
        return out

    def _branches(self, X, Y, Z, ix):
        """(local, y_glob, z_glob): the local answers sign(l(x,y) - l(x,z)) from the
        forms at the centers ``ix`` of the x's, and which pairs go to the ranks
        (form > theta)."""
        lxy = _kernels.quad_forms_by_index(Y - X, self.hessians, ix)
        lxz = _kernels.quad_forms_by_index(Z - X, self.hessians, ix)
        local = lxy - lxz
        return np.sign(local, out=local).astype(np.int64), lxy > self.theta, lxz > self.theta

    def case_counts(self, X, Y, Z) -> dict:
        """How many triplets fall in each branch of the answering rule."""
        X, Y, Z = _finite_rows(X, Y, Z)
        _, yg, zg = self._branches(X, Y, Z, nearest_center_batch(self.cover, X))
        return {
            "both_global": int((yg & zg).sum()),
            "both_local": int((~yg & ~zg).sum()),
            "far_near": int((yg & ~zg).sum()),
            "near_far": int((~yg & zg).sum()),
        }


def learn_multiplicative(domain: Domain, oracle: CountingOracle, omega: float,
                         params: SmoothnessParams, overrides: dict | None = None,
                         max_centers: int = 10 ** 6) -> HybridDistance:
    """Learn the hybrid rank/quadratic model at the derived threshold scales.

    ``overrides`` may pin any of {"eps", "xi", "theta"} to explicit values.
    Raises CoverSizeError when the prescribed cover would exceed max_centers
    (see learn_multiplicative_autoscale for the downscaling wrapper).
    """
    overrides = overrides or {}
    th = multiplicative_thresholds(params, omega, domain.dim)
    eps = float(overrides.get("eps", th.eps))
    xi = float(overrides.get("xi", th.xi))
    theta = float(overrides.get("theta", th.theta))
    cover = build_cover(domain, eps, max_centers=max_centers)
    start = oracle.query_count
    table = learn_finite_distance(cover.centers, oracle)
    hessians = np.stack([
        learn_local_hessian(oracle, c, xi, params=params, rho=xi * xi).matrix
        for c in cover.centers
    ])
    return HybridDistance(cover=cover, table=table, hessians=hessians, theta=theta,
                          thresholds=th, omega=omega,
                          query_count=oracle.query_count - start)


def learn_multiplicative_autoscale(domain: Domain, truth: GroundTruth, omega: float,
                                   params_fn, *, equality_tolerance: float = 0.0,
                                   max_centers: int = 400, max_halvings: int = 80,
                                   overrides: dict | None = None
                                   ) -> tuple[HybridDistance, dict]:
    """Shrink the box until the prescribed cover fits, then learn once.

    The search is query-free: thresholds and grid sizes are computable without
    an oracle.  ``params_fn(domain) -> SmoothnessParams`` is re-evaluated per
    candidate domain because the separation floor depends on the domain.
    Returns the model (with ``scale`` set) and a report dict.
    """
    scale = 1.0
    dom = domain
    for halvings in range(max_halvings + 1):
        params = params_fn(dom)
        th = multiplicative_thresholds(params, omega, dom.dim)
        eps = float((overrides or {}).get("eps", th.eps))
        if grid_cover_size(dom, eps) <= max_centers:
            break
        dom = dom.shrunk(0.5)
        scale *= 0.5
    else:
        raise CoverSizeError(required=grid_cover_size(dom, eps), cap=max_centers)
    oracle = CountingOracle(truth, equality_tolerance=equality_tolerance)
    model = learn_multiplicative(dom, oracle, omega, params, overrides=overrides,
                                 max_centers=max_centers)
    model.scale = scale
    report = {
        "scale": scale,
        "halvings": halvings,
        "centers": model.cover.size,
        "eps": model.cover.radius,
        "xi": model.thresholds.xi,
        "theta": model.theta,
        "beta_hat": model.thresholds.beta_hat,
        "domain_sides": dom.side_lengths.tolist(),
        "query_count": model.query_count,
    }
    return model, report

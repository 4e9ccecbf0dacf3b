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
from .core import CountingOracle, GroundTruth, SmoothnessParams
from .cover import (CoverSizeError, Domain, EpsCover, build_cover, grid_cover_size,
                    nearest_center_batch)
from .finite import RankTable, learn_finite_distance
from .maha import learn_local_hessian


def _one_row(*points) -> list[np.ndarray]:
    """Each point as a one-row batch."""
    return [np.asarray(v, dtype=np.float64)[None] for v in points]


def additive_radius(omega: float, params: SmoothnessParams, p: int,
                    rule: str = "thm3") -> float:
    """Cover radius for the additive guarantee.

    rule="thm3": min(1, (omega / (4 L))^(1/alpha)) from the Hölder constants.
    rule="cor4": sqrt(min(1, omega) / (2 gamma + 4 K)) with gamma = eig_hi and
    K = M_third * p^1.5 / 6, for distances with bounded local Hessians.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if rule == "thm3":
        return min(1.0, (omega / (4.0 * params.L_smooth)) ** (1.0 / params.alpha))
    if rule == "cor4":
        gamma = params.eig_hi
        K = params.taylor_constant(p)
        return math.sqrt(min(1.0, omega) / (2.0 * gamma + 4.0 * K))
    raise ValueError(f"unknown radius rule {rule!r}")


@dataclasses.dataclass
class AdditiveModel:
    """Cover centers + exact center ranks; answers triplets through the nearest centers."""

    cover: EpsCover
    table: RankTable
    omega: float
    radius: float
    rule: str
    query_count: int

    def eval(self, x, y) -> float:
        """Surrogate distance: the rank of c(y) around c(x)."""
        cx, cy = nearest_center_batch(self.cover, np.asarray([x, y], dtype=np.float64))
        return float(self.table.ranks[cx, cy])

    def answer(self, x, y, z) -> int:
        """``answer_batch`` on one triplet."""
        return int(self.answer_batch(*_one_row(x, y, z))[0])

    def answer_batch(self, X, Y, Z) -> np.ndarray:
        ix = nearest_center_batch(self.cover, X)
        iy = nearest_center_batch(self.cover, Y)
        iz = nearest_center_batch(self.cover, Z)
        diff = self.table.ranks[ix, iy] - self.table.ranks[ix, iz]
        return np.sign(diff).astype(np.int64)

    def to_json_dict(self) -> dict:
        return {
            "omega": self.omega,
            "radius": self.radius,
            "rule": self.rule,
            "query_count": self.query_count,
            "cover": self.cover.to_json_dict(),
            "table": self.table.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AdditiveModel":
        return cls(
            cover=EpsCover.from_json_dict(d["cover"]),
            table=RankTable.from_json_dict(d["table"]),
            omega=float(d["omega"]),
            radius=float(d["radius"]),
            rule=d.get("rule", "thm3"),
            query_count=int(d.get("query_count", 0)),
        )


def learn_additive(domain: Domain, oracle: CountingOracle, omega: float,
                   params: SmoothnessParams | None = None, rule: str = "thm3",
                   radius: float | None = None, cover_method: str = "grid",
                   max_centers: int = 10 ** 6) -> AdditiveModel:
    """Learn a rank surrogate correct on every triplet with distance gap > omega."""
    if radius is None:
        if params is None:
            raise ValueError("params are required unless an explicit radius is given")
        radius = additive_radius(omega, params, domain.dim, rule)
    cover = build_cover(domain, radius, method=cover_method, max_centers=max_centers)
    start = oracle.query_count
    table = learn_finite_distance(cover.centers, oracle)
    return AdditiveModel(cover=cover, table=table, omega=omega, radius=radius, rule=rule,
                         query_count=oracle.query_count - start)


# ---------------------------------------------------------------------------
# multiplicative path


@dataclasses.dataclass(frozen=True)
class MultiplicativeThresholds:
    """All derived scales for the hybrid learner, from the regularity constants."""

    beta_hat: float
    eps: float
    xi: float
    theta: float
    omega: float
    terms: dict

    def to_json_dict(self) -> dict:
        t = {k: ("inf" if math.isinf(v) else v) for k, v in self.terms.items()}
        return {"beta_hat": self.beta_hat, "eps": self.eps, "xi": self.xi,
                "theta": self.theta, "omega": self.omega, "terms": t}


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
    denom = 8.0 * (omega + 2.0) * ((M * p ** 1.5 / 6.0) * math.sqrt(8.0 * k0 * E / e)
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
class HybridDistance:
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
        ix = nearest_center_batch(self.cover, X)
        form = float(_kernels.quad_forms_by_index(Y - X, self.hessians, ix)[0])
        if form <= self.theta:
            return form
        iy = nearest_center_batch(self.cover, Y)
        return float(self.table.ranks[ix[0], iy[0]]) + self.theta

    def answer(self, x, y, z) -> int:
        """``answer_batch`` on one triplet."""
        return int(self.answer_batch(*_one_row(x, y, z))[0])

    def _branches(self, X, Y, Z):
        """(ix, lxy, lxz, y_glob, z_glob): the center of each x, the local forms of
        (x, y) and (x, z), and which pairs go to the ranks (form > theta)."""
        X = np.asarray(X, dtype=np.float64)
        ix = nearest_center_batch(self.cover, X)
        lxy = _kernels.quad_forms_by_index(np.asarray(Y, np.float64) - X, self.hessians, ix)
        lxz = _kernels.quad_forms_by_index(np.asarray(Z, np.float64) - X, self.hessians, ix)
        return ix, lxy, lxz, lxy > self.theta, lxz > self.theta

    def answer_batch(self, X, Y, Z) -> np.ndarray:
        ix, lxy, lxz, y_glob, z_glob = self._branches(X, Y, Z)
        out = np.empty(ix.shape[0], dtype=np.int64)
        both_g = y_glob & z_glob
        if both_g.any():
            iy = nearest_center_batch(self.cover, np.asarray(Y, np.float64)[both_g])
            iz = nearest_center_batch(self.cover, np.asarray(Z, np.float64)[both_g])
            diff = self.table.ranks[ix[both_g], iy] - self.table.ranks[ix[both_g], iz]
            out[both_g] = np.sign(diff)
        both_l = ~y_glob & ~z_glob
        out[both_l] = np.sign(lxy[both_l] - lxz[both_l]).astype(np.int64)
        out[y_glob & ~z_glob] = 1
        out[~y_glob & z_glob] = -1
        return out

    def case_counts(self, X, Y, Z) -> dict:
        """How many triplets fall in each branch of the answering rule."""
        _, _, _, yg, zg = self._branches(X, Y, Z)
        return {
            "both_global": int((yg & zg).sum()),
            "both_local": int((~yg & ~zg).sum()),
            "far_near": int((yg & ~zg).sum()),
            "near_far": int((~yg & zg).sum()),
        }

    def to_json_dict(self) -> dict:
        return {
            "cover": self.cover.to_json_dict(),
            "table": self.table.to_json_dict(),
            "locals": [H.tolist() for H in self.hessians],
            "theta": self.theta,
            "computed_thresholds": {"beta_hat": self.thresholds.beta_hat,
                                    "eps": self.thresholds.eps, "xi": self.thresholds.xi},
            "threshold_terms": self.thresholds.to_json_dict()["terms"],
            "omega": self.omega,
            "scale": self.scale,
            "query_count": self.query_count,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "HybridDistance":
        ct = d["computed_thresholds"]
        beta_hat = float(ct["beta_hat"])
        terms = {k: float(v) for k, v in d.get("threshold_terms", {}).items()}
        # the derived theta is 4 * beta_hat; d["theta"] may be an override
        th = MultiplicativeThresholds(beta_hat=beta_hat, eps=float(ct["eps"]),
                                      xi=float(ct["xi"]), theta=4.0 * beta_hat,
                                      omega=float(d["omega"]), terms=terms)
        return cls(
            cover=EpsCover.from_json_dict(d["cover"]),
            table=RankTable.from_json_dict(d["table"]),
            hessians=np.asarray(d["locals"], dtype=np.float64),
            theta=float(d["theta"]),
            thresholds=th,
            omega=float(d["omega"]),
            query_count=int(d.get("query_count", 0)),
            scale=float(d.get("scale", 1.0)),
        )


def learn_multiplicative(domain: Domain, oracle: CountingOracle, omega: float,
                         params: SmoothnessParams, overrides: dict | None = None,
                         cover_method: str = "grid",
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
    cover = build_cover(domain, eps, method=cover_method, max_centers=max_centers)
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
    if domain.kind != "axis-box":
        raise ValueError("autoscaling is defined for box domains")
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

"""Validator-side evaluation: agreement checkers, regularity audits, query budgets.

Everything here may touch the ground truth directly (it plays the role of the
simulated user); learners never import this module.  Checkers are
learner-blind: they receive only an answer callback, the truth, and the
thresholds, so any learner exposing ``answer_batch`` can be scored.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._json import JsonArtifact
from .core import GroundTruth, SmoothnessParams, SqrtMahalanobis, SquaredMahalanobis, \
    VaryingHessianQuadratic, DiagonalGaussianKL, curvature_scale
from .cover import Domain


@dataclasses.dataclass
class AgreementReport(JsonArtifact):
    """Outcome of scoring a learner's triplet answers against the ground truth."""

    mode: str                      # "additive" or "multiplicative"
    total_triplets: int
    eligible: int
    violations: int
    violation_exemplars: list
    query_count_of_learner: int
    thresholds: dict
    extra: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.violations == 0


_MAX_EXEMPLARS = 10


def _collect_exemplars(mask: np.ndarray, X, Y, Z, dxy, dxz, answers) -> list:
    idx = np.flatnonzero(mask)[:_MAX_EXEMPLARS]
    out = []
    for i in idx:
        out.append({
            "x": X[i].tolist(), "y": Y[i].tolist(), "z": Z[i].tolist(),
            "d_xy": float(dxy[i]), "d_xz": float(dxz[i]), "answer": int(answers[i]),
        })
    return out


def check_additive(truth: GroundTruth, answer_batch, omega: float, X, Y, Z,
                   query_count: int = 0, thresholds: dict | None = None) -> AgreementReport:
    """Score answers on triplets with |d(x,y) - d(x,z)| > omega (strict).

    A violation is an eligible triplet whose answer differs from
    sign(d(x,y) - d(x,z)).
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    dxy = truth.distance_batch(X, Y)
    dxz = truth.distance_batch(X, Z)
    eligible = np.abs(dxy - dxz) > omega
    answers = np.asarray(answer_batch(X, Y, Z), dtype=np.int64)
    true_sign = np.sign(dxy - dxz).astype(np.int64)
    bad = eligible & (answers != true_sign)
    return AgreementReport(
        mode="additive",
        total_triplets=X.shape[0],
        eligible=int(eligible.sum()),
        violations=int(bad.sum()),
        violation_exemplars=_collect_exemplars(bad, X, Y, Z, dxy, dxz, answers),
        query_count_of_learner=int(query_count),
        thresholds=dict(thresholds or {}, omega=omega),
    )


def check_multiplicative(truth: GroundTruth, answer_batch, omega: float, X, Y, Z,
                         query_count: int = 0,
                         thresholds: dict | None = None) -> AgreementReport:
    """Score answers on triplets with d(x,y) > (1+omega) * d(x,z) (strict).

    Every eligible triplet must be answered +1.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    dxy = truth.distance_batch(X, Y)
    dxz = truth.distance_batch(X, Z)
    eligible = dxy > (1.0 + omega) * dxz
    answers = np.asarray(answer_batch(X, Y, Z), dtype=np.int64)
    bad = eligible & (answers != 1)
    return AgreementReport(
        mode="multiplicative",
        total_triplets=X.shape[0],
        eligible=int(eligible.sum()),
        violations=int(bad.sum()),
        violation_exemplars=_collect_exemplars(bad, X, Y, Z, dxy, dxz, answers),
        query_count_of_learner=int(query_count),
        thresholds=dict(thresholds or {}, omega=omega),
    )


def count_rank_violations(D, ranks) -> int:
    """Ordered triples (i, j, k) with sign(D[i,j] - D[i,k]) != sign(ranks[i,j] - ranks[i,k]).

    Counted one pivot i at a time, so memory stays O(n^2) for an n x n table.
    """
    total = 0
    for d, r in zip(np.asarray(D, dtype=np.float64), np.asarray(ranks)):
        true_sign = np.sign(d[:, None] - d[None, :])
        table_sign = np.sign(r[:, None] - r[None, :])
        total += int((true_sign != table_sign).sum())
    return total


def truth_answer_batch(truth: GroundTruth):
    """The ground truth wearing a learner's interface (for checker calibration)."""

    def answer(X, Y, Z):
        diff = truth.distance_batch(X, Y) - truth.distance_batch(X, Z)
        return np.sign(diff).astype(np.int64)

    return answer


# ---------------------------------------------------------------------------
# triplet samplers


def sample_triplets(domain: Domain, n: int, rng: np.random.Generator):
    """n i.i.d. uniform triplets (X, Y, Z) from the domain."""
    return (domain.sample_uniform(rng, n), domain.sample_uniform(rng, n),
            domain.sample_uniform(rng, n))


def _unit_directions(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    g = rng.standard_normal((n, p))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return g / norms


def _clip_to_box(X: np.ndarray, domain: Domain) -> np.ndarray:
    return np.clip(X, domain.bounds[:, 0], domain.bounds[:, 1])


def near_pair_triplets(domain: Domain, scales, n_per_scale: int,
                       rng: np.random.Generator):
    """Stratified triplets stressing decision boundaries at the given length scales.

    For each scale s, half the triplets place both y and z within ~s of x
    (near/near), half place y uniformly and z within ~s of x (far/near).
    Offsets are clipped to the box; eligibility is always recomputed from the
    truth by the checker, so clipping only shifts the stratum, never the score.
    """
    p = domain.dim
    scales = [s for s in map(float, scales) if s > 0 and math.isfinite(s)]
    if not scales:
        raise ValueError("no finite positive scales given")
    n_nn = n_per_scale // 2
    n_fn = n_per_scale - n_nn
    # filled in place: the blocks never coexist with a concatenated copy
    X, Y, Z = (np.empty((len(scales) * n_per_scale, p)) for _ in range(3))
    for i, s in enumerate(scales):
        nn = slice(i * n_per_scale, i * n_per_scale + n_nn)
        fn = slice(nn.stop, nn.stop + n_fn)
        X[nn] = domain.sample_uniform(rng, n_nn)
        Y[nn] = _clip_to_box(X[nn] + s * rng.uniform(0.5, 1.5, (n_nn, 1)) * _unit_directions(rng, n_nn, p), domain)
        Z[nn] = _clip_to_box(X[nn] + s * rng.uniform(0.5, 1.5, (n_nn, 1)) * _unit_directions(rng, n_nn, p), domain)
        X[fn] = domain.sample_uniform(rng, n_fn)
        Y[fn] = domain.sample_uniform(rng, n_fn)
        Z[fn] = _clip_to_box(X[fn] + s * rng.uniform(0.5, 1.5, (n_fn, 1)) * _unit_directions(rng, n_fn, p), domain)
    return X, Y, Z


# ---------------------------------------------------------------------------
# matrix error metrics


def frobenius_error(M_learned: np.ndarray, M_star: np.ndarray,
                    convention: str = "max-diag", anchor: int | None = None
                    ) -> tuple[float, float]:
    """(tau, ||tau * M_star - M_learned||_F) under a scale-fixing convention.

    convention="max-diag": tau = 1 / max_i M*_ii (matrix recovery).
    convention="anchor":   tau = 1 / M*_aa for the given anchor index
                           (local-Hessian recovery).
    """
    M_star = np.asarray(M_star, dtype=np.float64)
    if convention == "max-diag":
        tau = 1.0 / float(np.max(np.diag(M_star)))
    elif convention == "anchor":
        if anchor is None:
            raise ValueError("anchor index required for the anchor convention")
        tau = 1.0 / float(M_star[anchor, anchor])
    else:
        raise ValueError(f"unknown convention {convention!r}")
    err = float(np.linalg.norm(tau * M_star - np.asarray(M_learned, dtype=np.float64)))
    return tau, err


# ---------------------------------------------------------------------------
# regularity audits


def audit_taylor(truth: GroundTruth, params: SmoothnessParams, domain: Domain, radius: float,
                 n_samples: int, rng: np.random.Generator) -> dict:
    """Max |d(x,y) - 1/2 h^T H*_x h| / (K ||h||^3) over sampled in-domain pairs.

    K = params.taylor_constant(p).  A ratio <= 1 everywhere supports the
    claimed third-derivative bound params.M_third; ratios above 1 refute it.
    """
    p = domain.dim
    K = params.taylor_constant(p)
    X = domain.sample_uniform(rng, n_samples)
    # log-uniform radii in [radius/10, radius] keep the ratio well-conditioned
    r = radius * np.exp(rng.uniform(math.log(0.1), 0.0, n_samples))
    H = X + r[:, None] * _unit_directions(rng, n_samples, p)
    inside = domain.contains(H)
    X, Hpts, r = X[inside], H[inside], r[inside]
    d = truth.distance_batch(X, Hpts)
    quad = np.empty_like(d)
    for i in range(X.shape[0]):
        h = Hpts[i] - X[i]
        quad[i] = 0.5 * h @ truth.hessian_at(X[i]) @ h
    hn = np.linalg.norm(Hpts - X, axis=1)
    ratios = np.abs(d - quad) / (K * hn ** 3)
    return {
        "max_ratio": float(ratios.max()),
        "mean_ratio": float(ratios.mean()),
        "n_used": int(X.shape[0]),
        "constant": K,
        "ok": bool(ratios.max() <= 1.0),
    }


def audit_quadratic_sandwich(truth: GroundTruth, params: SmoothnessParams, domain: Domain,
                             n_samples: int, rng: np.random.Generator) -> dict:
    """Check (eig_lo/4)||h||^2 <= d(x, x+h) <= eig_hi ||h||^2 within the curvature radius."""
    p = domain.dim
    radius = min(curvature_scale(params.eig_lo, params.M_third, p), domain.diameter())
    X = domain.sample_uniform(rng, n_samples)
    r = radius * np.exp(rng.uniform(math.log(1e-3), 0.0, n_samples))
    Y = X + r[:, None] * _unit_directions(rng, n_samples, p)
    inside = domain.contains(Y)
    X, Y = X[inside], Y[inside]
    d = truth.distance_batch(X, Y)
    h2 = ((Y - X) ** 2).sum(axis=1)
    lower = 0.25 * params.eig_lo * h2
    upper = params.eig_hi * h2
    return {
        "radius": radius,
        "n_used": int(X.shape[0]),
        "min_lower_margin": float((d - lower).min()),
        "min_upper_margin": float((upper - d).min()),
        "ok": bool((d >= lower - 1e-15).all() and (d <= upper + 1e-15).all()),
    }


def audit_hessian_band(model_matrix: np.ndarray, H_star: np.ndarray, anchor: int,
                       params: SmoothnessParams) -> dict:
    """Eigenvalue band for a learned local Hessian: [tau_c*e/2, 2*tau_c*E]."""
    tau = 1.0 / float(np.asarray(H_star)[anchor, anchor])
    w = np.linalg.eigvalsh(np.asarray(model_matrix, dtype=np.float64))
    lo = 0.5 * tau * params.eig_lo
    hi = 2.0 * tau * params.eig_hi
    return {
        "tau": tau,
        "min_eig": float(w.min()),
        "max_eig": float(w.max()),
        "band": [lo, hi],
        "ok": bool(w.min() >= lo - 1e-12 and w.max() <= hi + 1e-12),
    }


# ---------------------------------------------------------------------------
# query budgets


def query_budget(formula: str, **kw) -> float:
    """Closed-form query allowances, log base 2.

    thm1: n(ceil((n-1)log2(n-1)) + (n-1))                 [finite table]
    thm4: p(p+1)/2 * log2(2 p^2 kappa^2 / eps) + p        [matrix recovery]
    thm5: thm4 with kappa = E/e                           [local Hessian]
    thm6: 2 * (N^2 log2(N) + N * thm5(xi))                [hybrid; x2 slack]

    thm1's + (n-1) per pivot is slack: ``finite.learn_ranking`` splits ties
    with the labels its mergesort already got and asks no further query.
    """
    if formula == "thm1":
        n = kw["n"]
        m = n - 1
        per = (math.ceil(m * math.log2(m)) if m > 1 else 0) + m
        return float(n * per)
    if formula == "thm4":
        p, kappa, eps = kw["p"], kw["kappa"], kw["eps"]
        return p * (p + 1) / 2 * math.log2(2 * p * p * kappa * kappa / eps) + p
    if formula == "thm5":
        return query_budget("thm4", p=kw["p"], kappa=kw["eig_hi"] / kw["eig_lo"], eps=kw["eps"])
    if formula == "thm6":
        n_centers, p, xi = kw["n_centers"], kw["p"], kw["xi"]
        local = query_budget("thm5", p=p, eps=xi, eig_hi=kw["eig_hi"], eig_lo=kw["eig_lo"])
        table = n_centers * n_centers * math.log2(max(n_centers, 2))
        return 2.0 * (table + n_centers * local)
    raise ValueError(f"unknown budget formula {formula!r}")


# ---------------------------------------------------------------------------
# honest regularity constants for the shipped fixtures


def fixture_smoothness(truth: GroundTruth, domain: Domain, *,
                       m_third_floor: float = 1e-6, l_hess_floor: float = 1e-6,
                       kappa0: float | None = None) -> SmoothnessParams:
    """SmoothnessParams a fixture actually satisfies on the given domain.

    Hölder constants use alpha = 1 with L equal to an upper bound on the
    gradient norm over the domain (for the sqrt kind, the true metric's
    Lipschitz constant).  Exactly-quadratic kinds have true third-derivative
    and Hessian-Lipschitz constants of zero (or a closed form); the floors
    keep the corresponding fields positive and remain honest upper bounds.
    The separation floor delta_floor is computed offline: it is +inf when the
    curvature radius min(curvature_scale(eig_lo, M_third, p), diam) already spans the
    whole domain, else a provable lower bound on distances past that radius.

    For the sqrt kind the Hessian-related fields (M_third = 1, L_hess = 1 and
    the eigenvalue band, taken from the matrix itself) are formal placeholders,
    not bounds the distance satisfies: it is not twice differentiable where
    x = y.  The additive radius reads only alpha and L_smooth.
    """
    p = domain.dim
    diam = domain.diameter()

    def floor_from(delta_cap: float, quad_lo: float) -> float:
        delta = min(delta_cap, diam)
        if delta >= diam * (1.0 - 1e-12):
            return math.inf
        return quad_lo * delta * delta

    if isinstance(truth, SqrtMahalanobis):
        w = np.linalg.eigvalsh(truth.matrix)
        lo, hi = float(w.min()), float(w.max())
        delta_cap = curvature_scale(lo, 1.0, p)  # placeholder M_third = 1
        delta = min(delta_cap, diam)
        floor = math.inf if delta >= diam * (1.0 - 1e-12) else math.sqrt(lo) * delta
        return SmoothnessParams(alpha=1.0, L_smooth=math.sqrt(hi), M_third=1.0,
                                eig_lo=lo, eig_hi=hi, L_hess=1.0,
                                delta_floor=floor, kappa0=kappa0)
    if isinstance(truth, SquaredMahalanobis):
        w = np.linalg.eigvalsh(truth.matrix)
        lo, hi = float(w.min()), float(w.max())
        delta_cap = curvature_scale(lo, m_third_floor, p)
        return SmoothnessParams(alpha=1.0, L_smooth=hi * diam, M_third=m_third_floor,
                                eig_lo=lo, eig_hi=hi, L_hess=l_hess_floor,
                                delta_floor=floor_from(delta_cap, 0.5 * lo), kappa0=kappa0)
    if isinstance(truth, VaryingHessianQuadratic):
        lo, hi = truth.eig_band()
        L_h = max(truth.hessian_lipschitz(), l_hess_floor)
        L_s = hi * diam + 0.5 * L_h * diam * diam
        delta_cap = curvature_scale(lo, m_third_floor, p)
        return SmoothnessParams(alpha=1.0, L_smooth=L_s, M_third=m_third_floor,
                                eig_lo=lo, eig_hi=hi, L_hess=L_h,
                                delta_floor=floor_from(delta_cap, 0.5 * lo), kappa0=kappa0)
    if isinstance(truth, DiagonalGaussianKL):
        R = float(domain.side_lengths.max())
        m3 = truth.third_derivative_bound(R)
        # per-coordinate profile g(t) = (e^t - t - 1)/2 satisfies g(t) >= c_R t^2
        # on [-R, R] with c_R = g(-R)/R^2 (the profile's ratio is increasing)
        c_R = 0.5 * (math.exp(-R) + R - 1.0) / (R * R)
        L_s = 0.5 * math.sqrt(p) * (math.exp(R) - 1.0)
        delta_cap = curvature_scale(0.5, m3, p)
        return SmoothnessParams(alpha=1.0, L_smooth=L_s, M_third=m3,
                                eig_lo=0.5, eig_hi=0.5, L_hess=l_hess_floor,
                                delta_floor=floor_from(delta_cap, c_R), kappa0=kappa0)
    raise ValueError(f"no smoothness profile for ground truth kind {truth.kind!r}")

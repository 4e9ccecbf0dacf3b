"""Active learning of Mahalanobis matrices and local Hessians from triplet queries.

The learner recovers a PSD matrix M up to scale by (1) a p-1 query tournament
that finds the largest diagonal entry, (2) one adaptive binary search per
direction in an extended basis measuring u^T M u relative to the anchor, and
(3) solving the resulting linear system and projecting onto the PSD cone.

The same machinery, run on points x + rho * u for a small probe radius rho,
estimates the Hessian of y -> d(x, y) at y = x for a smooth distance: the
quadratic term dominates the Taylor residual once rho = eps^2.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._json import JsonArtifact
from .core import CountingOracle, SmoothnessParams

_MAX_SEARCH_ITERS = 200


class BinarySearchDivergence(RuntimeError):
    """Binary search failed to bracket within the iteration cap."""


class AdmissibilityError(ValueError):
    """Requested accuracy is outside the allowed range for the probe radius rule."""


def extended_basis(p: int) -> np.ndarray:
    """The p(p+1)/2 probe directions: e_1..e_p, then (e_i + e_j)/sqrt(2) for i < j."""
    if p < 1:
        raise ValueError("p must be >= 1")
    rows = [np.eye(p)[i] for i in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            u = np.zeros(p)
            u[i] = u[j] = 1.0 / math.sqrt(2.0)
            rows.append(u)
    return np.asarray(rows)


def sym_vec(A: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix: ||sym_vec(A)||_2 = ||A||_F.

    Order matches extended_basis: diagonal entries first, then sqrt(2)-scaled
    upper-triangle entries (i < j, lexicographic).
    """
    A = np.asarray(A, dtype=np.float64)
    p = A.shape[0]
    out = [A[i, i] for i in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            out.append((A[i, j] + A[j, i]) / math.sqrt(2.0))
    return np.asarray(out)


def sym_unvec(v: np.ndarray, p: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (p * (p + 1) // 2,):
        raise ValueError(f"expected vector of length {p * (p + 1) // 2}, got {v.shape}")
    A = np.zeros((p, p))
    A[np.arange(p), np.arange(p)] = v[:p]
    k = p
    for i in range(p):
        for j in range(i + 1, p):
            A[i, j] = A[j, i] = v[k] / math.sqrt(2.0)
            k += 1
    return A


def design_matrix(p: int) -> np.ndarray:
    """Rows sym_vec(u u^T) for u in extended_basis(p); square and invertible."""
    U = extended_basis(p)
    return np.asarray([sym_vec(np.outer(u, u)) for u in U])


@dataclasses.dataclass
class BinarySearchResult:
    value: float
    queries: int
    lo: float
    hi: float
    exact: bool  # terminated by a 0 label


def binary_search_coefficient(label_fn, eps_alg: float,
                              max_iters: int = _MAX_SEARCH_ITERS) -> BinarySearchResult:
    """Locate c* >= 0 such that label_fn(c) = sign(c - c*), to within eps_alg.

    Doubling phase until an upper bound is found, then bisection; a 0 label
    returns immediately with the exact value.  label_fn is called once per
    iteration, so ``queries`` equals the oracle cost.
    """
    if eps_alg <= 0:
        raise ValueError("eps_alg must be positive")
    lo, hi = 0.0, math.inf
    c = 1.0
    queries = 0
    while hi - lo > eps_alg:
        if queries >= max_iters:
            raise BinarySearchDivergence(
                f"no bracket of width {eps_alg} within {max_iters} iterations")
        label = label_fn(c)
        queries += 1
        if label == 0:
            return BinarySearchResult(value=c, queries=queries, lo=lo, hi=hi, exact=True)
        if label > 0:
            hi = c
            c = (hi + lo) / 2.0
        else:
            lo = c
            c = 2.0 * c if math.isinf(hi) else (hi + lo) / 2.0
    return BinarySearchResult(value=c, queries=queries, lo=lo, hi=hi, exact=False)


@dataclasses.dataclass
class MahaModel(JsonArtifact):
    """A learned PSD matrix, normalized so the anchor diagonal entry is 1."""

    p: int
    matrix: np.ndarray          # PSD-projected estimate
    matrix_pre: np.ndarray      # pre-projection solve output (anchor diag exactly 1)
    coefficients: np.ndarray    # measured u^T M u / anchor values, extended-basis order
    query_count: int
    anchor: int                 # coordinate index of the anchor direction
    eps: float
    eps_alg: float
    mode: str = "noiseless"     # or "local-hessian"
    base_point: np.ndarray | None = None
    rho: float | None = None


def find_anchor(oracle: CountingOracle, p: int, base_point: np.ndarray | None = None,
                offset: float = 1.0) -> tuple[int, int]:
    """Tournament for the coordinate with the largest diagonal entry.

    Queries (x, x + offset*e_inc, x + offset*e_j); the challenger takes over
    only on a strict win (-1 label), so ties keep the smaller index.  Returns
    (anchor index, queries used) with exactly p - 1 queries.
    """
    x = np.zeros(p) if base_point is None else np.asarray(base_point, dtype=np.float64)
    eye = np.eye(p)
    inc = 0
    queries = 0
    for j in range(1, p):
        label = oracle.query(x, x + offset * eye[inc], x + offset * eye[j])
        queries += 1
        if label == -1:
            inc = j
    return inc, queries


def _psd_project(M: np.ndarray) -> np.ndarray:
    """Frobenius projection onto the PSD cone (eigenvalue clamp at zero)."""
    w, V = np.linalg.eigh(M)
    Mp = (V * np.maximum(w, 0.0)) @ V.T
    return 0.5 * (Mp + Mp.T)


def solve_model(coefficients: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve D vec(M) = coefficients and project; returns (pre, psd) matrices."""
    D = design_matrix(p)
    vec = np.linalg.solve(D, np.asarray(coefficients, dtype=np.float64))
    M_pre = sym_unvec(vec, p)
    return M_pre, _psd_project(M_pre)


def _learn_matrix(oracle: CountingOracle, p: int, eps: float, base_point: np.ndarray | None,
                  offset: float, mode: str, rho: float | None) -> MahaModel:
    if eps <= 0:
        raise ValueError("eps must be positive")
    start = oracle.query_count
    eps_alg = eps / (2.0 * p * p)
    anchor, _ = find_anchor(oracle, p, base_point=base_point, offset=offset)
    x = np.zeros(p) if base_point is None else np.asarray(base_point, dtype=np.float64)
    y = np.eye(p)[anchor]
    coeffs = np.empty(p * (p + 1) // 2)
    for i, u in enumerate(extended_basis(p)):
        def label_fn(c: float, u=u) -> int:
            return oracle.query(x, x + offset * math.sqrt(c) * y, x + offset * u)

        coeffs[i] = binary_search_coefficient(label_fn, eps_alg).value
    M_pre, M_psd = solve_model(coeffs, p)
    return MahaModel(
        p=p, matrix=M_psd, matrix_pre=M_pre, coefficients=coeffs, anchor=anchor,
        query_count=oracle.query_count - start, eps=eps, eps_alg=eps_alg, mode=mode,
        base_point=None if base_point is None else x, rho=rho,
    )


def learn_mahalanobis(oracle: CountingOracle, p: int, eps: float) -> MahaModel:
    """Recover the oracle's Mahalanobis matrix up to scale.

    Output satisfies ||tau M* - M||_F <= eps for tau = 1/(max diagonal of M*),
    using at most p(p+1)/2 * log2(2 p^2 kappa(M*)^2 / eps) + p queries.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    return _learn_matrix(oracle, p, eps, base_point=None, offset=1.0,
                         mode="noiseless", rho=None)


def hessian_eps_bound(params: SmoothnessParams, p: int) -> float:
    """Largest admissible eps for the default probe rule rho = eps^2."""
    return 3.0 * params.eig_lo ** 3 / (2.0 * params.M_third * p ** 1.5 * params.eig_hi ** 2)


def learn_local_hessian(oracle: CountingOracle, x, eps: float,
                        params: SmoothnessParams | None = None,
                        rho: float | None = None) -> MahaModel:
    """Estimate the local Hessian H*_x of a smooth distance, up to scale.

    Queries live on the sphere of radius rho around x with rho = eps^2 by
    default, which requires eps below hessian_eps_bound(params, p); passing an
    explicit ``rho`` skips that admissibility check.  Output satisfies
    ||tau_x H*_x - H_x||_F <= eps (up to the stated tolerance) with
    tau_x = 1/(y^T H*_x y) for the learned anchor direction y.
    """
    x = np.asarray(x, dtype=np.float64)
    p = x.shape[0]
    if rho is None:
        if params is None:
            raise ValueError("either params (for the eps-range check) or an explicit rho is required")
        bound = hessian_eps_bound(params, p)
        if not 0 < eps < bound:
            raise AdmissibilityError(
                f"eps={eps} outside the admissible range (0, {bound:.6g}) for rho = eps^2; "
                "pass rho explicitly to override")
        rho = eps * eps
    if rho <= 0:
        raise ValueError("rho must be positive")
    return _learn_matrix(oracle, p, eps, base_point=x, offset=float(rho),
                         mode="local-hessian", rho=float(rho))

"""Ground-truth distance fixtures, the counting triplet oracle, and smoothness metadata.

The oracle is the only object a learner is allowed to talk to.  Ground truths
simulate the "user" behind the oracle: given a triplet (x, y, z) the oracle
answers sign(d(x, y) - d(x, z)) and counts the query.  Direct evaluation of a
ground truth (``GroundTruth.distance`` / ``distance_batch``) exists for tests
and validators only; learners must never call it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

Array = np.ndarray

GROUND_TRUTH_KINDS = (
    "sqrt-mahalanobis",
    "squared-mahalanobis",
    "varying-hessian-quadratic",
    "diagonal-gaussian-kl",
)


def _as_point(x, dim: int | None = None) -> Array:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {x.shape}")
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"dimension mismatch: point has {x.shape[0]} coordinates, expected {dim}")
    return x


def _as_batch(X, dim: int) -> Array:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {X.shape}")
    return X


def _check_psd_matrix(M, name: str = "matrix") -> Array:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(M)
    if w.min() < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite (min eigenvalue {w.min():.3e})")
    return 0.5 * (M + M.T)


class GroundTruth:
    """A distance function d : R^p x R^p -> [0, inf) with d(x, x) = 0.

    Symmetry is *not* assumed; subclasses may be asymmetric.  Every kind
    supports pointwise and batch evaluation; kinds that are twice
    differentiable in the second argument also expose the analytic Hessian
    of y -> d(x, y) at y = x.
    """

    kind: str = "abstract"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)

    def distance(self, x, y) -> float:
        x = _as_point(x, self.dim)
        y = _as_point(y, self.dim)
        return float(self.distance_batch(x[None, :], y[None, :])[0])

    def distance_batch(self, X, Y) -> Array:
        raise NotImplementedError

    def hessian_at(self, x) -> Array:
        """Hessian of y -> d(x, y) evaluated at y = x."""
        raise NotImplementedError(f"{self.kind} does not expose an analytic Hessian")

    def to_config(self) -> dict:
        raise NotImplementedError


class SqrtMahalanobis(GroundTruth):
    """d(x, y) = sqrt((y - x)^T M (y - x)) for a fixed PSD matrix M.

    A true metric (symmetric, triangle inequality), but not differentiable at
    the diagonal, so ``hessian_at`` is unavailable.
    """

    kind = "sqrt-mahalanobis"

    def __init__(self, matrix):
        M = _check_psd_matrix(matrix)
        super().__init__(M.shape[0])
        self.matrix = M

    def distance_batch(self, X, Y) -> Array:
        X = _as_batch(X, self.dim)
        Y = _as_batch(Y, self.dim)
        D = Y - X
        q = np.einsum("ni,ij,nj->n", D, self.matrix, D)
        return np.sqrt(np.maximum(q, 0.0))

    def to_config(self) -> dict:
        return {"kind": self.kind, "matrix": self.matrix.tolist()}


class SquaredMahalanobis(GroundTruth):
    """d(x, y) = 1/2 (y - x)^T M (y - x); smooth, constant Hessian M."""

    kind = "squared-mahalanobis"

    def __init__(self, matrix):
        M = _check_psd_matrix(matrix)
        super().__init__(M.shape[0])
        self.matrix = M

    def distance_batch(self, X, Y) -> Array:
        X = _as_batch(X, self.dim)
        Y = _as_batch(Y, self.dim)
        D = Y - X
        return 0.5 * np.einsum("ni,ij,nj->n", D, self.matrix, D)

    def hessian_at(self, x) -> Array:
        _as_point(x, self.dim)
        return self.matrix.copy()

    def to_config(self) -> dict:
        return {"kind": self.kind, "matrix": self.matrix.tolist()}


class VaryingHessianQuadratic(GroundTruth):
    """d(x, y) = 1/2 (y - x)^T H(x) (y - x) with H(x) = A + amp * sin(<wave, x>) * B.

    Quadratic in y for each fixed x, so the local Hessian is exactly H(x) and
    the cubic Taylor residual is identically zero.  H(x) varies smoothly in x
    (Lipschitz in Frobenius norm with constant amp * ||B||_F * ||wave||_2),
    and d is asymmetric.  By default B = vv^T with v = ones/sqrt(p) (unit
    spectral and Frobenius norm) and wave = wave_scale * ones.
    """

    kind = "varying-hessian-quadratic"

    def __init__(self, base_matrix, amplitude: float = 0.1, wave=None, direction_matrix=None,
                 wave_scale: float = 3.0):
        A = _check_psd_matrix(base_matrix, "base_matrix")
        super().__init__(A.shape[0])
        p = self.dim
        if direction_matrix is None:
            v = np.ones(p) / math.sqrt(p)
            B = np.outer(v, v)
        else:
            B = np.asarray(direction_matrix, dtype=np.float64)
            if B.shape != (p, p) or not np.allclose(B, B.T, atol=1e-10):
                raise ValueError("direction_matrix must be symmetric p x p")
        if wave is None:
            w = wave_scale * np.ones(p)
        else:
            w = _as_point(wave, p)
        amp = float(amplitude)
        wA = np.linalg.eigvalsh(A)
        bnorm = float(np.linalg.norm(B, 2))
        if wA.min() - abs(amp) * bnorm <= 0:
            raise ValueError("H(x) must stay positive definite: need min-eig(A) > |amplitude| * ||B||_2")
        self.base_matrix = A
        self.amplitude = amp
        self.direction_matrix = B
        self.wave = w

    def hessian_field(self, X) -> Array:
        """H(x) for each row of X, shape (n, p, p)."""
        X = _as_batch(X, self.dim)
        s = np.sin(X @ self.wave)
        return self.base_matrix[None, :, :] + self.amplitude * s[:, None, None] * self.direction_matrix[None, :, :]

    def distance_batch(self, X, Y) -> Array:
        X = _as_batch(X, self.dim)
        Y = _as_batch(Y, self.dim)
        D = Y - X
        base = np.einsum("ni,ij,nj->n", D, self.base_matrix, D)
        s = np.sin(X @ self.wave)
        bump = s * np.einsum("ni,ij,nj->n", D, self.direction_matrix, D)
        return 0.5 * (base + self.amplitude * bump)

    def hessian_at(self, x) -> Array:
        x = _as_point(x, self.dim)
        return self.hessian_field(x[None, :])[0]

    def eig_band(self) -> tuple[float, float]:
        """Interval containing every eigenvalue of every H(x)."""
        wA = np.linalg.eigvalsh(self.base_matrix)
        b = abs(self.amplitude) * float(np.linalg.norm(self.direction_matrix, 2))
        return float(wA.min() - b), float(wA.max() + b)

    def hessian_lipschitz(self) -> float:
        """Upper bound on ||H(x) - H(x')||_F / ||x - x'||_2."""
        return abs(self.amplitude) * float(np.linalg.norm(self.direction_matrix)) * float(
            np.linalg.norm(self.wave))

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "base_matrix": self.base_matrix.tolist(),
            "amplitude": self.amplitude,
            "wave": self.wave.tolist(),
            "direction_matrix": self.direction_matrix.tolist(),
        }


class DiagonalGaussianKL(GroundTruth):
    """KL divergence between centered Gaussians with diagonal covariance.

    Points are log-variance vectors: d(x, y) = KL(N(0, diag e^y) || N(0, diag e^x))
    = 1/2 * sum_i (e^{y_i - x_i} - (y_i - x_i) - 1).  Asymmetric, smooth, with
    H*_x = (1/2) I at every x and third derivative (1/2) e^{y_i - x_i} along
    each coordinate.
    """

    kind = "diagonal-gaussian-kl"

    def __init__(self, dim: int):
        super().__init__(dim)

    def distance_batch(self, X, Y) -> Array:
        X = _as_batch(X, self.dim)
        Y = _as_batch(Y, self.dim)
        D = Y - X
        return 0.5 * np.sum(np.exp(D) - D - 1.0, axis=1)

    def hessian_at(self, x) -> Array:
        _as_point(x, self.dim)
        return 0.5 * np.eye(self.dim)

    def third_derivative_bound(self, coord_range: float) -> float:
        """Max |d^3/dt^3| of the per-coordinate profile over |y_i - x_i| <= coord_range."""
        return 0.5 * math.exp(float(coord_range))

    def to_config(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}


_KIND_MAP: dict[str, type] = {
    SqrtMahalanobis.kind: SqrtMahalanobis,
    SquaredMahalanobis.kind: SquaredMahalanobis,
    VaryingHessianQuadratic.kind: VaryingHessianQuadratic,
    DiagonalGaussianKL.kind: DiagonalGaussianKL,
}


def make_ground_truth(kind: str, **kwargs) -> GroundTruth:
    """Construct a ground truth by kind name (see GROUND_TRUTH_KINDS)."""
    try:
        cls = _KIND_MAP[kind]
    except KeyError:
        raise ValueError(f"unknown ground-truth kind {kind!r}; known: {sorted(_KIND_MAP)}") from None
    return cls(**kwargs)


def ground_truth_from_config(config: dict) -> GroundTruth:
    config = dict(config)
    kind = config.pop("kind")
    return make_ground_truth(kind, **config)


class CountingOracle:
    """Answers triplet queries against a ground truth and counts every answer.

    ``query(x, y, z)`` returns sign(d(x, y) - d(x, z)) in {-1, 0, +1}; the 0
    label is produced iff |d(x, y) - d(x, z)| <= equality_tolerance (default
    0.0, i.e. exact ties only).  Every call increments ``query_count`` by one,
    including repeated identical queries.  A non-finite distance (overflow)
    raises ValueError rather than turning into a label.
    """

    def __init__(self, truth: GroundTruth, equality_tolerance: float = 0.0):
        if equality_tolerance < 0:
            raise ValueError("equality_tolerance must be >= 0")
        self.truth = truth
        self.equality_tolerance = float(equality_tolerance)
        self.query_count = 0

    def query(self, x, y, z) -> int:
        dim = self.truth.dim
        x = _as_point(x, dim)
        y = _as_point(y, dim)
        z = _as_point(z, dim)
        self.query_count += 1
        dxy = self.truth.distance(x, y)
        dxz = self.truth.distance(x, z)
        if not (math.isfinite(dxy) and math.isfinite(dxz)):
            raise ValueError(f"non-finite distance in triplet query: d(x, y) = {dxy}, "
                             f"d(x, z) = {dxz}")
        diff = dxy - dxz
        if abs(diff) <= self.equality_tolerance:
            return 0
        return 1 if diff > 0 else -1

    def reset_count(self) -> None:
        self.query_count = 0


@dataclasses.dataclass(frozen=True)
class SmoothnessParams:
    """Regularity constants a learner is allowed to know about the ground truth.

    alpha, L_smooth   -- Hölder exponent/constant for point perturbations
    M_third           -- bound on third directional derivatives
    eig_lo, eig_hi    -- band containing every eigenvalue of every local Hessian
    L_hess            -- Lipschitz constant of x -> H*_x in Frobenius norm
    delta_floor       -- min distance between points further apart than the
                         scale delta = min(3*eig_lo/(2*M_third*p^1.5), diam);
                         may be +inf when no such pair exists in the domain
    kappa0            -- separation multiplier, defaults to 40*(eig_hi/eig_lo)^3
    """

    alpha: float
    L_smooth: float
    M_third: float
    eig_lo: float
    eig_hi: float
    L_hess: float
    delta_floor: float = math.inf
    kappa0: float | None = None

    def __post_init__(self):
        for name in ("alpha", "L_smooth", "M_third", "eig_lo", "eig_hi", "L_hess", "delta_floor"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"SmoothnessParams.{name} must be strictly positive, got {v}")
        if self.eig_hi < self.eig_lo:
            raise ValueError("eig_hi must be >= eig_lo")
        if self.kappa0 is None:
            object.__setattr__(self, "kappa0", 40.0 * (self.eig_hi / self.eig_lo) ** 3)
        if not self.kappa0 >= 1:
            raise ValueError("kappa0 must be >= 1")

    @property
    def condition(self) -> float:
        return self.eig_hi / self.eig_lo

    def taylor_constant(self, p: int) -> float:
        """The cubic-residual constant M_third * p^1.5 / 6."""
        return self.M_third * p ** 1.5 / 6.0

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if math.isinf(d["delta_floor"]):
            d["delta_floor"] = "inf"
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "SmoothnessParams":
        d = dict(d)
        if d.get("delta_floor") == "inf":
            d["delta_floor"] = math.inf
        return cls(**d)

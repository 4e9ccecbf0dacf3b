"""Shared helpers: brute-force reference implementations used as independent checks.

Everything here recomputes expected answers from first principles (true
distances, dense sorting, finite differences) rather than reusing the library's
own code paths, so a bug in a learner cannot hide behind the same bug in a test.
"""

import numpy as np
import pytest

from tripletdist import make_ground_truth


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def brute_force_ranks(points: np.ndarray, truth, tol: float = 0.0) -> np.ndarray:
    """Dense per-pivot ranks recomputed from true distances with np.unique.

    ranks[i, j] = 1 + number of strictly smaller distance values from pivot i,
    counted over distinct values (ties share a rank); ranks[i, i] = 0.
    """
    n = points.shape[0]
    ranks = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        d = np.array([truth.distance(points[i], points[j]) for j in range(n)])
        others = [j for j in range(n) if j != i]
        vals = d[others]
        order = np.argsort(vals, kind="stable")
        rank = 0
        prev = None
        for pos in order:
            v = vals[pos]
            if prev is None or abs(v - prev) > tol:
                rank += 1
            prev = v
            ranks[i, others[pos]] = rank
    return ranks


def finite_difference_hessian(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central second differences of y -> f(y) at y = x."""
    p = x.shape[0]
    H = np.empty((p, p))
    eye = np.eye(p)
    for i in range(p):
        for j in range(p):
            H[i, j] = (
                f(x + h * eye[i] + h * eye[j])
                - f(x + h * eye[i] - h * eye[j])
                - f(x - h * eye[i] + h * eye[j])
                + f(x - h * eye[i] - h * eye[j])
            ) / (4.0 * h * h)
    return H


def random_spd(p: int, kappa: float, rng: np.random.Generator,
               unit_max_diag: bool = False) -> np.ndarray:
    """Random SPD matrix with eigenvalues geomspace(1, kappa)."""
    if p == 1:
        return np.array([[1.0]])
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    M = (Q * np.geomspace(1.0, kappa, p)) @ Q.T
    if unit_max_diag:
        M = M / np.max(np.diag(M))
    return M


def truth_label(truth, x, y, z, tol: float = 0.0) -> int:
    """Reference triplet label straight from true distances."""
    diff = truth.distance(x, y) - truth.distance(x, z)
    if abs(diff) <= tol:
        return 0
    return 1 if diff > 0 else -1


def kl_fixture(p: int):
    return make_ground_truth("diagonal-gaussian-kl", dim=p)

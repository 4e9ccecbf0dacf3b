"""Ground-truth fixtures, the counting oracle, and regularity parameters."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletdist import (
    CountingOracle,
    DiagonalGaussianKL,
    SmoothnessParams,
    SqrtMahalanobis,
    SquaredMahalanobis,
    VaryingHessianQuadratic,
    make_ground_truth,
)

from conftest import finite_difference_hessian, random_spd, truth_label


# ---------------------------------------------------------------------------
# distance values


def test_sqrt_identity_345():
    truth = SqrtMahalanobis(np.eye(2))
    assert truth.distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)


def test_squared_identity_345():
    truth = SquaredMahalanobis(np.eye(2))
    # 1/2 * 25
    assert truth.distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(12.5, abs=1e-12)


def test_kl_identical_points_zero():
    truth = DiagonalGaussianKL(3)
    assert truth.distance([0.3, -1.0, 2.0], [0.3, -1.0, 2.0]) == 0.0


def test_kl_closed_form_matches_direct_formula():
    truth = DiagonalGaussianKL(2)
    x = np.array([0.1, -0.4])
    y = np.array([0.7, 0.2])
    d = y - x
    expected = 0.5 * np.sum(np.exp(d) - d - 1.0)
    assert truth.distance(x, y) == pytest.approx(expected, rel=1e-14)


def test_kl_asymmetric():
    truth = DiagonalGaussianKL(1)
    assert truth.distance([0.0], [1.0]) != pytest.approx(truth.distance([1.0], [0.0]))


def test_distance_batch_matches_pointwise(rng):
    for truth in [
        SqrtMahalanobis(np.array([[2.0, 0.3], [0.3, 1.0]])),
        SquaredMahalanobis(np.array([[2.0, 0.3], [0.3, 1.0]])),
        VaryingHessianQuadratic(np.eye(2), amplitude=0.2),
        DiagonalGaussianKL(2),
    ]:
        X = rng.uniform(-1, 1, (40, 2))
        Y = rng.uniform(-1, 1, (40, 2))
        batch = truth.distance_batch(X, Y)
        point = np.array([truth.distance(X[i], Y[i]) for i in range(40)])
        np.testing.assert_allclose(batch, point, rtol=1e-13, atol=1e-14)


def test_distances_nonnegative_and_zero_at_diagonal(rng):
    for truth in [
        SqrtMahalanobis(np.array([[1.0, 0.2], [0.2, 0.5]])),
        SquaredMahalanobis(np.array([[1.0, 0.2], [0.2, 0.5]])),
        VaryingHessianQuadratic(np.eye(2), amplitude=0.3),
        DiagonalGaussianKL(2),
    ]:
        X = rng.uniform(-2, 2, (100, 2))
        Y = rng.uniform(-2, 2, (100, 2))
        assert (truth.distance_batch(X, Y) >= 0).all()
        np.testing.assert_allclose(truth.distance_batch(X, X), 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# matrix validation


def test_psd_validation_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        SquaredMahalanobis(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_psd_validation_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        SqrtMahalanobis(np.array([[1.0, 0.0], [0.0, -0.1]]))


def test_psd_validation_accepts_rank_deficient():
    truth = SqrtMahalanobis(np.diag([1.0, 0.0]))
    assert truth.distance([0.0, 0.0], [0.0, 5.0]) == 0.0


def test_varying_hessian_rejects_indefinite_field():
    # amplitude large enough to push an eigenvalue of H(x) through zero
    with pytest.raises(ValueError, match="positive definite"):
        VaryingHessianQuadratic(np.eye(2), amplitude=1.5)


# ---------------------------------------------------------------------------
# Hessians


def test_analytic_hessian_squared_is_matrix():
    M = np.diag([2.0, 3.0])
    truth = SquaredMahalanobis(M)
    np.testing.assert_array_equal(truth.hessian_at([0.4, -0.2]), M)


def test_varying_hessian_zero_amplitude_is_base():
    A = np.array([[1.0, 0.1], [0.1, 0.8]])
    truth = VaryingHessianQuadratic(A, amplitude=0.0)
    np.testing.assert_allclose(truth.hessian_at([0.3, 0.9]), A, atol=1e-15)


def test_sqrt_has_no_hessian():
    truth = SqrtMahalanobis(np.eye(2))
    with pytest.raises(NotImplementedError):
        truth.hessian_at([0.0, 0.0])


@pytest.mark.parametrize("make", [
    lambda: SquaredMahalanobis(np.array([[1.5, 0.4], [0.4, 0.9]])),
    lambda: VaryingHessianQuadratic(np.array([[1.2, 0.0], [0.0, 0.7]]), amplitude=0.15),
    lambda: DiagonalGaussianKL(2),
])
def test_hessian_matches_central_finite_differences(make, rng):
    truth = make()
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, truth.dim)
        H_fd = finite_difference_hessian(lambda y: truth.distance(x, y), x)
        np.testing.assert_allclose(truth.hessian_at(x), H_fd, rtol=1e-5, atol=1e-6)


def test_varying_hessian_field_matches_pointwise(rng):
    truth = VaryingHessianQuadratic(np.eye(3), amplitude=0.2)
    X = rng.uniform(-1, 1, (10, 3))
    F = truth.hessian_field(X)
    for i in range(10):
        np.testing.assert_allclose(F[i], truth.hessian_at(X[i]), rtol=0, atol=1e-15)


def test_varying_hessian_eig_band_and_lipschitz_bounds(rng):
    A = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 1.3]])
    truth = VaryingHessianQuadratic(A, amplitude=0.12)
    lo, hi = truth.eig_band()
    L = truth.hessian_lipschitz()
    X = rng.uniform(-3, 3, (300, 3))
    F = truth.hessian_field(X)
    eigs = np.linalg.eigvalsh(F)
    assert eigs.min() >= lo - 1e-12
    assert eigs.max() <= hi + 1e-12
    # Lipschitz bound holds on sampled pairs
    Y = rng.uniform(-3, 3, (300, 3))
    G = truth.hessian_field(Y)
    num = np.linalg.norm((F - G).reshape(300, -1), axis=1)
    den = np.linalg.norm(X - Y, axis=1)
    assert (num <= L * den + 1e-12).all()


def test_quadratic_kinds_have_zero_taylor_residual(rng):
    """Both quadratic fixtures match their local quadratic model exactly."""
    for truth in [
        SquaredMahalanobis(np.array([[1.0, 0.3], [0.3, 2.0]])),
        VaryingHessianQuadratic(np.eye(2), amplitude=0.25),
    ]:
        X = rng.uniform(-1, 1, (10_000, 2))
        H = rng.uniform(-1, 1, (10_000, 2))
        H = 0.1 * H / np.maximum(np.linalg.norm(H, axis=1, keepdims=True), 1e-9)
        Y = X + H
        d = truth.distance_batch(X, Y)
        quad = np.array([0.5 * H[i] @ truth.hessian_at(X[i]) @ H[i]
                         for i in range(0, 10_000, 100)])
        np.testing.assert_allclose(d[::100], quad, rtol=1e-12, atol=1e-15)


def test_kl_taylor_residual_bounded_by_cubic(rng):
    """|d - quadratic model| <= (M p^1.5 / 6) ||h||^3 with M = 0.5 e^R."""
    p = 3
    truth = DiagonalGaussianKL(p)
    M = truth.third_derivative_bound(0.1)
    K = M * p ** 1.5 / 6.0
    X = rng.uniform(-1, 1, (10_000, p))
    U = rng.standard_normal((10_000, p))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    r = rng.uniform(1e-4, 0.1, 10_000)
    Y = X + r[:, None] * U
    d = truth.distance_batch(X, Y)
    quad = 0.25 * (r ** 2)  # 1/2 h^T (I/2) h = ||h||^2 / 4
    assert (np.abs(d - quad) <= K * r ** 3 + 1e-15).all()


def test_third_derivative_bound_is_exponential():
    truth = DiagonalGaussianKL(1)
    assert truth.third_derivative_bound(0.0) == pytest.approx(0.5)
    assert truth.third_derivative_bound(1.0) == pytest.approx(0.5 * math.e)


# ---------------------------------------------------------------------------
# oracle


def test_label_one_dimensional_example():
    truth = SqrtMahalanobis(np.eye(1))
    oracle = CountingOracle(truth)
    assert oracle.query([0.0], [1.0], [2.0]) == -1


def test_label_tie_on_identical_y_z():
    truth = SquaredMahalanobis(np.eye(2))
    oracle = CountingOracle(truth)
    x = [0.3, 0.4]
    y = [1.0, -1.0]
    assert oracle.query(x, y, y) == 0


def test_label_anisotropic_example():
    truth = SquaredMahalanobis(np.diag([1.0, 4.0]))
    oracle = CountingOracle(truth)
    # d(x,y) = 0.5, d(x,z) = 2.0 -> y strictly closer
    assert oracle.query([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]) == -1


def test_query_count_increments_per_query():
    oracle = CountingOracle(SquaredMahalanobis(np.eye(1)))
    assert oracle.query_count == 0
    for k in range(1, 6):
        oracle.query([0.0], [float(k)], [0.5])
        assert oracle.query_count == k


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_query_rejects_non_finite_distances():
    """exp overflow makes both KL distances inf; inf - inf must not become a label."""
    oracle = CountingOracle(DiagonalGaussianKL(1))
    with pytest.raises(ValueError, match="non-finite"):
        oracle.query([0.0], [800.0], [801.0])
    with pytest.raises(ValueError, match="non-finite"):
        oracle.query([0.0], [801.0], [800.0])
    with pytest.raises(ValueError, match="non-finite"):
        oracle.query([0.0], [800.0], [1.0])
    assert oracle.query([0.0], [2.0], [1.0]) == 1


def test_equality_tolerance_zero_by_default():
    truth = SqrtMahalanobis(np.eye(2))
    oracle = CountingOracle(truth)
    assert oracle.equality_tolerance == 0.0
    # numerically unequal distances (gap ~5e-15, above one ulp) are not ties
    assert oracle.query([0.0, 0.0], [1.0, 0.0], [1.0, 1e-7]) == -1


def test_equality_tolerance_band_declares_ties():
    truth = SqrtMahalanobis(np.eye(2))
    oracle = CountingOracle(truth, equality_tolerance=1e-12)
    assert oracle.query([0.0, 0.0], [1.0, 0.0], [1.0, 1e-7]) == 0


def test_equality_tolerance_rejects_negative():
    with pytest.raises(ValueError):
        CountingOracle(SqrtMahalanobis(np.eye(1)), equality_tolerance=-1e-9)


def test_oracle_rejects_dimension_mismatch():
    oracle = CountingOracle(SquaredMahalanobis(np.eye(2)))
    good = [0.0, 0.0]
    bad = [0.0, 0.0, 0.0]
    for x, y, z in [(bad, good, good), (good, bad, good), (good, good, bad)]:
        with pytest.raises(ValueError):
            oracle.query(x, y, z)
    assert oracle.query_count == 0


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_label_antisymmetric_in_y_z(x, y, z):
    truth = SquaredMahalanobis(np.eye(1))
    oracle = CountingOracle(truth)
    assert oracle.query([x], [y], [z]) == -oracle.query([x], [z], [y])


LABEL_DIMS = (1, 2, 3, 6)
LABEL_KINDS = ("sqrt-mahalanobis", "squared-mahalanobis", "varying-hessian-quadratic",
               "diagonal-gaussian-kl")


def _truth_of_kind(kind: str, p: int):
    """One fixture per ground-truth kind, with a non-diagonal matrix where it has one."""
    M = random_spd(p, 4.0, np.random.default_rng(p))
    return {
        "sqrt-mahalanobis": lambda: SqrtMahalanobis(M),
        "squared-mahalanobis": lambda: SquaredMahalanobis(M),
        "varying-hessian-quadratic": lambda: VaryingHessianQuadratic(M, amplitude=0.2),
        "diagonal-gaussian-kl": lambda: DiagonalGaussianKL(p),
    }[kind]()


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_label_matches_reference_sign(seed):
    r = np.random.default_rng(seed)
    for kind in LABEL_KINDS:
        for p in LABEL_DIMS:
            truth = _truth_of_kind(kind, p)
            oracle = CountingOracle(truth)
            x, y, z = r.uniform(-1, 1, (3, p))
            assert oracle.query(x, y, z) == truth_label(truth, x, y, z), (kind, p)


@pytest.mark.parametrize("p", LABEL_DIMS)
@pytest.mark.parametrize("kind", LABEL_KINDS)
def test_label_on_mirrored_grid_triplets(kind, p):
    """(x, x + o, x - o) on a dyadic grid: exact differences, so even kinds tie exactly."""
    truth = _truth_of_kind(kind, p)
    oracle = CountingOracle(truth)
    grid = np.arange(-4, 5) / 8.0
    r = np.random.default_rng(p)
    for _ in range(50):
        x, o = r.choice(grid, (2, p))
        y, z = x + o, x - o
        label = oracle.query(x, y, z)
        assert label == truth_label(truth, x, y, z)
        if kind != "diagonal-gaussian-kl":   # the KL divergence is not even in y - x
            assert label == 0
    assert oracle.query_count == 50


@pytest.mark.parametrize("p", LABEL_DIMS)
@pytest.mark.parametrize("kind", LABEL_KINDS)
def test_two_row_batch_equals_one_row_calls(kind, p):
    """The oracle's one 2-row call gives the bits of two separate evaluations."""
    truth = _truth_of_kind(kind, p)
    r = np.random.default_rng(100 + p)
    for _ in range(100):
        x, y, z = r.uniform(-1, 1, (3, p))
        two = truth.distance_batch(x, np.array((y, z)))
        assert np.array_equal(two, [truth.distance(x, y), truth.distance(x, z)])


# ---------------------------------------------------------------------------
# construction / config round trips


def test_make_ground_truth_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        make_ground_truth("mystery-metric")


# ---------------------------------------------------------------------------
# smoothness parameters


def test_smoothness_params_require_positive_fields():
    good = dict(alpha=1.0, L_smooth=1.0, M_third=1.0, eig_lo=0.5, eig_hi=2.0,
                L_hess=1.0)
    SmoothnessParams(**good)
    for field in good:
        bad = dict(good)
        bad[field] = 0.0
        with pytest.raises(ValueError):
            SmoothnessParams(**bad)


def test_smoothness_params_require_ordered_band():
    with pytest.raises(ValueError):
        SmoothnessParams(alpha=1.0, L_smooth=1.0, M_third=1.0, eig_lo=2.0,
                         eig_hi=0.5, L_hess=1.0)


def test_kappa0_default_formula():
    params = SmoothnessParams(alpha=1.0, L_smooth=1.0, M_third=1.0, eig_lo=0.5,
                              eig_hi=2.0, L_hess=1.0)
    assert params.kappa0 == pytest.approx(40.0 * (2.0 / 0.5) ** 3)
    explicit = SmoothnessParams(alpha=1.0, L_smooth=1.0, M_third=1.0, eig_lo=0.5,
                                eig_hi=2.0, L_hess=1.0, kappa0=7.0)
    assert explicit.kappa0 == 7.0


def test_condition_and_taylor_constant():
    params = SmoothnessParams(alpha=1.0, L_smooth=1.0, M_third=3.0, eig_lo=0.5,
                              eig_hi=2.0, L_hess=1.0)
    assert params.condition == pytest.approx(4.0)
    assert params.taylor_constant(4) == pytest.approx(3.0 * 8.0 / 6.0)


def test_smoothness_params_json_round_trip_with_infinite_floor():
    params = SmoothnessParams(alpha=0.5, L_smooth=2.0, M_third=1.0, eig_lo=0.5,
                              eig_hi=2.0, L_hess=3.0, delta_floor=math.inf)
    blob = json.dumps(params.to_json_dict())
    back = SmoothnessParams.from_json_dict(json.loads(blob))
    assert back == params
    finite = SmoothnessParams(alpha=0.5, L_smooth=2.0, M_third=1.0, eig_lo=0.5,
                              eig_hi=2.0, L_hess=3.0, delta_floor=0.125)
    back2 = SmoothnessParams.from_json_dict(json.loads(json.dumps(finite.to_json_dict())))
    assert back2 == finite

"""Checkers, samplers, audits, and query-budget formulas."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from tripletdist import (
    CountingOracle,
    DiagonalGaussianKL,
    Domain,
    SmoothnessParams,
    SqrtMahalanobis,
    SquaredMahalanobis,
    VaryingHessianQuadratic,
    check_additive,
    check_multiplicative,
    learn_finite_distance,
    near_pair_triplets,
    sample_triplets,
    truth_answer_batch,
)
from tripletdist.evaluation import (
    AgreementReport,
    audit_hessian_band,
    audit_quadratic_sandwich,
    audit_taylor,
    count_rank_violations,
    fixture_smoothness,
    frobenius_error,
    query_budget,
)

from conftest import truth_label


# ---------------------------------------------------------------------------
# agreement checkers


def test_checkers_only_see_triplets(rng):
    """The checker interface passes point arrays only - no oracle, no truth."""
    truth = SqrtMahalanobis(np.eye(2))
    dom = Domain.unit_box(2)
    X, Y, Z = sample_triplets(dom, 50, rng)
    seen = []

    def spy(A, B, C):
        seen.append((A.shape, B.shape, C.shape))
        return np.zeros(A.shape[0], dtype=np.int64)

    check_additive(truth, spy, 0.1, X, Y, Z)
    assert seen == [((50, 2), (50, 2), (50, 2))]


@pytest.mark.parametrize("truth", [
    SqrtMahalanobis(np.array([[1.0, 0.3], [0.3, 2.0]])),
    SquaredMahalanobis(np.array([[1.0, 0.3], [0.3, 2.0]])),
    VaryingHessianQuadratic(np.eye(2), amplitude=0.1),
    DiagonalGaussianKL(2),
], ids=["sqrt", "squared", "varying", "kl"])
def test_truth_answer_batch_labels_match_reference(truth, rng):
    """int64 labels equal to the one-triplet reference, on random triplets and on
    mirrored dyadic triplets (x, x+o, x-o), which tie exactly for the quadratic
    kinds."""
    answer = truth_answer_batch(truth)
    uniform = sample_triplets(Domain.unit_box(2), 500, rng)
    X = rng.integers(0, 9, (500, 2)) / 8
    O = rng.integers(-4, 5, (500, 2)) / 16
    for A, B, C in (uniform, (X, X + O, X - O)):
        labels = answer(A, B, C)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, [truth_label(truth, *t) for t in zip(A, B, C)])
    if truth.kind != "diagonal-gaussian-kl":
        np.testing.assert_array_equal(labels, 0)


def test_truth_learner_passes_both_checkers(rng):
    truth = SquaredMahalanobis(np.array([[1.0, 0.3], [0.3, 2.0]]))
    dom = Domain.unit_box(2)
    X, Y, Z = sample_triplets(dom, 20_000, rng)
    answer = truth_answer_batch(truth)
    add = check_additive(truth, answer, 0.05, X, Y, Z)
    mult = check_multiplicative(truth, answer, 0.05, X, Y, Z)
    assert add.eligible > 0 and add.violations == 0 and add.ok
    assert mult.eligible > 0 and mult.violations == 0 and mult.ok


def test_constant_zero_learner_violates_every_eligible(rng):
    truth = SqrtMahalanobis(np.eye(2))
    dom = Domain.unit_box(2)
    X, Y, Z = sample_triplets(dom, 5000, rng)
    zero = lambda A, B, C: np.zeros(A.shape[0], dtype=np.int64)  # noqa: E731
    add = check_additive(truth, zero, 0.1, X, Y, Z)
    mult = check_multiplicative(truth, zero, 0.5, X, Y, Z)
    assert add.violations == add.eligible > 0
    assert mult.violations == mult.eligible > 0
    assert not add.ok and not mult.ok


def test_sign_flipped_learner_fails(rng):
    truth = SqrtMahalanobis(np.eye(2))
    dom = Domain.unit_box(2)
    X, Y, Z = sample_triplets(dom, 5000, rng)
    answer = truth_answer_batch(truth)
    flipped = lambda A, B, C: -answer(A, B, C)  # noqa: E731
    report = check_additive(truth, flipped, 0.1, X, Y, Z)
    assert report.violations == report.eligible > 0


def test_enormous_omega_vacuously_ok(rng):
    truth = SqrtMahalanobis(np.eye(2))
    dom = Domain.unit_box(2)
    X, Y, Z = sample_triplets(dom, 1000, rng)
    zero = lambda A, B, C: np.zeros(A.shape[0], dtype=np.int64)  # noqa: E731
    add = check_additive(truth, zero, 1e9, X, Y, Z)
    mult = check_multiplicative(truth, zero, 1e9, X, Y, Z)
    assert add.eligible == 0 and add.ok
    assert mult.eligible == 0 and mult.ok


def test_additive_eligibility_is_strict():
    """d(x,y)=1, d(x,z)=0.25 under d=(y-x)^2: the gap 0.75 is NOT > omega=0.75."""
    truth = SquaredMahalanobis(np.array([[2.0]]))
    X = np.array([[0.0]]); Y = np.array([[1.0]]); Z = np.array([[0.5]])
    zero = lambda A, B, C: np.zeros(1, dtype=np.int64)  # noqa: E731
    at_boundary = check_additive(truth, zero, 0.75, X, Y, Z)
    assert at_boundary.eligible == 0
    below = check_additive(truth, zero, 0.75 - 1e-9, X, Y, Z)
    assert below.eligible == 1 and below.violations == 1


def test_multiplicative_eligibility_is_strict():
    """1 > (1+omega) * 0.25 must be strict: omega=3 excluded, omega=2.9 included."""
    truth = SquaredMahalanobis(np.array([[2.0]]))
    X = np.array([[0.0]]); Y = np.array([[1.0]]); Z = np.array([[0.5]])
    zero = lambda A, B, C: np.zeros(1, dtype=np.int64)  # noqa: E731
    assert check_multiplicative(truth, zero, 3.0, X, Y, Z).eligible == 0
    report = check_multiplicative(truth, zero, 2.9, X, Y, Z)
    assert report.eligible == 1 and report.violations == 1


def test_multiplicative_requires_plus_one(rng):
    """-1 on an eligible triplet is a violation even though |answer| is right."""
    truth = SqrtMahalanobis(np.eye(1))
    X = np.array([[0.0]]); Y = np.array([[0.9]]); Z = np.array([[0.1]])
    minus = lambda A, B, C: -np.ones(1, dtype=np.int64)  # noqa: E731
    report = check_multiplicative(truth, minus, 0.5, X, Y, Z)
    assert report.eligible == 1 and report.violations == 1


def test_report_fields_and_json(rng):
    truth = SqrtMahalanobis(np.eye(2))
    dom = Domain.unit_box(2)
    X, Y, Z = sample_triplets(dom, 500, rng)
    zero = lambda A, B, C: np.zeros(A.shape[0], dtype=np.int64)  # noqa: E731
    report = check_additive(truth, zero, 0.1, X, Y, Z, query_count=17,
                            thresholds={"radius": 0.05})
    assert isinstance(report, AgreementReport)
    assert report.mode == "additive"
    assert report.total_triplets == 500
    assert report.query_count_of_learner == 17
    assert report.thresholds == {"radius": 0.05, "omega": 0.1}
    assert len(report.violation_exemplars) <= 10
    ex = report.violation_exemplars[0]
    assert set(ex) == {"x", "y", "z", "d_xy", "d_xz", "answer"}
    json.dumps(report.to_json_dict())  # must be serializable as-is


def test_exemplars_capped_at_ten(rng):
    truth = SqrtMahalanobis(np.eye(2))
    dom = Domain.unit_box(2)
    X, Y, Z = sample_triplets(dom, 2000, rng)
    zero = lambda A, B, C: np.zeros(A.shape[0], dtype=np.int64)  # noqa: E731
    report = check_additive(truth, zero, 0.05, X, Y, Z)
    assert report.violations > 10
    assert len(report.violation_exemplars) == 10


def test_count_rank_violations_matches_triple_loop():
    rng = np.random.default_rng(4)
    n = 9
    D = rng.uniform(0, 1, (n, n))
    D[0, 3] = D[0, 5]  # a true tie
    ranks = np.argsort(np.argsort(D, axis=1), axis=1)
    ranks[1, [2, 6]] = ranks[1, [6, 2]]  # swapped order
    ranks[4, 7] = ranks[4, 8]  # false tie
    ranks[0, 3] = ranks[0, 5] + 1  # broken tie
    expected = sum(np.sign(D[i, j] - D[i, k]) != np.sign(ranks[i, j] - ranks[i, k])
                   for i in range(n) for j in range(n) for k in range(n))
    assert expected > 0
    assert count_rank_violations(D, ranks) == expected
    exact = np.argsort(np.argsort(D, axis=1), axis=1)
    assert count_rank_violations(D[1:], exact[1:]) == 0


def test_count_rank_violations_memory_is_quadratic():
    """At n=200 one n x n x n sign array alone would take 64 MB."""
    rng = np.random.default_rng(5)
    D = rng.uniform(0, 1, (200, 200))
    ranks = np.argsort(np.argsort(D, axis=1), axis=1)
    ranks[:, [0, 1]] = ranks[:, [1, 0]]
    tracemalloc.start()
    try:
        count = count_rank_violations(D, ranks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert count > 0


# ---------------------------------------------------------------------------
# samplers


def test_sample_triplets_shapes_and_determinism():
    dom = Domain.box([0.0, 1.0], [2.0, 3.0])
    X1, Y1, Z1 = sample_triplets(dom, 100, np.random.default_rng(7))
    X2, Y2, Z2 = sample_triplets(dom, 100, np.random.default_rng(7))
    assert X1.shape == Y1.shape == Z1.shape == (100, 2)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(Y1, Y2)
    np.testing.assert_array_equal(Z1, Z2)
    assert dom.contains(X1).all() and dom.contains(Y1).all()


def test_near_pair_triplets_strata(rng):
    dom = Domain.unit_box(2)
    X, Y, Z = near_pair_triplets(dom, [0.01], 1000, rng)
    assert X.shape == (1000, 2)
    assert dom.contains(Y).all() and dom.contains(Z).all()
    # first half: y is near x; second half: y is uniform (typically far)
    near_gap = np.linalg.norm(Y[:500] - X[:500], axis=1)
    far_gap = np.linalg.norm(Y[500:] - X[500:], axis=1)
    assert near_gap.max() <= 0.015 + 1e-12
    assert np.median(far_gap) > 0.1
    # z is near x in both halves
    assert np.linalg.norm(Z - X, axis=1).max() <= 0.015 + 1e-12


def test_near_pair_triplets_skips_bad_scales(rng):
    dom = Domain.unit_box(2)
    X, _, _ = near_pair_triplets(dom, [math.inf, 0.05, float("nan"), 0.0], 100, rng)
    assert X.shape[0] == 100  # only the single finite positive scale contributes
    with pytest.raises(ValueError, match="scale"):
        near_pair_triplets(dom, [math.inf], 100, rng)


def test_near_pair_triplets_peak_memory_near_output_size(rng):
    """The strata are written into the outputs, never held twice."""
    tracemalloc.start()
    try:
        X, Y, Z = near_pair_triplets(Domain.unit_box(2), [0.1, 0.01, 0.001], 40_000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (X.nbytes + Y.nbytes + Z.nbytes)


def test_near_pair_triplets_deterministic():
    dom = Domain.unit_box(3)
    a = near_pair_triplets(dom, [0.1, 0.2], 50, np.random.default_rng(3))
    b = near_pair_triplets(dom, [0.1, 0.2], 50, np.random.default_rng(3))
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)


# ---------------------------------------------------------------------------
# matrix error metrics


def test_frobenius_error_max_diag_convention():
    M_star = np.diag([4.0, 1.0])
    tau, err = frobenius_error(np.diag([1.0, 0.25]), M_star)
    assert tau == 0.25
    assert err == 0.0
    tau, err = frobenius_error(np.diag([1.0, 0.35]), M_star)
    assert err == pytest.approx(0.1)


def test_frobenius_error_anchor_convention():
    M_star = np.diag([4.0, 1.0])
    tau, err = frobenius_error(np.diag([4.0, 1.0]), M_star, convention="anchor",
                               anchor=1)
    assert tau == 1.0 and err == 0.0
    with pytest.raises(ValueError, match="anchor"):
        frobenius_error(M_star, M_star, convention="anchor")
    with pytest.raises(ValueError, match="convention"):
        frobenius_error(M_star, M_star, convention="spectral")


def test_frobenius_error_detects_wrong_scale():
    M_star = np.eye(3)
    tau, err = frobenius_error(2.0 * np.eye(3), M_star)
    assert tau == 1.0
    assert err == pytest.approx(math.sqrt(3.0))


# ---------------------------------------------------------------------------
# regularity audits


def test_taylor_audit_conforming_bound():
    truth = DiagonalGaussianKL(1)
    dom = Domain.box([0.0], [0.1])
    m3 = truth.third_derivative_bound(0.1)
    params = fixture_smoothness(truth, dom)
    assert params.M_third == m3
    res = audit_taylor(truth, params, dom, radius=0.1, n_samples=3000,
                       rng=np.random.default_rng(0))
    assert res["ok"]
    assert res["max_ratio"] == pytest.approx(0.9265370110786337, rel=1e-12)
    assert res["n_used"] == 1792
    assert res["constant"] == pytest.approx(m3 / 6.0)


def test_taylor_audit_halved_constant_fails():
    """Claiming half the true third-derivative bound must be refuted."""
    truth = DiagonalGaussianKL(1)
    dom = Domain.box([0.0], [0.1])
    m3 = truth.third_derivative_bound(0.1)
    halved = dataclasses.replace(fixture_smoothness(truth, dom), M_third=0.5 * m3)
    res = audit_taylor(truth, halved, dom, radius=0.1, n_samples=3000,
                       rng=np.random.default_rng(0))
    assert not res["ok"]
    assert res["max_ratio"] == pytest.approx(1.8530740221572675, rel=1e-12)


def test_taylor_audit_quadratic_fixture_zero_residual(rng):
    truth = SquaredMahalanobis(np.array([[1.0, 0.2], [0.2, 0.7]]))
    dom = Domain.unit_box(2)
    params = fixture_smoothness(truth, dom, m_third_floor=1e-6)
    res = audit_taylor(truth, params, dom, radius=0.5, n_samples=2000, rng=rng)
    assert res["ok"]
    assert res["max_ratio"] <= 1e-3  # residual is exactly 0 up to rounding


def test_sandwich_audit_quadratic_fixture(rng):
    truth = SquaredMahalanobis(np.array([[1.0, 0.1], [0.1, 0.8]]))
    dom = Domain.unit_box(2)
    params = fixture_smoothness(truth, dom, m_third_floor=1.0)
    res = audit_quadratic_sandwich(truth, params, dom, 5000, rng)
    assert res["ok"]
    assert res["n_used"] > 2000
    assert res["min_lower_margin"] >= 0.0
    assert res["min_upper_margin"] >= 0.0
    assert res["radius"] <= dom.diameter()


def test_sandwich_audit_inflated_lower_band_fails(rng):
    """eig_lo four times too large breaks the lower quadratic bound."""
    truth = SquaredMahalanobis(np.eye(2))
    dom = Domain.unit_box(2)
    params = SmoothnessParams(alpha=1.0, L_smooth=2.0, M_third=1.0,
                              eig_lo=1.0 * 4.5, eig_hi=4.6, L_hess=1.0)
    res = audit_quadratic_sandwich(truth, params, dom, 5000, rng)
    assert not res["ok"]
    assert res["min_lower_margin"] < 0.0


def test_hessian_band_audit():
    H_star = np.diag([2.0, 1.0])
    params = SmoothnessParams(alpha=1.0, L_smooth=1.0, M_third=1.0,
                              eig_lo=1.0, eig_hi=2.0, L_hess=1.0)
    good = np.diag([1.0, 0.5])  # tau = 1/2, eigs in [0.25, 2.0]
    res = audit_hessian_band(good, H_star, anchor=0, params=params)
    assert res["ok"] and res["tau"] == 0.5
    assert res["band"] == [0.25, 2.0]
    bad = np.diag([1.0, 0.2])
    assert not audit_hessian_band(bad, H_star, anchor=0, params=params)["ok"]


# ---------------------------------------------------------------------------
# query budgets


def test_budget_thm1_hand_arithmetic():
    # n=8: m=7, ceil(7 log2 7) = ceil(19.651) = 20, per-pivot 27, total 216
    assert query_budget("thm1", n=8) == 216.0
    assert query_budget("thm1", n=2) == 2.0  # m=1: no sorting, one comparison slot


def test_budget_thm1_bounds_real_run(rng):
    pts = rng.normal(size=(32, 3))
    truth = SqrtMahalanobis(np.eye(3))
    oracle = CountingOracle(truth)
    learn_finite_distance(pts, oracle)
    assert oracle.query_count <= query_budget("thm1", n=32)
    assert query_budget("thm1", n=32) == 32 * (math.ceil(31 * math.log2(31)) + 31)


def test_budget_thm4_hand_arithmetic():
    # p=4, kappa=10, eps=1e-3: 10 * log2(2*16*100/1e-3) + 4
    expected = 10.0 * math.log2(3_200_000.0) + 4.0
    assert query_budget("thm4", p=4, kappa=10.0, eps=1e-3) == pytest.approx(expected)


def test_budget_thm5_hand_arithmetic():
    expected = 3.0 * math.log2(2 * 4 * 16.0 / 1e-2) + 2.0
    assert query_budget("thm5", p=2, eps=1e-2, eig_hi=2.0,
                        eig_lo=0.5) == pytest.approx(expected)


def test_budget_thm6_composition():
    local = query_budget("thm5", p=2, eps=0.05, eig_hi=2.0, eig_lo=0.5)
    expected = 2.0 * (9.0 * math.log2(3.0) + 3.0 * local)
    assert query_budget("thm6", n_centers=3, p=2, xi=0.05, eig_hi=2.0,
                        eig_lo=0.5) == pytest.approx(expected)
    # single center: the table term uses log2(max(N,2)) to stay meaningful
    one = query_budget("thm6", n_centers=1, p=2, xi=0.05, eig_hi=2.0, eig_lo=0.5)
    assert one == pytest.approx(2.0 * (1.0 + local))


def test_budget_unknown_formula():
    with pytest.raises(ValueError, match="formula"):
        query_budget("thm99", n=3)


# ---------------------------------------------------------------------------
# fixture smoothness profiles


def test_fixture_smoothness_sqrt_kind():
    M = np.diag([1.0, 4.0])
    truth = SqrtMahalanobis(M)
    params = fixture_smoothness(truth, Domain.unit_box(2))
    assert params.eig_lo == 1.0 and params.eig_hi == 4.0
    assert params.L_smooth == 2.0  # sqrt of the top eigenvalue
    assert params.alpha == 1.0


def test_fixture_smoothness_squared_kind():
    M = np.array([[1.0, 0.05], [0.05, 1.02]])
    truth = SquaredMahalanobis(M)
    dom = Domain.unit_box(2)
    params = fixture_smoothness(truth, dom, m_third_floor=1.0, l_hess_floor=1.0)
    w = np.linalg.eigvalsh(M)
    assert params.eig_lo == pytest.approx(w.min())
    assert params.eig_hi == pytest.approx(w.max())
    assert params.L_smooth == pytest.approx(w.max() * math.sqrt(2.0))
    assert params.M_third == 1.0 and params.L_hess == 1.0
    # curvature radius 3*lo/2p^1.5 ~ 0.5 < diam: a finite separation floor exists
    assert math.isfinite(params.delta_floor)
    assert params.delta_floor > 0


def test_fixture_smoothness_squared_tiny_floor_infinite_separation():
    truth = SquaredMahalanobis(np.eye(2))
    params = fixture_smoothness(truth, Domain.unit_box(2))  # floor 1e-6
    # curvature radius ~ 5e5 spans the domain: no separation scale is needed
    assert math.isinf(params.delta_floor)


def test_fixture_smoothness_varying_kind():
    truth = VaryingHessianQuadratic(np.diag([1.1, 0.9]), amplitude=0.1)
    dom = Domain.unit_box(2)
    params = fixture_smoothness(truth, dom, m_third_floor=1.0, l_hess_floor=1.0)
    lo, hi = truth.eig_band()
    assert params.eig_lo == pytest.approx(lo)
    assert params.eig_hi == pytest.approx(hi)
    assert params.L_hess == pytest.approx(max(truth.hessian_lipschitz(), 1.0))
    diam = dom.diameter()
    assert params.L_smooth == pytest.approx(hi * diam + 0.5 * params.L_hess * diam ** 2)


def test_fixture_smoothness_kl_kind():
    truth = DiagonalGaussianKL(3)
    dom = Domain.box([0.0, 0.0, 0.0], [0.1, 0.1, 0.1])
    params = fixture_smoothness(truth, dom)
    assert params.eig_lo == 0.5 and params.eig_hi == 0.5
    assert params.M_third == pytest.approx(0.5 * math.exp(0.1))
    assert params.condition == 1.0
    assert math.isinf(params.delta_floor)  # curvature radius spans this small box


def test_fixture_smoothness_kl_lipschitz_honest(rng):
    """L_smooth must dominate the max gradient norm over the domain."""
    truth = DiagonalGaussianKL(2)
    dom = Domain.box([0.0, 0.0], [0.5, 0.5])
    params = fixture_smoothness(truth, dom)
    X = dom.sample_uniform(rng, 2000)
    Y = dom.sample_uniform(rng, 2000)
    d = truth.distance_batch(X, Y)
    lip = np.abs(d) / np.maximum(np.linalg.norm(Y - X, axis=1), 1e-300)
    assert lip.max() <= params.L_smooth + 1e-12


def test_fixture_smoothness_unknown_kind():
    class Weird:
        kind = "weird"

    with pytest.raises(ValueError, match="weird"):
        fixture_smoothness(Weird(), Domain.unit_box(2))

"""Additive (cover + ranks) and multiplicative (hybrid rank/quadratic) learners."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from tripletdist import (
    AdditiveModel,
    CountingOracle,
    CoverSizeError,
    Domain,
    EpsCover,
    HybridDistance,
    MultiplicativeThresholds,
    RankTable,
    SmoothnessParams,
    SqrtMahalanobis,
    SquaredMahalanobis,
    VaryingHessianQuadratic,
    additive_radius,
    build_cover,
    check_additive,
    check_multiplicative,
    learn_additive,
    learn_finite_distance,
    learn_multiplicative,
    learn_multiplicative_autoscale,
    multiplicative_thresholds,
    near_pair_triplets,
    sample_triplets,
)
from tripletdist import _kernels
from tripletdist.evaluation import (
    audit_hessian_band,
    audit_quadratic_sandwich,
    fixture_smoothness,
    query_budget,
)


def _params(**over) -> SmoothnessParams:
    base = dict(alpha=1.0, L_smooth=1.0, M_third=1.0, eig_lo=0.5, eig_hi=2.0,
                L_hess=1.0)
    base.update(over)
    return SmoothnessParams(**base)


# ---------------------------------------------------------------------------
# cover radius rules


def test_thm3_radius_linear_case():
    assert additive_radius(0.2, _params()) == pytest.approx(0.05)  # 0.2 / (4*1)


def test_thm3_radius_caps_at_one():
    assert additive_radius(100.0, _params()) == 1.0


def test_thm3_radius_holder_exponent():
    params = _params(alpha=0.5, L_smooth=1.0)
    assert additive_radius(0.2, params) == pytest.approx(0.05 ** 2)


def test_radius_rejects_bad_inputs():
    with pytest.raises(ValueError):
        additive_radius(0.0, _params())


# ---------------------------------------------------------------------------
# additive learner


def test_additive_one_dimensional_no_violations(rng):
    """omega = 0.2 on [0,1] with unit slope: 10 centers, 100% agreement."""
    truth = SqrtMahalanobis(np.eye(1))
    dom = Domain.unit_box(1)
    params = fixture_smoothness(truth, dom)
    oracle = CountingOracle(truth)
    model = learn_additive(dom, oracle, omega=0.2, params=params)
    assert model.radius == pytest.approx(0.05)
    assert model.cover.size == 10
    X, Y, Z = sample_triplets(dom, 100_000, rng)
    report = check_additive(truth, model.answer_batch, 0.2, X, Y, Z)
    assert report.eligible > 0
    assert report.violations == 0
    assert model.query_count <= query_budget("thm1", n=model.cover.size)


def test_additive_huge_omega_single_center_vacuous(rng):
    truth = SqrtMahalanobis(np.eye(1))
    dom = Domain.unit_box(1)
    params = fixture_smoothness(truth, dom)
    model = learn_additive(dom, CountingOracle(truth), omega=4.0, params=params)
    assert model.cover.size == 1
    assert model.query_count == 0
    X, Y, Z = sample_triplets(dom, 5000, rng)
    assert (model.answer_batch(X, Y, Z) == 0).all()
    report = check_additive(truth, model.answer_batch, 4.0, X, Y, Z)
    assert report.eligible == 0 and report.violations == 0


def test_additive_explicit_radius_and_missing_params():
    truth = SqrtMahalanobis(np.eye(1))
    dom = Domain.unit_box(1)
    model = learn_additive(dom, CountingOracle(truth), omega=0.2, radius=0.25)
    assert model.cover.size == 2
    with pytest.raises(ValueError, match="params"):
        learn_additive(dom, CountingOracle(truth), omega=0.2)


def test_additive_eval_two_center_example():
    """Hand-built two-center table: eval(0.1, 0.9) = rank of center 1 = 1."""
    truth = SqrtMahalanobis(np.eye(1))
    centers = np.array([[0.0], [1.0]])
    table = learn_finite_distance(centers, CountingOracle(truth))
    model = AdditiveModel(cover=EpsCover(centers=centers, radius=0.5), table=table,
                          omega=0.2, radius=0.5, query_count=0)
    assert model.eval([0.1], [0.9]) == 1.0
    assert model.eval([0.1], [0.4]) == 0.0  # same nearest center
    assert model.answer([0.1], [0.4], [0.9]) == -1


def test_additive_same_center_distance_zero(rng):
    truth = SqrtMahalanobis(np.eye(2))
    dom = Domain.unit_box(2)
    model = learn_additive(dom, CountingOracle(truth), omega=0.5, radius=0.4)
    X = dom.sample_uniform(rng, 100)
    for x in X[:20]:
        assert model.eval(x, x) == 0.0


def _assert_batch_size_invariant(model, X, Y, Z):
    """Scalar answers and batches of 1, 7 and all rows agree bit for bit."""
    full = model.answer_batch(X, Y, Z)
    for size in (1, 7):
        parts = [model.answer_batch(X[s:s + size], Y[s:s + size], Z[s:s + size])
                 for s in range(0, X.shape[0], size)]
        np.testing.assert_array_equal(np.concatenate(parts), full)
    scalar = [model.answer(X[i], Y[i], Z[i]) for i in range(X.shape[0])]
    np.testing.assert_array_equal(scalar, full)


def test_additive_answer_batch_matches_scalar(rng):
    truth = SquaredMahalanobis(np.array([[1.0, 0.2], [0.2, 0.6]]))
    dom = Domain.unit_box(2)
    model = learn_additive(dom, CountingOracle(truth), omega=0.3, radius=0.15)
    _assert_batch_size_invariant(model, *sample_triplets(dom, 1000, rng))


def test_additive_json_round_trip(rng):
    truth = SqrtMahalanobis(np.eye(2))
    dom = Domain.unit_box(2)
    model = learn_additive(dom, CountingOracle(truth), omega=0.5, radius=0.3)
    data = json.loads(json.dumps(model.to_json_dict()))
    back = AdditiveModel.from_json_dict(data)
    X, Y, Z = sample_triplets(dom, 100, rng)
    np.testing.assert_array_equal(back.answer_batch(X, Y, Z),
                                  model.answer_batch(X, Y, Z))


def test_additive_answer_batch_memory_stays_bounded(rng):
    """120k triplets on the 361-center benchmark grid peak under 5.5 MiB: the
    three index arrays and the rank difference, with the lookup's temporaries
    bounded by its block size."""
    dom = Domain.unit_box(2)
    cover = build_cover(dom, 0.0375)
    assert cover.size == 361
    ranks = rng.integers(1, 361, (361, 361))
    np.fill_diagonal(ranks, 0)
    model = AdditiveModel(omega=0.3, radius=0.0375, query_count=0, cover=cover,
                          table=RankTable(points=cover.centers, ranks=ranks))
    X, Y, Z = sample_triplets(dom, 120_000, rng)
    tracemalloc.start()
    try:
        model.answer_batch(X, Y, Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2 ** 20


@pytest.mark.parametrize("kind", [SquaredMahalanobis, SqrtMahalanobis],
                         ids=["squared", "sqrt"])
def test_additive_learning_invariant_to_power_of_two_scaling(rng, kind):
    """Scaling the truth's matrix by 4 or 2**-6 scales every distance exactly, so
    no label moves: the ranks, the query count and every answer are identical."""
    M = np.array([[0.42, 0.08], [0.08, 0.33]])
    dom = Domain.unit_box(2)
    models = [learn_additive(dom, CountingOracle(kind(s * M)), omega=0.1, radius=0.1)
              for s in (1.0, 4.0, 2.0 ** -6)]
    assert models[0].cover.size == 64
    X, Y, Z = sample_triplets(dom, 5000, rng)
    base = models[0].answer_batch(X, Y, Z)
    for model in models[1:]:
        np.testing.assert_array_equal(model.table.ranks, models[0].table.ranks)
        assert model.query_count == models[0].query_count
        np.testing.assert_array_equal(model.answer_batch(X, Y, Z), base)


def test_additive_far_point_answers_from_its_nearest_boundary_center():
    """x far enough out that its squared distance to every center overflows is
    answered from the same boundary center as an x just outside the box: from the
    top-right center y is nearer, from center 0 z would be."""
    dom = Domain.unit_box(2)
    model = learn_additive(dom, CountingOracle(SqrtMahalanobis(np.eye(2))), omega=0.5,
                           radius=0.2)
    assert model.cover.size == 16
    X = np.array([[1e3, 0.9], [1e200, 0.9]])
    Y = np.tile([0.9, 0.9], (2, 1))
    Z = np.tile([0.1, 0.1], (2, 1))
    with np.errstate(over="ignore"):
        answers = model.answer_batch(X, Y, Z)
    np.testing.assert_array_equal(answers, [-1, -1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_additive_rejects_non_finite_points(rng, bad):
    """A NaN or infinite coordinate in x, y or z raises, naming the row count,
    instead of snapping the point to some center."""
    truth = SquaredMahalanobis(np.array([[1.0, 0.2], [0.2, 0.6]]))
    dom = Domain.unit_box(2)
    model = learn_additive(dom, CountingOracle(truth), omega=0.3, radius=0.15)
    triplet = sample_triplets(dom, 10, rng)
    for k in range(3):
        batch = [A.copy() for A in triplet]
        batch[k][[1, 4, 7], k % 2] = bad
        with pytest.raises(ValueError, match="non-finite coordinate in 3 of 10 rows"):
            model.answer_batch(*batch)
        with pytest.raises(ValueError, match="non-finite coordinate in 1 of 1 rows"):
            model.answer(*(A[4] for A in batch))
    x, y = triplet[0][0], triplet[1][0]
    for pair in (([bad, 0.5], y), (x, [0.5, bad])):
        with pytest.raises(ValueError, match="non-finite"):
            model.eval(*pair)


# ---------------------------------------------------------------------------
# multiplicative thresholds


def test_thresholds_formulas_recomputed_independently():
    params = _params(eig_lo=0.5, eig_hi=2.0, M_third=1.5, L_hess=0.8,
                     delta_floor=0.3, kappa0=100.0)
    omega = 0.5
    p = 2
    th = multiplicative_thresholds(params, omega, p)
    e, E, M, L, k0 = 0.5, 2.0, 1.5, 0.8, 100.0
    t1 = (e / (8 * E)) * (9 * e * e / (4 * M * M * p ** 3))
    t2 = 4 * 0.3 * E / (e * e * k0)
    t3 = (e * omega / (8 * (omega + 2)
                       * ((M * p ** 1.5 / 6) * math.sqrt(8 * k0 * E / e)
                          + (L / 2) * math.sqrt(omega)))) ** 2
    beta_hat = min(t1, t2, t3)
    assert th.terms["curvature"] == pytest.approx(t1, rel=1e-12)
    assert th.terms["separation"] == pytest.approx(t2, rel=1e-12)
    assert th.terms["perturbation"] == pytest.approx(t3, rel=1e-12)
    assert th.beta_hat == pytest.approx(beta_hat, rel=1e-12)
    assert th.theta == pytest.approx(4 * beta_hat, rel=1e-12)
    assert th.eps == pytest.approx(
        math.sqrt(e * e * beta_hat * omega / (16 * E * E * (1 + omega))), rel=1e-12)
    assert th.xi == pytest.approx(e * omega / (4 * E * (omega + 2)), rel=1e-12)


def test_thresholds_infinite_separation_floor():
    params = _params(delta_floor=math.inf)
    th = multiplicative_thresholds(params, 0.5, 2)
    assert math.isinf(th.terms["separation"])
    assert th.beta_hat == pytest.approx(
        min(th.terms["curvature"], th.terms["perturbation"]))
    blob = th.to_json_dict()
    assert blob["terms"]["separation"] == "inf"


def test_thresholds_reject_bad_omega():
    with pytest.raises(ValueError):
        multiplicative_thresholds(_params(), 0.0, 2)


# ---------------------------------------------------------------------------
# hybrid model semantics (hand-built instances)


def _two_center_hybrid(theta: float) -> HybridDistance:
    truth = SqrtMahalanobis(np.eye(1))
    centers = np.array([[0.0], [1.0]])
    table = learn_finite_distance(centers, CountingOracle(truth))
    th = MultiplicativeThresholds(beta_hat=theta / 4.0, eps=0.5, xi=0.1,
                                  theta=theta, omega=0.5, terms={})
    return HybridDistance(cover=EpsCover(centers=centers, radius=0.5), table=table,
                          hessians=np.array([[[1.0]], [[1.0]]]), theta=theta,
                          thresholds=th, omega=0.5, query_count=0)


def test_hybrid_eval_identical_points():
    model = _two_center_hybrid(theta=0.25)
    assert model.eval([0.3], [0.3]) == 0.0


def test_hybrid_eval_boundary_goes_local():
    model = _two_center_hybrid(theta=0.25)
    # form = 0.5^2 = theta exactly: strictly-greater test sends it local
    assert model.eval([0.0], [0.5]) == pytest.approx(0.25)


def test_hybrid_eval_far_pair_rank_plus_theta():
    model = _two_center_hybrid(theta=0.04)
    # form = 0.81 > theta; c(x)=0, c(y)=1, rank 1
    assert model.eval([0.05], [0.95]) == pytest.approx(1.0 + 0.04)


def test_hybrid_answer_both_local_quadratic_comparison():
    model = _two_center_hybrid(theta=0.05)
    # squared forms 0.01 vs 0.04, both <= theta
    assert model.answer([0.0], [0.1], [0.2]) == -1
    assert model.answer([0.0], [0.2], [0.1]) == 1


def test_hybrid_answer_mixed_cases():
    model = _two_center_hybrid(theta=0.05)
    assert model.answer([0.0], [0.9], [0.1]) == 1   # l_xy > theta >= l_xz
    assert model.answer([0.0], [0.1], [0.9]) == -1  # mirrored


def test_hybrid_answer_both_global_uses_table():
    model = _two_center_hybrid(theta=0.01)
    x, y, z = [0.05], [0.95], [0.9]
    assert model.answer(x, y, z) == model.table.answer(0, 1, 1)  # both map to center 1
    # y at the far center, z back at the near one: rank 1 vs rank 0
    assert model.answer([0.05], [0.95], [0.12]) == 1


def test_hybrid_answer_batch_matches_scalar(rng):
    """Triplets whose forms sit exactly at theta (they go local) answer alike in
    every batch size and through the scalar rule."""
    model = _two_center_hybrid(theta=0.25)
    X = rng.integers(0, 33, (1000, 1)) / 64.0          # x + 0.5 stays exact
    Y = rng.uniform(0, 1, (1000, 1))
    Z = rng.uniform(0, 1, (1000, 1))
    Y[::3] = X[::3] + 0.5                               # form exactly theta
    Z[::5] = X[::5] + 0.5
    at_theta = ((Y - X)[:, 0] ** 2 == 0.25) | ((Z - X)[:, 0] ** 2 == 0.25)
    assert at_theta.sum() > 400
    _assert_batch_size_invariant(model, X, Y, Z)
    # at theta the pair is local: 0.25 < 0.36, so y is nearer
    assert model.answer([0.0], [0.5], [0.6]) == -1


def test_hybrid_consistency_with_eval_in_pitched_cases(rng):
    """answer == sign(eval(x,y) - eval(x,z)) in both-local and both-global cases."""
    model = _two_center_hybrid(theta=0.05)
    X = rng.uniform(0, 1, (500, 1))
    Y = rng.uniform(0, 1, (500, 1))
    Z = rng.uniform(0, 1, (500, 1))
    cases = model.case_counts(X, Y, Z)
    assert cases["both_local"] > 0 and cases["both_global"] > 0
    for i in range(500):
        x, y, z = X[i], Y[i], Z[i]
        # unit Hessians at both centers: the local form is the squared gap
        lxy = float((y - x)[0] ** 2)
        lxz = float((z - x)[0] ** 2)
        both_local = lxy <= model.theta and lxz <= model.theta
        both_global = lxy > model.theta and lxz > model.theta
        if both_local or both_global:
            diff = model.eval(x, y) - model.eval(x, z)
            expected = 0 if diff == 0 else (1 if diff > 0 else -1)
            assert model.answer(x, y, z) == expected


def test_hybrid_json_round_trip(rng):
    model = _two_center_hybrid(theta=0.05)
    data = json.loads(json.dumps(model.to_json_dict()))
    assert set(data) == {"cover", "table", "hessians", "theta", "thresholds", "omega",
                         "query_count", "scale"}
    assert set(data["thresholds"]) == {"beta_hat", "eps", "xi", "theta", "omega", "terms"}
    back = HybridDistance.from_json_dict(data)
    X = rng.uniform(0, 1, (100, 1))
    Y = rng.uniform(0, 1, (100, 1))
    Z = rng.uniform(0, 1, (100, 1))
    np.testing.assert_array_equal(back.answer_batch(X, Y, Z),
                                  model.answer_batch(X, Y, Z))
    assert back.theta == model.theta


# ---------------------------------------------------------------------------
# end-to-end multiplicative learner


MULT_MATRIX = np.array([[1.0, 0.05], [0.05, 1.02]])


@pytest.fixture(scope="module")
def hybrid_learned():
    """Autoscaled hybrid model on the constant-Hessian fixture (omega = 0.5)."""
    truth = SquaredMahalanobis(MULT_MATRIX)
    dom = Domain.unit_box(2)
    params_fn = lambda d: fixture_smoothness(truth, d, m_third_floor=1.0,  # noqa: E731
                                             l_hess_floor=1.0)
    model, report = learn_multiplicative_autoscale(dom, truth, 0.5, params_fn,
                                                   max_centers=120)
    final_dom = dom.shrunk(model.scale) if model.scale != 1.0 else dom
    return truth, final_dom, params_fn(final_dom), model, report


def test_multiplicative_zero_violations(hybrid_learned, rng):
    truth, dom, params, model, _ = hybrid_learned
    X, Y, Z = sample_triplets(dom, 50_000, rng)
    scales = [model.cover.radius, math.sqrt(model.thresholds.beta_hat)]
    nX, nY, nZ = near_pair_triplets(dom, scales, 5_000, rng)
    X = np.concatenate([X, nX]); Y = np.concatenate([Y, nY]); Z = np.concatenate([Z, nZ])
    report = check_multiplicative(truth, model.answer_batch, 0.5, X, Y, Z)
    assert report.eligible > 0
    assert report.violations == 0
    cases = model.case_counts(X, Y, Z)
    assert all(cases[k] > 0 for k in ("both_global", "both_local", "far_near", "near_far"))


def test_multiplicative_zero_theta_control_fails(hybrid_learned, rng):
    """Forcing theta = 0 must produce violations; the checker can fail."""
    truth, dom, params, model, _ = hybrid_learned
    broken = HybridDistance(cover=model.cover, table=model.table,
                            hessians=model.hessians, theta=0.0,
                            thresholds=model.thresholds, omega=model.omega,
                            query_count=model.query_count, scale=model.scale)
    X, Y, Z = sample_triplets(dom, 50_000, rng)
    nX, nY, nZ = near_pair_triplets(dom, [model.cover.radius], 5_000, rng)
    X = np.concatenate([X, nX]); Y = np.concatenate([Y, nY]); Z = np.concatenate([Z, nZ])
    report = check_multiplicative(truth, broken.answer_batch, 0.5, X, Y, Z)
    assert report.violations > 0
    assert not report.ok


def test_learned_hybrid_batch_size_invariant(hybrid_learned, rng):
    _, dom, _, model, _ = hybrid_learned
    X, Y, Z = sample_triplets(dom, 700, rng)
    nX, nY, nZ = near_pair_triplets(dom, [model.cover.radius], 300, rng)
    _assert_batch_size_invariant(model, np.concatenate([X, nX]), np.concatenate([Y, nY]),
                                 np.concatenate([Z, nZ]))


def test_multiplicative_query_budget(hybrid_learned):
    _, dom, params, model, _ = hybrid_learned
    budget = query_budget("thm6", n_centers=model.cover.size, p=2,
                          xi=model.thresholds.xi, eig_hi=params.eig_hi,
                          eig_lo=params.eig_lo)
    assert model.query_count <= budget


def test_multiplicative_autoscale_report(hybrid_learned):
    _, _, _, model, report = hybrid_learned
    assert set(report) >= {"scale", "halvings", "centers", "eps", "xi", "theta",
                           "beta_hat", "domain_sides", "query_count"}
    assert report["centers"] == model.cover.size <= 120
    assert report["scale"] == model.scale == 0.5 ** report["halvings"]
    assert report["query_count"] == model.query_count


def test_multiplicative_hessians_psd_and_banded(hybrid_learned):
    """Every learned center Hessian is PSD and obeys the eigenvalue band."""
    truth, _, params, model, _ = hybrid_learned
    for c, H in zip(model.cover.centers, model.hessians):
        assert np.linalg.eigvalsh(H).min() >= -1e-13
        H_star = truth.hessian_at(c)
        anchor = int(np.argmax(np.diag(H_star)))
        assert audit_hessian_band(H, H_star, anchor, params)["ok"]


def test_multiplicative_small_distance_lower_bound(hybrid_learned, rng):
    """Learned form >= 2 t beta_hat implies true d >= e^2 t beta_hat / (4E)."""
    truth, dom, params, model, _ = hybrid_learned
    e, E = params.eig_lo, params.eig_hi
    bh, k0 = model.thresholds.beta_hat, params.kappa0
    P = dom.sample_uniform(rng, 30_000)
    Q = dom.sample_uniform(rng, 30_000)
    ix = _kernels.assign_centers(P, model.cover.centers)[0]
    form = _kernels.quad_forms_by_index(Q - P, model.hessians, ix)
    t = np.minimum(form / (2.0 * bh), k0)
    d = truth.distance_batch(P, Q)
    assert (d >= e * e * t * bh / (4.0 * E) - 1e-12).all()


def test_multiplicative_deterministic(hybrid_learned):
    truth, _, _, model, report = hybrid_learned
    dom = Domain.unit_box(2)
    params_fn = lambda d: fixture_smoothness(truth, d, m_third_floor=1.0,  # noqa: E731
                                             l_hess_floor=1.0)
    again, report2 = learn_multiplicative_autoscale(dom, truth, 0.5, params_fn,
                                                    max_centers=120)
    np.testing.assert_array_equal(again.hessians, model.hessians)
    np.testing.assert_array_equal(again.table.ranks, model.table.ranks)
    assert report2 == report


def _triplets_in_every_branch(model, dom, rng):
    """Uniform triplets plus near pairs at the cover radius and sqrt(beta_hat), and
    each branch's rows (forms computed as the rule does)."""
    X, Y, Z = sample_triplets(dom, 50_000, rng)
    scales = [model.cover.radius, math.sqrt(model.thresholds.beta_hat)]
    nX, nY, nZ = near_pair_triplets(dom, scales, 5_000, rng)
    X, Y, Z = np.concatenate([X, nX]), np.concatenate([Y, nY]), np.concatenate([Z, nZ])
    ix = _kernels.assign_centers(X, model.cover.centers)[0]
    yg = _kernels.quad_forms_by_index(Y - X, model.hessians, ix) > model.theta
    zg = _kernels.quad_forms_by_index(Z - X, model.hessians, ix) > model.theta
    rows = {"both_local": ~yg & ~zg, "far_near": yg & ~zg, "near_far": ~yg & zg,
            "both_global": yg & zg}
    assert model.case_counts(X, Y, Z) == {k: int(m.sum()) for k, m in rows.items()}
    return (X, Y, Z), rows


def test_answers_antisymmetric_in_y_and_z(hybrid_learned, rng):
    """Swapping y and z negates every answer, in each branch of the hybrid rule and
    for the additive model."""
    _, dom, _, hybrid, _ = hybrid_learned
    (X, Y, Z), rows = _triplets_in_every_branch(hybrid, dom, rng)
    assert all(m.any() for m in rows.values())
    np.testing.assert_array_equal(hybrid.answer_batch(X, Y, Z), -hybrid.answer_batch(X, Z, Y))
    truth = SquaredMahalanobis(np.array([[1.0, 0.2], [0.2, 0.6]]))
    additive = learn_additive(Domain.unit_box(2), CountingOracle(truth), omega=0.3, radius=0.15)
    X, Y, Z = sample_triplets(Domain.unit_box(2), 20_000, rng)
    answers = additive.answer_batch(X, Y, Z)
    assert set(np.unique(answers)) == {-1, 0, 1}
    np.testing.assert_array_equal(answers, -additive.answer_batch(X, Z, Y))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hybrid_rejects_non_finite_points_in_every_branch(hybrid_learned, rng, bad):
    """A NaN or infinite coordinate in x, y or z of a row that would go down any
    branch raises, naming the row count, from every serving entry point."""
    _, dom, _, model, _ = hybrid_learned
    triplet, rows = _triplets_in_every_branch(model, dom, rng)
    for branch, mask in rows.items():
        r = np.flatnonzero(mask)[:2]
        assert r.size == 2, branch
        for k in range(3):
            batch = [A.copy() for A in triplet]
            batch[k][r, k % 2] = bad
            message = f"non-finite coordinate in 2 of {len(batch[0])} rows"
            for serve in (model.answer_batch, model.case_counts):
                with pytest.raises(ValueError, match=message):
                    serve(*batch)
            with pytest.raises(ValueError, match="non-finite coordinate in 1 of 1 rows"):
                model.answer(*(A[r[0]] for A in batch))
            if k:
                with pytest.raises(ValueError, match="non-finite"):
                    model.eval(batch[0][r[0]], batch[k][r[0]])
    with pytest.raises(ValueError, match="non-finite"):
        model.eval([bad, 0.0], [0.0, 0.0])


def test_override_theta_infinite_all_local(rng):
    """theta = +inf sends every pair local; answers match quadratic comparison."""
    truth = SquaredMahalanobis(MULT_MATRIX)
    dom = Domain.box([0.0, 0.0], [0.05, 0.05])
    params = fixture_smoothness(truth, dom, m_third_floor=1.0, l_hess_floor=1.0)
    oracle = CountingOracle(truth)
    model = learn_multiplicative(dom, oracle, 0.5, params,
                                 overrides={"theta": math.inf, "eps": 0.02},
                                 max_centers=50)
    X, Y, Z = sample_triplets(dom, 5000, rng)
    cases = model.case_counts(X, Y, Z)
    assert cases["both_local"] == 5000
    answers = model.answer_batch(X, Y, Z)
    for i in range(0, 5000, 50):
        diff = model.eval(X[i], Y[i]) - model.eval(X[i], Z[i])
        expected = 0 if diff == 0 else (1 if diff > 0 else -1)
        assert answers[i] == expected
    # within the strong-convexity zone the local answers also match the truth
    report = check_multiplicative(truth, model.answer_batch, 0.5, X, Y, Z)
    assert report.violations == 0


def test_override_eps_single_center_two_regimes(rng):
    """eps = diameter collapses the cover to one center; theta still splits regimes."""
    truth = SquaredMahalanobis(MULT_MATRIX)
    dom = Domain.unit_box(2)
    params = fixture_smoothness(truth, dom, m_third_floor=1.0, l_hess_floor=1.0)
    oracle = CountingOracle(truth)
    theta = 0.05
    model = learn_multiplicative(dom, oracle, 0.5, params,
                                 overrides={"eps": dom.diameter(), "theta": theta,
                                            "xi": 0.01},
                                 max_centers=10)
    assert model.cover.size == 1
    x = np.array([0.5, 0.5])
    near = np.array([0.55, 0.5])
    far = np.array([0.95, 0.9])
    assert model.eval(x, near) < theta           # local quadratic value
    assert model.eval(x, far) == pytest.approx(theta)  # rank(0,0)=0 plus theta
    assert model.answer(x, far, near) == 1
    assert model.answer(x, near, far) == -1


def test_multiplicative_cover_cap_without_autoscale():
    truth = SquaredMahalanobis(MULT_MATRIX)
    dom = Domain.unit_box(2)
    params = fixture_smoothness(truth, dom, m_third_floor=1.0, l_hess_floor=1.0)
    with pytest.raises(CoverSizeError):
        learn_multiplicative(dom, CountingOracle(truth), 0.5, params, max_centers=120)


def test_autoscale_raises_when_halvings_exhausted():
    truth = SquaredMahalanobis(MULT_MATRIX)
    dom = Domain.unit_box(2)
    params_fn = lambda d: fixture_smoothness(truth, d, m_third_floor=1.0,  # noqa: E731
                                             l_hess_floor=1.0)
    with pytest.raises(CoverSizeError):
        learn_multiplicative_autoscale(dom, truth, 0.5, params_fn, max_centers=4,
                                       max_halvings=1)


# ---------------------------------------------------------------------------
# quadratic sandwich (smoothness/strong-convexity zone)


def test_quadratic_sandwich_kl_fixture(rng):
    from tripletdist import DiagonalGaussianKL

    truth = DiagonalGaussianKL(2)
    dom = Domain.box([0.0, 0.0], [0.5, 0.5])
    params = fixture_smoothness(truth, dom)
    result = audit_quadratic_sandwich(truth, params, dom, 10_000, rng)
    assert result["ok"]
    assert result["n_used"] > 5000

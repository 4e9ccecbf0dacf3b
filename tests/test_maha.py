"""Mahalanobis-matrix and local-Hessian recovery via coefficient binary search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletdist import (
    AdmissibilityError,
    BinarySearchDivergence,
    CountingOracle,
    MahaModel,
    SmoothnessParams,
    SqrtMahalanobis,
    SquaredMahalanobis,
    VaryingHessianQuadratic,
    binary_search_coefficient,
    extended_basis,
    learn_local_hessian,
    learn_mahalanobis,
    sym_unvec,
    sym_vec,
)
from tripletdist.evaluation import fixture_smoothness, frobenius_error, query_budget
from tripletdist.maha import (
    design_matrix,
    find_anchor,
    hessian_eps_bound,
    per_coefficient_budget,
    solve_model,
)

from conftest import random_spd


# ---------------------------------------------------------------------------
# basis and vectorization


def test_extended_basis_layout():
    U = extended_basis(3)
    assert U.shape == (6, 3)
    np.testing.assert_array_equal(U[:3], np.eye(3))
    # pairs (i < j) scaled to unit norm, in (0,1), (0,2), (1,2) order
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(U[3], [s, s, 0.0])
    np.testing.assert_allclose(U[4], [s, 0.0, s])
    np.testing.assert_allclose(U[5], [0.0, s, s])
    np.testing.assert_allclose(np.linalg.norm(U, axis=1), 1.0)


def test_extended_basis_count():
    for p in range(1, 8):
        assert extended_basis(p).shape == (p * (p + 1) // 2, p)


def test_sym_vec_unvec_round_trip(rng):
    A = rng.standard_normal((4, 4))
    A = A + A.T
    v = sym_vec(A)
    assert v.shape == (10,)
    np.testing.assert_allclose(sym_unvec(v, 4), A, atol=1e-14)


@given(st.integers(0, 2 ** 31), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_sym_vec_is_an_isometry(seed, p):
    """||sym_vec(A)||_2 equals ||A||_F for symmetric A."""
    r = np.random.default_rng(seed)
    A = r.standard_normal((p, p))
    A = A + A.T
    assert np.linalg.norm(sym_vec(A)) == pytest.approx(np.linalg.norm(A), rel=1e-12)


# ---------------------------------------------------------------------------
# design matrix conditioning


@pytest.mark.parametrize("p", [2, 5, 9])
def test_design_matrix_conditioning_spot(p):
    D = design_matrix(p)
    m = p * (p + 1) // 2
    assert D.shape == (m, m)
    s = np.linalg.svd(D, compute_uv=False)
    assert np.linalg.matrix_rank(D) == m
    assert s[-1] ** 2 >= 1.0 / max(2 * p - 1, 4) - 1e-12


def test_design_matrix_solves_forward_coefficients(rng):
    """D vec(M) equals the forward-computed u^T M u coefficients."""
    p = 4
    M = random_spd(p, 5.0, rng)
    U = extended_basis(p)
    coeffs = np.array([u @ M @ u for u in U])
    np.testing.assert_allclose(design_matrix(p) @ sym_vec(M), coeffs, rtol=1e-12)


# ---------------------------------------------------------------------------
# binary search


def _sign_search(c_star: float):
    """Ideal oracle label sign(c - c_star) with exact-zero detection."""

    def label(c: float) -> int:
        if c == c_star:
            return 0
        return 1 if c > c_star else -1

    return label


def test_binary_search_quarter():
    # dyadic target: the bisection lands on it exactly after 1, 0.5, 0.25
    res = binary_search_coefficient(_sign_search(0.25), eps_alg=0.01)
    assert 0.24 <= res.value <= 0.26
    assert res.exact and res.queries == 3


def test_binary_search_non_dyadic_target():
    res = binary_search_coefficient(_sign_search(0.23), eps_alg=0.01)
    assert 0.22 <= res.value <= 0.24
    assert not res.exact


def test_binary_search_exact_hit_first_query():
    res = binary_search_coefficient(_sign_search(1.0), eps_alg=0.01)
    assert res.value == 1.0
    assert res.queries == 1
    assert res.exact


def test_binary_search_near_one():
    res = binary_search_coefficient(_sign_search(1.0 + 1e-7), eps_alg=1e-3)
    assert abs(res.value - 1.0) <= 1e-3


def test_binary_search_rejects_bad_eps():
    with pytest.raises(ValueError):
        binary_search_coefficient(_sign_search(0.5), eps_alg=0.0)


def test_binary_search_divergence_on_unreachable_target():
    with pytest.raises(BinarySearchDivergence):
        binary_search_coefficient(lambda c: -1, eps_alg=1e-6, max_iters=50)


def test_binary_search_budget_large_and_small_targets():
    """Queries stay within doubling + bisection accounting."""
    for c_star in [0.003, 0.4, 1.0 + 1e-9, 7.0, 300.0]:
        eps_alg = 1e-4
        res = binary_search_coefficient(_sign_search(c_star), eps_alg=eps_alg)
        assert abs(res.value - c_star) <= eps_alg
        doubling = max(math.ceil(math.log2(max(c_star, 1.0))), 0) + 1
        bisect = math.ceil(math.log2(max(2.0 * max(c_star, 1.0) / eps_alg, 1.0))) + 1
        assert res.queries <= doubling + bisect


@given(st.floats(1e-3, 50.0), st.floats(1e-6, 1e-2))
@settings(max_examples=80, deadline=None)
def test_binary_search_bracketing_and_accuracy(c_star, eps_alg):
    """Once an upper bound exists, the target never leaves [lo, hi]."""
    probes = []

    def label(c: float) -> int:
        probes.append(c)
        if c == c_star:
            return 0
        return 1 if c > c_star else -1

    res = binary_search_coefficient(label, eps_alg=eps_alg)
    if res.exact:
        assert res.value == c_star
    else:
        assert abs(res.value - c_star) <= eps_alg
        assert res.lo <= c_star <= res.hi
    # replay the search transcript and check the invariant at every step
    lo, hi = 0.0, math.inf
    for c in probes:
        if c == c_star:
            break
        if c > c_star:
            hi = c
        else:
            lo = c
        if math.isfinite(hi):
            assert lo <= c_star <= hi


def test_per_coefficient_budget_formula():
    assert per_coefficient_budget(2, 3.0, 1e-3) == pytest.approx(
        math.log2(2 * 4 * 9 / 1e-3))


# ---------------------------------------------------------------------------
# anchor tournament


def test_find_anchor_prefers_largest_diagonal():
    oracle = CountingOracle(SqrtMahalanobis(np.diag([1.0, 0.25])))
    anchor, queries = find_anchor(oracle, 2)
    assert anchor == 0
    assert queries == 1


def test_find_anchor_identity_keeps_smallest_index():
    oracle = CountingOracle(SqrtMahalanobis(np.eye(4)))
    anchor, queries = find_anchor(oracle, 4)
    assert anchor == 0
    assert queries == 3
    assert oracle.query_count == 3


def test_find_anchor_middle_coordinate():
    oracle = CountingOracle(SqrtMahalanobis(np.diag([0.2, 0.9, 0.5])))
    anchor, _ = find_anchor(oracle, 3)
    assert anchor == 1


def test_find_anchor_uses_exactly_p_minus_one_queries(rng):
    for p in [2, 5, 8]:
        oracle = CountingOracle(SqrtMahalanobis(random_spd(p, 4.0, rng)))
        _, queries = find_anchor(oracle, p)
        assert queries == p - 1
        assert oracle.query_count == p - 1


# ---------------------------------------------------------------------------
# coefficient search against a live oracle (frozen example)


def test_oracle_coefficient_search_quarter():
    """Searching the e2 coefficient of diag(1, 1/4) brackets 0.25."""
    truth = SqrtMahalanobis(np.diag([1.0, 0.25]))
    oracle = CountingOracle(truth)
    x = np.zeros(2)
    y = np.array([1.0, 0.0])  # anchor direction
    u = np.array([0.0, 1.0])

    def label(c: float) -> int:
        return oracle.query(x, x + math.sqrt(c) * y, x + u)

    res = binary_search_coefficient(label, eps_alg=0.01)
    assert 0.24 <= res.value <= 0.26


def test_oracle_coefficient_anchor_direction_is_exact_in_one_query():
    truth = SqrtMahalanobis(np.diag([1.0, 0.25]))
    oracle = CountingOracle(truth)
    x = np.zeros(2)
    y = np.array([1.0, 0.0])

    def label(c: float) -> int:
        return oracle.query(x, x + math.sqrt(c) * y, x + y)

    res = binary_search_coefficient(label, eps_alg=0.01)
    assert res.value == 1.0
    assert res.queries == 1
    assert res.exact


# ---------------------------------------------------------------------------
# model solve


def test_solve_model_round_trips_forward_coefficients():
    """Exact coefficients of diag(2,3)/3 reproduce the matrix to 1e-10."""
    M_star = np.diag([2.0, 3.0])
    tau = 1.0 / 3.0  # anchor = index 1, the larger diagonal
    U = extended_basis(2)
    coeffs = np.array([u @ M_star @ u for u in U]) * tau
    M_pre, M_psd = solve_model(coeffs, 2)
    np.testing.assert_allclose(M_pre, tau * M_star, atol=1e-10)
    np.testing.assert_allclose(M_psd, tau * M_star, atol=1e-10)


def test_solve_model_error_bounded_by_coefficient_noise(rng):
    """||M_pre - M*||_F <= sqrt(2p) ||delta||_2 for perturbed coefficients."""
    for p in [2, 3, 5]:
        M_star = random_spd(p, 6.0, rng)
        U = extended_basis(p)
        exact = np.array([u @ M_star @ u for u in U])
        for _ in range(5):
            delta = rng.uniform(-1e-3, 1e-3, exact.shape)
            M_pre, _ = solve_model(exact + delta, p)
            err = np.linalg.norm(M_pre - M_star)
            assert err <= math.sqrt(2 * p) * np.linalg.norm(delta) + 1e-12


# ---------------------------------------------------------------------------
# end-to-end noiseless recovery


def test_learn_identity_pair_coefficients_near_one():
    truth = SqrtMahalanobis(np.eye(2))
    oracle = CountingOracle(truth)
    model = learn_mahalanobis(oracle, 2, eps=1e-3)
    # for M* = I every pair direction u has u^T M u = 1
    np.testing.assert_allclose(model.coefficients, 1.0, atol=1e-3)
    np.testing.assert_allclose(model.matrix, np.eye(2), atol=1e-3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_learn_mahalanobis_recovers_to_eps(p, rng):
    M_star = random_spd(p, 8.0, rng, unit_max_diag=True)
    oracle = CountingOracle(SqrtMahalanobis(M_star))
    eps = 1e-3
    model = learn_mahalanobis(oracle, p, eps)
    tau, err = frobenius_error(model.matrix, M_star, convention="max-diag")
    assert err <= eps
    budget = query_budget("thm4", p=p, kappa=np.linalg.cond(M_star), eps=eps)
    assert model.query_count <= budget
    assert model.query_count == oracle.query_count


def test_learn_rank_deficient_target():
    M_star = np.diag([1.0, 0.0])
    oracle = CountingOracle(SqrtMahalanobis(M_star))
    model = learn_mahalanobis(oracle, 2, eps=1e-3)
    assert np.linalg.norm(model.matrix - M_star) <= 1e-3
    assert np.linalg.eigvalsh(model.matrix).min() >= 0.0


def test_scale_invariance_bitwise():
    """Scaling M* by a power of two leaves every oracle label, hence the
    learned model, bit-for-bit identical."""
    M_star = np.array([[1.0, 0.3], [0.3, 0.5]])
    m1 = learn_mahalanobis(CountingOracle(SqrtMahalanobis(M_star)), 2, eps=1e-4)
    m2 = learn_mahalanobis(CountingOracle(SqrtMahalanobis(4.0 * M_star)), 2, eps=1e-4)
    np.testing.assert_array_equal(m1.matrix, m2.matrix)
    np.testing.assert_array_equal(m1.coefficients, m2.coefficients)
    assert m1.query_count == m2.query_count


def test_model_invariants(rng):
    for p in [2, 4]:
        M_star = random_spd(p, 6.0, rng)
        model = learn_mahalanobis(CountingOracle(SqrtMahalanobis(M_star)), p, eps=1e-4)
        # symmetry of both stages
        np.testing.assert_allclose(model.matrix, model.matrix.T, atol=1e-12)
        np.testing.assert_allclose(model.matrix_pre, model.matrix_pre.T, atol=1e-12)
        # pre-projection spectrum cannot dip below -eps/2; at this eps it is
        # effectively nonnegative
        assert np.linalg.eigvalsh(model.matrix_pre).min() >= -1e-10
        assert np.linalg.eigvalsh(model.matrix).min() >= -1e-13
        # the anchor diagonal is pinned to its exactly-measured unit coefficient
        assert model.matrix_pre[model.anchor, model.anchor] == pytest.approx(1.0, abs=1e-10)
        assert model.anchor == int(np.argmax(np.diag(M_star)))


def test_eps_alg_is_eps_over_two_p_squared():
    model = learn_mahalanobis(CountingOracle(SqrtMahalanobis(np.eye(3))), 3, eps=0.09)
    assert model.eps_alg == pytest.approx(0.09 / 18.0)


def test_model_json_round_trip(rng):
    M_star = random_spd(3, 4.0, rng)
    model = learn_mahalanobis(CountingOracle(SqrtMahalanobis(M_star)), 3, eps=1e-3)
    data = model.to_json_dict()
    assert set(data) == {"p", "matrix", "matrix_pre", "coefficients", "query_count", "anchor",
                         "eps", "eps_alg", "mode", "base_point", "rho"}
    back = MahaModel.from_json_dict(data)
    np.testing.assert_allclose(back.matrix, model.matrix)
    np.testing.assert_array_equal(back.matrix_pre, model.matrix_pre)
    assert back.anchor == model.anchor
    assert back.query_count == model.query_count
    assert (back.eps, back.eps_alg, back.mode) == (model.eps, model.eps_alg, "noiseless")
    assert back.base_point is None and back.rho is None


def test_learn_rejects_bad_arguments():
    oracle = CountingOracle(SqrtMahalanobis(np.eye(2)))
    with pytest.raises(ValueError):
        learn_mahalanobis(oracle, 0, eps=1e-3)
    with pytest.raises(ValueError):
        learn_mahalanobis(oracle, 2, eps=0.0)


# ---------------------------------------------------------------------------
# local Hessian (noisy route)


def _kl_params(p: int, hi: float = 0.1) -> SmoothnessParams:
    from tripletdist import DiagonalGaussianKL
    from tripletdist.cover import Domain

    return fixture_smoothness(DiagonalGaussianKL(p), Domain.box(np.zeros(p), hi * np.ones(p)))


def test_hessian_eps_bound_formula():
    params = SmoothnessParams(alpha=1.0, L_smooth=1.0, M_third=2.0, eig_lo=0.5,
                              eig_hi=1.5, L_hess=1.0)
    expected = 3.0 * 0.5 ** 3 / (2.0 * 2.0 * 2.0 ** 1.5 * 1.5 ** 2)
    assert hessian_eps_bound(params, 2) == pytest.approx(expected)


def test_local_hessian_requires_params_or_rho():
    oracle = CountingOracle(SquaredMahalanobis(np.eye(2)))
    with pytest.raises(ValueError, match="rho"):
        learn_local_hessian(oracle, np.zeros(2), eps=1e-2)


def test_local_hessian_admissibility_gate():
    p = 2
    params = _kl_params(p)
    bound = hessian_eps_bound(params, p)
    from tripletdist import DiagonalGaussianKL
    oracle = CountingOracle(DiagonalGaussianKL(p))
    with pytest.raises(AdmissibilityError):
        learn_local_hessian(oracle, np.zeros(p), eps=2.0 * bound, params=params)
    # explicit rho bypasses the gate
    model = learn_local_hessian(oracle, np.zeros(p), eps=2.0 * bound, rho=1e-3)
    assert model.rho == 1e-3


def test_local_hessian_constant_truth():
    """Constant-Hessian fixture: recovery within 1.5 * eps of tau * M."""
    M = np.diag([1.0, 0.5])
    truth = SquaredMahalanobis(M)
    oracle = CountingOracle(truth)
    eps = 1e-2
    model = learn_local_hessian(oracle, np.zeros(2), eps=eps, rho=eps * eps)
    tau, err = frobenius_error(model.matrix, M, convention="anchor", anchor=model.anchor)
    assert err <= 1.5 * eps
    assert model.mode == "local-hessian"


def test_local_hessian_zero_amplitude_matches_noiseless():
    """With a constant Hessian field the local learner sees the same labels as
    the noiseless matrix learner (identical probe geometry up to scale)."""
    A = np.array([[1.0, 0.2], [0.2, 0.7]])
    quad = VaryingHessianQuadratic(A, amplitude=0.0)
    model_local = learn_local_hessian(CountingOracle(quad), np.zeros(2), eps=1e-3,
                                      rho=1e-6)
    model_plain = learn_mahalanobis(CountingOracle(SqrtMahalanobis(A)), 2, eps=1e-3)
    np.testing.assert_allclose(model_local.matrix, model_plain.matrix, atol=2e-3)
    assert model_local.anchor == model_plain.anchor


@pytest.mark.parametrize("eps", [1e-2, 3e-3])
def test_local_hessian_varying_field(eps, rng):
    """Active perturbation: learned matrix within 1.1 eps of tau_x H*(x)."""
    A = np.array([[1.0, 0.15], [0.15, 0.8]])
    truth = VaryingHessianQuadratic(A, amplitude=0.1)
    x = np.array([0.4, 0.7])
    oracle = CountingOracle(truth)
    model = learn_local_hessian(oracle, x, eps=eps, rho=eps * eps)
    H_star = truth.hessian_at(x)
    tau, err = frobenius_error(model.matrix, H_star, convention="anchor",
                               anchor=model.anchor)
    assert err <= 1.1 * eps
    lo, hi = truth.eig_band()
    assert 1.0 / hi <= tau <= 1.0 / lo
    budget = query_budget("thm5", p=2, eps=eps, eig_hi=hi, eig_lo=lo)
    assert model.query_count <= budget


def test_local_hessian_base_point_recorded():
    truth = SquaredMahalanobis(np.eye(2))
    x = np.array([0.3, -0.2])
    model = learn_local_hessian(CountingOracle(truth), x, eps=1e-2, rho=1e-4)
    np.testing.assert_array_equal(model.base_point, x)

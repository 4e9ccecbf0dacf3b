"""Acceptance gate: one test per shipped guarantee, each printing a verdict line.

Every test prints "[ACCEPT] criterion-N <name>: PASS/FAIL (<detail>)" directly
to the terminal (bypassing capture) before asserting, so a full-suite run
always shows the verdict for each released claim at its stated tolerance,
query budget, and wall-clock limit.
"""

import dataclasses
import json
import math
import time

import numpy as np

from tripletdist import (
    CountingOracle,
    DiagonalGaussianKL,
    Domain,
    HybridDistance,
    SqrtMahalanobis,
    SquaredMahalanobis,
    VaryingHessianQuadratic,
    check_additive,
    check_multiplicative,
    learn_additive,
    learn_finite_distance,
    learn_local_hessian,
    learn_mahalanobis,
    learn_multiplicative_autoscale,
    near_pair_triplets,
    sample_triplets,
)
from tripletdist.cli import main as cli_main
from tripletdist.cli import random_psd
from tripletdist.evaluation import (
    audit_hessian_band,
    audit_quadratic_sandwich,
    audit_taylor,
    fixture_smoothness,
    frobenius_error,
    query_budget,
)
from tripletdist.maha import design_matrix


def _report(capsys, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[ACCEPT] {name}: {tag}{suffix}")


# ---------------------------------------------------------------------------


def test_criterion_1_finite_exhaustive(capsys):
    """Exact agreement on all n^3 ordered triplets within the sorting budget."""
    rng = np.random.default_rng(20260819)
    t0 = time.perf_counter()
    ok, parts = True, []
    for n in (5, 10, 16, 20):
        truth = SqrtMahalanobis(random_psd(3, 4.0, rng))
        points = rng.uniform(0.0, 1.0, (n, 3))
        oracle = CountingOracle(truth)
        table = learn_finite_distance(points, oracle)
        D = np.empty((n, n))
        for i in range(n):
            D[i] = truth.distance_batch(np.repeat(points[i][None, :], n, axis=0),
                                        points)
        exact = (np.sign(D[:, :, None] - D[:, None, :])
                 == np.sign(table.ranks[:, :, None] - table.ranks[:, None, :])).all()
        m = n - 1
        budget = n * m * (math.log2(m) + 1.0)
        ok = ok and bool(exact) and oracle.query_count <= budget
        parts.append(f"n={n}:{oracle.query_count}q<={budget:.0f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(capsys, "criterion-1 finite-exhaustive", ok,
            f"{'; '.join(parts)}; {elapsed:.2f}s")
    assert ok


def test_criterion_2_design_conditioning(capsys):
    """The probe design stays uniformly well conditioned across dimensions."""
    t0 = time.perf_counter()
    ok, worst = True, math.inf
    for p in range(2, 21):
        D = design_matrix(p)
        s_min = np.linalg.svd(D, compute_uv=False)[-1]
        floor = 1.0 / max(2 * p - 1, 4)
        ok = ok and s_min ** 2 >= floor - 1e-12
        ok = ok and np.linalg.matrix_rank(D) == p * (p + 1) // 2
        worst = min(worst, s_min ** 2 / floor)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(capsys, "criterion-2 design-conditioning", ok,
            f"min sigma_min^2/floor={worst:.3f} over p=2..20; {elapsed:.2f}s")
    assert ok


def test_criterion_3_matrix_recovery(capsys):
    """200 random targets recovered to 1e-3 inside the bisection budget."""
    rng = np.random.default_rng(12345)
    eps = 1e-3
    t0 = time.perf_counter()
    ok, worst_err, worst_ratio = True, 0.0, 0.0
    for p in (2, 3, 4, 6):
        for _ in range(50):
            kappa = rng.uniform(3.0, 10.0)
            M_star = random_psd(p, kappa, rng, unit_max_diag=True)
            oracle = CountingOracle(SqrtMahalanobis(M_star))
            model = learn_mahalanobis(oracle, p, eps)
            _, err = frobenius_error(model.matrix, M_star, convention="max-diag")
            budget = query_budget("thm4", p=p, kappa=np.linalg.cond(M_star), eps=eps)
            ok = ok and err <= eps and model.query_count <= budget
            worst_err = max(worst_err, err)
            worst_ratio = max(worst_ratio, model.query_count / budget)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(capsys, "criterion-3 matrix-recovery", ok,
            f"worst err={worst_err:.2e} tol={eps}; worst query ratio="
            f"{worst_ratio:.2f}; {elapsed:.2f}s")
    assert ok


def test_criterion_4_local_hessian(capsys):
    """Local Hessians to 1.1*eps with an in-band scale, within budget."""
    configs = [
        (SquaredMahalanobis(np.array([[1.0, 0.05], [0.05, 1.02]])), 2),
        (SquaredMahalanobis(np.array([[1.0, 0.05, 0.02], [0.05, 0.95, 0.03],
                                      [0.02, 0.03, 1.02]])), 3),
        (VaryingHessianQuadratic(np.diag([1.1, 0.9]), amplitude=0.1), 2),
        (VaryingHessianQuadratic(np.diag([1.2, 1.0, 0.9]), amplitude=0.1), 3),
    ]
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    ok, worst_rel = True, 0.0
    for truth, p in configs:
        dom = Domain.unit_box(p)
        params = fixture_smoothness(truth, dom, m_third_floor=1.0, l_hess_floor=1.0)
        for eps in (1e-2, 3e-3):
            for _ in range(3):
                x = dom.sample_uniform(rng, 1)[0]
                oracle = CountingOracle(truth)
                model = learn_local_hessian(oracle, x, eps, params=params)
                H_star = truth.hessian_at(x)
                tau, err = frobenius_error(model.matrix, H_star,
                                           convention="anchor", anchor=model.anchor)
                budget = query_budget("thm5", p=p, eps=eps,
                                      eig_hi=params.eig_hi, eig_lo=params.eig_lo)
                ok = ok and err <= 1.1 * eps
                ok = ok and (1.0 / params.eig_hi - 1e-12 <= tau
                             <= 1.0 / params.eig_lo + 1e-12)
                ok = ok and model.query_count <= budget
                worst_rel = max(worst_rel, err / eps)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(capsys, "criterion-4 local-hessian", ok,
            f"worst err/eps={worst_rel:.3f} (limit 1.1) over 24 runs; {elapsed:.2f}s")
    assert ok


def test_criterion_5_additive_agreement(capsys):
    """Zero additive-gap violations at the derived cover radius."""
    configs = [
        ("sqrt", SqrtMahalanobis(np.array([[1.0, 0.3], [0.3, 0.5]])),
         Domain.box([0.0, 0.0], [0.5, 0.5])),
        ("squared", SquaredMahalanobis(np.array([[0.42, 0.08], [0.08, 0.33]])),
         Domain.box([0.0, 0.0], [1.0, 1.0])),
    ]
    rng = np.random.default_rng(555)
    t0 = time.perf_counter()
    ok, parts = True, []
    for name, truth, dom in configs:
        params = fixture_smoothness(truth, dom)
        for omega in (0.1, 0.3):
            oracle = CountingOracle(truth)
            model = learn_additive(dom, oracle, omega, params=params)
            X, Y, Z = sample_triplets(dom, 100_000, rng)
            nX, nY, nZ = near_pair_triplets(dom, [model.radius, omega], 10_000, rng)
            X = np.concatenate([X, nX])
            Y = np.concatenate([Y, nY])
            Z = np.concatenate([Z, nZ])
            rep = check_additive(truth, model.answer_batch, omega, X, Y, Z)
            ok = (ok and rep.eligible > 0 and rep.violations == 0
                  and model.query_count <= query_budget("thm1", n=model.cover.size))
            parts.append(f"{name},w={omega}:{rep.violations}/{rep.eligible}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(capsys, "criterion-5 additive-agreement", ok,
            f"violations/eligible {'; '.join(parts)}; {elapsed:.1f}s")
    assert ok


def test_criterion_6_multiplicative_agreement(capsys):
    """Zero ratio-gap violations with autoscaling; zero-margin control fails."""
    truth = SquaredMahalanobis(np.array([[1.0, 0.05], [0.05, 1.02]]))
    domain = Domain.unit_box(2)
    params_fn = lambda d: fixture_smoothness(truth, d, m_third_floor=1.0,  # noqa: E731
                                             l_hess_floor=1.0)
    rng = np.random.default_rng(777)
    t0 = time.perf_counter()
    ok, parts, keep = True, [], None
    for omega in (0.5, 1.0):
        model, scale_rep = learn_multiplicative_autoscale(domain, truth, omega,
                                                          params_fn, max_centers=400)
        dom = domain.shrunk(model.scale) if model.scale != 1.0 else domain
        params = params_fn(dom)
        X, Y, Z = sample_triplets(dom, 100_000, rng)
        delta = min(3.0 * params.eig_lo / (2.0 * params.M_third * 2 ** 1.5),
                    dom.diameter())
        scales = [model.cover.radius, math.sqrt(model.thresholds.beta_hat), delta]
        nX, nY, nZ = near_pair_triplets(dom, scales, 10_000, rng)
        X = np.concatenate([X, nX])
        Y = np.concatenate([Y, nY])
        Z = np.concatenate([Z, nZ])
        rep = check_multiplicative(truth, model.answer_batch, omega, X, Y, Z)
        budget = query_budget("thm6", n_centers=model.cover.size, p=2,
                              xi=model.thresholds.xi, eig_hi=params.eig_hi,
                              eig_lo=params.eig_lo)
        # the cap forces halvings: the run must downscale and say so
        ok = (ok and rep.eligible > 0 and rep.violations == 0
              and model.query_count <= budget
              and model.scale < 1.0 and scale_rep["halvings"] >= 1
              and scale_rep["scale"] == model.scale
              and scale_rep["centers"] <= 400)
        parts.append(f"w={omega}:{rep.violations}/{rep.eligible},"
                     f"scale={model.scale:g}")
        if omega == 0.5:
            keep = (model, dom, X, Y, Z)
    model, dom, X, Y, Z = keep
    control = HybridDistance(cover=model.cover, table=model.table,
                             hessians=model.hessians, theta=0.0,
                             thresholds=model.thresholds, omega=model.omega,
                             query_count=model.query_count, scale=model.scale)
    crep = check_multiplicative(truth, control.answer_batch, 0.5, X, Y, Z)
    ok = ok and crep.violations > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(capsys, "criterion-6 multiplicative-agreement", ok,
            f"{'; '.join(parts)}; theta=0 control {crep.violations} violations; "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_7_regularity_audits(capsys):
    """Taylor, quadratic-sandwich, and eigen-band audits all bite correctly."""
    t0 = time.perf_counter()
    kl1 = DiagonalGaussianKL(1)
    dom1 = Domain.box([0.0], [0.1])
    params1 = fixture_smoothness(kl1, dom1)
    assert params1.M_third == kl1.third_derivative_bound(0.1)
    conforming = audit_taylor(kl1, params1, dom1, radius=0.1, n_samples=3000,
                              rng=np.random.default_rng(0))
    halved = dataclasses.replace(params1, M_third=0.5 * params1.M_third)
    control = audit_taylor(kl1, halved, dom1, radius=0.1, n_samples=3000,
                           rng=np.random.default_rng(0))
    ok = conforming["ok"] and not control["ok"]

    rng = np.random.default_rng(9)
    kl2 = DiagonalGaussianKL(2)
    dom2 = Domain.box([0.0, 0.0], [0.1, 0.1])
    sand_kl = audit_quadratic_sandwich(kl2, fixture_smoothness(kl2, dom2), dom2,
                                       10_000, rng)
    sq = SquaredMahalanobis(np.array([[1.0, 0.1], [0.1, 0.8]]))
    dom_sq = Domain.unit_box(2)
    sand_sq = audit_quadratic_sandwich(sq, fixture_smoothness(sq, dom_sq,
                                                              m_third_floor=1.0),
                                       dom_sq, 10_000, rng)
    ok = ok and sand_kl["ok"] and sand_sq["ok"]

    truth = SquaredMahalanobis(np.array([[1.0, 0.05], [0.05, 1.02]]))
    params_fn = lambda d: fixture_smoothness(truth, d, m_third_floor=1.0,  # noqa: E731
                                             l_hess_floor=1.0)
    model, _ = learn_multiplicative_autoscale(Domain.unit_box(2), truth, 0.5,
                                              params_fn, max_centers=120)
    dom = Domain.unit_box(2).shrunk(model.scale)
    params = params_fn(dom)
    band_ok = 0
    for c, H in zip(model.cover.centers, model.hessians):
        H_star = truth.hessian_at(c)
        anchor = int(np.argmax(np.diag(H_star)))
        band_ok += audit_hessian_band(H, H_star, anchor, params)["ok"]
    ok = ok and band_ok == model.cover.size
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(capsys, "criterion-7 regularity-audits", ok,
            f"taylor {conforming['max_ratio']:.3f}<=1<{control['max_ratio']:.3f}; "
            f"sandwich ok; band {band_ok}/{model.cover.size}; {elapsed:.1f}s")
    assert ok


def test_criterion_8_sweep_determinism(capsys, tmp_path):
    """Re-running a sweep with the same seed reproduces the timing-free hash."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"command": "learn-finite",
                               "grid": {"n": [4, 6, 8]},
                               "base": {"p": 2}, "seed": 7}))
    t0 = time.perf_counter()
    code1 = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")])
    code2 = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b")])
    capsys.readouterr()  # swallow the CLI tables
    h1 = json.loads((tmp_path / "a.json").read_text())["run_hash"]
    h2 = json.loads((tmp_path / "b.json").read_text())["run_hash"]
    elapsed = time.perf_counter() - t0
    ok = code1 == 0 and code2 == 0 and h1 == h2
    _report(capsys, "criterion-8 sweep-determinism", ok,
            f"hash {h1[:12]}.. == {h2[:12]}..; {elapsed:.2f}s")
    assert ok

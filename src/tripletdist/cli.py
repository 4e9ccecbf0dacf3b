"""Command-line driver: run learners against simulated oracles and score them.

Every subcommand reads an optional JSON config (--config), applies flag
overrides on top, runs, prints a summary, and optionally writes a CSV with a
fixed column order plus a JSON sidecar (--out).  Exit codes: 0 on success,
1 when any assertion (budget, tolerance, zero-violation requirement, audit)
fails, 2 on usage errors (argparse's native behavior).

The determinism hash printed at the end is a sha256 over the CSV with the
wall_time column blanked and the sidecar with timing stripped, so identical
seeds hash identically across runs and machines regardless of speed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from .core import CountingOracle, SmoothnessParams, make_ground_truth
from .cover import Domain
from .evaluation import (assert_query_budget, audit_quadratic_sandwich, audit_taylor,
                         audit_hessian_band, check_additive, check_multiplicative,
                         fixture_smoothness, frobenius_error, near_pair_triplets,
                         query_budget, sample_triplets)
from .finite import learn_finite_distance
from .maha import learn_local_hessian, learn_mahalanobis
from .smooth import (learn_additive, learn_multiplicative_autoscale,
                     multiplicative_thresholds)


class UsageError(ValueError):
    """Config-level misuse (reported with exit code 2, like argparse errors)."""


COLUMNS = {
    "learn-finite": ["n", "p", "seed", "query_count", "budget", "violations", "wall_time"],
    "learn-maha": ["p", "kappa", "eps", "mode", "seed", "query_count", "budget",
                   "frobenius_error", "wall_time"],
    "learn-hessian": ["p", "eps", "fixture", "seed", "query_count", "budget",
                      "frobenius_error", "wall_time"],
    "learn-additive": ["omega", "rule", "radius", "centers", "samples", "seed",
                       "query_count", "budget", "eligible", "violations", "wall_time"],
    "learn-mult": ["omega", "eps", "xi", "theta", "centers", "scale", "samples", "seed",
                   "query_count", "budget", "eligible", "violations", "wall_time"],
    "audit": ["audit", "fixture", "p", "samples", "seed", "value", "threshold", "ok",
              "wall_time"],
}


def random_psd(p: int, kappa: float, rng: np.random.Generator,
               unit_max_diag: bool = False) -> np.ndarray:
    """Random PSD matrix with condition number exactly kappa (eigenvalues 1..kappa).

    With unit_max_diag, rescale so the largest diagonal entry is exactly 1
    (condition number is unaffected).
    """
    if p == 1:
        return np.array([[1.0]])
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = np.geomspace(1.0, kappa, p)
    M = (Q * eigs) @ Q.T
    if unit_max_diag:
        M = M / np.max(np.diag(M))
    return M


def build_fixture(cfg: dict, rng: np.random.Generator):
    """(ground truth, box domain) from a config dict."""
    kind = cfg.get("fixture", "sqrt-mahalanobis")
    p = int(cfg.get("p", 2))
    lo = float(cfg.get("domain_lo", 0.0))
    hi = float(cfg.get("domain_hi", 1.0))
    domain = Domain.box(np.full(p, lo), np.full(p, hi))
    if kind in ("sqrt-mahalanobis", "squared-mahalanobis"):
        if "matrix" in cfg:
            M = np.asarray(cfg["matrix"], dtype=np.float64)
        else:
            M = random_psd(p, float(cfg.get("kappa", 3.0)), rng)
        truth = make_ground_truth(kind, matrix=M)
    elif kind == "varying-hessian-quadratic":
        if "base_matrix" in cfg:
            A = np.asarray(cfg["base_matrix"], dtype=np.float64)
        else:
            A = random_psd(p, float(cfg.get("kappa", 2.0)), rng)
        truth = make_ground_truth(kind, base_matrix=A,
                                  amplitude=float(cfg.get("amplitude", 0.1)))
    elif kind == "diagonal-gaussian-kl":
        truth = make_ground_truth(kind, dim=p)
    else:
        raise ValueError(f"unknown fixture {kind!r}")
    return truth, domain


_FIXTURE_KEYS = {"fixture", "p", "domain_lo", "domain_hi", "matrix", "kappa", "base_matrix",
                 "amplitude"}
_PARAMS_KEYS = {"params_file", "m_third_floor", "l_hess_floor"}
_HESSIAN_KEYS = {"seed", "eps"} | _FIXTURE_KEYS | _PARAMS_KEYS

# command -> every config key its runner reads (build_fixture and load_params included)
CONFIG_KEYS = {
    "learn-finite": {"seed", "n", "eq_tol"} | _FIXTURE_KEYS,
    "learn-maha": {"mode"} | _HESSIAN_KEYS,
    "learn-hessian": _HESSIAN_KEYS,
    "learn-additive": {"seed", "omega", "rule", "samples", "eq_tol", "radius", "cover",
                       "max_centers"} | _FIXTURE_KEYS | _PARAMS_KEYS,
    "learn-mult": {"seed", "omega", "samples", "eq_tol", "max_centers", "override_eps",
                   "override_xi", "override_theta"} | _FIXTURE_KEYS | _PARAMS_KEYS,
    "audit": {"seed", "audit", "samples", "m_third_scale", "eps"} | _FIXTURE_KEYS
             | _PARAMS_KEYS,
    "sweep": {"command", "grid", "base", "seed"},
}


def load_params(cfg: dict, truth, domain) -> SmoothnessParams:
    if cfg.get("params_file"):
        with open(cfg["params_file"]) as fh:
            return SmoothnessParams.from_json_dict(json.load(fh))
    return fixture_smoothness(truth, domain,
                              m_third_floor=float(cfg.get("m_third_floor", 1e-6)),
                              l_hess_floor=float(cfg.get("l_hess_floor", 1e-6)))


# ---------------------------------------------------------------------------
# runners: cfg -> (row dict, sidecar extra, ok)


def run_learn_finite(cfg: dict):
    seed = int(cfg.get("seed", 0))
    n = int(cfg.get("n", 10))
    p = int(cfg.get("p", 2))
    rng = np.random.default_rng(seed)
    truth, _ = build_fixture(cfg, rng)
    points = rng.uniform(0.0, 1.0, size=(n, p))
    oracle = CountingOracle(truth, equality_tolerance=float(cfg.get("eq_tol", 0.0)))
    t0 = time.perf_counter()
    table = learn_finite_distance(points, oracle)
    wall = time.perf_counter() - t0
    D = np.empty((n, n))
    for i in range(n):
        D[i] = truth.distance_batch(np.repeat(points[i][None, :], n, axis=0), points)
    true_sign = np.sign(D[:, :, None] - D[:, None, :])
    table_sign = np.sign(table.ranks[:, :, None] - table.ranks[:, None, :])
    violations = int((true_sign != table_sign).sum())
    budget = query_budget("thm1", n=n)
    row = {"n": n, "p": p, "seed": seed, "query_count": table.query_count,
           "budget": budget, "violations": violations, "wall_time": wall}
    ok = violations == 0 and table.query_count <= budget
    return row, {"table": table.to_json_dict()}, ok


def run_learn_maha(cfg: dict):
    if cfg.get("mode", "noiseless") == "noisy":
        row, extra, ok = run_learn_hessian(cfg)
        row = {"p": row["p"], "kappa": cfg.get("kappa", ""), "eps": row["eps"],
               "mode": "noisy", "seed": row["seed"], "query_count": row["query_count"],
               "budget": row["budget"], "frobenius_error": row["frobenius_error"],
               "wall_time": row["wall_time"]}
        return row, extra, ok
    seed = int(cfg.get("seed", 0))
    p = int(cfg.get("p", 3))
    kappa = float(cfg.get("kappa", 5.0))
    eps = float(cfg.get("eps", 1e-3))
    rng = np.random.default_rng(seed)
    M_star = np.asarray(cfg["matrix"], dtype=np.float64) if "matrix" in cfg \
        else random_psd(p, kappa, rng)
    truth = make_ground_truth("sqrt-mahalanobis", matrix=M_star)
    oracle = CountingOracle(truth)
    t0 = time.perf_counter()
    model = learn_mahalanobis(oracle, p, eps)
    wall = time.perf_counter() - t0
    _, err = frobenius_error(model.matrix, M_star, convention="max-diag")
    budget = query_budget("thm4", p=p, kappa=np.linalg.cond(M_star), eps=eps)
    row = {"p": p, "kappa": kappa, "eps": eps, "mode": "noiseless", "seed": seed,
           "query_count": model.query_count, "budget": budget, "frobenius_error": err,
           "wall_time": wall}
    ok = err <= eps and model.query_count <= budget
    return row, {"model": model.to_json_dict()}, ok


def run_learn_hessian(cfg: dict):
    seed = int(cfg.get("seed", 0))
    cfg = dict(cfg)
    cfg.setdefault("fixture", "squared-mahalanobis")
    p = int(cfg.get("p", 2))
    eps = float(cfg.get("eps", 1e-2))
    rng = np.random.default_rng(seed)
    truth, domain = build_fixture(cfg, rng)
    params = load_params(cfg, truth, domain)
    x = domain.sample_uniform(rng, 1)[0]
    oracle = CountingOracle(truth)
    t0 = time.perf_counter()
    model = learn_local_hessian(oracle, x, eps, params=params)
    wall = time.perf_counter() - t0
    H_star = truth.hessian_at(x)
    _, err = frobenius_error(model.matrix, H_star, convention="anchor", anchor=model.anchor)
    budget = query_budget("thm5", p=p, eps=eps, eig_hi=params.eig_hi, eig_lo=params.eig_lo)
    row = {"p": p, "eps": eps, "fixture": truth.kind, "seed": seed,
           "query_count": model.query_count, "budget": budget, "frobenius_error": err,
           "wall_time": wall}
    ok = err <= 1.1 * eps and model.query_count <= budget
    return row, {"model": model.to_json_dict(), "x": x.tolist()}, ok


def run_learn_additive(cfg: dict):
    seed = int(cfg.get("seed", 0))
    omega = float(cfg.get("omega", 0.3))
    rule = cfg.get("rule", "thm3")
    samples = int(cfg.get("samples", 100_000))
    rng = np.random.default_rng(seed)
    truth, domain = build_fixture(cfg, rng)
    params = load_params(cfg, truth, domain)
    oracle = CountingOracle(truth, equality_tolerance=float(cfg.get("eq_tol", 0.0)))
    t0 = time.perf_counter()
    model = learn_additive(domain, oracle, omega, params=params, rule=rule,
                           radius=cfg.get("radius"),
                           cover_method=cfg.get("cover", "grid"),
                           max_centers=int(cfg.get("max_centers", 10 ** 6)))
    wall = time.perf_counter() - t0
    X, Y, Z = sample_triplets(domain, samples, rng)
    nX, nY, nZ = near_pair_triplets(domain, [model.radius, omega], samples // 10, rng)
    X = np.concatenate([X, nX]); Y = np.concatenate([Y, nY]); Z = np.concatenate([Z, nZ])
    report = check_additive(truth, model.answer_batch, omega, X, Y, Z,
                            query_count=model.query_count,
                            thresholds={"radius": model.radius, "rule": rule})
    budget = query_budget("thm1", n=model.cover.size)
    row = {"omega": omega, "rule": rule, "radius": model.radius,
           "centers": model.cover.size, "samples": X.shape[0], "seed": seed,
           "query_count": model.query_count, "budget": budget,
           "eligible": report.eligible, "violations": report.violations,
           "wall_time": wall}
    ok = report.violations == 0 and model.query_count <= budget
    return row, {"report": report.to_json_dict()}, ok


def run_learn_mult(cfg: dict):
    seed = int(cfg.get("seed", 0))
    omega = float(cfg.get("omega", 0.5))
    samples = int(cfg.get("samples", 100_000))
    rng = np.random.default_rng(seed)
    truth, domain = build_fixture(cfg, rng)
    overrides = {k: float(cfg[f"override_{k}"]) for k in ("eps", "xi", "theta")
                 if cfg.get(f"override_{k}") is not None}
    params_fn = lambda dom: load_params(cfg, truth, dom)  # noqa: E731
    t0 = time.perf_counter()
    model, scale_report = learn_multiplicative_autoscale(
        domain, truth, omega, params_fn,
        equality_tolerance=float(cfg.get("eq_tol", 0.0)),
        max_centers=int(cfg.get("max_centers", 400)), overrides=overrides)
    wall = time.perf_counter() - t0
    dom = domain.shrunk(model.scale) if model.scale != 1.0 else domain
    params = params_fn(dom)
    X, Y, Z = sample_triplets(dom, samples, rng)
    delta = min(3.0 * params.eig_lo / (2.0 * params.M_third * dom.dim ** 1.5),
                dom.diameter())
    scales = [model.cover.radius, math.sqrt(model.thresholds.beta_hat), delta]
    nX, nY, nZ = near_pair_triplets(dom, scales, samples // 10, rng)
    X = np.concatenate([X, nX]); Y = np.concatenate([Y, nY]); Z = np.concatenate([Z, nZ])
    report = check_multiplicative(truth, model.answer_batch, omega, X, Y, Z,
                                  query_count=model.query_count,
                                  thresholds=model.thresholds.to_json_dict())
    budget = query_budget("thm6", n_centers=model.cover.size, p=dom.dim,
                          xi=model.thresholds.xi, eig_hi=params.eig_hi,
                          eig_lo=params.eig_lo)
    row = {"omega": omega, "eps": model.cover.radius, "xi": model.thresholds.xi,
           "theta": model.theta, "centers": model.cover.size, "scale": model.scale,
           "samples": X.shape[0], "seed": seed, "query_count": model.query_count,
           "budget": budget, "eligible": report.eligible,
           "violations": report.violations, "wall_time": wall}
    ok = report.violations == 0 and model.query_count <= budget
    return row, {"report": report.to_json_dict(), "scale_report": scale_report,
                 "case_counts": model.case_counts(X, Y, Z)}, ok


def run_audit(cfg: dict):
    seed = int(cfg.get("seed", 0))
    which = cfg.get("audit", "taylor")
    samples = int(cfg.get("samples", 10_000))
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    if which == "taylor":
        cfg = dict(cfg)
        cfg.setdefault("fixture", "diagonal-gaussian-kl")
        cfg.setdefault("p", 1)
        cfg.setdefault("domain_hi", 0.1)
        truth, domain = build_fixture(cfg, rng)
        params = load_params(cfg, truth, domain)
        m3 = params.M_third * float(cfg.get("m_third_scale", 1.0))
        res = audit_taylor(truth, m3, domain, radius=float(domain.side_lengths.max()),
                           n_samples=samples, rng=rng)
        value, threshold, ok = res["max_ratio"], 1.0, res["ok"]
    elif which == "sandwich":
        cfg = dict(cfg)
        cfg.setdefault("fixture", "squared-mahalanobis")
        truth, domain = build_fixture(cfg, rng)
        params = load_params(cfg, truth, domain)
        res = audit_quadratic_sandwich(truth, params, domain, samples, rng)
        value = min(res["min_lower_margin"], res["min_upper_margin"])
        threshold, ok = 0.0, res["ok"]
    elif which == "hessian-band":
        cfg = dict(cfg)
        cfg.setdefault("fixture", "squared-mahalanobis")
        truth, domain = build_fixture(cfg, rng)
        params = load_params(cfg, truth, domain)
        x = domain.sample_uniform(rng, 1)[0]
        oracle = CountingOracle(truth)
        model = learn_local_hessian(oracle, x, float(cfg.get("eps", 1e-2)), params=params)
        res = audit_hessian_band(model.matrix, truth.hessian_at(x), model.anchor, params)
        value = res["min_eig"]
        threshold, ok = res["band"][0], res["ok"]
    else:
        raise ValueError(f"unknown audit {which!r}")
    wall = time.perf_counter() - t0
    row = {"audit": which, "fixture": cfg.get("fixture", ""), "p": int(cfg.get("p", 2)),
           "samples": samples, "seed": seed, "value": value, "threshold": threshold,
           "ok": ok, "wall_time": wall}
    return row, {"detail": res}, bool(ok)


RUNNERS = {
    "learn-finite": run_learn_finite,
    "learn-maha": run_learn_maha,
    "learn-hessian": run_learn_hessian,
    "learn-additive": run_learn_additive,
    "learn-mult": run_learn_mult,
    "audit": run_audit,
}


# ---------------------------------------------------------------------------
# output plumbing


def rows_to_csv(rows: list[dict], columns: list[str], blank_wall_time: bool = False) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow(["" if (blank_wall_time and c == "wall_time") else r.get(c, "")
                    for c in columns])
    return buf.getvalue()


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in ("wall_time", "timing", "total_s")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def run_hash(rows: list[dict], columns: list[str], sidecar: dict) -> str:
    csv_text = rows_to_csv(rows, columns, blank_wall_time=True)
    side = json.dumps(_strip_timing(sidecar), sort_keys=True, default=str)
    return hashlib.sha256((csv_text + side).encode()).hexdigest()


def write_outputs(out: str, rows: list[dict], columns: list[str], sidecar: dict) -> str:
    base = out[:-4] if out.endswith(".csv") else out
    digest = run_hash(rows, columns, sidecar)
    sidecar = dict(sidecar, run_hash=digest)
    with open(base + ".csv", "w") as fh:
        fh.write(rows_to_csv(rows, columns))
    with open(base + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, default=str)
    return digest


# ---------------------------------------------------------------------------
# sweep


def _sweep_point(payload):
    command, cfg = payload
    row, extra, ok = RUNNERS[command](cfg)
    return row, ok


def run_sweep(cfg: dict, jobs: int):
    command = cfg.get("command")
    if command not in RUNNERS or command == "sweep":
        raise UsageError("sweep config needs a 'command' naming a runnable subcommand")
    grid = cfg.get("grid", {})
    if not grid or any(not vals for vals in grid.values()):
        raise UsageError("sweep config needs a nonempty 'grid' of parameter lists")
    base = dict(cfg.get("base", {}))
    base_seed = int(cfg.get("seed", base.get("seed", 0)))
    keys = list(grid.keys())
    points = list(itertools.product(*(grid[k] for k in keys)))
    payloads = []
    for idx, vals in enumerate(points):
        point_cfg = dict(base)
        point_cfg.update(dict(zip(keys, vals)))
        point_cfg["seed"] = base_seed + idx
        payloads.append((command, point_cfg))
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point, payloads))
    else:
        results = [_sweep_point(p) for p in payloads]
    rows, all_ok = [], True
    for idx, (row, ok) in enumerate(results):
        rows.append({"grid_index": idx, **row})
        all_ok = all_ok and ok
    columns = ["grid_index"] + COLUMNS[command]
    return rows, columns, all_ok


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", help="output base path (writes .csv and .json)")
    sp.add_argument("--jobs", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tripletdist",
                                 description="triplet-query distance learning")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("learn-finite", help="exact ranks on a finite point set")
    _add_common(sp)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=int, default=None)

    sp = sub.add_parser("learn-maha", help="recover a Mahalanobis matrix up to scale")
    _add_common(sp)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--kappa", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--mode", choices=["noiseless", "noisy"], default=None)

    sp = sub.add_parser("learn-hessian", help="estimate a local Hessian up to scale")
    _add_common(sp)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--fixture", default=None)

    sp = sub.add_parser("learn-additive", help="rank surrogate with additive-gap guarantee")
    _add_common(sp)
    sp.add_argument("--omega", type=float, default=None)
    sp.add_argument("--rule", choices=["thm3", "cor4"], default=None)
    sp.add_argument("--radius", type=float, default=None)
    sp.add_argument("--fixture", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--cover", choices=["grid", "greedy"], default=None)
    sp.add_argument("--params-file", dest="params_file", default=None)

    sp = sub.add_parser("learn-mult", help="hybrid model with multiplicative-gap guarantee")
    _add_common(sp)
    sp.add_argument("--omega", type=float, default=None)
    sp.add_argument("--fixture", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--max-centers", dest="max_centers", type=int, default=None)
    sp.add_argument("--params-file", dest="params_file", default=None)
    sp.add_argument("--override-eps", dest="override_eps", type=float, default=None)
    sp.add_argument("--override-xi", dest="override_xi", type=float, default=None)
    sp.add_argument("--override-theta", dest="override_theta", type=float, default=None)

    sp = sub.add_parser("audit", help="regularity audits (taylor, sandwich, hessian-band)")
    _add_common(sp)
    sp.add_argument("--audit", choices=["taylor", "sandwich", "hessian-band"], default=None)
    sp.add_argument("--fixture", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--m-third-scale", dest="m_third_scale", type=float, default=None,
                    help="scale the honest third-derivative bound (negative controls)")

    sp = sub.add_parser("sweep", help="run a subcommand over a parameter grid")
    _add_common(sp)

    return ap


def _check_keys(keys, command: str, where: str) -> None:
    unknown = sorted(set(keys) - CONFIG_KEYS[command])
    if unknown:
        raise UsageError(f"{where} has keys that {command} does not read: {unknown}")


def _merge_config(args: argparse.Namespace) -> dict:
    """The --config file with flags on top; unknown keys are usage errors."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    skip = {"command", "config", "out", "jobs"}
    for k, v in vars(args).items():
        if k not in skip and v is not None:
            cfg[k] = v
    _check_keys(cfg, args.command, "config")
    if args.command == "sweep" and cfg.get("command") in RUNNERS:
        for part in ("base", "grid"):
            _check_keys(cfg.get(part, {}), cfg["command"], f"sweep {part}")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = _merge_config(args)
        if args.command == "sweep":
            rows, columns, ok = run_sweep(cfg, jobs=args.jobs or 1)
            sidecar = {"command": "sweep", "config": cfg, "columns": columns, "rows": rows,
                       "ok": ok}
        else:
            row, extra, ok = RUNNERS[args.command](cfg)
            rows, columns = [row], COLUMNS[args.command]
            sidecar = {"command": args.command, "config": cfg, "columns": columns,
                       "rows": rows, "ok": ok, **extra}
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sidecar["timing"] = {"total_s": time.perf_counter() - t0}
    for line in rows_to_csv(rows, columns).splitlines():
        print(line)
    if args.out:
        digest = write_outputs(args.out, rows, columns, sidecar)
    else:
        digest = run_hash(rows, columns, sidecar)
    print(f"run_hash={digest}")
    print("RESULT: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

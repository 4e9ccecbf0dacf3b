"""The benchmark's three workloads.

Each workload has ``prepare(seed, workdir)``, which makes its inputs from the
seed, and ``cycle(inputs)``, one closed-loop pass from inputs to a checked
model: learn, make and reload the artifact, serve a triplet stream in
fixed-size batches, score the answers served and apply every gate.  The
program only ever sees the generated inputs.

Library calls go through module attributes (``smooth.learn_additive``, not a
name imported from it) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from tripletdist import cli, core, cover, evaluation, maha, smooth

BATCH = 1000              # triplets per answer_batch call
SCALAR_SAMPLE = 200       # triplets answered by both the scalar and the batch rule
SNAP_PROBE = 20_000       # pairs whose center-snapping error the additive model reports
_STREAM_TAG = 0x5EED      # decorrelates the serving stream from the CLI's own draws


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def serve(segments, batch: int):
    """Answer each (answer_batch, X, Y, Z) segment in batches of ``batch`` rows.

    Returns (answers, per-batch seconds); only the answer_batch calls are timed.
    """
    answers, times = [], []
    for answer_batch, X, Y, Z in segments:
        out = np.empty(X.shape[0], dtype=np.int64)
        for s in range(0, X.shape[0], batch):
            t0 = time.perf_counter()
            a = answer_batch(X[s:s + batch], Y[s:s + batch], Z[s:s + batch])
            times.append(time.perf_counter() - t0)
            out[s:s + batch] = a
        answers.append(out)
    return np.concatenate(answers), times


@dataclasses.dataclass
class Cycle:
    """What one pass from inputs to a checked model produced."""

    learn_s: float
    verified_s: float
    queries: int
    budget_ratio: float       # max over models of queries / budget
    err_ratio: float          # worst error over its tolerance
    attempted: int            # eligible triplets + models
    failed: int               # wrongly answered eligible triplets + models failing a gate
    gates: dict               # gate name -> passed
    batch_s: list
    rows: int                 # triplets served
    answer_digest: str
    stream_digest: str
    artifact_hash: str
    info: dict                # artifact_bytes, roundtrip_s, case_counts
    segments: list            # the served stream, for re-serving passes
    batch: int = BATCH

    def serve_again(self):
        """Re-serve the stream: (batch seconds, rows, answers identical to the first pass)."""
        answers, times = serve(self.segments, self.batch)
        return times, answers.shape[0], _digest(answers) == self.answer_digest


def _scalar_matches(model, X, Y, Z, answers, n: int) -> bool:
    idx = np.linspace(0, X.shape[0] - 1, min(n, X.shape[0])).astype(np.int64)
    return all(model.answer(X[i], Y[i], Z[i]) == answers[i] for i in idx)


def _stack(parts):
    return tuple(np.concatenate([p[k] for p in parts]) for k in range(3))


# ---------------------------------------------------------------------------


class LearnAdditive:
    """``cli.main(["learn-additive", ...])`` in-process, then serving the model."""

    name = "learn-additive"

    def __init__(self, omega: float = 0.1, n_uniform: int = 60_000, n_near: int = 20_000):
        self.omega = omega
        self.n_uniform = n_uniform
        self.n_near = n_near          # per near-pair scale (cover radius, omega)

    def prepare(self, seed: int, workdir: Path) -> dict:
        cfg = {"fixture": "squared-mahalanobis", "matrix": [[0.42, 0.08], [0.08, 0.33]],
               "omega": self.omega, "seed": seed}
        cfg_path = workdir / f"additive-{seed}-config.json"
        cfg_path.write_text(json.dumps(cfg))
        truth, domain = cli.build_fixture(cfg, np.random.default_rng(seed))
        probe_rng = np.random.default_rng(_STREAM_TAG)
        probe = (domain.sample_uniform(probe_rng, SNAP_PROBE),
                 domain.sample_uniform(probe_rng, SNAP_PROBE))
        return {"seed": seed, "cfg_path": str(cfg_path), "out": str(workdir / f"additive-{seed}-run"),
                "truth": truth, "domain": domain, "probe": probe}

    def cycle(self, inp: dict) -> Cycle:
        t_start = time.perf_counter()
        captured = {}
        learn = cli.learn_additive

        def capture(*args, **kwargs):
            captured["model"] = model = learn(*args, **kwargs)
            return model

        cli.learn_additive = capture
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["learn-additive", "--config", inp["cfg_path"],
                                 "--out", inp["out"]])
        finally:
            cli.learn_additive = learn
        cli_pass = code == 0 and stdout.getvalue().rstrip().endswith("RESULT: PASS")
        model = captured["model"]

        t_art = time.perf_counter()
        with open(inp["out"] + ".json") as fh:
            sidecar = json.load(fh)
        stored_hash = sidecar.pop("run_hash")
        rehash = cli.run_hash(sidecar["rows"], sidecar["columns"], sidecar)
        roundtrip_s = time.perf_counter() - t_art
        artifact_bytes = sum(os.path.getsize(inp["out"] + ext) for ext in (".csv", ".json"))
        row = sidecar["rows"][0]

        truth, domain = inp["truth"], inp["domain"]
        rng = np.random.default_rng([inp["seed"], _STREAM_TAG])
        X, Y, Z = _stack([evaluation.sample_triplets(domain, self.n_uniform, rng),
                          evaluation.near_pair_triplets(domain, [model.radius, self.omega],
                                                        self.n_near, rng)])
        segments = [(model.answer_batch, X, Y, Z)]
        answers, times = serve(segments, BATCH)
        rep = evaluation.check_additive(truth, lambda *_: answers, self.omega, X, Y, Z,
                                        query_count=model.query_count)
        # The model's distance is d(c(x), c(y)); the cover radius keeps it within
        # omega/2 of d(x, y).  The model does not depend on the seed, so neither
        # does the probe that measures its worst snapping error.
        P, Q = inp["probe"]
        C = model.cover.centers
        cp = cover.nearest_center_batch(model.cover, P)
        cq = cover.nearest_center_batch(model.cover, Q)
        snap = np.abs(truth.distance_batch(P, Q) - truth.distance_batch(C[cp], C[cq]))
        err_ratio = float(snap.max() / (0.5 * self.omega))
        budget = evaluation.query_budget("thm1", n=model.cover.size)
        gates = {
            "cli_exit_0_result_pass": cli_pass,
            "cli_zero_violations": row["violations"] == 0,
            "queries_within_thm1": row["query_count"] <= budget,
            "artifact_run_hash": rehash == stored_hash,
            "snapping_within_half_omega": err_ratio <= 1.0,
            "stream_zero_violations": rep.violations == 0,
            "scalar_equals_batch": _scalar_matches(model, X, Y, Z, answers, SCALAR_SAMPLE),
        }
        model_ok = all(v for k, v in gates.items() if "violations" not in k)
        verified_s = time.perf_counter() - t_start
        return Cycle(
            learn_s=float(row["wall_time"]), verified_s=verified_s,
            queries=int(row["query_count"]), budget_ratio=row["query_count"] / budget,
            err_ratio=err_ratio,
            attempted=int(row["eligible"]) + rep.eligible + 1,
            failed=int(row["violations"]) + rep.violations + (0 if model_ok else 1),
            gates=gates, batch_s=times, rows=X.shape[0],
            answer_digest=_digest(answers), stream_digest=_digest(X, Y, Z),
            artifact_hash=stored_hash,
            info={"artifact_bytes": artifact_bytes, "roundtrip_s": roundtrip_s},
            segments=segments)


# ---------------------------------------------------------------------------


class LearnMult:
    """``learn_multiplicative_autoscale`` on the criterion-6 fixture, a JSON round
    trip, then the reloaded model serving a block-structured stream."""

    name = "learn-mult"

    def __init__(self, omega: float = 0.5, max_centers: int = 400,
                 n_uniform: int = 100_000, n_near: int = 40_000):
        self.omega = omega
        self.max_centers = max_centers
        self.n_uniform = n_uniform
        self.n_near = n_near          # per near-pair scale (cover radius, sqrt(beta_hat), delta)

    def prepare(self, seed: int, workdir: Path) -> dict:
        truth = core.SquaredMahalanobis(np.array([[1.0, 0.05], [0.05, 1.02]]))
        return {"seed": seed, "truth": truth, "domain": cover.Domain.unit_box(2)}

    @staticmethod
    def _params_fn(truth):
        return lambda dom: evaluation.fixture_smoothness(truth, dom, m_third_floor=1.0,
                                                         l_hess_floor=1.0)

    def cycle(self, inp: dict) -> Cycle:
        t_start = time.perf_counter()
        truth, domain = inp["truth"], inp["domain"]
        params_fn = self._params_fn(truth)
        t0 = time.perf_counter()
        model, report = smooth.learn_multiplicative_autoscale(
            domain, truth, self.omega, params_fn, max_centers=self.max_centers)
        learn_s = time.perf_counter() - t0

        t_art = time.perf_counter()
        text = json.dumps(model.to_json_dict())
        doc = json.loads(text)
        reloaded = smooth.HybridDistance.from_json_dict(doc)
        row = {k: report[k] for k in ("scale", "halvings", "centers", "query_count")}
        artifact_hash = cli.run_hash([row], list(row), {"model": doc})
        roundtrip_s = time.perf_counter() - t_art

        dom = domain.shrunk(model.scale) if model.scale != 1.0 else domain
        params = params_fn(dom)
        p = dom.dim
        delta = min(3.0 * params.eig_lo / (2.0 * params.M_third * p ** 1.5), dom.diameter())
        scales = [model.cover.radius, math.sqrt(model.thresholds.beta_hat), delta]
        rng = np.random.default_rng([inp["seed"], _STREAM_TAG])
        X, Y, Z = _stack([evaluation.sample_triplets(dom, self.n_uniform, rng),
                          evaluation.near_pair_triplets(dom, scales, self.n_near, rng)])
        segments = [(reloaded.answer_batch, X, Y, Z)]
        answers, times = serve(segments, BATCH)
        # The hybrid rule is antisymmetric in (y, z): score +1 where d(x,y) > (1+w) d(x,z)
        # and, mirrored, -1 where d(x,z) > (1+w) d(x,y).
        reps = [evaluation.check_multiplicative(truth, lambda *_: answers, self.omega, X, Y, Z,
                                                query_count=model.query_count),
                evaluation.check_multiplicative(truth, lambda *_: -answers, self.omega, X, Z, Y,
                                                query_count=model.query_count)]
        eligible = sum(r.eligible for r in reps)
        violations = sum(r.violations for r in reps)

        budget = evaluation.query_budget("thm6", n_centers=model.cover.size, p=p,
                                         xi=model.thresholds.xi, eig_hi=params.eig_hi,
                                         eig_lo=params.eig_lo)
        hess_tol = 1.1 * model.thresholds.xi
        hess_err = 0.0
        for c, H in zip(model.cover.centers, model.hessians):
            H_star = truth.hessian_at(c)
            _, err = evaluation.frobenius_error(H, H_star, convention="anchor",
                                                anchor=int(np.argmax(np.diag(H_star))))
            hess_err = max(hess_err, err)
        # ten batches spread over every block of the stream
        rows = np.concatenate([np.arange(s, s + BATCH) for s in
                               np.linspace(0, X.shape[0] - BATCH, 10).astype(np.int64)])
        gates = {
            "queries_within_thm6": model.query_count <= budget,
            "hessians_within_1.1xi": hess_err <= hess_tol,
            "reloaded_equals_in_memory":
                np.array_equal(model.answer_batch(X[rows], Y[rows], Z[rows]), answers[rows]),
            "scalar_equals_batch": _scalar_matches(reloaded, X, Y, Z, answers, SCALAR_SAMPLE),
            "stream_zero_violations": violations == 0,
        }
        model_ok = all(v for k, v in gates.items() if "violations" not in k)
        verified_s = time.perf_counter() - t_start
        return Cycle(
            learn_s=learn_s, verified_s=verified_s, queries=model.query_count,
            budget_ratio=model.query_count / budget, err_ratio=hess_err / hess_tol,
            attempted=eligible + 1, failed=violations + (0 if model_ok else 1),
            gates=gates, batch_s=times, rows=X.shape[0],
            answer_digest=_digest(answers), stream_digest=_digest(X, Y, Z),
            artifact_hash=artifact_hash,
            info={"artifact_bytes": len(text.encode()), "roundtrip_s": roundtrip_s,
                  "reloaded": reloaded},
            segments=segments)

    @staticmethod
    def case_counts(c: Cycle) -> dict:
        _, X, Y, Z = c.segments[0]
        return c.info["reloaded"].case_counts(X, Y, Z)


# ---------------------------------------------------------------------------


class LearnMaha:
    """Batches of ``learn_mahalanobis`` recoveries and ``learn_local_hessian``
    estimates, then a JSON round trip of the learned models.

    The package has no triplet-answering API for a ``MahaModel``, so its
    serving stage is the package's own: the first reloaded matrix of each
    dimension becomes a ``core.SqrtMahalanobis`` distance and answers through
    ``evaluation.truth_answer_batch``.  Only package code runs in the timed
    batches.
    """

    name = "learn-maha"
    DIMS = (4, 8, 12)
    EPS_MATRIX = 1e-3
    EPS_HESSIAN = 3e-3
    # kappa <= 10 and unit max diagonal keep every eigenvalue >= 1/10, so a
    # Frobenius error <= EPS_MATRIX moves each quadratic form by at most 1%:
    # every triplet with d(x,y) > 1.1 d(x,z) is then answered correctly.
    SERVE_OMEGA = 0.1

    def __init__(self, per_dim=(256, 8, 4), per_fixture: int = 8, n_stream: int = 49_152,
                 batch: int = 4096):
        self.per_dim = dict(zip(self.DIMS, per_dim))   # recoveries per dimension
        self.per_fixture = per_fixture
        self.n_stream = n_stream      # triplets per dimension
        self.batch = batch

    def prepare(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        targets = []
        for p in self.DIMS:
            for _ in range(self.per_dim[p]):
                kappa = rng.uniform(3.0, 10.0)
                targets.append(cli.random_psd(p, kappa, rng, unit_max_diag=True))
        dom3 = cover.Domain.unit_box(3)
        fixtures = [
            core.SquaredMahalanobis(np.array([[1.0, 0.05, 0.02], [0.05, 0.95, 0.03],
                                              [0.02, 0.03, 1.02]])),
            core.VaryingHessianQuadratic(np.diag([1.2, 1.0, 0.9]), amplitude=0.1),
            core.DiagonalGaussianKL(3),
        ]
        hessians = []
        for truth in fixtures:
            params = evaluation.fixture_smoothness(truth, dom3, m_third_floor=1.0,
                                                   l_hess_floor=1.0)
            for _ in range(self.per_fixture):
                hessians.append((truth, params, dom3.sample_uniform(rng, 1)[0]))
        streams = {p: tuple(rng.uniform(0.0, 1.0, (self.n_stream, p)) for _ in range(3))
                   for p in self.DIMS}
        return {"targets": targets, "hessians": hessians, "streams": streams}

    def cycle(self, inp: dict) -> Cycle:
        t_start = time.perf_counter()
        learn_s, queries, budget_ratio, err_ratio = 0.0, 0, 0.0, 0.0
        failed_models = 0
        docs = []
        for M_star in inp["targets"]:
            p = M_star.shape[0]
            oracle = core.CountingOracle(core.SqrtMahalanobis(M_star))
            t0 = time.perf_counter()
            model = maha.learn_mahalanobis(oracle, p, self.EPS_MATRIX)
            learn_s += time.perf_counter() - t0
            _, err = evaluation.frobenius_error(model.matrix, M_star, convention="max-diag")
            budget = evaluation.query_budget("thm4", p=p, kappa=np.linalg.cond(M_star),
                                             eps=self.EPS_MATRIX)
            failed_models += not (err <= self.EPS_MATRIX and model.query_count <= budget)
            queries += model.query_count
            budget_ratio = max(budget_ratio, model.query_count / budget)
            err_ratio = max(err_ratio, err / self.EPS_MATRIX)
            docs.append(model.to_json_dict())
        for truth, params, x in inp["hessians"]:
            oracle = core.CountingOracle(truth)
            t0 = time.perf_counter()
            model = maha.learn_local_hessian(oracle, x, self.EPS_HESSIAN, params=params)
            learn_s += time.perf_counter() - t0
            _, err = evaluation.frobenius_error(model.matrix, truth.hessian_at(x),
                                                convention="anchor", anchor=model.anchor)
            budget = evaluation.query_budget("thm5", p=x.shape[0], eps=self.EPS_HESSIAN,
                                             eig_hi=params.eig_hi, eig_lo=params.eig_lo)
            tol = 1.1 * self.EPS_HESSIAN
            failed_models += not (err <= tol and model.query_count <= budget)
            queries += model.query_count
            budget_ratio = max(budget_ratio, model.query_count / budget)
            err_ratio = max(err_ratio, err / tol)
            docs.append(model.to_json_dict())

        t_art = time.perf_counter()
        text = json.dumps(docs)
        reloaded = [maha.MahaModel.from_json_dict(d) for d in json.loads(text)]
        artifact_hash = cli.run_hash([], [], {"models": [m.to_json_dict() for m in reloaded]})
        roundtrip_s = time.perf_counter() - t_art

        first = {}                    # dimension -> index of its first target
        for i, M_star in enumerate(inp["targets"]):
            first.setdefault(M_star.shape[0], i)
        segments = [(evaluation.truth_answer_batch(core.SqrtMahalanobis(reloaded[first[p]].matrix)),
                     *inp["streams"][p]) for p in self.DIMS]
        answers, times = serve(segments, self.batch)
        eligible = wrong = offset = 0
        for p in self.DIMS:
            X, Y, Z = inp["streams"][p]
            a = answers[offset:offset + X.shape[0]]
            offset += X.shape[0]
            truth = core.SqrtMahalanobis(inp["targets"][first[p]])
            # both orientations: +1 where d(x,y) > (1+w) d(x,z), -1 where d(x,z) > (1+w) d(x,y)
            for rep in (evaluation.check_multiplicative(truth, lambda *_: a, self.SERVE_OMEGA,
                                                        X, Y, Z),
                        evaluation.check_multiplicative(truth, lambda *_: -a, self.SERVE_OMEGA,
                                                        X, Z, Y)):
                eligible += rep.eligible
                wrong += rep.violations
        n_models = len(inp["targets"]) + len(inp["hessians"])
        gates = {"models_within_tolerance_and_budget": failed_models == 0,
                 "stream_zero_violations": wrong == 0}
        verified_s = time.perf_counter() - t_start
        return Cycle(
            learn_s=learn_s, verified_s=verified_s, queries=queries,
            budget_ratio=budget_ratio, err_ratio=err_ratio,
            attempted=eligible + n_models, failed=wrong + failed_models,
            gates=gates, batch_s=times, rows=answers.shape[0],
            answer_digest=_digest(answers),
            stream_digest=_digest(*[a for p in self.DIMS for a in inp["streams"][p]],
                                  *inp["targets"]),
            artifact_hash=artifact_hash,
            info={"artifact_bytes": len(text.encode()), "roundtrip_s": roundtrip_s},
            segments=segments, batch=self.batch)


WORKLOADS = {w.name: w for w in (LearnAdditive, LearnMult, LearnMaha)}

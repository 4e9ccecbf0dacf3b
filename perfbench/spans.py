"""Span recorder for the traced benchmark run.

Spans come only from this directory: ``Tracer.install`` replaces the public
functions and methods each layer exports with timing wrappers, at the module
attribute (every ``tripletdist`` module that bound the same object, so names
imported with ``from .x import f`` are covered too) or at the class attribute.
Class-level wrapping matters: ``learn_multiplicative_autoscale`` and the CLI
runners build their own ``CountingOracle``, so a proxy oracle passed in from
outside would miss their queries.

Oracle queries are not spans.  Each ``CountingOracle.query`` call is added to
the enclosing span as a count plus busy time, and ground-truth evaluations
made inside a query are summed apart from those the validators make.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

import numpy as np

# layer (module name) -> public functions and methods recorded as spans
TARGETS = {
    "finite": ["learn_finite_distance", "learn_ranking"],
    "maha": ["learn_mahalanobis", "learn_local_hessian", "binary_search_coefficient",
             "find_anchor", "solve_model"],
    "cover": ["build_cover", "nearest_center_batch"],
    "_kernels": ["assign_centers", "quad_forms_by_index"],
    "smooth": ["learn_additive", "learn_multiplicative", "learn_multiplicative_autoscale",
               "AdditiveModel.answer_batch", "HybridDistance.answer_batch"],
    "evaluation": ["sample_triplets", "near_pair_triplets", "check_additive",
                   "check_multiplicative", "frobenius_error", "query_budget",
                   "fixture_smoothness"],
    "cli": ["main", "run_learn_additive", "write_outputs", "run_hash"],
}

# clock granularity allowed when checking that children fit inside their parent
_COVER_SLACK_S = 1e-6


def _counts_assign(res, args, kwargs):
    X, centers = args[0], args[1]
    rows = int(np.shape(X)[0])
    k, p = np.shape(centers)
    return {"kernels.assign_rows": rows, "kernels.assign_ops": rows * int(k) * int(p)}


# span name -> function(result, args, kwargs) -> counts to add at that boundary
_EXTRACT = {
    "_kernels.assign_centers": _counts_assign,
    "_kernels.quad_forms_by_index": lambda r, a, k: {"kernels.quad_rows": int(np.shape(a[0])[0])},
    "cover.build_cover": lambda r, a, k: {"cover.centers": r.size},
    "smooth.learn_multiplicative_autoscale":
        lambda r, a, k: {"smooth.autoscale_halvings": r[1]["halvings"]},
    "evaluation.check_additive": lambda r, a, k: {"evaluation.eligible": r.eligible},
    "evaluation.check_multiplicative": lambda r, a, k: {"evaluation.eligible": r.eligible},
}


@dataclasses.dataclass
class _Frame:
    name: str
    t0: float
    q0: int
    child_s: float = 0.0
    oracle_s: float = 0.0   # oracle busy time inside this span, descendants included


@dataclasses.dataclass
class Agg:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0     # total minus time covered by child spans and oracle queries
    queries: int = 0        # oracle queries inside, descendants included
    oracle_s: float = 0.0


class Tracer:
    """Records spans while installed; ``per_layer`` turns them into metrics."""

    def __init__(self):
        self.stack = [_Frame("root", time.perf_counter(), 0)]
        self.agg: dict[str, Agg] = defaultdict(Agg)
        # (ancestor name, span name) -> seconds, for time a layer spends under another
        self.under: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.coverage_violations = 0
        self.queries = 0
        self.zero_labels = 0
        self.oracle_busy_s = 0.0
        self.truth_oracle_s = 0.0
        self.keys: set[int] = set()      # hashes of distinct (oracle, x, {y, z})
        self._oracles: dict[int, object] = {}   # keeps ids unique while tracing
        self._in_oracle = False
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        if any(f.name == name for f in self.stack):   # recursion: one span only
            return fn(*args, **kwargs)
        parent = self.stack[-1]
        frame = _Frame(name, time.perf_counter(), self.queries)
        self.stack.append(frame)
        try:
            res = fn(*args, **kwargs)
        finally:
            self.stack.pop()
            dur = time.perf_counter() - frame.t0
            if frame.child_s > dur + _COVER_SLACK_S:
                self.coverage_violations += 1
            a = self.agg[name]
            a.calls += 1
            a.total_s += dur
            a.self_s += dur - frame.child_s
            a.queries += self.queries - frame.q0
            a.oracle_s += frame.oracle_s
            parent.child_s += dur
            parent.oracle_s += frame.oracle_s
            for anc in {f.name for f in self.stack[1:]}:
                self.under[(anc, name)] += dur
        extract = _EXTRACT.get(name)
        if extract is not None:
            for k, v in extract(res, args, kwargs).items():
                self.counts[k] += int(v)
        return res

    def _query(self, orig, oracle, x, y, z):
        t0 = time.perf_counter()
        self._in_oracle = True
        try:
            label = orig(oracle, x, y, z)
        finally:
            self._in_oracle = False
        dt = time.perf_counter() - t0
        frame = self.stack[-1]
        frame.child_s += dt
        frame.oracle_s += dt
        self.oracle_busy_s += dt
        self.queries += 1
        if label == 0:
            self.zero_labels += 1
        self._oracles.setdefault(id(oracle), oracle)
        yb = np.asarray(y, dtype=np.float64).tobytes()
        zb = np.asarray(z, dtype=np.float64).tobytes()
        pair = (yb, zb) if yb <= zb else (zb, yb)
        self.keys.add(hash((id(oracle), np.asarray(x, dtype=np.float64).tobytes()) + pair))
        return label

    def _distance_batch(self, orig, truth, X, Y):
        if self._in_oracle:
            t0 = time.perf_counter()
            out = orig(truth, X, Y)
            self.truth_oracle_s += time.perf_counter() - t0
            return out
        return self._call("core.truth.distance_batch", orig, (truth, X, Y), {})

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, orig, wrapper):
        """Point every tripletdist module attribute (and module-level dict entry)
        that holds ``orig`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tripletdist" or mod_name.startswith("tripletdist.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)
                elif isinstance(val, dict):
                    for dk, dv in list(val.items()):
                        if dv is orig:
                            self._patches.append((val, dk, orig))
                            val[dk] = wrapper

    def _patch_class(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from tripletdist import core

        for layer, names in TARGETS.items():
            mod = sys.modules[f"tripletdist.{layer}"]
            for target in names:
                span = f"{layer}.{target}"
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[attr]
                    self._patch_class(cls, attr, self._wrap(span, orig))
                else:
                    orig = getattr(mod, target)
                    self._replace_everywhere(orig, self._wrap(span, orig))

        orig_query = core.CountingOracle.__dict__["query"]

        @functools.wraps(orig_query)
        def query(oracle, x, y, z):
            return self._query(orig_query, oracle, x, y, z)

        self._patch_class(core.CountingOracle, "query", query)
        for cls in (core.SqrtMahalanobis, core.SquaredMahalanobis,
                    core.VaryingHessianQuadratic, core.DiagonalGaussianKL):
            self._patch_class(cls, "distance_batch", self._wrap_truth(cls.__dict__["distance_batch"]))

    def _wrap(self, name, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self._call(name, orig, args, kwargs)

        return wrapper

    def _wrap_truth(self, orig):
        @functools.wraps(orig)
        def distance_batch(truth, X, Y):
            return self._distance_batch(orig, truth, X, Y)

        return distance_batch

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- metrics -----------------------------------------------------------

    def _total(self, *names):
        return sum(self.agg[n].total_s for n in names if n in self.agg)

    def _self(self, prefix):
        return sum(a.self_s for n, a in self.agg.items() if n.startswith(prefix))

    def per_layer(self, info: dict) -> dict[str, float]:
        """Per-layer metrics (see perfbench/README.md for what each should move).

        ``info`` holds what the workload measured itself: ``artifact_bytes``,
        ``roundtrip_s``, ``case_counts`` and ``trace_overhead_ratio``.
        """
        agg, counts = self.agg, self.counts
        q = self.queries
        finite_s = self._total("finite.learn_finite_distance")
        search = agg.get("maha.binary_search_coefficient", Agg())
        ranking = agg.get("finite.learn_ranking", Agg())
        answer_names = ("smooth.AdditiveModel.answer_batch", "smooth.HybridDistance.answer_batch")
        answer_s = self._total(*answer_names)
        answer_assign_s = sum(self.under.get((a, "_kernels.assign_centers"), 0.0)
                              for a in answer_names)
        cases = info.get("case_counts") or {}
        n_cases = sum(cases.values())
        out = {
            "core.oracle.busy_s": self.oracle_busy_s,
            "core.oracle.us_per_query": 1e6 * self.oracle_busy_s / q if q else 0.0,
            "core.truth.oracle_s": self.truth_oracle_s,
            "core.oracle.queries": q,
            "core.oracle.zero_labels": self.zero_labels,
            "core.oracle.distinct_ratio": len(self.keys) / q if q else 0.0,
            "finite.learn_s": finite_s,
            "finite.self_s": self._self("finite."),
            "finite.queries_per_pivot": ranking.queries / ranking.calls if ranking.calls else 0.0,
            "finite.oracle_share":
                agg["finite.learn_finite_distance"].oracle_s / finite_s if finite_s else 0.0,
            "maha.learn_s": self._total("maha.learn_mahalanobis", "maha.learn_local_hessian"),
            "maha.self_s": self._self("maha."),
            "maha.searches": search.calls,
            "maha.queries_per_search": search.queries / search.calls if search.calls else 0.0,
            "maha.solve_s": self._total("maha.solve_model"),
            "smooth.hessians_s": self.under.get(("smooth.learn_multiplicative",
                                                 "maha.learn_local_hessian"), 0.0),
            "smooth.autoscale_halvings": counts.get("smooth.autoscale_halvings", 0),
            "cover.build_s": self._total("cover.build_cover"),
            "cover.centers": counts.get("cover.centers", 0),
            "kernels.assign_s": self._total("_kernels.assign_centers"),
            "kernels.assign_rows": counts.get("kernels.assign_rows", 0),
            "kernels.assign_ops": counts.get("kernels.assign_ops", 0),
            "kernels.quad_s": self._total("_kernels.quad_forms_by_index"),
            "kernels.quad_rows": counts.get("kernels.quad_rows", 0),
            "smooth.answer_s": answer_s,
            "smooth.answer_self_s": sum(agg[n].self_s for n in answer_names if n in agg),
            "smooth.assign_share": answer_assign_s / answer_s if answer_s else 0.0,
            "evaluation.sample_s": self._total("evaluation.sample_triplets",
                                               "evaluation.near_pair_triplets"),
            "evaluation.check_s": self._total("evaluation.check_additive",
                                              "evaluation.check_multiplicative"),
            "evaluation.truth_s": self._total("core.truth.distance_batch"),
            "evaluation.eligible": counts.get("evaluation.eligible", 0),
            "cli.run_s": self._total("cli.main"),
            "cli.artifact_bytes": info.get("artifact_bytes", 0),
            "cli.roundtrip_s": info.get("roundtrip_s", 0.0),
            "cli.hash_s": self._total("cli.run_hash"),
            "trace_overhead_ratio": info["trace_overhead_ratio"],
        }
        for case in ("both_global", "both_local", "far_near", "near_far"):
            out[f"smooth.case.{case}"] = cases.get(case, 0) / n_cases if n_cases else 0.0
        return out

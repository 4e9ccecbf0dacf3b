"""The benchmark tracer's targets and the benchmark's own reads name things the
package still has, and its tracer runs over the serving path.

``perfbench/spans.py`` wraps each ``TARGETS`` entry by module and attribute
name, and fails its traced run when one is missing. ``perfbench/run.py`` and
``perfbench/workloads.py`` read package names as ``<module>.<attr>``. Reading
both here, without changing those files, makes a rename or deletion fail in
seconds; loading the tracer and serving under its ``Tracer`` does the same for
a serving change that breaks the tracer's wrappers or counts.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from tripletdist import (AdditiveModel, Domain, HybridDistance, MultiplicativeThresholds,
                         RankTable, build_cover)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _targets() -> dict:
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def test_every_traced_name_is_a_package_callable():
    targets = _targets()
    assert targets
    missing = []
    for layer, names in targets.items():
        module = importlib.import_module(f"tripletdist.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert not missing, "traced names not found in tripletdist: " + ", ".join(missing)


def test_every_name_the_benchmark_reads_exists():
    modules = {"cli", "core", "cover", "evaluation", "maha", "smooth", "_kernels"}
    reads = set()
    for path in (PERFBENCH / "run.py", PERFBENCH / "workloads.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                reads.add((node.value.id, node.attr))
    assert len(reads) >= 20
    missing = [f"{m}.{a}" for m, a in sorted(reads)
               if not hasattr(importlib.import_module(f"tripletdist.{m}"), a)]
    assert not missing, "benchmark reads names not found in tripletdist: " + ", ".join(missing)


def _load_spans(monkeypatch):
    """``perfbench/spans.py`` as a module, loaded from its file without changes."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _served_models(rng):
    cover = build_cover(Domain.unit_box(2), 0.15)
    k = cover.size
    ranks = rng.integers(1, k, (k, k))
    np.fill_diagonal(ranks, 0)
    table = RankTable(points=cover.centers, ranks=ranks)
    additive = AdditiveModel(omega=0.3, radius=0.15, query_count=0, cover=cover, table=table)
    th = MultiplicativeThresholds(beta_hat=0.01, eps=0.15, xi=0.1, theta=0.04, omega=0.5,
                                  terms={})
    hybrid = HybridDistance(cover=cover, table=table, hessians=np.tile(np.eye(2), (k, 1, 1)),
                            theta=0.04, thresholds=th, omega=0.5, query_count=0)
    return additive, hybrid


def test_tracer_counts_the_points_serving_looks_up(monkeypatch):
    """Serving under the benchmark's tracer raises nothing, keeps every child span
    inside its parent, and looks up 3 points per additive triplet and, per
    hybrid triplet, its x plus y and z on the rows that go to the ranks."""
    for layer in _targets():
        importlib.import_module(f"tripletdist.{layer}")
    rng = np.random.default_rng(7)
    additive, hybrid = _served_models(rng)
    n = 3000
    X, Y, Z = (rng.uniform(0, 1, (n, 2)) for _ in range(3))
    both_global = hybrid.case_counts(X, Y, Z)["both_global"]
    assert 0 < both_global < n
    spans = _load_spans(monkeypatch)
    for model, looked_up in ((additive, 3 * n), (hybrid, n + 2 * both_global)):
        with spans.Tracer() as tracer:
            answers = model.answer_batch(X, Y, Z)
        np.testing.assert_array_equal(answers, model.answer_batch(X, Y, Z))
        assert tracer.coverage_violations == 0
        assert tracer.counts["kernels.assign_rows"] == looked_up

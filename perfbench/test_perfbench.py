"""Self-tests of the benchmark: determinism, span accounting and the result contract.

    python3 -m pytest perfbench -q

Workloads run here at reduced sizes (fewer centers, shorter streams) so the
whole file takes well under a minute; the full sizes are the defaults.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "learn-additive": lambda: workloads.LearnAdditive(omega=0.3, n_uniform=4000, n_near=1000),
    "learn-mult": lambda: workloads.LearnMult(max_centers=40, n_uniform=4000, n_near=2000),
    "learn-maha": lambda: workloads.LearnMaha(per_dim=(1, 1, 1), per_fixture=1, n_stream=10_000),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_repeats_and_new_seed_changes_stream(name, tmp_path):
    wl = SMALL[name]()
    a = wl.cycle(wl.prepare(3, tmp_path))
    b = wl.cycle(wl.prepare(3, tmp_path))
    assert a.failed == 0 and all(a.gates.values()), a.gates
    assert a.queries == b.queries
    assert a.answer_digest == b.answer_digest
    assert a.artifact_hash == b.artifact_hash
    c = wl.cycle(wl.prepare(4, tmp_path))
    assert c.stream_digest != a.stream_digest


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_cycle_accounts_for_every_span_and_query(name, tmp_path):
    from tripletdist import cli, core

    wl = SMALL[name]()
    inputs = wl.prepare(5, tmp_path)
    untraced = wl.cycle(inputs)
    main, query = cli.main, core.CountingOracle.query
    tracer = Tracer()
    with tracer:
        traced = wl.cycle(inputs)
    assert cli.main is main and core.CountingOracle.query is query
    assert tracer.coverage_violations == 0
    assert tracer.queries == traced.queries == untraced.queries
    assert traced.answer_digest == untraced.answer_digest
    info = dict(traced.info, trace_overhead_ratio=1.0)
    layers = tracer.per_layer(info)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["core.oracle.queries"] == traced.queries
    assert 0.0 < layers["core.oracle.distinct_ratio"] <= 1.0


def test_closed_loop_reports_every_end_to_end_metric(tmp_path):
    wl = SMALL["learn-maha"]()
    loop = run.closed_loop(wl, wl.prepare(1, tmp_path), seconds=0.5)
    names = {"setup_s", "peak_rss_mb", *loop["metrics"]}
    assert names == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in loop["metrics"].values())
    assert loop["failed"] == 0 and not loop["gates_failed"]


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(name_re.match(n) for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_compare_refuses_results_from_another_machine(tmp_path):
    doc = {"workload": "learn-maha", "correct": True, "end_to_end": {},
           "provenance": {"machine": {"nproc": 2}, "backend": {"kernels_backend": "numpy"}}}
    other = json.loads(json.dumps(doc))
    other["provenance"]["machine"]["nproc"] = 64
    (tmp_path / "a.json").write_text(json.dumps(doc))
    (tmp_path / "b.json").write_text(json.dumps(other))
    assert compare.main(["--base", str(tmp_path / "a.json"),
                         "--change", str(tmp_path / "b.json")]) == 2


def test_runs_repeat_across_processes_and_fail_without_source(tmp_path):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "learn-maha",
           "--seconds", "1", "--trace", "0", "--seed"]
    docs = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        proc = subprocess.run(cmd + ["7", "--out", str(out)], capture_output=True,
                              text=True, timeout=170, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
        docs.append(json.loads(out.read_text()))
    assert docs[0]["digests"] == docs[1]["digests"]
    assert docs[0]["end_to_end"]["queries"] == docs[1]["end_to_end"]["queries"]

    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "learn-maha",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=bare)
    assert proc.returncode != 0 and proc.stdout == ""

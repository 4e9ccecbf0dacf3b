"""tripletdist benchmark: learn a model, check it, serve triplets with it.

Usage (from the repository root):

    python3 perfbench/run.py --workload learn-mult --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

One run is one process and one workload in a closed loop: it repeats whole
cycles (inputs -> learned, reloaded, served and checked model) while another
cycle fits in ``--seconds``, then re-serves the last stream until the time is
up.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` then also runs
one traced cycle and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is the JSON result.  The exit code is
non-zero when a gate fails or the package source is missing.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("learn-additive", "learn-mult", "learn-maha")
SETUP_REPEATS = 5


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def warm_blas() -> float:
    """First eigh/solve/svd/qr calls, so their cold start lands in setup_s."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((6, 6))
    m = a @ a.T + 6.0 * np.eye(6)
    np.linalg.eigh(m)
    np.linalg.eigvalsh(m)
    np.linalg.solve(m, np.ones(6))
    np.linalg.svd(m)
    np.linalg.qr(a)
    return time.perf_counter() - t0


def git_commit() -> str | None:
    """HEAD commit read from .git without starting git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(threads: int) -> dict:
    """Machine and backend facts; compare.py refuses to pair results where they differ."""
    import hashlib

    import numpy as np
    from tripletdist import _kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for f in sorted((SRC / "tripletdist").glob("*.py")):
        src.update(f.name.encode() + f.read_bytes())
    return {
        "machine": {"nproc": os.cpu_count(), "arch": platform.machine(),
                    "python": platform.python_version()},
        "backend": {"numpy": np.__version__, "blas": blas.get("name"),
                    "blas_version": blas.get("version"), "blas_threads": threads,
                    "kernels_backend": _kernels.active_backend(),
                    "has_numba": _kernels.HAS_NUMBA},
        "commit": git_commit(),
        "source_sha256": src.hexdigest(),
    }


def closed_loop(wl, inputs, seconds: float) -> dict:
    """Whole cycles while the next one fits, then re-served streams until time is up."""
    import numpy as np

    t0 = time.perf_counter()
    cycles, batch_s, rows = [], [], 0
    while True:
        c = wl.cycle(inputs)
        cycles.append(c)
        batch_s += c.batch_s
        rows += c.rows
        if time.perf_counter() - t0 + c.verified_s > seconds:
            break
    last = cycles[-1]
    passes, reserved_same = 0, True
    while time.perf_counter() - t0 < seconds:
        times, n, same = last.serve_again()
        passes += 1
        batch_s += times
        rows += n
        reserved_same = reserved_same and same
    loop_gates = {
        "cycles_repeat_exactly": all(c.queries == last.queries
                                     and c.answer_digest == last.answer_digest
                                     for c in cycles),
        "reserved_answers_repeat": reserved_same,
    }
    gates_failed = sorted({k for c in cycles for k, ok in c.gates.items() if not ok}
                          | {k for k, ok in loop_gates.items() if not ok})
    ms = np.asarray(batch_s) * 1e3
    metrics = {
        "learn_s": statistics.median(c.learn_s for c in cycles),
        "verified_s": statistics.median(c.verified_s for c in cycles),
        "queries": last.queries,
        "query_budget_ratio": max(c.budget_ratio for c in cycles),
        "answer_triplets_per_s": rows / float(np.sum(batch_s)),
        "answer_batch_ms_p50": float(np.percentile(ms, 50)),
        "answer_batch_ms_p90": float(np.percentile(ms, 90)),
        "max_err_ratio": max(c.err_ratio for c in cycles),
    }
    return {"metrics": metrics, "cycles": len(cycles), "reserve_passes": passes,
            "batches": len(batch_s), "batch_rows": last.batch,
            "attempted": sum(c.attempted for c in cycles),
            "failed": sum(c.failed for c in cycles) + sum(not ok for ok in loop_gates.values()),
            "gates_failed": gates_failed, "last": last,
            "elapsed_s": time.perf_counter() - t0}


def traced_cycle(wl, inputs, untraced_learn_s: float) -> dict:
    """One cycle with every layer's spans recorded; per-layer metrics and trace gates."""
    from spans import Tracer

    tracer = Tracer()
    with tracer:
        c = wl.cycle(inputs)
    info = dict(c.info, trace_overhead_ratio=c.learn_s / untraced_learn_s)
    if hasattr(wl, "case_counts"):
        info["case_counts"] = wl.case_counts(c)
    trace_gates = {"trace_children_within_parent": tracer.coverage_violations == 0,
                   "trace_sees_every_query": tracer.queries == c.queries}
    gates_failed = [f"traced:{k}" for g in (c.gates, trace_gates) for k, ok in g.items()
                    if not ok]
    return {"per_layer": tracer.per_layer(info), "cycle": c, "gates_failed": gates_failed,
            "attempted": c.attempted,
            "failed": c.failed + sum(not ok for ok in trace_gates.values())}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_one(args) -> int:
    if not (SRC / "tripletdist" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import tripletdist

    if Path(tripletdist.__file__).resolve().parent != (SRC / "tripletdist").resolve():
        print(f"error: imported tripletdist from {tripletdist.__file__}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - T_PROCESS
    warmup_s = warm_blas()
    ready_s = time.perf_counter() - T_PROCESS
    prov = provenance(threads)
    e2e_units, layer_units = metric_units()

    wl = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prep = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = wl.prepare(args.seed, workdir)
            prep.append(time.perf_counter() - t)
        setup_s = ready_s + statistics.median(prep)
        loop = closed_loop(wl, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = {"setup_s": setup_s, **loop["metrics"], "peak_rss_mb": peak_rss_mb}
        attempted, failed = loop["attempted"], loop["failed"]
        gates_failed = list(loop["gates_failed"])
        traced = traced_cycle(wl, inputs, e2e["learn_s"]) if args.trace else None
        if traced:
            attempted += traced["attempted"]
            failed += traced["failed"]
            gates_failed += traced["gates_failed"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place while another run uses it
            workdir.parent.rmdir()

    correct = failed == 0 and not gates_failed
    last = loop["last"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"setup: ready {ready_s:.4f} s (imports {import_s:.4f} s, BLAS warm-up "
          f"{warmup_s:.4f} s), prepare median {statistics.median(prep):.4f} s of "
          f"{SETUP_REPEATS}")
    print(f"loop: {loop['cycles']} cycle(s), {loop['reserve_passes']} re-served pass(es), "
          f"{loop['batches']} batches of {loop['batch_rows']} triplets, "
          f"{loop['elapsed_s']:.2f} s")
    print(f"digests: answers {last.answer_digest[:16]}  stream {last.stream_digest[:16]}  "
          f"artifact {last.artifact_hash[:16]}")
    print("gates failed: " + (", ".join(gates_failed) if gates_failed else "none"))
    print(f"{'metric':<34}{'value':>16}  unit")
    for name, value in e2e.items():
        print(f"{name:<34}{_fmt(value):>16}  {e2e_units[name]}")
    print(f"{'failed_ratio':<34}{_fmt(failed / attempted):>16}  ratio"
          f"  ({failed} failed of {attempted} attempted)")
    if traced:
        pl = traced["per_layer"]
        print(f"{'trace_overhead_ratio':<34}{_fmt(pl['trace_overhead_ratio']):>16}  ratio")
        print("per-layer (one traced cycle):")
        for name, value in pl.items():
            print(f"  {name:<32}{_fmt(value):>16}  {layer_units[name]}")
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in pl.items()}
    else:
        print(f"{'trace_overhead_ratio':<34}{'(--trace 1)':>16}  ratio")
        metrics = {k: {"value": v, "unit": e2e_units[k]} for k, v in e2e.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        doc = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, provenance=prov, end_to_end=e2e,
                   gates_failed=gates_failed, batches=loop["batches"], cycles=loop["cycles"],
                   digests={"answers": last.answer_digest, "stream": last.stream_digest,
                            "artifact": last.artifact_hash},
                   setup={"ready_s": ready_s, "import_s": import_s, "warmup_s": warmup_s,
                          "prepare_s": prep})
        Path(args.out).write_text(json.dumps(doc))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process; non-zero if any of them fails."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result (provenance, end-to-end "
                                   "metrics, digests) here")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except Exception:  # a workload that raises is a failed run, not a result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())

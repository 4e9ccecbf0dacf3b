"""Compare benchmark results written with ``run.py --out``.

    python3 perfbench/compare.py --base parent/*.json [--change change/*.json]

For each workload and end-to-end metric it prints the median, the spread
(quartile distance over median) and, with ``--change``, the change's median
relative to the base, judged against the metric's bound in BENCHMARK.json:
``worse`` past the bound, ``unresolved`` when the base spread exceeds the bound
(unless every change run beats every base run), else ``ok``.  Results whose
machine or backend provenance differ are never paired: it exits 2 instead.
Exits 1 when a result is incorrect or a metric is worse past its bound.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    docs = [json.loads(Path(p).read_text()) for p in paths]
    by_workload = defaultdict(list)
    for d in docs:
        by_workload[d["workload"]].append(d)
    return docs, by_workload


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="*", default=[])
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base_docs, base = load(args.base)
    change_docs, change = load(args.change)

    ref = base_docs[0]["provenance"]
    for d in base_docs + change_docs:
        for block in ("machine", "backend"):
            if d["provenance"][block] != ref[block]:
                print(f"refusing to pair: {block} differs between results: "
                      f"{ref[block]} vs {d['provenance'][block]}", file=sys.stderr)
                return 2

    code = 0
    if not all(d["correct"] for d in base_docs + change_docs):
        print("some results are not correct")
        code = 1
    for workload, runs in sorted(base.items()):
        print(f"{workload}: {len(runs)} base run(s), {len(change.get(workload, []))} change run(s)")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            b = [d["end_to_end"][name] for d in runs]
            b_med, b_spread = spread(b)
            line = f"  {name:<24} base {b_med:<12.6g} spread {b_spread:7.2%} (bound {bound:.0%})"
            c = [d["end_to_end"][name] for d in change.get(workload, [])]
            if c:
                c_med, _ = spread(c)
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
                all_better = (max(c) < min(b)) if sign > 0 else (min(c) > max(b))
                if worse > bound:
                    verdict = "worse"
                    code = 1
                elif b_spread > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                line += f"  change {c_med:<12.6g} worse by {worse:+7.2%}  {verdict}"
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files are written by `collect.py` with tracing off.  Runs are paired by
seed.  For every end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles and a verdict:

- improved: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ, in the better direction, by more
  than the distance between the parent's quartiles;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: the spread of either side (quartile distance over median) is
  wider than the bound, unless every run of the change reads better than
  every run of the parent;
- no worse: otherwise.
"""

from __future__ import annotations

import sys

from collect import by_workload, load_benchmark, load_results, quartiles


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    gain = sign * (p_med - c_med)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "improved"
    if -gain > bound * p_med:
        return "worse"
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    return "no worse"


def paired(parent_recs, change_recs, name):
    """Values of both sides, in matching seed order where the seeds match."""
    def values(recs):
        return {r["meta"]["seed"]: r["result"]["metrics"][name]["value"] for r in recs}
    p, c = values(parent_recs), values(change_recs)
    common = sorted(set(p) & set(c))
    if common:
        return [p[s] for s in common], [c[s] for s in common]
    return list(p.values()), list(c.values())


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.split("\n\n")[1])
    bench = load_benchmark()
    parent = by_workload(load_results(sys.argv[1]))
    change = by_workload(load_results(sys.argv[2]))

    def spread(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print("workload     metric       parent median [q1, q3]          "
          "change median [q1, q3]          verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in parent or workload not in change:
            print(f"{workload:12s} (missing on one side)")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p, c = paired(parent[workload], change[workload], name)
            row = verdict(p, c, metric["better"], metric["bound"])
            print(f"{workload:12s} {name:12s} {spread(quartiles(p)):31s} "
                  f"{spread(quartiles(c)):31s} {row}")
        for label, recs in (("parent", parent[workload]), ("change", change[workload])):
            failed = sum(r["result"]["failed"] for r in recs)
            attempted = sum(r["result"]["attempted"] for r in recs)
            print(f"{workload:12s} {label} failed {failed}/{attempted}")


if __name__ == "__main__":
    main()

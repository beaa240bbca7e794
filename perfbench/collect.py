"""Run the benchmark over several seeds and save the results.

    python3 perfbench/collect.py --out results.jsonl \
        [--workloads repro estimate] [--seeds 1-10]

Runs `run.py` once per workload and seed, one after another, with tracing
off and the `run_seconds` of BENCHMARK.json.  Each result is appended to
`--out` as one JSON line holding the run's `meta` and its result object.
At the end it prints, per workload and metric, the median, the quartiles
and the spread (distance between the quartiles over the median) next to
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[len("meta: "):]) for line in lines
                if line.startswith("meta: "))
    return {"meta": meta, "result": json.loads(lines[-1])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_results(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_workload(records):
    out = {}
    for rec in records:
        out.setdefault(rec["meta"]["workload"], []).append(rec)
    return out


def summarize(records, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload, recs in by_workload(records).items():
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        correct = all(r["result"]["correct"] for r in recs)
        print(f"{workload}: {len(recs)} runs, {attempted} operations, "
              f"{failed} failed, correct={correct}")
        names = recs[0]["result"]["metrics"]
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}  spread/bound {spread / bound:.2f}"
            print(f"  {name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}{note}")


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    records = []
    with open(args.out, "a") as fh:
        for workload in args.workloads:
            for seed in parse_seeds(args.seeds):
                rec = run_once(workload, seed, bench["run_seconds"])
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
                fh.flush()
                records.append(rec)
                print(f"{workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}"
                                 for k, v in rec["result"]["metrics"].items()),
                      flush=True)
    summarize(records, bench)


if __name__ == "__main__":
    main()

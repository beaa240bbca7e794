"""Smoke test of the benchmark on tiny corpora (about a minute).

    python3 perfbench/check_smoke.py

Checks three things:
1. every metric named in BENCHMARK.json is printed, with its unit, by runs
   with tracing off and on, for every workload;
2. a corrupted reference is reported as a failure (`correct` false);
3. a BudgetExceeded counts in `failed` and in `failed_frac`;
4. the traced `exact_norms` run reports the known defects in
   `known_defects`, outside `failed`.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402
import workloads  # noqa: E402

TINY_EXPERIMENTS = ("repro-kt-00", "repro-parity", "repro-m31")
TINY_EXACT = ("sup:2:flat24:int", "sup:w+1:flat24:frac", "james:1:n50:int:wit",
              "bound:1:2:N2", "weighted:3+21", "james:1:n400:int")


class TinyRepro(workloads.Repro):
    def __init__(self, *args):
        super().__init__(*args)
        self.ops = [op for op in self.ops if op.label in TINY_EXPERIMENTS]


def tiny_exact_corpus(full=workloads.exact_corpus):
    return [item for item in full() if item[0] in TINY_EXACT]


def invoke(workload, trace, refs=None):
    """Run run.main in-process; return (printed metric lines, result)."""
    load = workloads.load_refs
    if refs is not None:
        run.load_refs = lambda name: refs
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                      "--trace", str(trace)])
    finally:
        run.load_refs = load
    lines = out.getvalue().strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        name, eq, rest = line.partition(" = ")
        if eq:
            printed[name] = rest.split()[1]
    return printed, json.loads(lines[-1])


def main():
    workloads.ESTIMATE_SAMPLE_SEEDS = (1, 2)
    workloads.WORKLOADS["repro"] = TinyRepro
    workloads.exact_corpus = tiny_exact_corpus
    # the refused 400-point interval norm joins the tiny corpus as an
    # ordinary operation, so that a refusal is counted
    workloads.KNOWN_DEFECTS = ()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            printed, result = invoke(w["name"], trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != wanted or got != wanted:
                missing = sorted(set(wanted) - set(printed))
                problems.append(f"{w['name']} trace={trace}: metrics or units "
                                f"differ from BENCHMARK.json (missing {missing})")
            # the one failure expected is the refused 400-point interval norm,
            # which the traced run may replay
            budget = w["name"] == "exact_norms"
            if not result["correct"] or (result["failed"] > 0) != budget:
                problems.append(f"{w['name']} trace={trace}: failed "
                                f"{result['failed']}, correct {result['correct']}")
            if trace and w["name"] == "exact_norms":
                # one refused input in the traced pass over the tiny corpus
                frac = result["metrics"]["failed_frac"]["value"]
                if frac != 1 / len(TINY_EXACT):
                    problems.append(f"failed_frac {frac} misses the BudgetExceeded")

    workloads.KNOWN_DEFECTS = ("james:1:n400:int",)
    _, result = invoke("exact_norms", 1)
    found = result["metrics"]["known_defects"]["value"]
    if found != 1 or result["failed"] or not result["correct"]:
        problems.append(f"known_defects {found}, failed {result['failed']}: "
                        "the known defect is not reported apart")
    workloads.KNOWN_DEFECTS = ()

    corrupt = {
        "repro": lambda r: r["outputs"]["repro-parity"].update(
            {"repro-parity.csv": "0" * 64}),
        "estimate": lambda r: r["lower_bounds"].update({"parity#1": "1.5"}),
        "exact_norms": lambda r: r["values"].update({"bound:1:2:N2": "1/4"}),
    }
    for name, spoil in corrupt.items():
        refs = copy.deepcopy(workloads.load_refs(name))
        spoil(refs)
        _, result = invoke(name, 0, refs)
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{name}: a corrupted reference was not reported")

    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference answers the benchmark checks against.

    python3 perfbench/record_refs.py {repro,estimate,exact_norms}

The references in `refs/` were recorded once, from the commit that
introduced the benchmark; rerunning this script on a later commit would
replace them with that commit's answers, so do it only for a workload whose
corpus changed.  `exact_norms` values are also cross-checked against the
naive evaluators wherever those accept the input.  Two inputs fail at that
commit; their references are derived separately (see `exact_defect_value`).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

sys.dont_write_bytecode = True

import run  # noqa: E402
from workloads import (REFS, Estimate, ExactNorms, Repro,  # noqa: E402
                       frac_text, exact_corpus)


def record_repro(lib):
    tmp = run.ROOT / ".bench_tmp" / "record-repro"
    state = Repro(lib, 0, tmp, None)
    for op in state.ops:
        verdict = op.check(op.call())
        if verdict is not None:
            raise SystemExit(f"cannot record: {verdict[1]}")
    shutil.rmtree(tmp, ignore_errors=True)
    return {"outputs": state.recorded}


def record_estimate(lib):
    state = Estimate(lib, 0, None, None)
    bounds = {}
    for ops in state.ops.values():
        for op in ops:
            est = op.call()
            verdict = op.check(est)
            if verdict is not None:
                raise SystemExit(f"cannot record: {verdict[1]}")
            bounds[op.label] = repr(est.lower_bound)
    return {"lower_bounds": bounds}


def exact_defect_value(lib, label, entries, level, exc):
    """The value of an input the evaluators refuse at the recording commit.

    A RecursionError: when the whole support is a member and every
    coefficient is positive, the norm is the sum of the coefficients.
    A budget refusal: the same evaluator with a raised budget.
    """
    x = lib.vectors.SparseVector(entries)
    alpha = lib.ordinals.parse_ordinal(level)
    if isinstance(exc, RecursionError):
        support = x.support
        if (lib.schreier.schreier_member(support, alpha)
                and all(v > 0 for v in entries.values())):
            return sum(entries.values()), "support is a member; sum of coefficients"
    elif isinstance(exc, lib.config.BudgetExceeded):
        os.environ["GREEDYLAB_BUDGET"] = str(10 ** 7)
        try:
            return (lib.family_norms.jamesification_norm(x, alpha),
                    "same evaluator with GREEDYLAB_BUDGET=10000000")
        finally:
            del os.environ["GREEDYLAB_BUDGET"]
    raise SystemExit(f"cannot derive a reference for {label}: {exc!r}")


def record_exact_norms(lib):
    state = ExactNorms(lib, 0, None, None)
    corpus = {item[0]: item for item in exact_corpus()}
    values, derived, cross = {}, {}, []
    for op in state.ops:
        label, kind, entries, level, want_witness, _ = corpus[op.label]
        try:
            result = op.call()
        except (RecursionError, lib.config.BudgetExceeded) as exc:
            value, how = exact_defect_value(lib, label, entries, level, exc)
            derived[label] = f"{type(exc).__name__} at this commit; {how}"
        else:
            verdict = op.check(result)
            if verdict is not None:
                raise SystemExit(f"cannot record: {verdict[1]}")
            if kind == "bound":
                value = result.norm_value
            else:
                value = result[0] if want_witness else result
        values[label] = frac_text(value)
        if level is not None:
            x = lib.vectors.SparseVector(entries)
            alpha = lib.ordinals.parse_ordinal(level)
            naive = None
            if kind == "sup" and len(x) <= 16:
                naive = lib.family_norms.naive_schreier_norm(x, alpha)
            elif kind == "james" and x.max_index() <= 10:
                naive = lib.family_norms.naive_james_norm(x, alpha)
            if naive is not None:
                if Fraction(naive) != Fraction(value):
                    raise SystemExit(f"{label}: naive {naive} != {value}")
                cross.append(label)
        print(f"{label}: {values[label]}")
    return {"values": values, "derived": derived, "naive_cross_checked": cross}


def main():
    name = sys.argv[1]
    sys.path.insert(0, str(run.SRC))
    lib = run.import_library()
    record = {"repro": record_repro, "estimate": record_estimate,
              "exact_norms": record_exact_norms}[name]
    payload = record(lib)
    payload["recorded_at"] = run.git_revision()
    REFS.mkdir(exist_ok=True)
    with open(REFS / f"{name}.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

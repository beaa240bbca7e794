"""Benchmark runner for greedylab.

    python3 perfbench/run.py --workload {repro,estimate,exact_norms} \
        --seed N --seconds S --trace {0,1}

One process, no threads, closed loop: each operation is issued after the
previous one returned; the process re-executes itself once to fix
PYTHONHASHSEED (see HASH_SEED). The library is imported from `src/` of the
checkout this file sits in. Set-up (a fresh import of the package, space
and family construction, corpus generation and loading the references) is
repeated `SETUPS` times and reported as the median. Then whole passes over
the workload's corpus run until the next pass would overrun `--seconds` (at
least the workload's `min_passes`). Every answer is checked against its
reference outside the timed region. An operation faster than the workload's
`repeat_under_s` runs as a group of calls each pass and counts their mean.
Each operation's latency is its minimum over the passes, and every time is
scaled to a reference host speed by `speed.SpeedProbe` (NOTES.md gives the
reason); the unscaled figures are printed next to the scaled ones and kept
in `meta.raw`.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
per-layer metrics. The traced run traces exactly one pass over the corpus,
whatever `--seconds` is, after running the start of that same pass untraced
for up to half of `--seconds`, so that `trace.overhead_frac` compares
identical work; then the workload's known-defect inputs run once each,
untimed and untraced, for `known_defects`. Every metric is printed as
`name = value unit`, then a `meta:` line, then, as the last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True

import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import REFUSED, WORKLOADS, WRONG, load_refs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("config", "ordinals", "vectors", "schreier", "norms",
           "family_norms", "rah", "greedy", "spaces", "harness")
SETUPS = 7
# an operation faster than its workload's `repeat_under_s` runs at least this
# many times in a row and for at least this long, so that its time is not
# one call's noise and spans speed-probe samples of its own
REPEATS = 3
GROUP_S = 0.1

END_TO_END = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}
REPRO_SPLIT = ("repro-james", "repro-walpha")
# String hashes are salted afresh in every process unless PYTHONHASHSEED is
# set, and with them the layout, and the speed, of every dict and set keyed
# by strings: `repro-l2sum` timed in six fresh processes read 900 to 1000 ms
# with salted hashes and 949 to 968 ms with this seed.  The runner re-executes
# itself with the seed fixed, so that every run of a commit hashes alike.
HASH_SEED = "0"


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer in tracing.LAYERS:
        if layer == "norms.oracle":
            for kind in tracing.SPACE_KINDS:
                units[f"norms.oracle.{kind}.calls"] = "count"
                units[f"norms.oracle.{kind}.s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "greedy.norms_per_sigma": "norms/call",
        "greedy.best_coefficients.unconverged": "count",
        "family_norms.sup.witness_s": "s",
        "family_norms.sup.budget_exceeded": "count",
        "family_norms.james.budget_exceeded": "count",
        "rah.sequence.budget_exceeded": "count",
        "repro-james_s": "s",
        "repro-walpha_s": "s",
        "repro-rest_s": "s",
        "failed_frac": "frac",
        "known_defects": "count",
        "trace.overhead_frac": "frac",
        "trace.spans": "count",
    })
    return units


def import_library():
    """Import greedylab afresh, so that each set-up pays the import again."""
    for name in [m for m in sys.modules
                 if m == "greedylab" or m.startswith("greedylab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"greedylab.{m}")
                              for m in MODULES})


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown"


class Runner:
    """Runs operations and keeps the failure accounting."""

    def __init__(self, budget_error, tracer, probe):
        self.budget_error = budget_error
        self.tracer = tracer
        self.probe = probe
        self.scales = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []

    def run(self, op):
        """Time one call of an operation, then check it with tracing paused;
        returns its time without the speed probe's own time."""
        outcome = None
        start = time.perf_counter()
        try:
            result = op.call()
        except (self.budget_error, RecursionError) as exc:
            outcome = (REFUSED, f"{op.label}: {type(exc).__name__}")
        except Exception as exc:
            outcome = (WRONG, f"{op.label}: raised {exc!r}")
        end = time.perf_counter()
        if outcome is None:
            tracing_was = self.tracer.active if self.tracer else False
            if self.tracer:
                self.tracer.active = False
            try:
                outcome = op.check(result)
            finally:
                if self.tracer:
                    self.tracer.active = tracing_was
        self.attempted += 1
        if outcome is not None:
            self.failed += 1
            if outcome[0] == WRONG:
                self.wrong += 1
            self.messages.append(outcome[1])
        return end - start - self.probe.busy(start, end)

    def latency(self, op, repeat_under_s=0.0):
        """One latency of an operation, scaled to the reference speed and
        raw.  An operation that succeeds in less than `repeat_under_s` runs
        back to back at least `REPEATS` times and for at least `GROUP_S`,
        and its latency is the mean over that group but its first call.
        The garbage the previous operation left is collected first."""
        gc.collect()
        start = time.perf_counter()
        failed = self.failed
        raws = [self.run(op)]
        fast = raws[0] * self.probe.scale(start, time.perf_counter()) < repeat_under_s
        if fast and self.failed == failed:
            while len(raws) < REPEATS or time.perf_counter() - start < GROUP_S:
                raws.append(self.run(op))
            # the first call finds the caches cold after the previous operation
            del raws[0]
        raw = statistics.fmean(raws)
        scale = self.probe.scale(start, time.perf_counter())
        self.scales.append(scale)
        return raw * scale, raw


def run_passes(state, runner, seconds):
    """Whole passes, at least the workload's `min_passes`, until the next one
    would overrun `seconds`; returns each operation's (scaled, raw)
    latencies and the number of passes."""
    latencies = {}
    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        for op in state.passes(index):
            latencies.setdefault(op.label, []).append(
                runner.latency(op, state.repeat_under_s))
        index += 1
        now = time.perf_counter()
        if index >= state.min_passes and now - start + (now - pass_start) > seconds:
            return latencies, index


def run_traced(state, runner, tracer, seconds):
    """The first pass untraced until it ends or half of `seconds` has gone,
    then the whole first pass traced.  Returns the tracing overhead on the
    operations run both ways, the number of those operations, the failed
    share of the traced pass and each operation's traced (scaled) latency."""
    ops = state.passes(0)
    untraced = []
    start = time.perf_counter()
    for op in ops:
        untraced.append(runner.latency(op)[0])
        if time.perf_counter() - start >= seconds / 2:
            break
    failed_before = runner.failed
    tracer.active = True
    traced = [runner.latency(op)[0] for op in ops]
    tracer.active = False
    overhead = sum(traced[:len(untraced)]) / sum(untraced) - 1.0
    failed_frac = (runner.failed - failed_before) / len(ops)
    return (overhead, len(untraced), failed_frac,
            {op.label: t for op, t in zip(ops, traced)})


def probe_defects(state, runner):
    """Each of the workload's known-defect inputs once, untimed; returns
    how many still fail.  One that now answers wrongly is a wrong answer."""
    still = 0
    for op in state.defects:
        try:
            outcome = op.check(op.call())
        except (runner.budget_error, RecursionError):
            outcome = (REFUSED, None)
        except Exception as exc:
            outcome = (WRONG, f"{op.label}: raised {exc!r}")
        if outcome is not None:
            still += 1
            if outcome[0] == WRONG:
                runner.wrong += 1
                runner.messages.append(outcome[1])
    return still


def tail(values):
    """The highest value with at least ten values beyond it (the maximum
    when there are ten or fewer)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def end_to_end(per_op, setup_times, peak_rss_mb):
    return {
        "wall_s": sum(per_op),
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": 1000.0 * statistics.median(per_op),
        "op_tail_ms": 1000.0 * tail(per_op),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "greedylab" / "__init__.py").is_file():
        sys.exit(f"run.py: no greedylab package under {SRC}")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    # bytecode cached by an earlier run of the tests is never read, so that
    # every set-up compiles the package alike
    pycache_prefix = sys.pycache_prefix
    sys.pycache_prefix = str(tmp / "pycache")
    try:
        with SpeedProbe() as probe:
            return measure(args, workload, tmp, probe)
    finally:
        sys.pycache_prefix = pycache_prefix
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, workload, tmp, probe):
    tracer = tracing.Tracer() if args.trace else None
    setup_times = []
    for i in range(SETUPS):
        start = time.perf_counter()
        if tracer:
            # only the last set-up is recorded
            tracer.active = i == SETUPS - 1
        lib = import_library()
        if tracer:
            tracing.install(tracer, lib)
        state = workload(lib, args.seed, tmp, load_refs(workload.name))
        end = time.perf_counter()
        raw = end - start - probe.busy(start, end)
        setup_times.append((raw * probe.scale(start, end), raw))
    if tracer:
        tracer.active = False
    runner = Runner(lib.config.BudgetExceeded, tracer, probe)

    raw = None
    if tracer is None:
        latencies, passes = run_passes(state, runner, args.seconds)
        # the host's speed drifts within seconds; the fastest pass over a
        # fixed piece of work moves least
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, raw = (
            end_to_end([min(t[k] for t in v) for v in latencies.values()],
                       [t[k] for t in setup_times], peak_rss_mb)
            for k in (0, 1))
        units = END_TO_END
    else:
        overhead, overhead_ops, failed_frac, traced_times = run_traced(
            state, runner, tracer, args.seconds)
        metrics = tracing.layer_metrics(tracer)
        split = {name: traced_times.get(name, 0.0) for name in REPRO_SPLIT}
        metrics["repro-james_s"] = split["repro-james"]
        metrics["repro-walpha_s"] = split["repro-walpha"]
        metrics["repro-rest_s"] = (sum(traced_times.values()) - sum(split.values())
                                   if args.workload == "repro" else 0.0)
        metrics["failed_frac"] = failed_frac
        metrics["known_defects"] = probe_defects(state, runner)
        metrics["trace.overhead_frac"] = overhead
        units = per_layer_units()
        metrics = {name: metrics[name] for name in units}
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.tsv")
        passes = 1

    for message in runner.messages[:20]:
        print(f"failed: {message}", file=sys.stderr)
    for name, unit in units.items():
        note = f" (raw {raw[name]:.6g} {unit})" if raw else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{note}")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "python": platform.python_version(),
        "git_revision": git_revision(), "nproc": os.cpu_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "corpus_ops": len({op.label for op in state.passes(0)}),
        "ops": runner.attempted,
        "passes": passes, "wrong": runner.wrong, "raw": raw,
        "speed_scale": statistics.median(runner.scales),
    }
    if tracer:
        meta["overhead_ops"] = overhead_ops
    print("meta: " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())

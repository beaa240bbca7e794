"""Span recorder for the traced benchmark run.

Wrappers are installed from here, in the namespaces of the modules that
import each public function, so the library itself stays untouched.  Each
span records its name, start, end and parent span id.  Per-name aggregates
(calls, inclusive time, self time) cover every span; the raw spans are kept
in memory up to `KEEP_SPANS` and written out when the run ends, because the
`estimate` workload opens millions of spans per run.
"""

from __future__ import annotations

import functools
import time
from array import array

KEEP_SPANS = 200_000

# Space kinds of `NormOracle.name` ("james:a=1" -> "james"), reported per kind.
SPACE_KINDS = ("james", "parity", "schreier", "walpha", "kt", "ktsum")

# layer -> [(module attribute holding the function, attribute name), ...]
# The attribute is replaced in every namespace that calls through it.
PATCH_POINTS = {
    "greedy.sigma_m": [("greedy", "sigma_m")],
    "greedy.best_coefficients": [("greedy", "best_coefficients")],
    "greedy.members_within": [("greedy", "family_members_within")],
    "norms.closed_form": [("spaces", "kt_block_norm"),
                          ("spaces", "block_sum_norm"),
                          ("spaces", "mixed_parity_norm"),
                          ("harness", "kt_block_norm")],
    "family_norms.sup": [("spaces", "schreier_alpha_norm"),
                         ("rah", "schreier_alpha_norm"),
                         ("family_norms", "schreier_alpha_norm")],
    "family_norms.james": [("spaces", "jamesification_norm"),
                           ("harness", "jamesification_norm"),
                           ("family_norms", "jamesification_norm")],
    "family_norms.weighted": [("spaces", "weighted_schreier_norm"),
                              ("harness", "weighted_schreier_norm"),
                              ("family_norms", "weighted_schreier_norm")],
    "schreier.member": [("family_norms", "schreier_member"),
                        ("family_norms", "f_alpha_member")],
    "rah.sequence": [("harness", "rah_sequence"), ("rah", "rah_sequence")],
    "rah.bound_search": [("rah", "rah_schreier_bound_search")],
    "rah.weight_family": [("spaces", "make_weight_family"),
                          ("harness", "make_weight_family"),
                          ("rah", "make_weight_family")],
    "rah.certificates": [("harness", "weight_family_certificates")],
    "rah.democracy": [("harness", "democracy_growth_table")],
    "spaces.make_space": [("spaces", "make_space"), ("harness", "make_space")],
    "harness": [("harness", "run_experiment")],
    "harness.write": [("harness", "write_csv"), ("harness", "write_json")],
}

LAYERS = tuple(PATCH_POINTS) + ("norms.oracle",)


class Tracer:
    """Spans and per-name aggregates; recording only while `active`."""

    def __init__(self):
        self.active = False
        self.budget_error = ()
        self._names = []
        self._name_ids = {}
        self._span_id = array("q")
        self._span_name = array("I")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("q")
        self._stack = []
        self._open = {}
        self.spans = 0
        self.stats = {}      # name -> [calls, inclusive s, self s]
        self.counters = {}   # extra counts and times, by metric name

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def is_open(self, name):
        return self._open.get(name, 0) > 0

    def _begin(self, name):
        span_id = self.spans
        self.spans += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, name, parent, 0.0, time.perf_counter()]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def _end(self, frame):
        end = time.perf_counter()
        span_id, name, parent, child_s, start = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        depth = self._open[name] - 1
        self._open[name] = depth
        row = self.stats.get(name)
        if row is None:
            row = self.stats[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[2] += duration - child_s
        if depth == 0:
            # nested spans of one name count once in the inclusive time
            row[1] += duration
        if span_id < KEEP_SPANS:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self._names)
                self._names.append(name)
            self._span_id.append(span_id)
            self._span_name.append(name_id)
            self._span_start.append(start)
            self._span_end.append(end)
            self._span_parent.append(parent)
        return duration

    def wrap(self, fn, name, name_of=None, on_result=None):
        """Return `fn` recording one span per call while the tracer is active.

        `name_of(args)` picks the span name per call; `on_result(args,
        kwargs, result, seconds)` sees every successful call.  A budget
        refusal raised through the span is counted as `<name>.budget_exceeded`.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name_of(args) if name_of else name
            frame = tracer._begin(span_name)
            try:
                result = fn(*args, **kwargs)
            except tracer.budget_error:
                tracer._end(frame)
                tracer.count(f"{span_name}.budget_exceeded")
                raise
            except BaseException:
                tracer._end(frame)
                raise
            seconds = tracer._end(frame)
            if on_result is not None:
                on_result(args, kwargs, result, seconds)
            return result

        return traced

    def write(self, path):
        """Write the kept spans, in the order they ended, as tab-separated
        rows: id, parent id, name, start and end in seconds from the
        earliest start."""
        base = min(self._span_start) if self._span_start else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self._span_name)):
                fh.write(f"{self._span_id[i]}\t{self._span_parent[i]}\t"
                         f"{self._names[self._span_name[i]]}\t"
                         f"{self._span_start[i] - base:.9f}\t"
                         f"{self._span_end[i] - base:.9f}\n")
        return len(self._span_name)


def install(tracer, lib):
    """Wrap the public calls of a freshly imported library (`lib.<module>`)."""
    tracer.budget_error = lib.config.BudgetExceeded

    def witness_time(args, kwargs, result, seconds):
        if kwargs.get("want_witness"):
            tracer.count("family_norms.sup.witness_s", seconds)

    def unconverged(args, kwargs, result, seconds):
        if result[2] is False:
            tracer.count("greedy.best_coefficients.unconverged")

    hooks = {"family_norms.sup": witness_time,
             "greedy.best_coefficients": unconverged}
    for layer, points in PATCH_POINTS.items():
        for module, attr in points:
            mod = getattr(lib, module)
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), layer,
                                           on_result=hooks.get(layer)))

    def oracle_name(args):
        kind = args[0].name.partition(":")[0]
        if tracer.is_open("greedy.sigma_m"):
            tracer.count("oracle_in_sigma")
        return f"norms.oracle.{kind}"

    oracle = lib.norms.NormOracle
    oracle.norm = tracer.wrap(oracle.norm, "norms.oracle", name_of=oracle_name)
    handle = lib.schreier.FamilyHandle
    handle.contains = tracer.wrap(handle.contains, "schreier.member")


def layer_metrics(tracer):
    """Per-layer metric values from the recorded aggregates."""
    stats = tracer.stats
    out = {}

    def row(name):
        return stats.get(name, (0, 0.0, 0.0))

    for layer in LAYERS:
        if layer == "norms.oracle":
            rows = [row(f"norms.oracle.{k}") for k in SPACE_KINDS]
            calls = sum(r[0] for r in rows)
            incl = sum(r[1] for r in rows)
            self_s = sum(r[2] for r in rows)
            for kind, r in zip(SPACE_KINDS, rows):
                out[f"norms.oracle.{kind}.calls"] = r[0]
                out[f"norms.oracle.{kind}.s"] = r[1]
        else:
            calls, incl, self_s = row(layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.s"] = incl
        out[f"{layer}.self_s"] = self_s
    c = tracer.counters
    sigma_calls = row("greedy.sigma_m")[0]
    out["greedy.norms_per_sigma"] = (c.get("oracle_in_sigma", 0) / sigma_calls
                                     if sigma_calls else 0.0)
    out["greedy.best_coefficients.unconverged"] = c.get(
        "greedy.best_coefficients.unconverged", 0)
    out["family_norms.sup.witness_s"] = c.get("family_norms.sup.witness_s", 0.0)
    for layer in ("family_norms.sup", "family_norms.james", "rah.sequence"):
        out[f"{layer}.budget_exceeded"] = c.get(f"{layer}.budget_exceeded", 0)
    out["trace.spans"] = tracer.spans
    return out

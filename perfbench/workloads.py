"""The benchmark's three workloads.

Each workload is a fixed corpus of operations, so that every run times the
same work and runs differ only in the machine's noise; the workload seed
picks the order in which the corpus runs (`repro` runs in registry order at
the experiments' default parameters and seed).  A corpus drawn afresh from
each seed would make the runs differ by more than any useful bound: the
cost of one `estimate` sample varies a thousandfold between sample seeds.
Every operation is one closed-loop call into the public library API, made
through the module attribute so that the traced run's wrappers see it.  Every answer is checked against a reference recorded at the commit
that introduced the benchmark (see `record_refs.py`).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

# Operation outcomes besides success: an honest refusal (a budget or
# recursion limit, a BUDGET summary) or a wrong answer.
REFUSED = "refused"
WRONG = "wrong"

ESTIMATE_SPACES = ("james:a=1", "parity", "schreier:a=1", "schreier:a=2",
                   "walpha:a=1", "kt:N=32")
# Sample seeds 1-4, plus 6: the first seed whose sample gives a lower bound
# above 1 (on four of the six spaces), so that the reference check bites.
# Seeds 0 and 5 (about 4 and 7 s over the six spaces) are left out to keep a
# pass near a third of run_seconds, so that every operation runs in two to
# four passes and its minimum is not one slow stretch of the host.
ESTIMATE_SAMPLE_SEEDS = (1, 2, 3, 4, 6)
# The corpus of `exact_norms` is drawn once from this seed; the recorded
# references hold for exactly these inputs.
EXACT_CORPUS_SEED = 20221102
# Inputs of `exact_corpus` that fail at the commit that introduced the
# benchmark.  A workload's timed operations must not fail, so these run
# outside the passes: the traced run calls each once, untimed and untraced,
# and reports how many still fail as `known_defects`.
KNOWN_DEFECTS = ("sup:3:ones1200", "james:1:n400:int")


@dataclass
class Op:
    """One timed call.  `call()` does the work; `check(result)` returns None
    for a right answer or (REFUSED | WRONG, message)."""

    label: str
    call: object
    check: object


def load_refs(name):
    with open(REFS / f"{name}.json") as fh:
        return json.load(fh)


def frac_text(value):
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# repro: every registered experiment once, at its default parameters
# ---------------------------------------------------------------------------


def file_hashes(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(directory).iterdir())}


class Repro:
    name = "repro"
    # One pass takes about 50 s, longer than a run's seconds.  The four
    # experiments under two seconds run as a group of calls each pass
    # instead, so that their latency, and with it `op_p50_ms`, rests on
    # several calls.  `repro-l2sum` takes about 1 s: with the threshold at
    # 1 s it ran once in some runs and as a group in others.
    min_passes = 1
    repeat_under_s = 2.0
    defects = ()

    def __init__(self, lib, seed, tmp, refs):
        self.lib = lib
        self.tmp = Path(tmp)
        self.refs = refs["outputs"] if refs else None
        self.recorded = {}
        self.ops = [self._op(name) for name in lib.harness.EXPERIMENTS]

    def _op(self, name):
        lib = self.lib
        out_dir = self.tmp / name

        def call():
            spec = lib.harness.ExperimentSpec(name)
            return lib.harness.run_experiment(spec, out_dir)

        def check(summary):
            hashes = file_hashes(out_dir)
            shutil.rmtree(out_dir)
            if summary["status"] == "BUDGET":
                return REFUSED, f"{name}: summary status BUDGET"
            if summary["status"] != "PASS":
                return WRONG, f"{name}: summary status {summary['status']}"
            if self.refs is None:
                self.recorded[name] = hashes
                return None
            expected = self.refs.get(name)
            if expected != hashes:
                return WRONG, f"{name}: output files differ from the reference"
            return None

        return Op(name, call, check)

    def passes(self, index):
        return list(self.ops)


# ---------------------------------------------------------------------------
# estimate: single-sample Cg estimates, cycling over six spaces
# ---------------------------------------------------------------------------


class Estimate:
    name = "estimate"
    min_passes = 2
    # the operations around the median take 50-80 ms; grouping them keeps
    # `op_p50_ms` from resting on two calls
    repeat_under_s = 0.1
    defects = ()

    def __init__(self, lib, seed, tmp, refs):
        self.lib = lib
        self.seed = seed
        self.refs = refs["lower_bounds"] if refs else None
        self.family = lib.schreier.FamilyHandle.parse("s:1")
        self.oracles = {d: lib.spaces.make_space(d) for d in ESTIMATE_SPACES}
        self.ops = {k: [self._op(d, k) for d in ESTIMATE_SPACES]
                    for k in ESTIMATE_SAMPLE_SEEDS}

    def _op(self, descriptor, k):
        greedy = self.lib.greedy
        oracle = self.oracles[descriptor]
        family = self.family
        label = f"{descriptor}#{k}"

        def call():
            spec = greedy.SearchSpec(seed=k, samples=1)
            return greedy.estimate_constant("Cg", oracle, family, spec)

        def check(est):
            again = greedy.evaluate_witness("Cg", oracle, family, est.witness)
            if abs(again - est.lower_bound) > 1e-9 * max(1.0, abs(again)):
                return WRONG, (f"{label}: witness gives {again!r}, estimate "
                               f"{est.lower_bound!r}")
            if self.refs is None:
                return None
            ref = float(self.refs[label])
            # a better sigma_m can only raise the certified lower bound
            if est.lower_bound < ref - 1e-6:
                return WRONG, (f"{label}: lower bound {est.lower_bound!r} below "
                               f"the reference {ref!r}")
            return None

        return Op(label, call, check)

    def passes(self, index):
        # the six spaces stay in their cycle; the seed orders the samples
        ks = list(ESTIMATE_SAMPLE_SEEDS)
        random.Random(f"estimate:{self.seed}:{index}").shuffle(ks)
        return [op for k in ks for op in self.ops[k]]


# ---------------------------------------------------------------------------
# exact_norms: the exact evaluators on int/Fraction payloads
# ---------------------------------------------------------------------------


def exact_corpus():
    """The fixed inputs: (label, kind, entries, level, want_witness, extra).

    Labels name the evaluator, level, size and payload.  About half of the
    norm calls request a witness.
    """
    rng = random.Random(EXACT_CORPUS_SEED)
    out = []

    def near_flat(n, payload):
        if payload == "int":
            return {i: 100 + rng.randint(-1, 1) for i in range(3, 3 + n)}
        return {i: Fraction(300 + rng.randint(-3, 3), 3) for i in range(3, 3 + n)}

    def signed(indices, payload):
        vals = {}
        for i in indices:
            v = rng.choice((-1, 1)) * rng.randint(1, 9)
            vals[i] = v if payload == "int" else Fraction(v, rng.randint(1, 7))
        return vals

    # family sup norm at levels 2, 3, w, w+1 on consecutive runs from 3;
    # level 2 stops at 28 points (29 and 30 take 3 to 9 s each)
    flip = False
    for level, lengths in (("2", (24, 25, 26, 27, 28)), ("3", (24, 27, 30)),
                           ("w", (24, 27, 30)), ("w+1", (24, 27, 30))):
        for n in lengths:
            for payload in ("int", "frac"):
                if level == "2" and payload == "frac" and n > 27:
                    continue
                flip = not flip
                out.append((f"sup:{level}:flat{n}:{payload}", "sup",
                            near_flat(n, payload), level, flip, None))
    # level 1 on large supports, value and witness of the same vector
    for n, payload in ((1000, "int"), (500, "frac")):
        if payload == "int":
            x = {i: rng.randint(1, 1000) for i in range(1, n + 1)}
        else:
            x = {i: Fraction(rng.randint(1, 1000), rng.randint(1, 50))
                 for i in range(1, n + 1)}
        for wit in (False, True):
            out.append((f"sup:1:n{n}:{payload}:{'wit' if wit else 'val'}",
                        "sup", x, "1", wit, None))
    # small supports that the naive reference evaluators accept
    for level, n, payload in (("2", 14, "int"), ("w", 14, "frac"), ("3", 12, "int")):
        idx = sorted(rng.sample(range(2, 40), n))
        out.append((f"sup:{level}:small{n}:{payload}", "sup",
                    signed(idx, payload), level, n % 2 == 0, None))
    for level, payload in (("1", "int"), ("2", "frac")):
        idx = sorted(rng.sample(range(1, 11), 8))
        out.append((f"james:{level}:small8:{payload}", "james",
                    signed(idx, payload), level, level == "1", None))
    # interval-system norm: level 1 on 50-100 signed points, level 2 on 20-25
    for n, payload in ((50, "int"), (75, "frac"), (100, "int")):
        x = signed(range(1, n + 1), payload)
        for wit in (False, True):
            out.append((f"james:1:n{n}:{payload}:{'wit' if wit else 'val'}",
                        "james", x, "1", wit, None))
    for n in (20, 22, 25):
        out.append((f"james:2:n{n}:int", "james", signed(range(1, n + 1), "int"),
                    "2", False, None))
    # certified small-norm tails of the level-2 average, level-1 norm
    for N in range(1, 7):
        out.append((f"bound:1:2:N{N}", "bound", None, None, False, N))
    # weighted norm on exact indicators against two level-1 weight blocks
    for lo, n in ((3, 5), (3, 21), (5, 40), (24, 24), (24, 300), (1000, 64)):
        out.append((f"weighted:{lo}+{n}", "weighted",
                    {i: 1 for i in range(lo, lo + n)}, None, False, None))
    # the KNOWN_DEFECTS: a RecursionError (DFS depth equals member size)
    # and a refusal by the interval DP's operation budget below its space
    # cap of 512 points
    out.append(("sup:3:ones1200", "sup", {i: 1 for i in range(3, 1203)}, "3",
                False, None))
    out.append(("james:1:n400:int", "james", signed(range(1, 401), "int"), "1",
                False, None))
    return out


class ExactNorms:
    name = "exact_norms"
    min_passes = 2
    # operations up to the tail's rank take 60-90 ms; grouping them keeps
    # `op_tail_ms` from resting on two calls
    repeat_under_s = 0.1

    def __init__(self, lib, seed, tmp, refs):
        self.lib = lib
        self.seed = seed
        self.refs = refs["values"] if refs else None
        self.one = lib.ordinals.ONE
        self.two = lib.ordinals.Ordinal.from_int(2)
        self.family = lib.rah.make_weight_family(self.one, 2, 2)
        ops = [self._op(*item) for item in exact_corpus()]
        self.ops = [op for op in ops if op.label not in KNOWN_DEFECTS]
        self.defects = [op for op in ops if op.label in KNOWN_DEFECTS]

    def _op(self, label, kind, entries, level, want_witness, extra):
        lib = self.lib
        x = lib.vectors.SparseVector(entries) if entries is not None else None
        alpha = lib.ordinals.parse_ordinal(level) if level is not None else None

        if kind == "sup":
            def call():
                return lib.family_norms.schreier_alpha_norm(
                    x, alpha, want_witness=want_witness)
        elif kind == "james":
            def call():
                return lib.family_norms.jamesification_norm(
                    x, alpha, want_witness=want_witness)
        elif kind == "weighted":
            def call():
                return lib.family_norms.weighted_schreier_norm(x, self.family)
        else:
            def call():
                return lib.rah.rah_schreier_bound_search(self.one, self.two, extra)

        def check(result):
            if kind == "bound":
                value = result.norm_value
                if not result.holds:
                    return WRONG, f"{label}: certificate does not hold"
            elif want_witness:
                value, witness = result
                bad = self._bad_witness(kind, x, alpha, value, witness)
                if bad:
                    return WRONG, f"{label}: {bad}"
            else:
                value = result
            if self.refs is None:
                return None
            if Fraction(value) != Fraction(self.refs[label]):
                return WRONG, (f"{label}: value {frac_text(value)} differs from "
                               f"the reference {self.refs[label]}")
            return None

        return Op(label, call, check)

    def _bad_witness(self, kind, x, alpha, value, witness):
        schreier = self.lib.schreier
        if kind == "sup":
            if not schreier.schreier_member(witness, alpha):
                return "witness is not a family member"
            if sum(abs(x.get(i)) for i in witness) != value:
                return "witness does not attain the value"
        elif not schreier.f_alpha_member(witness, alpha) or not set(witness) <= set(x.support):
            return "witness minima are not a relaxed-family member in the support"
        return None

    def passes(self, index):
        order = list(self.ops)
        random.Random(f"exact_norms:{self.seed}:{index}").shuffle(order)
        return order


WORKLOADS = {cls.name: cls for cls in (Repro, Estimate, ExactNorms)}

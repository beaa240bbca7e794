"""Acceptance suite: one test per criterion, full sample counts, one printed
pass/fail line each (run with `pytest -s tests/test_acceptance.py` to see the
lines while the suite runs)."""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from greedylab.family_norms import (jamesification_norm, naive_james_norm,
                                    schreier_alpha_norm,
                                    weighted_schreier_norm)
from greedylab.greedy import (SearchSpec, best_coefficients, estimate_constant,
                              greedy_set)
from greedylab.harness import ExperimentSpec, run_experiment
from greedylab.norms import block_sum_norm, kt_block_norm
from greedylab.ordinals import OMEGA, ONE, ZERO, parse_ordinal
from greedylab.rah import (IndexStream, democracy_growth_table,
                           make_weight_family, rah_schreier_bound_search,
                           rah_sequence)
from greedylab.schreier import FamilyHandle, schreier_member
from greedylab.spaces import make_space
from greedylab.vectors import SparseVector
from references import grid_best_coefficients, schreier_member_backtracking

TWO = parse_ordinal("2")
THREE = parse_ordinal("3")


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number:>2} {label}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label} {detail}"


def _subsets(universe):
    for size in range(len(universe) + 1):
        yield from combinations(universe, size)


def test_c01_level_one_oracle_exact():
    universe = tuple(range(1, 15))
    t0 = time.perf_counter()
    mismatches = 0
    for E in _subsets(universe):
        expected = (not E) or len(E) <= E[0]
        if schreier_member(E, ONE) != expected:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(1, "level-1 oracle matches the size<=min rule on [1..14]",
            mismatches == 0 and elapsed < 1.0,
            f"{elapsed:.3f}s, {mismatches} mismatches")


def test_c02_greedy_matches_backtracking():
    universe = tuple(range(1, 15))
    cache = {}
    disagreements = 0
    for alpha in (TWO, THREE, OMEGA):
        for E in _subsets(universe):
            if schreier_member(E, alpha) != schreier_member_backtracking(
                    E, alpha, cache):
                disagreements += 1
    _report(2, "greedy-maximal equals full backtracking (levels 2, 3, w)",
            disagreements == 0, f"{disagreements} disagreements")


def test_c03_hereditary_and_spreading():
    rng = random.Random(60)
    levels = [ONE, TWO, THREE, OMEGA, parse_ordinal("w + 1")]
    violations = 0
    for alpha in levels:
        produced = 0
        while produced < 10_000:
            raw = sorted(rng.sample(range(1, 61), rng.randint(1, 14)))
            E = tuple(raw[: rng.randint(1, len(raw))])
            if not schreier_member(E, alpha):
                continue
            produced += 1
            G = tuple(sorted(rng.sample(E, rng.randint(0, len(E)))))
            if not schreier_member(G, alpha):
                violations += 1
            bump, spread = 0, []
            for v in E:
                bump += rng.randint(0, 2)
                spread.append(v + bump)
            if not schreier_member(tuple(spread), alpha):
                violations += 1
    _report(3, "hereditary and spreading hold on 10^4 members per level",
            violations == 0, f"{violations} violations")


def test_c04_small_set_lemmas_exhaustive():
    universe = tuple(range(1, 13))
    levels = [ZERO, ONE, TWO, THREE, OMEGA, parse_ordinal("w + 1")]
    violations = 0
    for E in _subsets(universe):
        for alpha in levels:
            member = schreier_member(E, alpha)
            if member and E and E[0] == 1 and E != (1,):
                violations += 1
            if len(E) <= 1 and not member:
                violations += 1
        if schreier_member(E, TWO):
            for alpha in (TWO, THREE, OMEGA, parse_ordinal("w + 1")):
                if not schreier_member(E, alpha):
                    violations += 1
    _report(4, "containing-one, singleton and level-2 inclusions on [1..12]",
            violations == 0, f"{violations} violations")


def test_c05_kt_closed_forms():
    violations = 0
    for N in range(2, 65):
        h = float(sum(Fraction(1, i) for i in range(1, N + 1)))
        pos = SparseVector({i: 1.0 / math.sqrt(i - N + 1)
                            for i in range(N, 2 * N)})
        alt = SparseVector({i: ((-1) ** i) / math.sqrt(i - N + 1)
                            for i in range(N, 2 * N)})
        if abs(kt_block_norm(pos, N) - h) > 1e-12 * h:
            violations += 1
        if abs(kt_block_norm(alt, N) - math.sqrt(h)) > 1e-12 * math.sqrt(h):
            violations += 1
    _report(5, "window closed forms match harmonic sums for N in 2..64",
            violations == 0, f"{violations} violations")


def _kt_batch_check(N, num, seed, bound):
    """All greedy orders of `num` random window vectors, vectorized; returns
    (violations, worst ratio, one (vector, per-order norms) probe)."""
    dim = 2 * N - 1
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.uniform(-1.0, 1.0, size=(num, dim))
    third = num // 3
    X[:third] = np.sign(X[:third])
    ranks = np.arange(1, dim + 1, dtype=float)
    X[third:2 * third] = np.sign(X[third:2 * third]) / np.sqrt(ranks)[None, :]
    keep = rng.uniform(size=(num, dim)) < rng.uniform(0.2, 1.0, size=(num, 1))
    X = np.where(keep, X, 0.0)
    X[np.all(X == 0.0, axis=1), 0] = 1.0

    w = np.zeros(dim)
    for i in range(N, 2 * N):
        w[i - 1] = 1.0 / math.sqrt(i - N + 1)

    violations = 0
    worst = 0.0
    probe = None
    for lo in range(0, num, 512):
        xb = X[lo:lo + 512]
        b = xb.shape[0]
        order = np.argsort(-np.abs(xb), axis=1, kind="stable")
        rank = np.empty_like(order)
        np.put_along_axis(rank, order,
                          np.arange(dim)[None, :].repeat(b, 0), axis=1)
        kept = xb[:, None, :] * (rank[:, None, :] <
                                 np.arange(1, dim + 1)[None, :, None])
        xs = np.take_along_axis(xb, order, axis=1)
        l2 = np.sqrt(np.cumsum(xs * xs, axis=1))
        run = np.max(np.abs(np.cumsum(kept * w[None, None, :], axis=2)), axis=2)
        norms = np.maximum(l2, run)
        full = norms[:, -1]
        ratios = norms / full[:, None]
        worst = max(worst, float(ratios.max()))
        violations += int(np.count_nonzero(norms > bound * full[:, None] + 1e-9))
        if probe is None:
            probe = (xb[0].copy(), norms[0].copy())
    return violations, worst, probe


def test_c06_kt_quasi_greedy_bound():
    bound = 3.0 + math.sqrt(2.0)
    total_violations = 0
    worst = 0.0
    for N in (2, 4, 8, 16, 32):
        violations, w, probe = _kt_batch_check(N, 10_000, 1000 + N, bound)
        total_violations += violations
        worst = max(worst, w)
        # the vectorized pipeline must agree with the production oracle
        xv, norms = probe
        x = SparseVector({i + 1: float(v) for i, v in enumerate(xv) if v})
        for m in range(1, len(x) + 1):
            scalar = kt_block_norm(greedy_set(x, m).approximant, N)
            assert abs(scalar - norms[m - 1]) < 1e-9
    _report(6, "all greedy sums stay below (3+sqrt(2))*norm on 5x10^4 vectors",
            total_violations == 0,
            f"worst ratio {worst:.6f}, {total_violations} violations")


def test_c07_parity_ratio_table_exact(tmp_path):
    space = make_space("parity")
    violations = 0
    for N in range(1, 101):
        A = tuple(range(1, 2 * N, 2))
        B = tuple(range(2 * N, 4 * N - 1, 2))
        na = space.norm(SparseVector.indicator(A, 1.0))
        nb = space.norm(SparseVector.indicator(B, 1.0))
        ratio = math.sqrt((len(B) * len(B)) / len(A))
        if ratio != math.sqrt(N) or na != math.sqrt(N) or nb != float(N):
            violations += 1
    summary = run_experiment(ExperimentSpec("repro-parity", {}), tmp_path)
    _report(7, "parity democracy ratios equal sqrt(N) exactly for N in 1..100",
            violations == 0 and summary["status"] == "PASS",
            f"{violations} violations")


def test_c08_l2_sum_democracy():
    rng = random.Random(88)
    violations = 0
    for _ in range(10_000):
        size = rng.randint(1, 200)
        A = rng.sample(range(1, 4097), size)
        norm = block_sum_norm(SparseVector.indicator(A, 1.0), "l2")
        if not (math.sqrt(size) - 1e-9 <= norm <= 2 * math.sqrt(size) + 1e-9):
            violations += 1
    _report(8, "two-sided sqrt democracy for the l2 block sum on 10^4 sets",
            violations == 0, f"{violations} violations")


def test_c09_james_suppression_and_naive_agreement():
    rng = random.Random(99)
    violations = 0
    for _ in range(10_000):
        size = rng.randint(1, 12)
        supp = sorted(rng.sample(range(1, 41), size))
        x = SparseVector({i: rng.uniform(-1.0, 1.0) for i in supp})
        current = jamesification_norm(x)
        while x.entries:
            top = min(x.entries, key=lambda i: (-abs(x.entries[i]), i))
            x = x.drop((top,))
            nxt = jamesification_norm(x)
            if nxt > current + 1e-12:
                violations += 1
                break
            current = nxt
    disagreements = 0
    for _ in range(1000):
        size = rng.randint(1, 5)
        supp = sorted(rng.sample(range(1, 9), size))
        x = SparseVector({i: rng.uniform(-1.0, 1.0) for i in supp})
        if abs(jamesification_norm(x) - naive_james_norm(x)) > 1e-12:
            disagreements += 1
    _report(9, "interval-norm greedy removal non-expansive; search = naive",
            violations == 0 and disagreements == 0,
            f"{violations} growths, {disagreements} disagreements")


def test_c10_repeated_average_certificates():
    ok = True
    details = []
    total = 0
    for alpha, count in ((ONE, 12), (TWO, 1)):
        seq = rah_sequence(alpha, IndexStream.naturals(3), count,
                           max_support=100_000)
        for v in seq:
            total += len(v)
            if v.l1_norm() != 1 or v.inf_norm() > Fraction(1, v.min_index()):
                ok = False
    if total > 100_000:
        ok = False
    first = rah_sequence(TWO, IndexStream.naturals(3), 1)[0]
    l1 = first.min_index()
    l2 = IndexStream.naturals(3).advance_past(first.max_index()).min
    growth_ok = (l1 == 3 and l2 == 24 and l2 >= 8 * l1)
    details.append(f"l1={l1}, l2={l2}")
    cert_ok = True
    for a, b in ((ZERO, ONE), (ONE, TWO)):
        for n in (2, 5, 10):
            cert = rah_schreier_bound_search(a, b, n)
            if not (cert.holds and
                    cert.norm_value == schreier_alpha_norm(cert.vector, a)):
                cert_ok = False
    _report(10, "exact mass-one/flat-cap identities, growth pair, tail "
            "certificates", ok and growth_ok and cert_ok, "; ".join(details))


def test_c11_weighted_space_claims():
    family = make_weight_family(ONE, 4, 2)
    rng = random.Random(111)
    basis_ok = all(
        weighted_schreier_norm(SparseVector({n: 1}), family) == 1
        for n in (1, 2, 3, 5, 23, 24, 47, 100, 402653183, 402653184, 10 ** 9))
    indicator_ok = True
    for block in family.blocks:
        # min * total mass; the mass identity is re-derived run by run for
        # every block whose run list is enumerable
        if block.start * block.mass() != block.start:
            indicator_ok = False
        if block.run_count <= 4096:
            run_sum = sum((hi - lo + 1) * w
                          for lo, hi, w in (block.run(n)
                                            for n in range(1, block.run_count + 1)))
            if run_sum != 1:
                indicator_ok = False
    small = family.blocks[0].to_sparse()
    if weighted_schreier_norm(SparseVector.indicator(small.support, 1),
                              family) != 3:
        indicator_ok = False
    sampled_bad = 0
    for _ in range(1000):
        s = rng.randint(1, 10 ** rng.randint(1, 9))
        size = rng.randint(1, min(s, 40))
        A = sorted(rng.sample(range(s, s + 4 * size + 1), size))
        val = weighted_schreier_norm(SparseVector.indicator(A, 1), family)
        if not val < 3:
            sampled_bad += 1
    _report(11, "weighted space: unit basis, block indicators, bounded "
            "small-family sets", basis_ok and indicator_ok and sampled_bad == 0,
            f"{sampled_bad} sampled violations")


def test_c12_sigma_optimizer_vs_grid():
    spaces = ("parity", "kt:N=4", "kt:N=8", "ktsum:c0", "ktsum:l2",
              "james:a=1", "schreier:a=1", "walpha:a=1")
    rng = random.Random(12)
    cases = 0
    failures = 0
    for name in spaces:
        oracle = make_space(name)
        cap = min(oracle.dimension_cap, 8)
        for _ in range(70):
            size = rng.randint(1, min(4, cap))
            supp = sorted(rng.sample(range(1, cap + 1), size))
            x = SparseVector({i: rng.choice((-1, 1)) * rng.uniform(0.1, 1.0)
                              for i in supp})
            A = sorted(rng.sample(range(1, cap + 1), rng.randint(1, 2)))
            cd, _, _ = best_coefficients(x, A, oracle)
            gr, _ = grid_best_coefficients(x, A, oracle)
            cases += 1
            if abs(cd - gr) > max(1e-3 * max(cd, gr),
                                  1e-6 * max(1.0, float(x.inf_norm()))):
                failures += 1
    _report(12, "exact sigma_m minimiser matches the refined grid oracle",
            cases >= 500 and failures == 0, f"{cases} cases, {failures} failures")


def test_c13_unboundedness_signals():
    bounds = []
    for N in (8, 16, 32, 64):
        est = estimate_constant("Ks", make_space(f"kt:N={N}"),
                                FamilyHandle.parse("s:1"),
                                SearchSpec(seed=13, samples=0,
                                           template="kt-alternating"))
        bounds.append(est.lower_bound)
    ks_ok = all(a < b for a, b in zip(bounds, bounds[1:]))
    family = make_weight_family(ONE, 4, 2)
    ratios = [row["ratio"] for row in democracy_growth_table(family)]
    demo_ok = all(a < b for a, b in zip(ratios, ratios[1:]))
    _report(13, "suppression bound grows over windows; democracy ratios grow "
            "over blocks", ks_ok and demo_ok,
            f"Ks bounds {', '.join(f'{b:.4f}' for b in bounds)}; "
            f"4 block ratios, last of {ratios[-1].bit_length()} bits")


def test_c14_determinism(tmp_path):
    parity = make_space("parity")
    fam = FamilyHandle.parse("s:1")
    spec = SearchSpec(seed=14, samples=80, index_range=24)
    a = estimate_constant("Cd", parity, fam, spec).to_dict()
    b = estimate_constant("Cd", parity, fam, spec).to_dict()
    est_ok = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    files_ok = True
    spec1 = ExperimentSpec("repro-l2sum", {"samples": 300}, seed=14)
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_experiment(spec1, first)
    run_experiment(spec1, second)
    for name in ("repro-l2sum.csv", "repro-l2sum.summary.json"):
        if (first / name).read_bytes() != (second / name).read_bytes():
            files_ok = False
    _report(14, "estimators and experiments are byte-identical on reruns",
            est_ok and files_ok)

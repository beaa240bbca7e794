import dataclasses
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedylab import greedy
from greedylab.greedy import (CONSTANT_NAMES, EXTRA_OFFSUPPORT, GAP_TOL,
                              KELLEY_MAX_CUTS, GreedyError, PropertyConfig,
                              SearchSpec, TheoremSuiteSpec, _cut_lp,
                              _gap_closed, _grid_equality_check,
                              _one_cut_bound, _random_vector,
                              _ratio, _sampled_configs, _SampleMemo,
                              almost_greedy_error, best_coefficients,
                              estimate_constant, evaluate_witness,
                              family_members_within, greedy_set,
                              property_A_check, sigma_m, theorem_suite)
from greedylab.norms import NormDomainError, NormOracle
from greedylab.schreier import FamilyHandle
from greedylab.spaces import make_space
from greedylab.vectors import SparseVector
from references import grid_best_coefficients, grid_equality_reference

S1 = FamilyHandle.parse("s:1")
POWERSET = FamilyHandle.powerset()


def test_greedy_set_examples():
    res = greedy_set(SparseVector({1: 2.0, 2: -3.0, 5: 1.0}), 2)
    assert res.greedy_set == (1, 2)
    assert res.residual == SparseVector({5: 1.0})
    assert not res.tie_flag
    res = greedy_set(SparseVector({1: 1.0, 2: 1.0}), 1)
    assert res.greedy_set == (1,) and res.tie_flag
    alts = greedy_set(SparseVector({1: 1.0, 2: 1.0}), 1, tie_break="enumerate-all")
    assert [r.greedy_set for r in alts] == [(1,), (2,)]


def test_greedy_set_invariants_sampled():
    rng = random.Random(2)
    for _ in range(300):
        size = rng.randint(1, 8)
        x = SparseVector({i: rng.uniform(-2, 2)
                          for i in rng.sample(range(1, 30), size)})
        m = rng.randint(0, size)
        res = greedy_set(x, m)
        assert len(res.greedy_set) == m
        assert res.approximant + res.residual == x
        if m and len(res.residual):
            lo = min(abs(x.get(i)) for i in res.greedy_set)
            hi = max(abs(v) for v in res.residual.entries.values())
            assert lo >= hi - 1e-12


def test_greedy_padding_and_caps():
    res = greedy_set(SparseVector({3: 1.0}), 3)
    assert res.greedy_set == (1, 2, 3) and res.tie_flag
    with pytest.raises(GreedyError):
        greedy_set(SparseVector({3: 1.0}), 9, dimension_cap=5)
    # the tie rule is checked on every path, the zero and padded orders too
    for m in (0, 1, 3):
        with pytest.raises(GreedyError):
            greedy_set(SparseVector({3: 1.0}), m, tie_break="bogus")


@pytest.mark.parametrize("error", (sigma_m, almost_greedy_error))
def test_support_enumeration_wall(error):
    parity = make_space("parity")
    one = SparseVector({1: 1.0})
    wide = SparseVector(dict.fromkeys(range(1, 24), 1.0))
    for x, m, message in ((one, 11, "support-set enumeration guard: m=11, support=1"),
                          (wide, 0, "support-set enumeration guard: m=0, support=23"),
                          (one, -1, "m must be nonnegative")):
        with pytest.raises(GreedyError) as refused:
            error(x, m, parity, S1)
        assert str(refused.value) == message
    # the last searches inside the wall
    error(one, 10, parity, S1)
    error(wide.drop((23,)), 0, parity, S1)


def test_estimate_refuses_negative_samples():
    # returned the trivial bound 1.0 with "samples": -3 in its spec
    parity = make_space("parity")
    with pytest.raises(GreedyError, match="^samples must be at least 0, got -3$"):
        estimate_constant("Cg", parity, S1, SearchSpec(samples=-3))
    none = estimate_constant("Cg", parity, S1, SearchSpec(samples=0))
    assert (none.lower_bound, none.witness) == (1.0, {"kind": "trivial"})


def test_search_specs_refuse_counts_their_samplers_cannot_use():
    # support_cap = 0, a negative index_range, grid_dim = -1 and
    # sign_set_size = 0 raised a bare ValueError from random; a negative
    # samples or m_cap ran to a trivial result
    for make, name, value, floor in (
            (SearchSpec, "support_cap", 0, 1),
            (SearchSpec, "index_range", -4, 1),
            (SearchSpec, "set_size_cap", -1, 0),
            (SearchSpec, "m_cap", -1, 0),
            (TheoremSuiteSpec, "samples", -2, 0),
            (TheoremSuiteSpec, "sign_sets", -1, 0),
            (TheoremSuiteSpec, "sign_set_size", 0, 1),
            (TheoremSuiteSpec, "grid_dim", -1, 0),
            (TheoremSuiteSpec, "m_cap", -1, 0)):
        with pytest.raises(GreedyError,
                           match=f"^{name} must be at least {floor}, got {value}$"):
            make(**{name: value})
    # each least value stays valid
    parity = make_space("parity")
    least = SearchSpec(samples=20, support_cap=1, index_range=1,
                       set_size_cap=0, m_cap=0)
    for name in ("Cg", "Ca", "Cd"):
        assert estimate_constant(name, parity, S1, least).lower_bound == 1.0
    report = theorem_suite(parity, S1, TheoremSuiteSpec(
        samples=0, sign_sets=0, sign_set_size=1, grid_dim=0, m_cap=0))
    assert [c["status"] for c in report["checks"]] == ["RECORDED", "RECORDED",
                                                       "PASS"]


def test_sigma_examples():
    parity = make_space("parity")
    x = SparseVector({1: 1.0, 2: 1.0, 4: 1.0})
    odd_singles = FamilyHandle.explicit([(), (1,), (3,), (5,), (7,)])
    res = sigma_m(x, 1, parity, odd_singles)
    assert abs(res.value - 2.0) < 1e-6
    assert res.support == (1,)
    assert abs(res.coefficients[1] - 1.0) < 1e-6
    assert sigma_m(x, 0, parity, odd_singles).value == parity.norm(x)
    full = sigma_m(x, 3, parity, POWERSET)
    assert full.value < 1e-6


def test_sigma_monotone_and_vanishes():
    rng = random.Random(13)
    for descriptor, rounds in (("parity", 30), ("kt:N=4", 12), ("james:a=1", 12)):
        oracle = make_space(descriptor)
        for _ in range(rounds):
            size = rng.randint(1, 4)
            x = SparseVector({i: rng.uniform(-1, 1)
                              for i in rng.sample(range(1, 8), size)})
            prev = None
            for m in range(size + 1):
                val = sigma_m(x, m, oracle, POWERSET).value
                if prev is not None:
                    assert val <= prev + 1e-9
                prev = val
            assert prev < 1e-6


def test_almost_greedy_examples():
    james = make_space("james:a=1")
    x = SparseVector({3: 1.0, 4: 1.0, 5: 1.0})
    value, A = almost_greedy_error(x, 1, james, S1)
    assert value == 2.0 and A == (3,)
    parity = make_space("parity")
    y = SparseVector({2: 1.0, 5: -1.0})
    assert almost_greedy_error(y, 0, parity, POWERSET)[0] == parity.norm(y)
    assert almost_greedy_error(y, 2, parity, POWERSET)[0] == 0.0


def test_almost_greedy_dominates_sigma():
    parity = make_space("parity")
    rng = random.Random(37)
    for _ in range(40):
        size = rng.randint(2, 4)
        x = SparseVector({i: rng.uniform(-1, 1)
                          for i in rng.sample(range(1, 10), size)})
        for m in (1, 2):
            proj, _ = almost_greedy_error(x, m, parity, S1)
            free = sigma_m(x, m, parity, S1).value
            assert proj >= free - 1e-6


def test_grid_agreement_spot():
    rng = random.Random(7)
    parity = make_space("parity")
    for _ in range(40):
        size = rng.randint(1, 4)
        x = SparseVector({i: rng.choice((-1, 1)) * rng.uniform(0.1, 1.0)
                          for i in rng.sample(range(1, 9), size)})
        A = sorted(rng.sample(range(1, 9), rng.randint(1, 2)))
        cd, _, _ = best_coefficients(x, A, parity)
        gr, _ = grid_best_coefficients(x, A, parity)
        assert abs(cd - gr) <= max(1e-3 * max(cd, gr), 1e-6)


@pytest.mark.parametrize("descriptor",
                         ("schreier:a=1", "schreier:a=2", "parity", "walpha:a=1"))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_suppression_one_spaces(descriptor, data):
    # the facts behind sigma_m's projection branch, on exact payloads:
    # dropping coordinates never raises the norm, so x's own coefficients
    # are the best free ones
    oracle = make_space(descriptor)
    assert oracle.certified["Ks"] == 1
    coeffs = st.integers(-9, 9).filter(bool)
    x = SparseVector(data.draw(st.dictionaries(st.integers(1, 24), coeffs,
                                               min_size=1, max_size=6)))
    A = data.draw(st.sets(st.sampled_from(x.support)))
    assert oracle.norm(x.drop(A)) <= oracle.norm(x)
    for m in (1, 2, 3):
        best = sigma_m(x, m, oracle, S1)
        assert best.value == almost_greedy_error(x, m, oracle, S1)[0]
        # an off-support index cannot lower a projection error
        assert set(best.support) <= set(x.support)


@pytest.mark.parametrize("descriptor, entries, A", [
    ("james:a=1", {1: 3, 5: 2, 9: -1, 11: 2, 15: -2}, (9,)),
    ("kt:N=8", {8: 1, 9: 1, 10: -1, 13: 1}, (10,)),
])
def test_suppression_above_one_spaces(descriptor, entries, A):
    # found by a seeded search over <= 6 points on indices 1..15: dropping A
    # raises the norm, so these spaces must not take the projection branch
    oracle = make_space(descriptor)
    x = SparseVector(entries)
    assert oracle.norm(x.drop(A)) > oracle.norm(x)
    assert "Ks" not in oracle.certified


def test_best_coefficients_past_coordinate_descent_stall():
    # cyclic coordinate descent stalled on a kink here at 2.408002 and still
    # reported convergence; the refined grid reaches 2.3924001
    james = make_space("james:a=1")
    entries = {1: 0.1683, 3: 0.6317, 7: -0.2581, 8: -0.8909, 10: 0.1990,
               11: -0.5556}
    x = SparseVector(entries)
    value, coeffs, converged = best_coefficients(x, (2, 10), james)
    assert value <= 2.3924 + 1e-9 and converged
    assert value == james.norm(x - SparseVector(coeffs))
    # exact payloads give the exact minimum
    exact = SparseVector({i: Fraction(str(v)) for i, v in entries.items()})
    value, coeffs, converged = best_coefficients(exact, (2, 10), james)
    assert value == Fraction("2.3924") and converged
    assert value == james.norm(exact - SparseVector(coeffs))


@pytest.mark.parametrize("descriptor", ["parity", "schreier:a=1",
                                        "schreier:a=2", "walpha:a=0"])
def test_projection_matches_cutting_planes(descriptor):
    # on a space whose suppression constant is 1 the projection error is the
    # minimum; Kelley's method on the same norm, with that certificate
    # withheld, must find nothing lower
    projected = make_space(descriptor)
    kelley = dataclasses.replace(projected, certified={})
    rng = random.Random(13)
    for _ in range(40):
        x = SparseVector({i: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for i in rng.sample(range(1, 16), 5)})
        A = rng.sample(x.support + (16, 17), rng.randint(1, 3))
        value, _, converged = best_coefficients(x, A, kelley)
        assert converged and value == best_coefficients(x, A, projected)[0]


def _int_cuts(cuts, width):
    """Fraction cuts t + g.d >= b and width as `_cut_lp` takes them: t, d and
    the width scaled by D, the lcm of the denominators of the b's and the
    width, and each cut by the lcm of its own denominators; returns the int
    cuts, the int width and D."""
    D = math.lcm(width.denominator, *(b.denominator for _, b in cuts))
    out = []
    for g, b in cuts:
        e = math.lcm((D * b).denominator, *(v.denominator for v in g))
        out.append((e, tuple(int(e * v) for v in g), int(e * D * b)))
    return out, int(D * width), D


def _exact_lp(cuts, width):
    """`_cut_lp` on Fraction cuts (g, b) and width, as Fractions (t, d)."""
    int_cuts, int_width, D = _int_cuts(cuts, width)
    t, d, det = _cut_lp(int_cuts, int_width)
    # == alone would pass on floats (0.5 == Fraction(1, 2))
    assert all(type(v) is int for v in (t, *d, det)) and det > 0
    return Fraction(t, det * D), [Fraction(v, det * D) for v in d]


def test_cut_lp_degenerate_exact():
    F = Fraction
    one = ((F(1),), F(1))
    # a repeated cut and a zero right-hand side: min over d of max(1 - d, d)
    assert _exact_lp([one, one, ((F(-1),), F(0))], F(2)) == (F(1, 2), [F(1, 2)])
    cuts = [((F(1), F(0)), F(1)), ((F(0), F(1)), F(1)), ((F(0), F(1)), F(1)),
            ((F(0), F(0)), F(0)), ((F(-1), F(-1)), F(-1))]
    assert _exact_lp(cuts, F(2)) == (F(1, 3), [F(2, 3), F(2, 3)])
    # an optimum that is no double: a float pivot step rounds it
    b = F(12230316121643683, 4503599627370496)
    width = F(3057579030410921, 562949953421312)
    assert _exact_lp([((F(0),), b)], width) == (b, [F(0)])


def reference_cut_lp(cuts, width):
    """`_cut_lp` by the same Bland-rule dual simplex on a Fraction tableau."""
    J, k = len(cuts), len(cuts[0][0])
    slack = J + k
    rows = [[Fraction(v) for v in [1 if r == 0 else g[r - 1] for g, _ in cuts]
             + [-int(m == r - 1) for m in range(k)]
             + [int(s == r) for s in range(k + 1)] + [int(r == 0)]]
            for r in range(k + 1)]
    obj = [Fraction(v) for v in [b for _, b in cuts] + [-width] * k + [0] * (k + 2)]
    basis = list(range(slack, slack + k + 1))
    while True:
        enter = next((j for j in range(slack + k + 1) if obj[j] > 0), None)
        if enter is None:
            return -obj[slack], [-v for v in obj[slack + 1:-1]]
        _, _, r = min((row[-1] / row[enter], basis[i], i)
                      for i, row in enumerate(rows) if row[enter] > 0)
        pivot = rows[r]
        pivot[:] = [v / pivot[enter] for v in pivot]
        for row in rows + [obj]:
            if row is not pivot and row[enter]:
                factor = row[enter]
                row[:] = [v - factor * p for v, p in zip(row, pivot)]
        basis[r] = enter


def reference_best_coefficients(x, support, oracle):
    """`best_coefficients` as Kelley's loop on Fraction cuts (g, b), each LP
    solved by reference_cut_lp and the first cut's in closed form."""
    support = tuple(sorted(support))
    if not support:
        return oracle.norm(x), {}, True
    if oracle.certified.get("Ks") == 1:
        return oracle.norm(x.drop(support)), {n: x.get(n) for n in support}, True
    real = float if x.has_float_payload() else Fraction
    coeffs = [x.get(n) for n in support]
    rest = x.drop(support).items()
    cuts = []
    best = (math.inf, None)
    converged = True
    for _ in range(KELLEY_MAX_CUTS):
        value, f = oracle.norm(x - SparseVector(dict(zip(support, coeffs))), True)
        if value == math.inf:
            raise NormDomainError(f"residual norm on support {support} overflows floats")
        if not cuts:
            # c = low + d, low = x_A - r: 0 <= d <= 2r, b = f(x.drop(A)) + r sum g
            r = Fraction(value)
            low = [Fraction(c) - r for c in coeffs]
        if value < best[0]:
            best = (value, coeffs)
        g = tuple(Fraction(f.get(n)) for n in support)
        cut = (g, sum(Fraction(f.get(i)) * Fraction(v) for i, v in rest) + r * sum(g))
        if cut in cuts:
            break
        cuts.append(cut)
        tol = GAP_TOL * max(1, best[0])
        one_cut = max(Fraction(0), cut[1] - 2 * r * sum(v for v in g if v > 0))
        if len(cuts) == 1 and best[0] - one_cut <= tol:
            break
        bound, d = reference_cut_lp(cuts, 2 * r)
        if best[0] - bound <= tol:
            break
        coeffs = [real(lo + dn) for lo, dn in zip(low, d)]
    else:
        converged = False
    value, coeffs = best
    return value, dict(zip(support, coeffs)), converged


_LP_ENTRIES = (st.integers(-6, 6).map(Fraction),
               st.floats(-8, 8, allow_nan=False).map(Fraction),
               st.fractions(-6, 6, max_denominator=24))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(data=st.data())
def test_cut_lp_matches_fraction_reference(data):
    k = data.draw(st.integers(1, 4))
    entry = data.draw(st.sampled_from(_LP_ENTRIES))
    fresh = st.tuples(st.tuples(*[entry] * k), entry)
    cuts = []
    for _ in range(data.draw(st.integers(1, 9))):
        kind = data.draw(st.sampled_from(("fresh", "fresh", "repeat", "zero")))
        if kind == "repeat" and cuts:
            cuts.append(data.draw(st.sampled_from(cuts)))
        elif kind == "zero":
            cuts.append(((Fraction(0),) * k, Fraction(0)))
        else:
            cuts.append(data.draw(fresh))
    width = abs(data.draw(entry))
    t, d = _exact_lp(cuts, width)
    assert (t, d) == reference_cut_lp(cuts, width)


# the spaces of test_norming_functionals, each with its top index
SPACES_TOPS = [("james:a=1", 16), ("james:a=2", 16), ("kt:N=8", 15),
               ("ktsum:c0", 40), ("ktsum:l2", 40), ("parity", 20),
               ("schreier:a=1", 20), ("schreier:a=2", 20), ("walpha:a=1", 40),
               ("walpha:a=0", 20)]


def _payloads(top, max_size):
    floats = st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 10 ** 6)
    exact = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return st.sampled_from((floats, exact)).flatmap(
        lambda coeffs: st.dictionaries(st.integers(1, top), coeffs, min_size=1,
                                       max_size=max_size).map(SparseVector))


def _outcome(solve, *args):
    try:
        return solve(*args)
    except NormDomainError as exc:
        return str(exc)


@pytest.mark.parametrize("descriptor, top", SPACES_TOPS)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_best_coefficients_matches_fraction_reference(descriptor, top, data):
    # the integer loop against the Fraction one: same value, coefficients and
    # flag, of the same types; spaces with a suppression constant of 1 also
    # run Kelley's method with that certificate withheld
    oracle = make_space(descriptor)
    # the first cut closes the gap unless the functional straddles A, which
    # takes several points: x as the estimators sample it, as is, spread over
    # a wide range of exponents (subnormals included) or made exact
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    x = _random_vector(rng, SearchSpec(index_range=top), oracle.dimension_cap)
    kind = data.draw(st.sampled_from(("float", "wide", "exact")))
    if kind == "wide":
        x = SparseVector({n: v * 2.0 ** rng.randint(-1070, 1000) for n, v in x.items()})
    elif kind == "exact":
        x = SparseVector({n: Fraction(v).limit_denominator(9) for n, v in x.items()})
    extra = data.draw(st.sets(st.integers(1, top), max_size=2))
    supports = st.sets(st.sampled_from(x.support + tuple(extra)), min_size=1,
                       max_size=3)
    spaces = [oracle] + ([dataclasses.replace(oracle, certified={})]
                         if oracle.certified.get("Ks") == 1 else [])
    for A, space in product(data.draw(st.lists(supports, min_size=4, max_size=4)),
                            spaces):
        got = _outcome(best_coefficients, x, A, space)
        want = _outcome(reference_best_coefficients, x, A, space)
        assert got == want
        if not isinstance(want, str):
            assert type(got[0]) is type(want[0])
            assert [type(v) for v in got[1].values()] == [
                type(v) for v in want[1].values()]


@pytest.mark.parametrize("descriptor, entries, A", [
    ("kt:N=8", {8: 1.0, 10: 1.0, 11: 1.0, 14: 1.0}, (10,)),
    ("ktsum:l2", {3: 1.0, 5: -1.0, 13: 1.0, 14: 1.0, 16: 1.0}, (5, 14)),
])
def test_best_coefficients_round_once(descriptor, entries, A):
    # rounding a coefficient's numerator and denominator to floats before
    # dividing moves the last bit here
    x, oracle = SparseVector(entries), make_space(descriptor)
    assert best_coefficients(x, A, oracle) == reference_best_coefficients(x, A, oracle)


def test_a_repeated_cut_over_another_denominator_ends_the_loop():
    # two functionals that make one cut, t + d_1 >= 2, over the denominators
    # 2 and 4: the cut repeats, so the loop stops after two evaluations
    def evaluate(z, want_functional=False):
        calls.append(z)
        f = {1: 1.0, 2: 0.25, 3: 0.75} if len(calls) % 2 else {1: 1.0, 2: 0.5, 3: 0.5}
        value = abs(z.get(1)) + abs(z.get(2) + z.get(3)) / 2
        return (value, SparseVector(f)) if want_functional else value

    oracle = NormOracle("two-denominators", evaluate)
    x = SparseVector({1: 1.0, 2: 1.0, 3: 1.0})
    for solve in (reference_best_coefficients, best_coefficients):
        calls = []
        assert solve(x, (1,), oracle) == (1.0, {1: 1.0}, True) and len(calls) == 2


@pytest.mark.parametrize("descriptor, top", SPACES_TOPS)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_norm_dominates_sup_norm(descriptor, top, data):
    # the premise of sigma_m's skip: a support's error is at least the
    # largest modulus it leaves
    oracle = make_space(descriptor)
    wide = st.floats(-1e300, 1e300, allow_nan=False).filter(bool)
    x = data.draw(st.one_of(_payloads(top, 8), st.dictionaries(
        st.integers(1, top), wide, min_size=1, max_size=8).map(SparseVector)))
    value, top = oracle.norm(x), x.inf_norm()
    # the Euclidean spaces give floats on exact payloads, and then dominate
    # the sup norm rounded to a float: enough, as the skip's cutoff is a float
    assert value >= (float(top) if isinstance(value, float) else top)


def _plain_sigma(x, m, oracle, family):
    # sigma_m without its memo and skip: every member solved, in order
    pool = list(x.support)
    if oracle.certified.get("Ks") != 1:
        unused = (i for i in range(1, oracle.dimension_cap + 1) if i not in x.entries)
        pool += [next(unused) for _ in range(EXTRA_OFFSUPPORT)]
    best = (oracle.norm(x), (), {}, True)
    for A in family_members_within(family, pool, m)[1:]:
        value, coeffs, converged = best_coefficients(x, A, oracle)
        if value < best[0] - 1e-15 * min(1, best[0]):
            best = (value, A, coeffs, converged)
    return best


# most supports close the gap at the first cut, and only a search that runs
# on can stop at a cutoff; these draws make more of them run on: positive
# entries in the window of kt:N=8, entries of both signs anywhere on james:a=1
CUTOFF_DRAWS = [("kt:N=8", 8, 15, 1), ("james:a=1", 1, 16, -8)]


@pytest.mark.parametrize("descriptor, first, top, least", CUTOFF_DRAWS)
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_best_coefficients_at_a_cutoff(descriptor, first, top, least, data):
    # with a cutoff the search returns what it returns without one, or stops
    # at a lower bound in [cutoff, uncut value]; a cutoff at or above the
    # uncut value never stops it
    oracle = make_space(descriptor)
    quarters = st.integers(least, 8).filter(bool).map(lambda k: Fraction(k, 4))
    x = data.draw(st.dictionaries(st.integers(first, top), quarters, min_size=3,
                                  max_size=6))
    x = SparseVector(x if data.draw(st.booleans()) else
                     {n: float(v) for n, v in x.items()})
    extra = data.draw(st.sets(st.integers(1, top), max_size=2))
    scales = data.draw(st.lists(st.floats(0, 1.5), min_size=2, max_size=2))
    for A in family_members_within(S1, set(x.support) | extra, 3)[1:]:
        uncut = best_coefficients(x, A, oracle)
        for cutoff in [0.0, *(float(uncut[0]) * k for k in scales)]:
            got = best_coefficients(x, A, oracle, cutoff)
            if got != uncut:
                bound, coeffs, converged = got
                assert coeffs is None and converged is True
                assert cutoff <= bound <= uncut[0] and cutoff < uncut[0]
                assert type(bound) is type(uncut[0])


def test_a_support_pruned_at_one_order_is_solved_again_where_it_wins():
    # at m = 2 the support (10,) stops at its bound, as (1, 9) is better; at
    # m = 1, asked later of the same memo, the cutoff is higher when (10,)
    # comes up, so the memo solves it again, and it wins
    james = make_space("james:a=1")
    x = SparseVector({1: 0.75, 9: -1.25, 10: -1.0, 13: -1.0})
    memo = _SampleMemo(james)
    for m, pruned in ((2, True), (1, False)):
        got = sigma_m(x, m, james, S1, memo)
        assert (got.value, got.support, got.coefficients, got.converged) == (
            _plain_sigma(x, m, james, S1))
        assert (memo.errors[(10,), True][1] is None) is pruned
    assert got.support == (10,)


def test_pruning_cuts_the_work_on_a_cutting_plane_sample():
    # the estimate benchmark's costliest sample (james:a=1, sample seed 6):
    # 99 norm evaluations and 73 LPs for m = 1..3 without the cutoff
    james = make_space("james:a=1")
    seen, lps = [], []

    def evaluate(z, want_functional=False):
        seen.append(z)
        return james.evaluate(z, want_functional)

    def counted_lp(cuts, width):
        lps.append(len(cuts))
        return _cut_lp(cuts, width)

    counted = dataclasses.replace(james, evaluate=evaluate)
    x = SparseVector({1: 1.0, 5: 1.0, 11: 1.0, 34: -1.0, 63: 1.0})
    memo = _SampleMemo(counted)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(greedy, "_cut_lp", counted_lp)
        ratios = [_ratio("Cg", counted, S1, {"vector": x, "m": m}, memo)
                  for m in (1, 2, 3)]
    assert ratios == [4 / 3, 1.5, 1.0]
    assert len(seen) <= 75 and len(lps) <= 59


def _plain_almost_greedy(x, m, oracle, family):
    best = (oracle.norm(x), ())
    for A in family_members_within(family, x.support, m)[1:]:
        value = oracle.norm(x.drop(A))
        if value < best[0] - 1e-15 * min(1, best[0]):
            best = (value, A)
    return best


@pytest.mark.parametrize("descriptor, top", SPACES_TOPS)
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_memoised_pruned_sigma_matches_plain_enumeration(descriptor, top, data):
    # one memo over two samples, as an estimator uses it, each for m = 1..3
    oracle = make_space(descriptor)
    memo = _SampleMemo(oracle)
    for x in (data.draw(_payloads(top, 5)), data.draw(_payloads(top, 5))):
        for m in (1, 2, 3):
            got = sigma_m(x, m, oracle, S1, memo)
            want = _plain_sigma(x, m, oracle, S1)
            assert (got.value, got.support, got.coefficients, got.converged) == want
            assert type(got.value) is type(want[0])
            assert (almost_greedy_error(x, m, oracle, S1, memo)
                    == _plain_almost_greedy(x, m, oracle, S1))


def test_sigma_m_margin_is_relative_below_one():
    # an absolute margin of 1e-15 let no support beat the empty one below
    # norm 1e-15
    kt = make_space("kt:N=8")
    x = SparseVector({2: 5e-324, 9: 1e-320})
    best = sigma_m(x, 1, kt, S1)
    assert (best.support, best.value) == ((9,), 5e-324)
    assert best.value == best_coefficients(x, (9,), kt)[0]
    assert almost_greedy_error(x, 1, kt, S1) == (kt.norm(x.drop((9,))), (9,))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_one_cut_closed_form_matches_the_lp(data):
    # a negative b, or g <= 0 throughout, exercises the clamp at t = 0
    k = data.draw(st.integers(1, 4))
    entry = data.draw(st.sampled_from(_LP_ENTRIES))
    g = data.draw(st.tuples(*[entry] * k))
    if data.draw(st.booleans()):
        g = tuple(-abs(v) for v in g)
    b, width = data.draw(entry), abs(data.draw(entry))
    [cut], int_width, D = _int_cuts([(g, b)], width)
    t, den = _one_cut_bound(cut, int_width)
    assert type(t) is int and Fraction(t, den * D) == _exact_lp([(g, b)], width)[0]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(data=st.data())
def test_gap_check_matches_fraction_expression(data):
    # bounds off by a few parts in 2^k from best - tol, so most are no double
    # and many sit on either side of the tolerance
    best = data.draw(st.one_of(
        st.floats(0, 1e300), st.floats(0, 1e-300), st.fractions(0, 10),
        st.integers(0, 10 ** 6)))
    tol = GAP_TOL * max(1, best)
    offset = Fraction(tol) * Fraction(data.draw(st.integers(-10, 2000)), 1000)
    fuzz = Fraction(data.draw(st.integers(-3, 3)),
                    3 * 2 ** data.draw(st.integers(0, 1100)))
    bound = Fraction(best) - offset + fuzz
    scale = data.draw(st.integers(1, 7))
    num, den = bound.numerator * scale, bound.denominator * scale
    assert _gap_closed(best, num, den) is (best - Fraction(num, den) <= tol)


@pytest.mark.parametrize("entries", [{2: 5e-324, 9: 1e-320},
                                     {8: 1e-310, 9: 3e-310, 10: 2e-310}])
def test_cuts_at_subnormal_norms(entries):
    # 1/l2 overflowed in the norming functionals, and Fraction(inf) raised
    kt = make_space("kt:N=8")
    x = SparseVector(entries)
    for A in [(n,) for n in x.support] + [(1,)]:
        value, coeffs, _ = best_coefficients(x, A, kt)
        assert value == kt.norm(x - SparseVector(coeffs))
    assert sigma_m(x, 1, kt, S1).value <= kt.norm(x)


def test_best_coefficients_names_a_norm_overflow():
    x = SparseVector({2: 1.7e308, 3: 1.7e308, 5: 1.0})
    with pytest.raises(NormDomainError, match="overflows"):
        best_coefficients(x, (5,), make_space("ktsum:l2"))
    # the l2 weight of a block whose peak partial sum overflows was inf / inf,
    # and sigma_m raised VectorError on the NaN entry
    x = SparseVector({10: -6.060828308873061e+307, 13: 1.0819115672673157e+308,
                      14: 1.2131549338950908e+308})
    with pytest.raises(NormDomainError, match="overflows"):
        sigma_m(x, 2, make_space("ktsum:l2"), S1)


def test_estimator_determinism_and_witnesses():
    parity = make_space("parity")
    spec = SearchSpec(seed=42, samples=60, index_range=20)
    first = estimate_constant("Cd", parity, S1, spec)
    second = estimate_constant("Cd", parity, S1, spec)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True)
    if first.witness.get("kind") != "trivial":
        assert evaluate_witness("Cd", parity, S1, first.witness) == first.lower_bound


def test_estimator_names_floor_and_witness_roundtrip():
    for descriptor in ("parity", "james:a=1", "kt:N=8", "walpha:a=1"):
        oracle = make_space(descriptor)
        for name in CONSTANT_NAMES:
            est = estimate_constant(name, oracle, S1,
                                    SearchSpec(seed=3, samples=25, support_cap=4,
                                               index_range=12, m_cap=2))
            assert est.lower_bound >= 1.0
            if est.witness.get("kind") != "trivial":
                assert (evaluate_witness(name, oracle, S1, est.witness)
                        == est.lower_bound)
    with pytest.raises(GreedyError):
        estimate_constant("Zz", oracle, S1, SearchSpec())


def test_parity_democracy_template():
    parity = make_space("parity")
    est = estimate_constant("Cd", parity, POWERSET,
                            SearchSpec(seed=0, samples=0,
                                       template="parity-odd-even",
                                       extras={"k": 100}))
    assert est.lower_bound >= 10.0 - 1e-9
    assert evaluate_witness("Cd", parity, POWERSET, est.witness) == est.lower_bound


def test_kt_alternating_template():
    kt = make_space("kt:N=64")
    est = estimate_constant("Ks", kt, S1,
                            SearchSpec(seed=0, samples=0,
                                       template="kt-alternating"))
    assert est.lower_bound > 1.0
    assert evaluate_witness("Ks", kt, S1, est.witness) == est.lower_bound


def test_cw_cl_evaluate_each_sample_norm_once(monkeypatch):
    oracle = make_space("james:a=1")
    spec = SearchSpec(samples=300)
    calls = []
    norm = type(oracle).norm

    def counting_norm(self, x):
        calls.append(x)
        return norm(self, x)

    for name in ("Cw", "Cl"):
        configs = list(_sampled_configs(name, random.Random(spec.seed), oracle,
                                        S1, spec))
        samples = len({id(cfg["vector"]) for cfg in configs})
        expected = max([1.0] + [_ratio(name, oracle, S1, cfg) for cfg in configs])
        calls.clear()
        monkeypatch.setattr(type(oracle), "norm", counting_norm)
        est = estimate_constant(name, oracle, S1, spec)
        monkeypatch.undo()
        # one ||x|| per sampled vector plus one numerator per order m
        assert len(calls) == samples + len(configs)
        assert est.lower_bound == expected


# SHA-256 of the sorted-key JSON below, recorded before the constants' ratios
# were merged into one definition; any change to a sampled draw, a ratio, a
# witness or a check report moves it
GOLDEN_ESTIMATES_SHA256 = (
    "80e4fb310c4f9f0b5d5717c604ff01ef29b05ff09321e5f21d301bbe4ef4679c")


def test_estimates_and_theorem_reports_golden():
    spec = SearchSpec(seed=7, samples=40, support_cap=6, index_range=15, m_cap=2)
    out = {}
    for descriptor in ("parity", "james:a=1", "kt:N=8", "walpha:a=1"):
        oracle = make_space(descriptor)
        out[descriptor] = {name: estimate_constant(name, oracle, S1, spec).to_dict()
                           for name in CONSTANT_NAMES}
    out["template:parity-odd-even"] = estimate_constant(
        "Cd", make_space("parity"), POWERSET,
        SearchSpec(samples=0, template="parity-odd-even", extras={"k": 12})).to_dict()
    out["template:kt-alternating"] = estimate_constant(
        "Ks", make_space("kt:N=16"), S1,
        SearchSpec(samples=0, template="kt-alternating")).to_dict()
    suite = TheoremSuiteSpec(seed=5, samples=10, sign_sets=4, sign_set_size=4,
                             grid_dim=3)
    out["suite:parity"] = theorem_suite(dataclasses.replace(
        make_space("parity"), certified={"Ks": 1.0, "Cb": 1.5, "Cl": 2.0}), S1, suite)
    out["suite:james:a=1"] = theorem_suite(dataclasses.replace(
        make_space("james:a=1"), certified={}), S1, suite)
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_ESTIMATES_SHA256


# SHA-256 of the sorted-key JSON below, recorded before σ_m's cutting planes
# moved from Fractions to scaled ints
GOLDEN_CLI_CG_SHA256 = (
    "02029903481272a7da70e582fb1a3326d0af9639479be094a113003c780173a8")


def test_cli_sized_cg_estimates_golden():
    # the CLI default of 200 samples on the two slowest Cg spaces
    out = {descriptor: estimate_constant("Cg", make_space(descriptor), S1,
                                         SearchSpec()).to_dict()
           for descriptor in ("kt:N=32", "james:a=1")}
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_CLI_CG_SHA256


def test_james_suppression_constant_is_one():
    james = make_space("james:a=1")
    est = estimate_constant("Cl", james, S1,
                            SearchSpec(seed=5, samples=120, support_cap=6,
                                       index_range=24))
    assert est.lower_bound <= 1.0 + 1e-12
    assert est.lower_bound >= 1.0


def test_cg_at_least_ca_same_pool():
    parity = make_space("parity")
    spec = SearchSpec(seed=9, samples=40, support_cap=4, index_range=10, m_cap=2)
    cg = estimate_constant("Cg", parity, S1, spec)
    ca = estimate_constant("Ca", parity, S1, spec)
    assert cg.lower_bound >= ca.lower_bound - 1e-12


def test_property_check_validation_and_forms():
    parity = make_space("parity")
    cfg = PropertyConfig(
        x=SparseVector({9: 0.5}),
        A=(3, 5), B=(2, 4, 6),
        signs={3: 1.0, 5: -1.0},
        b={2: 1.0, 4: -1.5, 6: 2.0},
    )
    lhs = SparseVector({9: 0.5, 3: 1.0, 5: -1.0})
    rhs = SparseVector({9: 0.5, 2: 1.0, 4: -1.5, 6: 2.0})
    out = property_A_check(parity, S1, cfg)
    assert out == {"ratio": parity.norm(lhs) / parity.norm(rhs)}
    bad = PropertyConfig(x=SparseVector({1: 0.5}), A=(1,), B=(2,),
                         signs={1: 1.0}, b={2: 1.0})
    with pytest.raises(GreedyError):
        property_A_check(parity, S1, bad)


@pytest.mark.parametrize("change, message", [
    ({"x": SparseVector({9: 1.5})}, "sup-norm at most 1"),
    ({"A": (1, 3), "signs": {1: 1.0, 3: 1.0}}, "belong to the family"),
    ({"B": (2,), "b": {2: 1.0}}, r"\|A\| <= \|B\|"),
    ({"B": (3, 4, 6), "b": {3: 1.0, 4: 1.0, 6: 1.0}}, "pairwise disjoint"),
    ({"x": SparseVector({2: 0.5})}, "disjoint from the support"),
    ({"b": {2: 1.0, 4: -0.5, 6: 2.0}}, "modulus >= 1"),
])
def test_property_check_refuses_each_bad_config(change, message):
    cfg = PropertyConfig(x=SparseVector({9: 0.5}), A=(3, 5), B=(2, 4, 6),
                         signs={3: 1.0, 5: -1.0}, b={2: 1.0, 4: -1.5, 6: 2.0})
    with pytest.raises(GreedyError, match=message):
        property_A_check(make_space("parity"), S1, dataclasses.replace(cfg, **change))


def test_property_forms_agree_on_pools():
    # the direct ratio of a configuration equals the projection ratio of the
    # lifted configuration, so the two pooled maxima coincide
    parity = make_space("parity")
    rng = random.Random(31)
    direct, projected = [], []
    from greedylab.greedy import _random_property_config, _property_sides

    for _ in range(300):
        cfg = _random_property_config(rng, parity,  S1,
                                      SearchSpec(index_range=20, support_cap=4,
                                                 set_size_cap=4))
        if cfg is None:
            continue
        direct.append(property_A_check(parity, S1, cfg)["ratio"])
        lhs, rhs = _property_sides(cfg)
        projected.append(parity.norm(cfg.x) / parity.norm(rhs))
        projected.append(parity.norm(lhs) / parity.norm(rhs))
    assert max(direct) <= max(projected) + 1e-9
    assert max(projected) <= max(direct) + 1e-9


def test_projection_ratio_is_the_direct_ratio_with_A_empty():
    # why the grid check reads only the direct ratio: the projection ratio
    # of a configuration is exactly the direct ratio of the configuration
    # with the same x and B and with A empty
    from greedylab.greedy import _property_sides, _random_property_config

    spec = SearchSpec(index_range=20, support_cap=6, set_size_cap=4)
    rng = random.Random(41)
    checked = 0
    for descriptor in ("parity", "kt:N=8", "james:a=1", "ktsum:c0", "walpha:a=1"):
        oracle = make_space(descriptor)
        for _ in range(250):
            cfg = _random_property_config(rng, oracle, S1, spec)
            if cfg is None:
                continue
            unsplit = dataclasses.replace(cfg, A=(), signs={})
            projection = oracle.norm(cfg.x) / oracle.norm(_property_sides(cfg)[1])
            assert (projection
                    == property_A_check(oracle, S1, unsplit)["ratio"]), (descriptor, cfg)
            checked += 1
    assert checked >= 1000


def test_theorem_suite_parity_grid_equality():
    parity = dataclasses.replace(make_space("parity"), certified={"Ks": 1.0, "Cl": 2.0})
    report = theorem_suite(parity, S1,
                           TheoremSuiteSpec(seed=1, samples=30, grid_dim=5))
    by_name = {c["name"]: c for c in report["checks"]}
    grid = by_name["grid-constant-equality"]
    assert grid["status"] == "PASS", grid
    assert by_name["sign-flip-comparability"]["status"] == "PASS"


BUILTIN_SPACES = ("kt:N=32", "parity", "schreier:a=1", "schreier:a=2",
                  "james:a=1", "walpha:a=1", "ktsum:l2", "ktsum:c0")


@pytest.mark.parametrize("descriptor", BUILTIN_SPACES)
def test_grid_check_matches_the_direct_enumeration(descriptor):
    oracle = make_space(descriptor)
    cases = [(f, dim) for f in ("s:1", "s:2", "f:1") for dim in (2, 3, 4)]
    if descriptor == "parity":
        cases.append(("s:1", 5))
    for f, dim in cases:
        family = FamilyHandle.parse(f)
        got = _grid_equality_check(oracle, family, dim)
        want = grid_equality_reference(oracle, family, dim)
        assert got["max_almost_greedy"] == want["max_almost_greedy"], (f, dim)
        assert got["max_sign_splitting"] == want["max_sign_splitting"], (f, dim)


@pytest.mark.parametrize("descriptor", ("parity", "james:a=1"))
def test_theorem_suite_evaluates_each_grid_norm_once(descriptor):
    space = make_space(descriptor)
    seen = []

    def evaluate(x, want_functional=False):
        seen.append(x)
        return space.evaluate(x, want_functional)

    # no samples and no certified Cl: only the grid check evaluates norms
    counted = dataclasses.replace(space, evaluate=evaluate, certified={})
    report = theorem_suite(counted, S1, TheoremSuiteSpec(samples=0, grid_dim=4))
    grid = {c["name"]: c for c in report["checks"]}["grid-constant-equality"]
    assert grid["status"] == "PASS"
    assert len(seen) == len(set(seen)) == 3 ** 4


def test_theorem_suite_james_certified():
    # the space's own certified Cl = 1 is graded
    james = make_space("james:a=1")
    report = theorem_suite(james, S1,
                           TheoremSuiteSpec(seed=2, samples=15, sign_sets=8,
                                            sign_set_size=6, grid_dim=4))
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["sign-flip-comparability"]["status"] == "PASS"
    assert by_name["grid-constant-equality"]["status"] == "PASS"
    assert by_name["greedy-ratio-recorded"]["status"] == "RECORDED"


def test_theorem_suite_sign_sets_fit_a_small_space():
    # kt:N=2 has 3 coordinates; sign sets of up to 8 points raised
    # "Sample larger than population"
    kt = make_space("kt:N=2")
    kt = dataclasses.replace(kt, certified={**kt.certified, "Cl": 1.0})
    report = theorem_suite(kt, S1, TheoremSuiteSpec(samples=5))
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["sign-flip-comparability"]["status"] == "PASS"


def test_best_coefficients_reports_an_unconverged_search(monkeypatch):
    # the stall vector of test_best_coefficients_past_coordinate_descent_stall
    # needs more than two cuts
    monkeypatch.setattr(greedy, "KELLEY_MAX_CUTS", 2)
    james = make_space("james:a=1")
    x = SparseVector({1: 0.1683, 3: 0.6317, 7: -0.2581, 8: -0.8909,
                      10: 0.1990, 11: -0.5556})
    value, coeffs, converged = best_coefficients(x, (2, 10), james)
    assert not converged
    assert value == james.norm(x - SparseVector(coeffs))
    assert 2.3924 < value <= 2.5046 + 1e-9


def test_theorem_suite_sign_flip_failure_carries_its_witness():
    kt = make_space("kt:N=8")
    kt = dataclasses.replace(kt, certified={**kt.certified, "Cl": 0.3})
    report = theorem_suite(kt, S1, TheoremSuiteSpec())
    check = {c["name"]: c for c in report["checks"]}["sign-flip-comparability"]
    assert check["status"] == "FAIL"
    wit = check["witness"]
    A, signs = tuple(wit["set"]), wit["signs"]
    assert wit["base"] == kt.norm(SparseVector.indicator(A, 1.0))
    assert wit["value"] == kt.norm(SparseVector.signed_indicator(A, signs))
    assert not (wit["base"] / 0.6 - 1e-9 <= wit["value"] <= 0.6 * wit["base"] + 1e-9)

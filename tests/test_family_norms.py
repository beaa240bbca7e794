import math
import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greedylab import family_norms
from greedylab.config import BudgetExceeded
from greedylab.family_norms import (interval_functional, jamesification_norm,
                                    naive_james_norm, naive_schreier_norm,
                                    schreier_alpha_norm, weighted_schreier_norm)
from greedylab.ordinals import OMEGA, ONE, ZERO, parse_ordinal
from greedylab.rah import make_weight_family
from greedylab.schreier import f_alpha_member, schreier_member
from greedylab.vectors import SparseVector

from references import WindowDPReference, weighted_norm_pointwise

TWO = parse_ordinal("2")
SUP_LEVELS = tuple(parse_ordinal(t) for t in ("0", "1", "2", "3", "w", "w+1", "w*2"))
JAMES_LEVELS = tuple(parse_ordinal(t) for t in ("2", "3", "w+1"))


def _exact_vectors(max_index, max_size):
    coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=9)
    return st.dictionaries(st.integers(1, max_index), coeffs, min_size=1,
                           max_size=max_size).map(SparseVector)


def _chain_value(x, minima):
    """Interval-system value of a minima chain: each interval runs from its
    minimum to before the next one and takes its best end."""
    ends = list(minima[1:]) + [x.max_index() + 1]
    total = 0
    for lo, hi in zip(minima, ends):
        run = best = 0
        for i in x.support:
            if lo <= i < hi:
                run += x.get(i)
                best = max(best, abs(run))
        total += best
    return total


def _assert_attaining_chain(x, alpha, value, minima):
    assert f_alpha_member(minima, alpha)
    assert set(minima) <= set(x.support)
    assert _chain_value(x, minima) == value


def _random_vector(rng, hi, size_hi, exact=False):
    size = rng.randint(1, size_hi)
    supp = rng.sample(range(1, hi + 1), size)
    if exact:
        return SparseVector({i: Fraction(rng.randint(-8, 8), rng.randint(1, 9))
                             for i in supp})
    return SparseVector({i: rng.uniform(-2, 2) for i in supp})


def test_family_norm_base_cases():
    x = SparseVector({2: -3.0, 5: 1.5, 9: 2.0})
    assert schreier_alpha_norm(x, ZERO) == 3.0
    assert schreier_alpha_norm(SparseVector.indicator([3, 4, 5, 6], 1), ONE) == 3
    assert schreier_alpha_norm(SparseVector(), TWO) == 0


def test_family_norm_matches_naive():
    rng = random.Random(9)
    for _ in range(120):
        x = _random_vector(rng, 16, 8)
        for alpha in (ONE, TWO, parse_ordinal("w")):
            assert abs(schreier_alpha_norm(x, alpha) -
                       naive_schreier_norm(x, alpha)) < 1e-12


def test_family_norm_exact_payloads():
    rng = random.Random(19)
    for _ in range(60):
        x = _random_vector(rng, 14, 7, exact=True)
        val = schreier_alpha_norm(x, ONE)
        assert isinstance(val, (Fraction, int))
        assert val == naive_schreier_norm(x, ONE)


def test_family_norm_witness_is_member():
    rng = random.Random(29)
    for _ in range(80):
        x = _random_vector(rng, 18, 8)
        for alpha in (ONE, TWO):
            val, wit = schreier_alpha_norm(x, alpha, want_witness=True)
            assert schreier_member(wit, alpha)
            assert abs(sum(abs(x.get(i)) for i in wit) - val) < 1e-12
    # level 1, exact payloads: the witness sums exactly to the value and is
    # the top-s entries, ties by index, of the smallest maximizing start s's
    # tail (starts 2 and 3 tie on the first vector)
    vectors = [SparseVector({2: 5, 3: 5, 4: 5})]
    for n in (7, 60, 1000):
        vectors.append(SparseVector({
            i: rng.randint(1, 1000) if n == 1000 else
            Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            for i in rng.sample(range(1, 2 * n + 1), n)}))
    for x in vectors:
        val, wit = schreier_alpha_norm(x, ONE, want_witness=True)
        assert val == schreier_alpha_norm(x, ONE)
        assert sum(abs(x.get(i)) for i in wit) == val
        tops = {s: sorted((i for i in x.support if i >= s),
                          key=lambda i: (-abs(x.get(i)), i))[:s]
                for s in x.support}
        start = min(s for s in x.support
                    if sum(abs(x.get(i)) for i in tops[s]) == val)
        assert wit == tuple(sorted(tops[start]))
    assert schreier_alpha_norm(vectors[0], ONE, want_witness=True)[1] == (2, 3)


def test_family_norm_budget_error():
    x = SparseVector({i: 1.0 for i in range(3, 30)})
    with pytest.raises(BudgetExceeded) as info:
        schreier_alpha_norm(x, TWO, max_nodes=5)
    # the refusal carries the greedy-maximal member from 3: {3, ..., 23}
    assert info.value.attained == 21


def test_limit_level_row_fills_before_the_budget_runs_out(monkeypatch):
    # At level w a window DP row is read only where the support is not itself
    # a member, i.e. longer than the greedy level-w member from its minimum
    # ([2..2047] from 2).  Such a support's successor-level rows need far more
    # cells than the default node_budget(), so the limit branch of
    # _WindowDP.witness cannot finish within a default budget; the limit
    # branch of _fill is pinned here by the cells it spends before refusing.
    terms = []
    real = family_norms.fundamental_term
    monkeypatch.setattr(family_norms, "fundamental_term",
                        lambda alpha, n: terms.append(n) or real(alpha, n))
    x = SparseVector(dict.fromkeys(range(2, 2101), 1))
    with pytest.raises(BudgetExceeded) as info:
        schreier_alpha_norm(x, OMEGA, max_nodes=10**5)
    assert info.value.attained == 2046
    assert terms  # the limit level's rows asked for fundamental terms


def test_exact_budget_errors_carry_unscaled_attained():
    # Fraction payloads run as ints scaled by the lcm of the denominators;
    # a refusal reports the greedy member's sum back in the payload's units
    x = SparseVector({i: Fraction(1, i) for i in range(3, 30)})
    with pytest.raises(BudgetExceeded) as info:
        schreier_alpha_norm(x, TWO, max_nodes=5)
    held = sum(Fraction(1, i) for i in range(3, 24))
    assert info.value.attained == held and type(info.value.attained) is Fraction
    assert f"attains {held})" in str(info.value)
    x = SparseVector({i: Fraction((-1) ** i, i) for i in range(2, 41)})
    with pytest.raises(BudgetExceeded) as info:
        jamesification_norm(x, TWO, max_nodes=5)
    held = sum(Fraction(1, i) for i in range(2, 32))
    assert info.value.attained == held and type(info.value.attained) is Fraction
    assert f"attains {held})" in str(info.value)
    # level 1: the relaxed family's greedy member is the first 2*2 points
    with pytest.raises(BudgetExceeded) as info:
        jamesification_norm(x, ONE, max_nodes=5)
    held = sum(Fraction(1, i) for i in range(2, 6))
    assert info.value.attained == held and type(info.value.attained) is Fraction
    assert f"attains {held})" in str(info.value)


def test_exact_payloads_keep_their_type():
    levels = (ZERO, ONE, TWO, parse_ordinal("w+1"))
    payloads = [({3: 2, 4: -5, 7: 1, 9: 4}, int),
                ({3: Fraction(2), 4: Fraction(-5), 7: Fraction(1)}, Fraction),
                ({3: 2, 4: Fraction(-5, 3), 7: 1, 9: 4}, Fraction)]
    for entries, kind in payloads:
        x = SparseVector(entries)
        for alpha in levels:
            value, _ = schreier_alpha_norm(x, alpha, want_witness=True)
            assert type(schreier_alpha_norm(x, alpha)) is type(value) is kind
            if alpha.is_successor:
                value, _ = jamesification_norm(x, alpha, want_witness=True)
                assert type(jamesification_norm(x, alpha)) is type(value) is kind


# pairwise coprime denominators near 10**9 make the common denominator of a
# 10-point payload about 10**90
_PRIMES = (999999937, 999999929, 999999893, 999999883, 999999797, 999999761,
           999999757, 999999751, 999999739, 999999733)


def _coprime_vectors(max_index):
    def build(pairs):
        return SparseVector({i: Fraction(num, p)
                             for (i, num), p in zip(pairs, _PRIMES)})
    entry = st.tuples(st.integers(1, max_index), st.integers(-10 ** 12, 10 ** 12))
    return st.lists(entry, min_size=1, max_size=len(_PRIMES),
                    unique_by=lambda t: t[0]).map(build)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_coprime_vectors(16), st.sampled_from(SUP_LEVELS[:5]))
def test_family_norm_matches_naive_coprime_denominators(x, alpha):
    val, wit = schreier_alpha_norm(x, alpha, want_witness=True)
    assert val == naive_schreier_norm(x, alpha)
    assert sum(abs(x.get(i)) for i in wit) == val


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_coprime_vectors(10), st.sampled_from((ONE,) + JAMES_LEVELS))
def test_james_matches_naive_coprime_denominators(x, alpha):
    val, minima = jamesification_norm(x, alpha, want_witness=True)
    assert val == naive_james_norm(x, alpha)
    _assert_attaining_chain(x, alpha, val, minima)




@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_exact_vectors(24, 16), st.sampled_from(SUP_LEVELS), st.booleans())
@example(SparseVector({1: Fraction(-3, 2)}), TWO, False)  # an empty window DP
def test_family_norm_matches_naive_at_every_level(x, alpha, with_one):
    if with_one:
        x = SparseVector({**x.entries, 1: Fraction(7, 2)})
    val, wit = schreier_alpha_norm(x, alpha, want_witness=True)
    assert val == schreier_alpha_norm(x, alpha) == naive_schreier_norm(x, alpha)
    assert schreier_member(wit, alpha) and set(wit) <= set(x.support)
    assert sum(abs(x.get(i)) for i in wit) == val


def test_family_norm_level_two_flat_run(monkeypatch):
    monkeypatch.delenv("GREEDYLAB_BUDGET", raising=False)
    # the best member starts at 4 and takes blocks of 4, 8 and 16 points,
    # then the remaining 21; the member starting at 3 stops at 23
    ones = SparseVector({i: 1 for i in range(3, 53)})
    val, wit = schreier_alpha_norm(ones, TWO, want_witness=True)
    assert val == 49 and schreier_alpha_norm(ones, TWO) == 49
    assert schreier_member(wit, TWO) and len(wit) == 49


def test_family_norm_searches_have_no_depth_limit():
    # members as long as the support: the searches keep their own stacks
    ones = SparseVector({i: 1 for i in range(3, 1203)})
    assert schreier_alpha_norm(ones, parse_ordinal("3"),
                               want_witness=True) == (1200, ones.support)
    alternating = SparseVector({i: (-1) ** i for i in range(100, 1200)})
    val, minima = jamesification_norm(alternating, TWO, want_witness=True)
    assert val == 1100 and minima == alternating.support


def test_norms_at_the_deepest_levels():
    # the support is a member, found by the walk on its own stack, so it is
    # the witness and no DP cell is spent
    x = SparseVector({i: (-1) ** i for i in range(5, 505)})
    assert schreier_alpha_norm(x, parse_ordinal("w^5"),
                               want_witness=True) == (500, x.support)
    assert jamesification_norm(x, parse_ordinal("w^5+1"),
                               want_witness=True) == (500, x.support)


def test_budget_is_read_only_when_a_cell_is_spent(monkeypatch):
    reads = []

    def counting_budget():
        reads.append(1)
        return 10 ** 6

    monkeypatch.setattr(family_norms, "node_budget", counting_budget)
    member = SparseVector({3: 1, 4: -2, 5: 3, 6: -4})
    for alpha in (TWO, parse_ordinal("w+1")):
        assert schreier_alpha_norm(member, alpha) == 10
        assert jamesification_norm(member, alpha) == 10
    # at level 1 too: four points from 3 are a relaxed member
    assert jamesification_norm(member, ONE) == 10
    assert not reads
    # a support that is no member spends cells, so it reads the budget
    assert schreier_alpha_norm(SparseVector.indicator(range(3, 30), 1), TWO) == 26
    assert reads


def test_james_examples():
    assert jamesification_norm(SparseVector.indicator([3, 4, 5], 1)) == 3
    assert jamesification_norm(SparseVector({2: 1.0, 3: 0.5, 4: 1.0})) == 2.5
    assert jamesification_norm(SparseVector()) == 0


def test_james_singleton_interval_lower_bound():
    # restricting to a relaxed-family member keeps the coefficient mass
    rng = random.Random(31)
    for _ in range(150):
        x = _random_vector(rng, 14, 7)
        members = [F for F in _subsets(x.support) if f_alpha_member(F, ONE)]
        norm = jamesification_norm(x)
        for F in members:
            assert sum(abs(x.get(i)) for i in F) <= norm + 1e-12


def _subsets(items):
    from itertools import combinations

    out = []
    for size in range(len(items) + 1):
        out.extend(combinations(items, size))
    return out


def test_james_matches_naive_small():
    rng = random.Random(41)
    for _ in range(150):
        x = _random_vector(rng, 8, 5)
        assert abs(jamesification_norm(x) - naive_james_norm(x)) < 1e-12


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_exact_vectors(10, 10))
def test_james_level_one_matches_naive_exact(x):
    val, minima = jamesification_norm(x, want_witness=True)
    assert val == jamesification_norm(x) == naive_james_norm(x)
    _assert_attaining_chain(x, ONE, val, minima)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_exact_vectors(24, 20))
def test_james_level_one_matches_search_exact(x):
    support = list(x.support)
    coeffs = [x.get(i) for i in support]
    val, minima = jamesification_norm(x, want_witness=True)
    # both fill their rows with `_interval_rows`; the first-written window
    # DP does not
    dp = family_norms._WindowDP(list(zip(support, map(abs, coeffs))), ONE,
                                None, signed=coeffs)
    found = dp.best(ONE, 0, len(support))
    chain = dp.witness(ONE, 0, len(support))
    ref = WindowDPReference(list(zip(support, map(abs, coeffs))), ONE, None,
                            signed=coeffs)
    assert val == found == ref.best(ONE, 0, len(support))
    _assert_attaining_chain(x, ONE, val, minima)
    _assert_attaining_chain(x, ONE, val, chain)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_exact_vectors(30, 12))
def test_james_witness_attains_value_at_every_level(x):
    for alpha in (TWO, parse_ordinal("3"), parse_ordinal("w+1")):
        val, minima = jamesification_norm(x, alpha, want_witness=True)
        assert val == jamesification_norm(x, alpha)
        _assert_attaining_chain(x, alpha, val, minima)



@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_exact_vectors(10, 10), st.sampled_from(JAMES_LEVELS), st.booleans())
def test_james_window_dp_matches_naive(x, alpha, with_one):
    entries = dict(x.entries)
    if with_one:
        entries[1] = Fraction(-5, 2)
    else:
        entries.pop(1, None)
    x = SparseVector(entries)
    val, minima = jamesification_norm(x, alpha, want_witness=True)
    assert val == jamesification_norm(x, alpha) == naive_james_norm(x, alpha)
    if x.entries:
        _assert_attaining_chain(x, alpha, val, minima)


def test_james_level_two_large_support_under_default_budget(monkeypatch):
    monkeypatch.delenv("GREEDYLAB_BUDGET", raising=False)
    rng = random.Random(59)
    x = SparseVector({i: rng.choice((-1, 1)) * rng.randint(1, 9)
                      for i in range(1, 61)})
    val, minima = jamesification_norm(x, TWO, want_witness=True)
    assert val == jamesification_norm(x, TWO)
    _assert_attaining_chain(x, TWO, val, minima)


def test_james_budget_error():
    x = SparseVector({i: (-1) ** i * i for i in range(2, 41)})
    with pytest.raises(BudgetExceeded) as info:
        jamesification_norm(x, TWO, max_nodes=5)
    # the greedy-maximal relaxed member from 2 takes the four level-1 blocks
    # {2, 3}, {4..7}, {8..15}, {16..31}
    assert info.value.attained == sum(range(2, 32))
    # level 1 spends the chain lengths it scans, min(2*idx_u, n - u) at
    # each position u, from max_nodes too, and refuses with the sum of |x|
    # over the first 2*min support points
    for hi in (41, 200):
        x = SparseVector({i: (-1) ** i * i for i in range(2, hi)})
        with pytest.raises(BudgetExceeded) as info:
            jamesification_norm(x, ONE, max_nodes=5)
        assert info.value.attained == 2 + 3 + 4 + 5
        assert type(info.value.attained) is int
        assert "attains 14)" in str(info.value)
    # n = 7 points from 3: min(2*idx_u, 7 - u) is 6 at u = 0, else 7 - u,
    # 27 cells in all
    x = SparseVector({i: (-1) ** i * i for i in range(3, 10)})
    assert jamesification_norm(x, ONE, max_nodes=27) == naive_james_norm(x) == 39
    with pytest.raises(BudgetExceeded) as info:
        jamesification_norm(x, ONE, max_nodes=26)
    assert info.value.attained == sum(range(3, 9)) == 33
    # 6 points from 3 are a relaxed member: worth their sum of |x|, no cell
    x = SparseVector({i: (-1) ** i * i for i in range(3, 9)})
    assert jamesification_norm(x, ONE, max_nodes=1) == 33


def test_james_level_one_large_support_under_default_budget(monkeypatch):
    monkeypatch.delenv("GREEDYLAB_BUDGET", raising=False)
    rng = random.Random(53)
    x = SparseVector({i: rng.choice((-1, 1)) * rng.randint(1, 9)
                      for i in range(1, 513)})
    val, minima = jamesification_norm(x, want_witness=True)
    assert val == jamesification_norm(x)
    _assert_attaining_chain(x, ONE, val, minima)


def test_james_general_level_matches_naive_small():
    rng = random.Random(43)
    for _ in range(60):
        x = _random_vector(rng, 8, 5)
        assert abs(jamesification_norm(x, TWO) - naive_james_norm(x, TWO)) < 1e-12


def test_james_greedy_removal_never_grows():
    rng = random.Random(47)
    for _ in range(200):
        x = _random_vector(rng, 30, 10)
        current = jamesification_norm(x)
        while x.entries:
            top = min(x.entries, key=lambda i: (-abs(x.entries[i]), i))
            x = x.drop((top,))
            nxt = jamesification_norm(x)
            assert nxt <= current + 1e-12
            current = nxt


def test_weighted_norm_explicit_family():
    # level-0 blocks [3..5] and [6..11] with flat weights 1/3 and 1/6
    fam = make_weight_family(ZERO, 2, 2)
    for n in (1, 3, 7, 100):
        assert weighted_schreier_norm(SparseVector({n: 1}), fam) == 1
    assert weighted_schreier_norm(SparseVector.indicator([3, 4, 5], 1), fam) == 3
    assert weighted_schreier_norm(SparseVector.indicator(range(6, 12), 1), fam) == 6
    assert weighted_schreier_norm(SparseVector(), fam) == 0


def _near_boundaries(family):
    points = set()
    for block in family.blocks:
        if block.start_form.bit_length() > 40:
            continue
        start = int(block.start_form)
        for k in (0, 1, 2, 3, 5, 12, 31):
            points.update(range((start << k) - 2, (start << k) + 3))
    return sorted(p for p in points if p >= 1)


# families with the points around their block starts and run boundaries; the
# fourth block of the last starts at a 402,653,213-bit index, past every point
_WEIGHT_FAMILIES = tuple(
    (family, _near_boundaries(family))
    for family in (make_weight_family(ZERO, 3, 2), make_weight_family(ZERO, 2, 6),
                   make_weight_family(ONE, 2, 2), make_weight_family(ONE, 4, 2)))

_payloads = {
    "int": st.integers(-60, 60).filter(bool),
    "fraction": st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool),
    "float": st.one_of(st.floats(0.5, 2), st.floats(-2, -0.5)),
}
_payloads["mixed"] = st.one_of(*_payloads.values())
_payloads["wide float"] = st.floats(min_value=-1e300, max_value=1e300).filter(bool)


@st.composite
def _weighted_cases(draw):
    family, near = draw(st.sampled_from(_WEIGHT_FAMILIES))
    values = _payloads[draw(st.sampled_from(sorted(_payloads)))]
    entries = {i: draw(values) for i in draw(st.lists(st.sampled_from(near), max_size=8))}
    # a run of consecutive points dense enough for a block to beat the sup
    # part, its values picked from a few drawn ones
    lo, size = draw(st.sampled_from(near)), draw(st.integers(0, 100))
    pool = draw(st.lists(values, min_size=1, max_size=6))
    rnd = draw(st.randoms(use_true_random=False))
    entries.update((i, rnd.choice(pool)) for i in range(lo, lo + size))
    return family, SparseVector(entries)


def _same(a, b):
    if type(a) is not type(b) or a != b:
        return False
    return not isinstance(a, float) or math.copysign(1, a) == math.copysign(1, b)


@settings(max_examples=400, deadline=None)
@given(_weighted_cases())
def test_weighted_norm_matches_the_pointwise_reference(case):
    family, x = case
    value, f = weighted_schreier_norm(x, family, want_witness=True)
    ref_value, ref_f = weighted_norm_pointwise(x, family, want_witness=True)
    assert _same(value, ref_value)
    assert _same(weighted_schreier_norm(x, family), ref_value)
    assert list(f.entries) == list(ref_f.entries)
    assert all(_same(f.entries[i], ref_f.entries[i]) for i in f.entries)


def test_weighted_norm_leaves_an_unreached_start_unexpanded():
    family = make_weight_family(ONE, 4, 2)
    last = family.blocks[3]
    x = SparseVector({3: 1, 24: Fraction(1, 2), 402653184: 5, 10 ** 18: 2})
    assert weighted_schreier_norm(x, family, want_witness=True)[0] == 5
    assert weighted_schreier_norm(x.scale(0.5), family) == 2.5
    assert "start" not in last.__dict__


@pytest.mark.parametrize("level", ["w", "w*2", "w^2"])
def test_window_dp_witness_at_a_limit_level(level):
    # the support holds 1, so it is no member, and a limit level's row is
    # read on four points; public inputs reach this branch of the witness
    # only past the default budget
    values = [(1, 5), (2, 3), (3, 4), (4, 1)]
    alpha = parse_ordinal(level)
    dp = family_norms._WindowDP(values, alpha, None)
    assert dp.best(alpha, 0, 4) == 8
    assert dp.witness(alpha, 0, 4) == (2, 3, 4)
    assert naive_schreier_norm(SparseVector(dict(values)), alpha) == 8


# ---------------------------------------------------------------------------
# the window DP against its first-written recurrence, on supports the naive
# references refuse
# ---------------------------------------------------------------------------

DP_LEVELS = ([("sup", parse_ordinal(t)) for t in ("2", "3", "w+1", "w*2+1")]
             + [("interval", a) for a in (ONE,) + JAMES_LEVELS])
_DP_PAYLOADS = {
    "int": st.integers(-9, 9).filter(bool),
    "frac": st.fractions(-8, 8, max_denominator=9).filter(bool),
    "float": st.floats(-2, 2).filter(lambda v: abs(v) > 1e-3),
}


@st.composite
def _dp_inputs(draw, lo_size, hi_size):
    """(support, coefficients, payload kind) on lo_size..hi_size points."""
    n = draw(st.integers(lo_size, hi_size))
    first = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
    kind = draw(st.sampled_from(sorted(_DP_PAYLOADS)))
    coeffs = draw(st.lists(_DP_PAYLOADS[kind], min_size=n, max_size=n))
    return list(accumulate([first] + gaps)), coeffs, kind


def _window_dp(cls, support, coeffs, norm, alpha, max_cells=None):
    signed = coeffs if norm == "interval" else None
    return cls(list(zip(support, map(abs, coeffs))), alpha, max_cells, signed)


def _agree(kind, a, b):
    """Exact payloads agree exactly, floats within 1e-12 relative."""
    return math.isclose(a, b, rel_tol=1e-12) if kind == "float" else a == b


def _assert_dp_witness(support, coeffs, kind, norm, alpha, value, wit):
    x = SparseVector(dict(zip(support, coeffs)))
    if norm == "sup":
        assert schreier_member(wit, alpha) and set(wit) <= set(support)
        assert _agree(kind, sum(abs(x.get(i)) for i in wit), value)
    elif kind == "float":
        assert f_alpha_member(wit, alpha) and set(wit) <= set(support)
        assert _agree(kind, _chain_value(x, wit), value)
    else:
        _assert_attaining_chain(x, alpha, value, wit)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_dp_inputs(15, 40), st.sampled_from(DP_LEVELS))
def test_window_dp_matches_the_first_written_recurrence(case, level):
    support, coeffs, kind = case
    norm, alpha = level
    n = len(support)
    dp = _window_dp(family_norms._WindowDP, support, coeffs, norm, alpha, 10**7)
    ref = _window_dp(WindowDPReference, support, coeffs, norm, alpha, 10**7)
    value = dp.best(alpha, 0, n)
    assert _agree(kind, value, ref.best(alpha, 0, n))
    wit = dp.witness(alpha, 0, n)
    _assert_dp_witness(support, coeffs, kind, norm, alpha, value, wit)
    assert dp.cells <= ref.cells


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_dp_inputs(15, 25), st.sampled_from(DP_LEVELS))
def test_window_dp_rows_resume_where_they_stopped(case, level):
    # best(level, s, r) for falling s resumes each row below where it
    # stopped, the running maxima over level 0 included
    support, coeffs, kind = case
    norm, alpha = level
    n = len(support)
    for lvl in dict.fromkeys((alpha, ONE)):  # once when alpha is 1
        dp = _window_dp(family_norms._WindowDP, support, coeffs, norm, alpha)
        for s in range(n - 1, -1, -1):
            fresh = _window_dp(family_norms._WindowDP, support, coeffs, norm, alpha)
            assert dp.best(lvl, s, n) == fresh.best(lvl, s, n)
        # the resumed rows did the fresh DP's work, no more
        assert dp.cells == fresh.cells
        ref = _window_dp(WindowDPReference, support, coeffs, norm, alpha)
        value = dp.best(lvl, 0, n)
        assert _agree(kind, value, ref.best(lvl, 0, n))
        if lvl == alpha:
            _assert_dp_witness(support, coeffs, kind, norm, alpha, value,
                               dp.witness(lvl, 0, n))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_dp_inputs(15, 40))
def test_level_one_interval_norm_matches_the_first_written_recurrence(case):
    # the level-1 norm fills one row directly, without a window DP
    support, coeffs, kind = case
    n = len(support)
    x = SparseVector(dict(zip(support, coeffs)))
    cells = sum(min(2 * i, n - u) for u, i in enumerate(support))
    value, wit = jamesification_norm(x, ONE, max_nodes=cells, want_witness=True)
    ref = _window_dp(WindowDPReference, support, coeffs, "interval", ONE, 10**7)
    assert _agree(kind, value, ref.best(ONE, 0, n))
    _assert_dp_witness(support, coeffs, kind, "interval", ONE, value, wit)
    with pytest.raises(BudgetExceeded) as info:
        jamesification_norm(x, ONE, max_nodes=cells - 1)
    assert f"needs {cells} cells, over {cells - 1}" in str(info.value)


@st.composite
def _member_windows(draw, per_min):
    """(support, coefficients, payload kind): a level-1 member (per_min 1) or
    relaxed level-1 member (per_min 2), on [1..8] for the naive references
    to check exact payloads, on [1..40] for floats."""
    kind = draw(st.sampled_from(sorted(_DP_PAYLOADS)))
    top = 40 if kind == "float" else 8
    first = draw(st.integers(1, top))
    rest = draw(st.sets(st.integers(first, top), max_size=per_min * first))
    support = sorted({first} | rest)[:per_min * first]
    coeffs = draw(st.lists(_DP_PAYLOADS[kind], min_size=len(support),
                           max_size=len(support)))
    return support, coeffs, kind


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(("sup", "interval")), st.data())
def test_level_one_member_windows_are_worth_their_sum(norm, data):
    # both level-1 norms answer a member support as the window DP answers a
    # member window, with no row and no cell
    support, coeffs, kind = data.draw(_member_windows(1 if norm == "sup" else 2))
    x = SparseVector(dict(zip(support, coeffs)))
    evaluate = schreier_alpha_norm if norm == "sup" else jamesification_norm
    value, wit = evaluate(x, ONE, max_nodes=1, want_witness=True)
    assert evaluate(x, ONE, max_nodes=1) == value and wit == x.support
    if kind == "float":
        dp = _window_dp(family_norms._WindowDP, support, coeffs, norm, ONE)
        assert value == dp.best(ONE, 0, len(support)) and dp.cells == 0
    else:
        naive = naive_schreier_norm(x, ONE) if norm == "sup" else naive_james_norm(x)
        assert value == naive == sum(map(abs, coeffs))
    if norm == "interval":
        f_value, f = interval_functional(x)
        assert f_value == value and set(f.entries.values()) <= {-1, 1}
        assert reduce(add, (f.get(i) * v for i, v in x.items()), 0) == value


def test_window_dp_cells_are_the_candidates_scanned():
    # the first-written successor step spent 3,662 and 104,458 cells on the
    # first two; the third is the benchmark's `james:2:n25:int` vector
    flat = SparseVector({i: 1 for i in range(3, 30)})
    signed = SparseVector({i: (-1) ** i * i for i in range(2, 41)})
    james25 = SparseVector(dict(enumerate(
        [-4, -1, -4, -9, 1, 4, 7, 1, -7, 6, 8, 3, 2, 3, 3, 2, -2, -6, 5, 1,
         9, -3, 9, 7, -1], 1)))
    for norm, x, cells, value, attained in (
            (schreier_alpha_norm, flat, 828, 26, 21),
            (jamesification_norm, signed, 7096, 817, 495),
            (jamesification_norm, james25, 2034, 104, 9)):
        assert norm(x, TWO, max_nodes=cells) == value
        assert norm(x, TWO, max_nodes=cells, want_witness=True)[0] == value
        with pytest.raises(BudgetExceeded) as info:
            norm(x, TWO, max_nodes=cells - 1)
        assert str(info.value) == (f"window DP would exceed {cells - 1} cells "
                                   f"(greedy member attains {attained})")
        assert info.value.attained == attained
    # level 3 over the sup norm: the norm drops index 1 and runs the DP only
    # past the 2,046-point member from 2, so the DP runs here on [1..24]
    # itself, level-3 rows over level-2 and level-1 rows
    three = parse_ordinal("3")
    values = [(i, (i * 7) % 11 + 1) for i in range(1, 25)]
    dp = family_norms._WindowDP(values, three, 3364)
    assert dp.best(three, 0, 24) == 136 and dp.cells == 3364
    assert dp.witness(three, 0, 24) == tuple(range(2, 25)) and dp.cells == 3364
    with pytest.raises(BudgetExceeded, match="exceed 3363 cells") as info:
        family_norms._WindowDP(values, three, 3363).best(three, 0, 24)
    assert info.value.attained == 8

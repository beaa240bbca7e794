import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedylab import family_norms
from greedylab.config import BudgetExceeded
from greedylab.family_norms import (_interval_best, jamesification_norm,
                                    naive_james_norm, naive_schreier_norm,
                                    schreier_alpha_norm, weighted_schreier_norm)
from greedylab.ordinals import OMEGA, ONE, ZERO, parse_ordinal
from greedylab.rah import make_weight_family
from greedylab.schreier import f_alpha_member, schreier_member
from greedylab.vectors import SparseVector

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
    found, chain = _interval_best(support, coeffs, ONE, None, True)
    assert val == found
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
    # level 1 spends n*T cells from max_nodes too, and refuses with the sum
    # of |x| over the first 2*min support points
    for hi in (41, 200):
        x = SparseVector({i: (-1) ** i * i for i in range(2, hi)})
        with pytest.raises(BudgetExceeded) as info:
            jamesification_norm(x, ONE, max_nodes=5)
        assert info.value.attained == 2 + 3 + 4 + 5
        assert type(info.value.attained) is int
        assert "attains 14)" in str(info.value)
    # n = 6 points from 3: chains hold at most T = min(2*3, 6) = 6 intervals
    x = SparseVector({i: (-1) ** i * i for i in range(3, 9)})
    assert jamesification_norm(x, ONE, max_nodes=36) == naive_james_norm(x)
    with pytest.raises(BudgetExceeded) as info:
        jamesification_norm(x, ONE, max_nodes=35)
    assert info.value.attained == sum(range(3, 9))


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

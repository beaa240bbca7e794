import random
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedylab.ordinals import OMEGA, ONE, ZERO, parse_ordinal
from greedylab.schreier import (FamilyError, FamilyHandle, _greedy_blocks,
                                f_alpha_member, f_alpha_split,
                                family_members_within,
                                family_subsets, min_level_find,
                                schreier_decompose, schreier_maximal,
                                schreier_member, tail_shift_find)
from references import f_alpha_member_backtracking, schreier_member_backtracking

TWO = parse_ordinal("2")


def _all_subsets(universe):
    for size in range(len(universe) + 1):
        yield from combinations(universe, size)


def test_member_base_examples():
    assert schreier_member((), OMEGA)
    assert not schreier_member((1, 2), ONE)
    assert schreier_member((3, 4, 5, 6, 7, 8, 9, 10, 11), TWO)
    for k in (1, 2, 7, 40):
        assert schreier_member((k,), parse_ordinal("w + 1"))


def test_level_one_closed_rule_small():
    for E in _all_subsets(range(1, 11)):
        expected = (not E) or len(E) <= E[0]
        assert schreier_member(E, ONE) == expected


def test_decompose_examples():
    assert schreier_decompose((3, 4, 5), ONE) == [(3,), (4,), (5,)]
    assert schreier_decompose((1, 2), ONE) is None
    assert schreier_decompose((3, 4, 5, 6, 7, 8, 9, 10, 11), TWO) == [
        (3, 4, 5), (6, 7, 8, 9, 10, 11)]
    with pytest.raises(FamilyError):
        schreier_decompose((3, 4), OMEGA)


def test_decompose_postconditions_sampled():
    rng = random.Random(5)
    for _ in range(300):
        E = tuple(sorted(rng.sample(range(1, 30), rng.randint(1, 10))))
        if not schreier_member(E, TWO):
            continue
        blocks = schreier_decompose(E, TWO)
        assert tuple(x for b in blocks for x in b) == E
        assert len(blocks) <= E[0]
        for b in blocks:
            assert schreier_member(b, ONE)


DECOMPOSE_LEVELS = [parse_ordinal(t) for t in ("1", "2", "w+1", "w*2+1")]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(1, 3), max_size=13))
def test_decompositions_agree_with_membership(first, gaps):
    # both directions: a decomposition exactly for members, a split exactly
    # for relaxed-family members; sets from 1 up are drawn too
    E = tuple(accumulate([first] + gaps))
    for alpha in DECOMPOSE_LEVELS:
        blocks = schreier_decompose(E, alpha)
        assert (blocks is None) == (not schreier_member(E, alpha)), alpha
        if blocks is not None:
            assert tuple(x for b in blocks for x in b) == E
            assert len(blocks) <= E[0]
            assert all(schreier_member(b, alpha.predecessor()) for b in blocks)
        if not f_alpha_member(E, alpha):
            with pytest.raises(FamilyError):
                f_alpha_split(E, alpha)
            continue
        first_half, second_half = f_alpha_split(E, alpha)
        assert first_half + second_half == E
        assert schreier_member(first_half, alpha)
        assert schreier_member(second_half, alpha)
        if schreier_member(E, alpha):
            assert second_half == ()


def test_decompositions_of_the_empty_set():
    for alpha in DECOMPOSE_LEVELS:
        assert schreier_decompose((), alpha) == []
    for alpha in (ZERO, OMEGA, parse_ordinal("w*2")):
        with pytest.raises(FamilyError):
            schreier_decompose((), alpha)
    for alpha in (ZERO, ONE, OMEGA, parse_ordinal("w*2+1")):
        assert f_alpha_split((), alpha) == ((), ())


def test_greedy_blocks_stop_past_the_cap():
    # a non-member's long tail is not cut to the end
    assert _greedy_blocks(tuple(range(2, 10_000)), ZERO, 2) == [(2,), (3,), (4,)]
    assert _greedy_blocks((3, 4, 5), ZERO, 3) == [(3,), (4,), (5,)]
    assert schreier_decompose(tuple(range(2, 10_000)), ONE) is None


def test_family_handle_contains_validates_for_every_kind():
    handles = (FamilyHandle.schreier(TWO), FamilyHandle.f_alpha(TWO),
               FamilyHandle.powerset(), FamilyHandle.explicit([(), (2,)]))
    for handle in handles:
        for bad in ((3, 2), (0, 4), (True,), (2, 2)):
            with pytest.raises(FamilyError):
                handle.contains(bad)
        assert handle.contains([]) and handle.contains(iter((2,)))
    assert [h.contains((2, 3, 4)) for h in handles] == [True, True, True, False]
    assert not handles[0].contains((1, 2))


def test_greedy_matches_backtracking_spot():
    cache = {}
    for E in _all_subsets(range(1, 11)):
        for alpha in (TWO, OMEGA):
            assert schreier_member(E, alpha) == schreier_member_backtracking(
                E, alpha, cache)


# w+2, w*2+3 and w^2+w+2 run the walk's min^j rule at a level ending in
# j >= 2 on top of a limit part; on sets this small they refuse only sets
# holding 1 with more points
MEMBER_LEVELS = [parse_ordinal(t) for t in ("0", "1", "2", "3", "w", "w+1", "w*2",
                                            "w+2", "w*2+3", "w^2+w+2")]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(1, 3), max_size=13))
def test_member_matches_backtracking(first, gaps):
    E = tuple(accumulate([first] + gaps))
    for alpha in MEMBER_LEVELS:
        assert schreier_member(E, alpha) == schreier_member_backtracking(
            E, alpha), alpha


def test_member_at_a_deep_limit_level():
    # w*2 at min 5000 is w + 5001: both sets are decided by a shortcut (at
    # most min singletons; at most 5000^5001 points) instead of 5001 nested
    # levels
    w2 = parse_ordinal("w*2")
    assert schreier_member((5000,), w2)
    assert schreier_member(tuple(range(5000, 11000)), w2)
    assert not schreier_member((1, 5000), w2)


def test_member_at_the_deepest_levels():
    # along the leftmost block these nest more levels than the interpreter's
    # recursion limit allows; the walk keeps them on its own stack
    w5 = parse_ordinal("w^5")
    assert schreier_member(tuple(range(5, 505)), w5)
    assert schreier_member(tuple(range(5, 20005)), w5)
    deep = parse_ordinal("w^7*7")
    for first in (2, 3, 5, 9):
        assert schreier_member(tuple(range(first, first + 20000)), deep), first


def test_maximal_examples():
    assert schreier_maximal((3, 4, 5), ONE, 100)
    assert not schreier_maximal((3, 4), ONE, 100)
    assert schreier_maximal((1,), ONE, 100)
    with pytest.raises(FamilyError):
        schreier_maximal((1, 2), ONE, 100)


def test_hereditary_and_spreading_sampled():
    rng = random.Random(17)
    levels = [ONE, TWO, OMEGA]
    for _ in range(500):
        raw = sorted(rng.sample(range(1, 41), rng.randint(1, 12)))
        for alpha in levels:
            E = raw[: rng.randint(1, len(raw))]
            if not schreier_member(tuple(E), alpha):
                continue
            G = tuple(sorted(rng.sample(E, rng.randint(0, len(E)))))
            assert schreier_member(G, alpha)
            spread = []
            bump = 0
            for v in E:
                bump += rng.randint(0, 2)
                spread.append(v + bump)
            assert schreier_member(tuple(spread), alpha)


SPREAD_LEVELS = [parse_ordinal(t) for t in ("1", "2", "3", "w", "w+1")]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(1, 3), max_size=12),
       st.data())
def test_hereditary_and_spreading_against_backtracking(first, gaps, data):
    # the window DP's rules rest on both properties; judge them with the
    # backtracking oracles, not with the walk that assumes them
    E = tuple(accumulate([first] + gaps))
    keep = data.draw(st.lists(st.booleans(), min_size=len(E), max_size=len(E)))
    bumps = data.draw(st.lists(st.integers(0, 4), min_size=len(E), max_size=len(E)))
    dropped = tuple(v for v, k in zip(E, keep) if k)
    spread = tuple(v + b for v, b in zip(E, accumulate(bumps)))
    checks = [(schreier_member_backtracking, SPREAD_LEVELS),
              (f_alpha_member_backtracking,
               [a for a in SPREAD_LEVELS if a.is_successor])]
    for member, levels in checks:
        for alpha in levels:
            if member(E, alpha):
                assert member(dropped, alpha), (alpha, E, dropped)
                assert member(spread, alpha), (alpha, E, spread)


def test_small_lemma_checks():
    # on [1..10]: a member containing 1 is {1}; level 0 and level 2 inclusions
    for alpha in (ONE, TWO, parse_ordinal("3"), OMEGA):
        for E in _all_subsets(range(1, 11)):
            if E and E[0] == 1 and schreier_member(E, alpha):
                assert E == (1,)
    for E in _all_subsets(range(1, 11)):
        if len(E) <= 1:
            assert schreier_member(E, TWO) and schreier_member(E, OMEGA)
        if schreier_member(E, TWO):
            assert schreier_member(E, parse_ordinal("3"))
            assert schreier_member(E, OMEGA)


def test_f_alpha_examples():
    assert f_alpha_member((2, 3, 4), ONE)
    assert not f_alpha_member((2, 3, 4, 5, 6), ONE)
    assert f_alpha_member((), OMEGA)
    # min 1 allows two blocks one level down: {1}, then a level-1 block
    # from 2, which holds two points and no more
    assert f_alpha_member((1, 2, 3), TWO)
    assert not f_alpha_member((1, 2, 3, 4), TWO)
    rng = random.Random(3)
    for _ in range(300):
        E = tuple(sorted(rng.sample(range(1, 30), rng.randint(1, 8))))
        if schreier_member(E, TWO):
            assert f_alpha_member(E, TWO)


F_LEVELS = [parse_ordinal(t) for t in ("1", "2", "3", "w+1", "w*2+1",
                                       "w+2", "w*2+3", "w^2+w+2")]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(1, 3), max_size=13))
def test_f_alpha_member_matches_backtracking(first, gaps):
    F = tuple(accumulate([first] + gaps))
    for alpha in F_LEVELS:
        assert f_alpha_member(F, alpha) == f_alpha_member_backtracking(F, alpha), alpha


def test_f_alpha_split_examples():
    assert f_alpha_split((2, 3, 4), ONE) == ((2, 3), (4,))
    assert f_alpha_split((5, 6, 7), ONE) == ((5, 6, 7), ())
    with pytest.raises(FamilyError):
        f_alpha_split((2, 3, 4, 5, 6), ONE)


def test_f_alpha_split_postconditions_sampled():
    rng = random.Random(23)
    for _ in range(400):
        F = tuple(sorted(rng.sample(range(1, 25), rng.randint(1, 10))))
        for alpha in (ONE, TWO):
            if not f_alpha_member(F, alpha):
                continue
            first, second = f_alpha_split(F, alpha)
            assert tuple(sorted(first + second)) == F
            assert not set(first) & set(second)
            assert schreier_member(first, alpha)
            assert schreier_member(second, alpha)


def test_f_alpha_rejects_limit_levels():
    with pytest.raises(FamilyError):
        f_alpha_member((2, 3), OMEGA)
    with pytest.raises(FamilyError):
        FamilyHandle.parse("f:w")


def test_tail_shift_examples():
    assert tail_shift_find(ZERO, ONE, 14, 10) == 1
    assert tail_shift_find(ONE, TWO, 12, 10) == 1
    with pytest.raises(FamilyError):
        tail_shift_find(ZERO, ZERO, 10, 5)


def test_min_level_examples():
    assert min_level_find((2, 3), ZERO, 5) == 1
    assert min_level_find((7,), ZERO, 5) == 0
    assert min_level_find((2, 3, 4, 5, 6, 7), ZERO, 8) == 2
    with pytest.raises(FamilyError):
        min_level_find((1, 2), ZERO, 5)


def test_family_subsets_examples():
    s1 = FamilyHandle.parse("s:1")
    assert list(family_subsets(s1, 3, 3)) == [(), (1,), (2,), (3,), (2, 3)]
    ps = FamilyHandle.powerset()
    assert list(family_subsets(ps, 2, 2)) == [(), (1,), (2,), (1, 2)]
    s0 = FamilyHandle.parse("s:0")
    assert list(family_subsets(s0, 3, 3)) == [(), (1,), (2,), (3,)]
    assert list(family_subsets(s1, 0, 2)) == list(family_subsets(s1, 3, 0)) == [()]


def test_family_subsets_refuses_negative_counts():
    # a negative universe yielded the empty set, a negative size cap nothing
    s1 = FamilyHandle.parse("s:1")
    for universe, size_cap in ((-1, 2), (3, -1)):
        with pytest.raises(FamilyError, match=(
                "^universe bound and size cap must be at least 0, "
                f"got {universe} and {size_cap}$")):
            list(family_subsets(s1, universe, size_cap))


HANDLES = [FamilyHandle.powerset()] + [
    FamilyHandle.parse(t) for t in ("s:0", "s:2", "s:w", "f:1")] + [
    FamilyHandle.explicit([(), (2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)])]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from(HANDLES), st.sets(st.integers(1, 12), max_size=10),
       st.integers(-1, 6))
def test_members_within_matches_a_filter_of_every_subset(handle, pool, size_cap):
    got = family_members_within(handle, pool, size_cap)
    expected = [A for size in range(size_cap + 1)
                for A in combinations(sorted(pool), size) if handle.contains(A)]
    assert got[:1] == expected[:1]  # the empty set first
    assert sorted(got) == sorted(expected)


def test_family_handle_parse_label():
    for text in ("s:w + 1", "f:1", "powerset"):
        handle = FamilyHandle.parse(text)
        assert FamilyHandle.parse(handle.label).label == handle.label
    assert FamilyHandle.parse("s:w+1").contains((3, 4, 5))


def test_explicit_family_validation():
    FamilyHandle.explicit([(), (1,), (3,), (1, 3)])
    with pytest.raises(FamilyError):
        FamilyHandle.explicit([(), (1, 3)])
    with pytest.raises(FamilyError):
        FamilyHandle.explicit([(1,)])


def test_canonical_sequence_monotone_sampled_wide():
    from greedylab.ordinals import fundamental_term

    rng = random.Random(40)
    for m in range(1, 7):
        lower = fundamental_term(OMEGA, m).successor()
        upper = fundamental_term(OMEGA, m + 1).successor()
        produced = 0
        while produced < 400:
            raw = sorted(rng.sample(range(1, 41), rng.randint(1, 12)))
            E = tuple(raw[: rng.randint(1, len(raw))])
            if not schreier_member(E, lower):
                continue
            produced += 1
            assert schreier_member(E, upper)


def test_canonical_sequence_monotone_small():
    # members at one sequence step stay members at the next, exhaustively small
    from greedylab.ordinals import fundamental_term

    for m in range(1, 7):
        lower = fundamental_term(OMEGA, m)
        upper = fundamental_term(OMEGA, m + 1)
        for E in _all_subsets(range(1, 11)):
            if schreier_member(E, lower):
                assert schreier_member(E, upper)

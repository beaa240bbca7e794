import random
from itertools import combinations

import pytest

from greedylab.ordinals import OMEGA, ONE, ZERO, parse_ordinal
from greedylab.schreier import (FamilyError, FamilyHandle, f_alpha_member,
                                f_alpha_split, family_subsets, min_level_find,
                                schreier_decompose, schreier_maximal,
                                schreier_member, tail_shift_find)
from references import schreier_member_backtracking

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


def test_greedy_matches_backtracking_spot():
    cache = {}
    for E in _all_subsets(range(1, 11)):
        for alpha in (TWO, OMEGA):
            assert schreier_member(E, alpha) == schreier_member_backtracking(
                E, alpha, cache)


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
    rng = random.Random(3)
    for _ in range(300):
        E = tuple(sorted(rng.sample(range(1, 30), rng.randint(1, 8))))
        if schreier_member(E, TWO):
            assert f_alpha_member(E, TWO)


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

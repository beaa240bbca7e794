import random

import pytest

from greedylab.ordinals import (OMEGA, ZERO, Ordinal, OrdinalError,
                                fundamental_term, parse_ordinal)


def test_compare_examples():
    assert ZERO == ZERO and not ZERO < ZERO
    assert OMEGA < OMEGA.plus(1) and not OMEGA.plus(1) < OMEGA
    assert parse_ordinal("w + 5") < parse_ordinal("w*2")
    assert parse_ordinal("w*2") != parse_ordinal("w + 5")


def test_classify_examples():
    assert ZERO.is_zero and not ZERO.is_successor and not ZERO.is_limit
    succ = parse_ordinal("w + 3")
    assert succ.is_successor and not succ.is_zero and not succ.is_limit
    assert succ.predecessor() == parse_ordinal("w + 2")
    limit = parse_ordinal("w^2")
    assert limit.is_limit and not limit.is_zero and not limit.is_successor
    assert [parse_ordinal(t).finite_part
            for t in ("0", "5", "w", "w^2*2 + 3")] == [0, 5, 0, 3]


def test_successor_roundtrip():
    for text in ("1", "7", "w + 3", "w^2*2 + 1", "w*4 + 9"):
        a = parse_ordinal(text)
        assert a.predecessor().successor() == a


def test_fundamental_term_examples():
    assert fundamental_term(OMEGA, 3) == Ordinal.from_int(3)
    assert fundamental_term(parse_ordinal("w*2"), 4) == parse_ordinal("w + 4")
    assert fundamental_term(parse_ordinal("w^2"), 2) == parse_ordinal("w*2")


def test_fundamental_sequence_strictly_increasing_below_limit():
    limits = [OMEGA, parse_ordinal("w*2"), parse_ordinal("w*3"),
              parse_ordinal("w^2"), parse_ordinal("w^2 + w")]
    for a in limits:
        terms = [fundamental_term(a, m) for m in range(1, 9)]
        for t, nxt in zip(terms, terms[1:]):
            assert t < nxt < a


def test_fundamental_term_rejects_non_limits():
    with pytest.raises(OrdinalError):
        fundamental_term(ZERO, 1)
    with pytest.raises(OrdinalError):
        fundamental_term(parse_ordinal("w + 1"), 1)
    with pytest.raises(OrdinalError):
        fundamental_term(OMEGA, 0)


def _random_ordinal(rng):
    terms = []
    exps = sorted(rng.sample(range(0, 4), rng.randint(0, 3)), reverse=True)
    for e in exps:
        terms.append((e, rng.randint(1, 5)))
    return Ordinal(tuple(terms))


def test_total_order_on_random_triples():
    rng = random.Random(11)
    for _ in range(500):
        a, b, c = (_random_ordinal(rng) for _ in range(3))
        # antisymmetry
        if a < b:
            assert not b < a
        if a == b:
            assert not a < b and not b < a
        # transitivity
        if a < b and b < c:
            assert a < c


def test_parse_format_roundtrip():
    for text in ("0", "3", "w", "w*2 + 5", "w^2*3 + w*2 + 5", "w^7 + 1"):
        assert parse_ordinal(text).text() == text


def test_parse_rejects_garbage():
    for bad in ("", "w^8", "x+1", "w**2", "w^2*0", "5 + w"):
        with pytest.raises(OrdinalError):
            parse_ordinal(bad)


def test_exponent_cap_enforced():
    with pytest.raises(OrdinalError):
        Ordinal(((8, 1),))


def test_bool_is_not_a_natural():
    # True once made Ordinal('True'), whose text does not parse back
    for make in (lambda: Ordinal.from_int(True), lambda: OMEGA.plus(False),
                 lambda: Ordinal(((0, True),)), lambda: Ordinal(((True, 2),))):
        with pytest.raises(OrdinalError):
            make()
    assert Ordinal.from_int(1).plus(0) == parse_ordinal("1")

import math
import random
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greedylab.norms import block_sum_norm, kt_block_norm
from greedylab.spaces import make_space
from greedylab.vectors import SparseVector, VectorError, sorted_sample

NAN = math.nan


class Slot(IntEnum):
    FIRST = 1
    THIRD = 3


def reference_entries(entries):
    """SparseVector's entries as the constructor built them when it sorted
    every input: validate each index, drop zeros, then sort."""
    data = {}
    if entries:
        items = entries.items() if isinstance(entries, dict) else entries
        for idx, val in items:
            if not isinstance(idx, int) or isinstance(idx, bool) or idx < 1:
                raise VectorError(f"bad index {idx!r}")
            if val == 0:
                continue
            data[idx] = val
    return dict(sorted(data.items()))


_INDICES = st.one_of(st.integers(1, 30), st.integers(-2, 0), st.booleans(),
                     st.text(max_size=2), st.sampled_from(list(Slot)))
_VALUES = st.one_of(st.sampled_from([0, 0.0, -0.0, Fraction(0)]),
                    st.integers(-5, 5), st.floats(allow_nan=False),
                    st.fractions(max_denominator=50))


def _build(form, pairs):
    if form == "pairs":
        return list(pairs)
    if form == "iterator":
        return iter(pairs)
    if form == "sorted":
        return dict(sorted(pairs, key=lambda p: (isinstance(p[0], str), p[0])))
    return dict(pairs)


def _outcome(construct, form, pairs):
    try:
        entries = construct(_build(form, pairs))
    except VectorError as exc:
        return str(exc)
    return [(i, type(i), v, type(v)) for i, v in entries.items()]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.lists(st.tuples(_INDICES, _VALUES), max_size=12),
       st.sampled_from(("pairs", "iterator", "dict", "sorted")))
def test_constructor_matches_sorting_reference(pairs, form):
    # the same entries, in the same order, and the same refusals
    ours = _outcome(lambda e: SparseVector(e).entries, form, pairs)
    assert ours == _outcome(reference_entries, form, pairs)


_INDICATOR_INDICES = st.lists(st.one_of(st.integers(-2, 30), st.booleans(),
                                        st.sampled_from(list(Slot)),
                                        st.sampled_from([2.0, 2.7, 5.5])),
                               max_size=12)
_COEFFICIENTS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, Fraction(0), NAN, -NAN, 1, 1.0]),
    st.integers(-5, 5), st.floats(), st.fractions(max_denominator=50))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(_INDICATOR_INDICES, _INDICATOR_INDICES.map(sorted)), _COEFFICIENTS)
def test_indicator_matches_the_checked_constructor(indices, coeff):
    # unsorted, repeated, nonpositive, bool, IntEnum and float indices; zero,
    # NaN, int, float and Fraction coefficients: the same entries and types,
    # or the same refusal
    def outcome(build):
        try:
            entries = build().entries
        except VectorError as exc:
            return str(exc)
        return [(i, type(i), v, type(v)) for i, v in entries.items()]

    assert outcome(lambda: SparseVector.indicator(indices, coeff)) == outcome(
        lambda: SparseVector(dict.fromkeys(indices, coeff)))


def test_constructor_index_rules():
    for bad in (True, False, 0, -3, "2", 2.0):
        with pytest.raises(VectorError):
            SparseVector({bad: 1.0})
        with pytest.raises(VectorError, match=f"bad index {bad!r}"):
            SparseVector.indicator([bad, 5], 1.0)
    x = SparseVector({Slot.THIRD: 2.0, 2: 1.0, Slot.FIRST: -1.0})
    assert list(x.entries) == [1, 2, 3]
    # a repeated key keeps its first place, then the entries are sorted
    assert list(SparseVector([(4, 1), (2, 1), (4, 5)]).entries.items()) == [(2, 1), (4, 5)]
    # a zero repeat skips, leaving the earlier coefficient
    assert SparseVector([(4, 1), (4, 0)]).entries == {4: 1}
    assert SparseVector.indicator([5, 2, 5], 1.0).entries == {2: 1.0, 5: 1.0}


def test_nan_coefficients_refused():
    # each of these evaluated a NaN coefficient silently (0.0, 3.0, 1.0) or
    # failed inside the witness; the vector itself is now refused
    cases = [
        lambda: kt_block_norm(SparseVector({1: NAN}), 1),
        lambda: kt_block_norm(SparseVector({1: NAN}), 1, want_witness=True),
        lambda: block_sum_norm(SparseVector({1: NAN, 2: 3.0}), "l2"),
        lambda: make_space("schreier:a=1").norm(SparseVector({2: NAN, 3: 1.0})),
        lambda: SparseVector.parse("3:nan"),
        lambda: SparseVector([(2, 1.0), (5, -NAN)]),
        lambda: SparseVector.indicator([1, 2], NAN),
    ]
    for case in cases:
        with pytest.raises(VectorError, match="NaN"):
            case()


def test_malformed_wire_coefficients_refused():
    # 1/0 and x/2 escaped as ZeroDivisionError and ValueError, inf was
    # accepted, and a repeated index kept its last coefficient
    for text in ("1:1/0", "1:x/2", "1:inf", "2:-inf", "1:1e999", "1:", "1:2/",
                 "3:1,3:2", "3:1,2:1,3:0"):
        with pytest.raises(VectorError):
            SparseVector.parse(text)
    for text in ("1:1/0", "1:x/2", "1:inf"):
        with pytest.raises(VectorError, match="bad coefficient"):
            SparseVector.parse(text)
    assert SparseVector.parse("1: 3/6 ,2:-2, 4:0.5").entries == {
        1: Fraction(1, 2), 2: -2, 4: 0.5}


def test_support_ends():
    x = SparseVector([(7, 1.0), (2, -1), (40, Fraction(1, 3))])
    assert (x.min_index(), x.max_index()) == (2, 40)
    assert SparseVector().min_index() == SparseVector().max_index() == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 40), _VALUES), max_size=15),
       st.lists(st.integers(0, 45), max_size=10))
def test_drop_and_restrict_match_the_checked_constructor(pairs, picked):
    # both keep entries as they stand; the result is what the validating
    # constructor makes of the same subset, in the same order
    x = SparseVector(pairs)
    keep = set(picked)
    for got, kept in ((x.restrict(picked), lambda i: i in keep),
                      (x.drop(picked), lambda i: i not in keep)):
        want = SparseVector({i: v for i, v in x.entries.items() if kept(i)})
        assert list(got.entries.items()) == list(want.entries.items())
        assert [type(v) for v in got.entries.values()] == \
            [type(v) for v in want.entries.values()]
    assert x.drop(()) == x and x.restrict(()).is_zero


def _set_size(k):
    """`random.sample`'s bound on n: past it, it keeps a set of the drawn
    positions instead of a pool of the undrawn elements."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


@st.composite
def _sample_cases(draw):
    """(population, k): k at most 5 or past it, n from k (the pool side,
    k = n included) or past `_set_size(k)` (the set side); a range with any
    start and step, or a list with repeats.  Either side's last n is drawn
    apart."""
    k = draw(st.one_of(st.integers(0, 5), st.integers(6, 60)))
    bound = _set_size(k)
    n = draw(st.one_of(st.just(k), st.integers(k, bound), st.just(bound),
                       st.just(bound + 1), st.integers(bound + 1, bound + 400)))
    if draw(st.booleans()):
        step = draw(st.sampled_from((1, 1, 3, -1, -7)))
        start = draw(st.integers(-10**6, 10**6))
        return range(start, start + step * n, step), k
    fill = random.Random(draw(st.integers(0, 2**32)))
    return [fill.randint(-20, 20) for _ in range(n)], k


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_sample_cases(), st.integers(0, 2**64))
@example((range(1, 4097), 200), 0)  # repro-l2sum's largest draw: the set side
@example((range(1, 41), 12), 0)  # repro-james's largest draw: the pool side
@example((range(5, 5), 0), 3)
@example((range(30), 30), 1)
def test_sorted_sample_draws_what_random_sample_draws(case, seed):
    population, k = case
    reference, rng = random.Random(seed), random.Random(seed)
    assert sorted_sample(rng, population, k) == sorted(reference.sample(population, k))
    assert rng.getstate() == reference.getstate()


def test_sorted_sample_refuses_what_random_sample_refuses():
    for population, k in ((range(3), 4), (range(3), -1), ([], 1)):
        with pytest.raises(ValueError) as want:
            random.Random(0).sample(population, k)
        rng = random.Random(0)
        with pytest.raises(ValueError) as got:
            sorted_sample(rng, population, k)
        assert str(got.value) == str(want.value)
        assert rng.getstate() == random.Random(0).getstate()

import math
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedylab.norms import block_sum_norm, kt_block_norm
from greedylab.spaces import make_space
from greedylab.vectors import SparseVector, VectorError

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

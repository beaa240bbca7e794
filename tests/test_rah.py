import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greedylab.config import BudgetExceeded
from greedylab.family_norms import schreier_alpha_norm, weighted_schreier_norm
from greedylab.harness import _sanitize
from greedylab.ordinals import OMEGA, ONE, ZERO, parse_ordinal
from greedylab import rah
from greedylab.rah import (GeometricBlock, IndexStream,
                           RangeNotMaterializable, ShiftedInt,
                           WeightFamily, democracy_growth_table,
                           int_descriptor, make_weight_family,
                           rah_schreier_bound_search, rah_sequence, rah_vector,
                           weight_family_certificates)
from greedylab.schreier import FamilyError, schreier_maximal
from greedylab.vectors import SparseVector
from references import (block_weight_at, rah_sequence_recursive,
                        weight_block_by_runs)

TWO = parse_ordinal("2")


def test_stream_basics():
    s = IndexStream.naturals(3)
    assert s.min == 3
    assert s.first(4) == (3, 4, 5, 6)
    assert s.advance_past(10).min == 11
    t = IndexStream((2, 5), 9)
    assert t.first(5) == (2, 5, 9, 10, 11)
    assert t.advance_past(4).first(2) == (5, 9)
    with pytest.raises(FamilyError):
        IndexStream((5, 3), 9)
    with pytest.raises(FamilyError):  # the builders trust stream elements as indices
        IndexStream((True, 3), 9)


def test_level_zero_and_one_examples():
    z = rah_sequence(ZERO, IndexStream.naturals(5), 3)
    assert [v.entries for v in z] == [{5: Fraction(1)}, {6: Fraction(1)},
                                      {7: Fraction(1)}]
    v = rah_vector(ONE, IndexStream.naturals(3), 1)
    assert v.entries == {i: Fraction(1, 3) for i in (3, 4, 5)}


def test_level_two_example_coefficients():
    v = rah_vector(TWO, IndexStream.naturals(3), 1)
    assert v.support == tuple(range(3, 24))
    assert all(v.get(i) == Fraction(1, 9) for i in (3, 4, 5))
    assert all(v.get(i) == Fraction(1, 18) for i in range(6, 12))
    assert all(v.get(i) == Fraction(1, 36) for i in range(12, 24))


def test_mass_and_cap_identities():
    for alpha, count in ((ONE, 5), (TWO, 1)):
        seq = rah_sequence(alpha, IndexStream.naturals(3), count)
        prev_max = 0
        for v in seq:
            assert v.l1_norm() == 1
            assert v.inf_norm() <= Fraction(1, v.min_index())
            assert v.min_index() > prev_max
            prev_max = v.max_index()


def test_limit_level_uses_fundamental_sequence():
    w = parse_ordinal("w")
    # at a limit level the first block resolves to level min+1; min 2 keeps
    # the level-3 average small enough to materialize
    v = rah_sequence(w, IndexStream.naturals(2), 1)[0]
    direct = rah_sequence(parse_ordinal("3"), IndexStream.naturals(2), 1)[0]
    assert v == direct
    assert v.l1_norm() == 1


def test_growth_factor_example():
    first = rah_vector(TWO, IndexStream.naturals(3), 1)
    assert first.min_index() == 3
    next_min = IndexStream.naturals(3).advance_past(first.max_index()).min
    assert next_min == 24
    assert next_min >= 8 * first.min_index()


def test_budget_failure_is_loud_and_partial():
    with pytest.raises(BudgetExceeded) as info:
        rah_sequence(TWO, IndexStream.naturals(3), 3, max_support=50)
    assert info.value.attained is not None
    assert len(info.value.attained) == 1


RAH_LEVELS = [parse_ordinal(t) for t in ("0", "1", "2", "3", "w", "w+1", "w*2")]


def _outcome(build, alpha, stream, count, budget):
    """Entries as (index, numerator, denominator, type) rows, or the budget
    refusal's message and attained entries, or the RecursionError."""
    def rows(vecs):
        return [[(i, a.numerator, a.denominator, type(a))
                 for i, a in v.entries.items()] for v in vecs]
    try:
        return "built", rows(build(alpha, stream, count, budget))
    except BudgetExceeded as exc:
        return "budget", str(exc), rows(exc.attained)
    except RecursionError:
        return ("recursion",)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 30), max_size=5, unique=True),
       st.integers(1, 20), st.sampled_from(RAH_LEVELS), st.integers(1, 3),
       st.integers(1, 3000))
# w + 1 at min 2: the second level-w block is level 2049 at min 2048, past
# the reference's recursion limit
@example([], 2, parse_ordinal("w+1"), 1, 3000)
def test_builder_matches_recursive_reference(prefix, gap, alpha, count,
                                             budget):
    prefix = sorted(prefix)
    stream = IndexStream(tuple(prefix), (prefix[-1] if prefix else 0) + gap)
    got = _outcome(rah_sequence, alpha, stream, count, budget)
    want = _outcome(rah_sequence_recursive, alpha, stream, count, budget)
    if want == ("recursion",):
        assert got[0] == "budget"
    else:
        assert got == want


def test_deep_limit_levels_are_refused_up_front():
    # w at min 2048 is level 2049: at least 2^2049 leaves
    with pytest.raises(BudgetExceeded) as info:
        rah_sequence(parse_ordinal("w+2"), IndexStream.naturals(2), 1)
    assert info.value.attained == []
    assert str(info.value) == ("support budget 100000 exhausted while placing "
                               "index 100002 (completed 0 whole blocks)")
    with pytest.raises(BudgetExceeded) as info:
        rah_schreier_bound_search(parse_ordinal("w+1"), parse_ordinal("w+2"), 1)
    assert info.value.attained == []
    # the first level-w block is the level-3 one; the second is refused
    with pytest.raises(BudgetExceeded) as info:
        rah_sequence(OMEGA, IndexStream.naturals(2), 2)
    assert info.value.attained == rah_sequence(parse_ordinal("3"),
                                               IndexStream.naturals(2), 1)
    assert "(completed 1 whole blocks)" in str(info.value)
    # deeply nested limit levels are walked on the builder's own stack, so
    # they too end in the budget refusal, never in a RecursionError
    for level, start in (("w^5", 5), ("w^7*7", 3)):
        with pytest.raises(BudgetExceeded) as info:
            rah_sequence(parse_ordinal(level), IndexStream.naturals(start), 1)
        assert info.value.attained == []
    # a block at min 1 is the leaf 1 at any level; the next one is refused
    with pytest.raises(BudgetExceeded) as info:
        rah_sequence(parse_ordinal("w^7*3 + 1000000"), IndexStream.naturals(1),
                     2)
    assert [v.entries for v in info.value.attained] == [{1: Fraction(1)}]


def test_tail_certificates():
    cert = rah_schreier_bound_search(ZERO, ONE, 2)
    assert cert.stream.min == 3
    assert cert.vector.entries == {i: Fraction(1, 3) for i in (3, 4, 5)}
    assert cert.norm_value == Fraction(1, 3)
    assert cert.holds
    cert2 = rah_schreier_bound_search(ONE, TWO, 2)
    assert cert2.norm_value < Fraction(3, cert2.stream.min)
    # the certifying value is an exact rational, re-derivable
    assert cert2.norm_value == schreier_alpha_norm(cert2.vector, ONE)
    with pytest.raises(FamilyError):
        rah_schreier_bound_search(ONE, ONE, 2)


def test_negative_counts_are_refused():
    # both returned: no blocks, and a certificate for the "tail past -1"
    with pytest.raises(FamilyError, match="^block count must be at least 0, got -1$"):
        rah_sequence(TWO, IndexStream.naturals(3), -1)
    with pytest.raises(FamilyError, match="^N must be at least 0, got -1$"):
        rah_schreier_bound_search(ONE, TWO, -1)
    assert rah_sequence(TWO, IndexStream.naturals(3), 0) == []
    assert rah_schreier_bound_search(ONE, TWO, 0).stream.min == 1


def test_tail_certificates_hold_at_the_first_tail():
    # every level pair here either certifies on the tail past N or runs out
    # of support budget building its first average; no later cut is needed
    pairs = [("0", "1"), ("1", "2"), ("0", "2"), ("1", "3"), ("2", "3"),
             ("w", "w+1"), ("1", "w"), ("2", "w"), ("0", "w")]
    fitting = []
    for a, b in pairs:
        alpha, beta = parse_ordinal(a), parse_ordinal(b)
        for N in range(1, 9):
            try:
                cert = rah_schreier_bound_search(alpha, beta, N)
            except BudgetExceeded:
                continue
            assert cert.stream.min == N + 1 and cert.holds, (a, b, N)
            assert cert.norm_value == schreier_alpha_norm(cert.vector, alpha)
            fitting.append((a, b, N))
    assert fitting == ([(a, b, N) for a, b in pairs[:3] for N in range(1, 9)]
                       + [("1", "3", 1), ("1", "w", 1), ("0", "w", 1)])


def test_tail_certificate_failure_names_the_value_and_the_bound(monkeypatch):
    monkeypatch.setattr(rah, "schreier_alpha_norm", lambda vec, alpha: Fraction(1))
    with pytest.raises(FamilyError, match=r"norm 1, not below the bound 1$"):
        rah_schreier_bound_search(ONE, TWO, 2)


def test_weight_family_level0_example():
    fam = make_weight_family(ZERO, 1, 2)
    block = fam.blocks[0]
    assert block.run(1) == (3, 5, Fraction(1, 3))
    assert block.mass() == 1


def test_weight_family_level1_matches_rah_vectors():
    fam = make_weight_family(ONE, 2, 2)
    for block, start in zip(fam.blocks, (3, 24)):
        assert block.start == start
    small = fam.blocks[0].to_sparse()
    assert small == rah_vector(TWO, IndexStream.naturals(3), 1)


def test_to_sparse_matches_the_run_by_run_reference():
    for level in (0, 1):
        for start in range(2, 13):
            got = GeometricBlock(level, start).to_sparse()
            want = weight_block_by_runs(GeometricBlock(level, start))
            assert list(got.entries.items()) == list(want.entries.items())
            assert all(type(v) is Fraction for v in got.entries.values())
    # a block sized past the support budget still materialises; start 17
    # is refused before anything is built
    assert len(GeometricBlock(1, 13).to_sparse()) == 13 * (2 ** 13 - 1)
    with pytest.raises(RangeNotMaterializable):
        GeometricBlock(1, 17).to_sparse()


def test_weight_family_certificates_and_maximality():
    fam = make_weight_family(ONE, 2, 2)
    rows = weight_family_certificates(fam)
    assert all(all(r["checks"].values()) for r in rows)
    # closed-form certificate equals the generic evaluator on small blocks
    for l in (3, 4, 6):
        block = GeometricBlock(1, l)
        vec = block.to_sparse()
        assert l * schreier_alpha_norm(vec, ONE) == block.family_norm_times_min()
        assert schreier_maximal(vec.support, TWO, vec.max_index() + 10)
    for l in (3, 5, 9):
        block = GeometricBlock(0, l)
        vec = block.to_sparse()
        assert schreier_maximal(vec.support, ONE, vec.max_index() + 10)


def test_weight_family_budget_failure():
    with pytest.raises(BudgetExceeded) as info:
        make_weight_family(ONE, 5, 2)
    # the attained blocks print although the last start has 402653213 bits
    assert "ShiftedInt(3, 402653211, 0)" in repr(info.value.attained)
    with pytest.raises(FamilyError):
        make_weight_family(TWO, 1, 2)


def test_democracy_table_small():
    fam = make_weight_family(ONE, 2, 2)
    rows = democracy_growth_table(fam)
    assert [r["ratio"] for r in rows] == [3, 24]
    # partner of the first block is explicit; its norm really is 1
    partner = rows[0]["partner"]
    probe = SparseVector.indicator(range(partner["lo"], partner["hi"] + 1), 1)
    assert weighted_schreier_norm(probe, fam) == 1


def test_weight_coefficients_monotone_decreasing():
    # constructed weights never increase along the support
    for level, starts in ((0, (3, 7)), (1, (3, 5, 8))):
        for start in starts:
            block = GeometricBlock(level, start)
            prev = None
            for n in range(1, block.run_count + 1):
                _, _, w = block.run(n)
                if prev is not None:
                    assert w <= prev
                prev = w
    vec = rah_vector(TWO, IndexStream.naturals(3), 1)
    coeffs = [vec.get(i) for i in vec.support]
    assert all(a >= b for a, b in zip(coeffs, coeffs[1:]))


def test_democracy_table_level0_uses_beyond_family_partners():
    fam = make_weight_family(ZERO, 3, 2)
    rows = democracy_growth_table(fam)
    assert [r["ratio"] for r in rows] == [3, 6, 12]
    for row in rows:
        partner = row["partner"]
        assert partner["placement"] in ("adjacent", "beyond-family")
        probe = SparseVector.indicator(range(partner["lo"], partner["hi"] + 1), 1)
        assert weighted_schreier_norm(probe, fam) == 1


# ---------------------------------------------------------------------------
# ShiftedInt forms and the certificates built on them
# ---------------------------------------------------------------------------

_forms = st.builds(ShiftedInt, st.integers(-40, 40), st.integers(0, 300),
                   st.integers(-(1 << 80), 1 << 80))
_operands = st.one_of(_forms, st.integers(-(1 << 320), 1 << 320))


def _val(x):
    return int(x) if isinstance(x, ShiftedInt) else x


@settings(derandomize=True, database=None, max_examples=300)
@given(_forms, _operands, st.integers(0, 200))
def test_shifted_int_matches_int_arithmetic(a, b, k):
    va, vb = int(a), _val(b)
    assert int(a + b) == va + vb
    assert int(b + a) == vb + va
    assert int(a - b) == va - vb
    assert int(b - a) == vb - va
    assert int(a << k) == va << k
    assert a >> k == va >> k
    assert int(a * 3) == va * 3
    assert a.bit_length() == va.bit_length()
    assert a.sign() == (va > 0) - (va < 0)
    assert bool(a) == bool(va)
    assert (a == b) == (va == vb)
    assert (a < b) == (va < vb)
    assert (a <= b) == (va <= vb)
    assert (a > b) == (va > vb)
    assert (a >= b) == (va >= vb)
    assert int_descriptor(a) == int_descriptor(va)


def test_shifted_int_canonical_form_and_power():
    for v in (1, 2, 3, 24, 402653184, 12345 << 200, -40):
        form = ShiftedInt.of(v)
        assert int(form) == v and form.offset == 0 and form.head % 2
        assert int(form ** 2) == v * v
    assert int(ShiftedInt(3, 5, 1) ** 2) == 97 ** 2


def test_shifted_int_wide_descriptors_without_expansion():
    # 3 * 2^402653211 is the fourth block's start of the default family
    start = ShiftedInt(3, 402653211)
    assert int_descriptor(start) == {"bit_length": 402653213,
                                     "hex_head": "c000000000000000"}
    assert int_descriptor(start - 1) == {"bit_length": 402653213,
                                         "hex_head": "bfffffffffffffff"}
    assert start - 1 < start < (start << 1) - 402653185
    assert (start << 1) - start == start


def _fraction(num, den):
    return Fraction(int(num) if isinstance(num, ShiftedInt) else num,
                    int(den) if isinstance(den, ShiftedInt) else den)


_ENUMERABLE_BLOCKS = ([GeometricBlock(0, s) for s in (2, 3, 7, 100, 4096)]
                      + [GeometricBlock(1, s) for s in (2, 3, 5, 24, 100, 4096)])


def test_scaled_run_mass_matches_fraction_arithmetic():
    for block in _ENUMERABLE_BLOCKS:
        for n in range(1, block.run_count + 1):
            lo, hi, w = block.run(n)
            assert (lo, hi) == tuple(int(b) for b in block.run_bounds(n))
            expected = (hi - lo + 1) * w * block.run_count
            assert expected == 1
            assert _fraction(*block.scaled_run_mass(n)) == expected
        assert block.mass() == 1


def test_interval_mass_compare_matches_fraction_arithmetic():
    rng = random.Random(2)
    for block in _ENUMERABLE_BLOCKS:
        runs = [block.run(n) for n in range(1, block.run_count + 1)]
        top = runs[-1][1]
        probes = [(block.start, top), (1, block.start), (top, top + 5),
                  (top + 1, top + 9), (block.start + 1, block.start)]
        for _ in range(20):
            lo = rng.choice((rng.randint(1, 2 * block.start),
                             rng.randint(1, top + 3)))
            probes.append((lo, lo + rng.choice((0, 1, rng.randint(0, top)))))
        for lo, hi in probes:
            expected = block.start * sum(
                (min(hi, r_hi) - max(lo, r_lo) + 1) * w
                for r_lo, r_hi, w in runs if r_lo <= hi and lo <= r_hi)
            got = block.interval_mass_compare(lo, hi)
            assert _fraction(*got) == expected, (block, lo, hi)
            # forms as bounds give the same value
            forms = block.interval_mass_compare(ShiftedInt.of(lo),
                                                ShiftedInt.of(hi))
            assert _fraction(*forms) == expected
    # index by index on a block small enough to enumerate
    block = GeometricBlock(1, 3)
    for lo in range(1, 26):
        for hi in range(lo - 1, 26):
            weights = (block_weight_at(block, i) for i in range(lo, hi + 1))
            expected = 3 * sum(w for w in weights if w is not None)
            assert _fraction(*block.interval_mass_compare(lo, hi)) == expected


@dataclass(frozen=True)
class _LongRun(GeometricBlock):
    """Sampled run `bad` is one index too long."""

    bad: int = 1

    def run_bounds(self, n):
        lo, hi = super().run_bounds(n)
        return (lo, hi + 1) if n == self.bad else (lo, hi)


@dataclass(frozen=True)
class _HeavyRun(GeometricBlock):
    """Sampled run `bad` has half the denominator it should."""

    bad: int = 1

    def run_weight(self, n):
        num, p, e = super().run_weight(n)
        return (num, p, e - 1) if n == self.bad else (num, p, e)


def test_certificates_catch_off_by_one_runs():
    wide = make_weight_family(ONE, 4, 2).blocks[3]
    cases = [(0, 5, 1), (1, 5, 5), (1, 4096, 2048), (1, 402653184, 402653184),
             (1, wide.start_form, 64)]
    for level, start, bad in cases:
        good = GeometricBlock(level, start)
        rows = weight_family_certificates(WeightFamily(level, (good,), 2))
        assert rows[0]["checks"]["sampled_run_mass"]
        for broken in (_LongRun(level, start, bad), _HeavyRun(level, start, bad)):
            if broken.level == 0 and isinstance(broken, _HeavyRun):
                continue  # a level-0 run has exponent 0; nothing to halve
            rows = weight_family_certificates(WeightFamily(level, (broken,), 2))
            assert rows[0]["checks"]["sampled_run_mass"] is False, broken.start


def test_default_family_certificates_and_democracy():
    family = make_weight_family(ONE, 4, 2)
    rows = weight_family_certificates(family)
    assert len(rows) == 4
    assert all(all(r["checks"].values()) for r in rows)
    demo = democracy_growth_table(family)
    assert [r["partner"]["placement"] for r in demo] == [
        "adjacent", "adjacent", "adjacent", "beyond-family-symbolic"]
    # the adjacent partner of block 2 is explicit: its norm really is one
    partner = demo[1]["partner"]
    probe = SparseVector({partner["lo"]: 1, partner["hi"]: 1})
    assert weighted_schreier_norm(probe, family) == 1


def test_constructors_refuse_bool_and_non_integer_naturals():
    # each of these built or failed late: a level, tail or n0 of True was
    # written as JSON `true`, a count of True built one block, a tail of 2.5
    # failed later in `first` with a TypeError, and a start or n0 of 2.5
    # with an AttributeError
    for build in (lambda: GeometricBlock(True, 3),
                  lambda: GeometricBlock(1.0, 3),
                  lambda: make_weight_family(True, 2, 2),
                  lambda: GeometricBlock(0, 2.5),
                  lambda: GeometricBlock(0, True),
                  lambda: make_weight_family(ONE, 2, 2.5),
                  lambda: make_weight_family(ONE, 2, True),
                  lambda: make_weight_family(ONE, True, 2),
                  lambda: make_weight_family(ONE, 2.0, 2),
                  lambda: IndexStream((), True),
                  lambda: IndexStream((), 2.5)):
        with pytest.raises(FamilyError):
            build()
    # the stream refusals that came before the single index-set check
    for prefix, tail in (((), 0), ((3,), 3), ((4,), 3), ((2, 2), 5)):
        with pytest.raises(FamilyError):
            IndexStream(prefix, tail)


def test_certificates_keep_fractions_and_forms():
    # the writers encode them; in process they stay exact
    cert = rah_schreier_bound_search(ONE, TWO, 2)
    assert cert.to_dict()["norm"] is cert.norm_value
    assert cert.to_dict()["bound"] == Fraction(1)
    family = make_weight_family(ONE, 4, 2)
    rows = weight_family_certificates(family)
    for row, block in zip(rows, family.blocks):
        assert row["min"] is block.start_form
        assert row["norm_times_min"] == Fraction(1)
        assert type(row["norm_times_min"]) is Fraction


# SHA-256 of the sanitized certificates of the default repro-walpha family,
# as json.dumps(..., sort_keys=True) writes them
CERTIFICATES_GOLDEN = "93302c3c1aa1848891dc777ceb233e4e066eb2158bd14d575acaca402096a348"


def test_certificates_golden():
    rows = _sanitize(weight_family_certificates(make_weight_family(ONE, 4, 2)))
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATES_GOLDEN

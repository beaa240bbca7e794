import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedylab.config import BudgetExceeded
from greedylab.family_norms import schreier_alpha_norm, weighted_schreier_norm
from greedylab.ordinals import ONE, ZERO, parse_ordinal
from greedylab.rah import (GeometricBlock, IndexStream, ShiftedInt,
                           WeightFamily, democracy_growth_table,
                           int_descriptor, make_weight_family,
                           rah_schreier_bound_search, rah_sequence, rah_vector,
                           weight_family_certificates)
from greedylab.schreier import FamilyError, schreier_maximal
from greedylab.vectors import SparseVector

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


def test_weight_family_level0_example():
    fam = make_weight_family(ZERO, 1, 2)
    block = fam.blocks[0]
    assert block.run(1) == (3, 5, Fraction(1, 3))
    assert block.mass() == 1


def test_weight_family_level1_matches_rah_vectors():
    fam = make_weight_family(ONE, 2, 2)
    for block, start in zip(fam.blocks, (3, 24)):
        assert block.min_index == start
    small = fam.blocks[0].to_sparse()
    assert small == rah_vector(TWO, IndexStream.naturals(3), 1)


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
            weights = (block.weight_at(i) for i in range(lo, hi + 1))
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

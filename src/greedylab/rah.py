"""Repeated averages of the unit basis in exact rationals.

The level-0 vectors are basis vectors along a stream; each successor level
averages the first min-many lower-level vectors and moves the stream past the
support just used.  Everything here is exact: l1 mass one and the flat
coefficient cap are rational identities, and the small-family-norm tail
certificates are strict Fraction inequalities.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .config import BudgetExceeded, support_budget
from .family_norms import schreier_alpha_norm
from .ordinals import Ordinal, fundamental_term
from .schreier import FamilyError
from .vectors import SparseVector

# largest bit count we are willing to materialize for a block endpoint
MATERIALIZE_SHIFT_CAP = 1 << 30
# cut escalations `rah_schreier_bound_search` tries before giving up
BOUND_SEARCH_TRIES = 8


class RangeNotMaterializable(FamilyError):
    """An endpoint would need more bits than the materialization cap."""


@dataclass(frozen=True)
class IndexStream:
    """Strictly increasing infinite index set: explicit prefix, then a co-finite
    tail {tail_start, tail_start+1, ...}."""

    prefix: tuple = ()
    tail_start: int = 1

    def __post_init__(self):
        if self.tail_start < 1:
            raise FamilyError("tail must start at a positive integer")
        prev = 0
        for k in self.prefix:
            if not isinstance(k, int) or k <= prev:
                raise FamilyError(f"prefix must be strictly increasing, got {self.prefix!r}")
            prev = k
        if self.prefix and self.prefix[-1] >= self.tail_start:
            raise FamilyError("prefix must sit strictly below the tail")

    @classmethod
    def naturals(cls, start: int = 1) -> "IndexStream":
        return cls((), start)

    @property
    def min(self) -> int:
        return self.prefix[0] if self.prefix else self.tail_start

    def advance_past(self, n: int) -> "IndexStream":
        """The stream restricted to elements strictly above n."""
        kept = tuple(k for k in self.prefix if k > n)
        return IndexStream(kept, max(self.tail_start, n + 1))

    def first(self, count: int) -> tuple:
        out = list(self.prefix[:count])
        nxt = self.tail_start
        while len(out) < count:
            out.append(nxt)
            nxt += 1
        return tuple(out)

    def describe(self) -> dict:
        return {"prefix": list(self.prefix), "tail_start": self.tail_start}


def _rah_block(alpha: Ordinal, stream: IndexStream, budget: int, used: int):
    """One level-alpha average on the stream; returns (vector, used)."""
    if alpha.is_zero:
        if used + 1 > budget:
            raise BudgetExceeded(
                f"support budget {budget} exhausted while placing index "
                f"{stream.min}",
                attained=used,
            )
        return SparseVector({stream.min: Fraction(1)}), used + 1
    if alpha.is_limit:
        step = fundamental_term(alpha, stream.min).successor()
        return _rah_block(step, stream, budget, used)
    k = stream.min
    pred = alpha.predecessor()
    cur = stream
    entries = {}
    coeff = Fraction(1, k)
    for _ in range(k):
        part, used = _rah_block(pred, cur, budget, used)
        for i, a in part.entries.items():
            entries[i] = coeff * a
        cur = cur.advance_past(part.max_index())
    return SparseVector(entries), used


def rah_sequence(alpha: Ordinal, stream: IndexStream, count: int,
                 max_support=None):
    """First `count` level-alpha averages on the stream, supports successive
    and disjoint.  Fails loudly with the attained prefix on budget exhaustion."""
    budget = support_budget() if max_support is None else max_support
    out = []
    used = 0
    cur = stream
    for _ in range(count):
        try:
            vec, used = _rah_block(alpha, cur, budget, used)
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                f"{exc} (completed {len(out)} whole blocks)",
                attained=out,
            ) from None
        out.append(vec)
        cur = stream.advance_past(vec.max_index())
    return out


def rah_vector(alpha: Ordinal, stream: IndexStream, n: int, max_support=None):
    """The n-th level-alpha average (1-based)."""
    if n < 1:
        raise FamilyError("block number must be >= 1")
    return rah_sequence(alpha, stream, n, max_support)[-1]


@dataclass(frozen=True)
class TailNormCertificate:
    """A tail L of the stream whose level-beta average has level-alpha family
    norm strictly below 3/min L, certified by exact evaluation."""

    alpha: Ordinal
    beta: Ordinal
    stream: IndexStream
    vector: SparseVector
    norm_value: Fraction
    bound: Fraction

    @property
    def holds(self) -> bool:
        return self.norm_value < self.bound

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha.text(),
            "beta": self.beta.text(),
            "L": self.stream.describe(),
            "L_min": self.stream.min,
            "support_size": len(self.vector),
            "norm": {"num": self.norm_value.numerator,
                     "den": self.norm_value.denominator},
            "bound": {"num": self.bound.numerator,
                      "den": self.bound.denominator},
            "holds": self.holds,
        }


def rah_schreier_bound_search(alpha: Ordinal, beta: Ordinal, N: int,
                              stream: IndexStream | None = None,
                              max_support=None):
    """Search for a certified small-norm tail: min L > N and exact
    level-alpha norm of the level-beta average below 3/min L.

    Tails of the stream are tried with escalating cut points; each candidate
    is certified by the exact family-norm evaluator before being returned.
    """
    if not alpha < beta:
        raise FamilyError(f"need alpha < beta, got {alpha} and {beta}")
    if stream is None:
        stream = IndexStream.naturals()
    cut = N
    for _ in range(BOUND_SEARCH_TRIES):
        tail = stream.advance_past(cut)
        vec = rah_sequence(beta, tail, 1, max_support)[0]
        value = schreier_alpha_norm(vec, alpha)
        bound = Fraction(3, tail.min)
        if value < bound:
            return TailNormCertificate(alpha, beta, tail, vec, value, bound)
        cut = tail.min
    raise FamilyError(
        f"no certified tail found for levels ({alpha}, {beta}) within "
        f"{BOUND_SEARCH_TRIES} cut escalations past {N}"
    )


# ---------------------------------------------------------------------------
# weight families for the truncated weighted norm
# ---------------------------------------------------------------------------


# operands at most this wide are folded into an offset instead of rebased
_NARROW_BITS = 64


def _checked_exponent(bits: int) -> int:
    if bits > MATERIALIZE_SHIFT_CAP:
        raise RangeNotMaterializable(
            f"a shift by a {bits.bit_length()}-bit exponent exceeds the "
            f"materialization cap of {MATERIALIZE_SHIFT_CAP} bits"
        )
    return int(bits)


class ShiftedInt:
    """The integer (head << shift) + offset, kept unexpanded.

    Endpoints deep in a weight family have hundreds of millions of bits.  In
    this form shifts, sums, comparisons, bit lengths and leading bits cost a
    few small-integer operations while heads stay small and the shifts of
    two wide operands are close; anything else falls back to the exact
    expanded integers, which costs time linear in their width.
    """

    __slots__ = ("head", "shift", "offset")

    def __init__(self, head: int, shift: int = 0, offset: int = 0):
        if shift < 0:
            raise ValueError(f"shift must be non-negative, got {shift}")
        self.head = head
        self.shift = shift
        self.offset = offset

    @classmethod
    def of(cls, value: int) -> "ShiftedInt":
        """Canonical form of an int: odd head and zero offset."""
        if value == 0:
            return cls(0)
        twos = (value & -value).bit_length() - 1
        return cls(value >> twos, twos)

    def __int__(self) -> int:
        value = self.head << self.shift
        # adding a zero offset would still copy a wide value
        return value + self.offset if self.offset else value

    __index__ = __int__

    def __repr__(self) -> str:
        return f"ShiftedInt({self.head}, {self.shift}, {self.offset})"

    def sign(self) -> int:
        h, o = self.head, self.offset
        if h == 0:
            v = o
        elif abs(o).bit_length() <= self.shift:
            v = h  # |offset| < 2^shift <= |head| * 2^shift
        else:
            v = int(self)
        return (v > 0) - (v < 0)

    def bit_length(self) -> int:
        if self.sign() < 0:
            return (-self).bit_length()
        k = max(self.shift - 1, 0)
        top = self >> k
        if top > 0:
            return top.bit_length() + k
        return int(self).bit_length()

    def __rshift__(self, k: int) -> int:
        """The floor shift self >> k, as an int."""
        if k <= self.shift:
            return (self.head << (self.shift - k)) + (self.offset >> k)
        return int(self) >> k

    def __lshift__(self, k: int) -> "ShiftedInt":
        return ShiftedInt(self.head, self.shift + k, self.offset << k)

    def __neg__(self) -> "ShiftedInt":
        return ShiftedInt(-self.head, self.shift, -self.offset)

    def __add__(self, other):
        if isinstance(other, int):
            return ShiftedInt(self.head, self.shift, self.offset + other)
        if not isinstance(other, ShiftedInt):
            return NotImplemented
        if other.bit_length() <= _NARROW_BITS:
            return self + int(other)
        if self.bit_length() <= _NARROW_BITS:
            return other + int(self)
        if self.shift < other.shift:
            return other + self
        head = (self.head << (self.shift - other.shift)) + other.head
        return ShiftedInt(head, other.shift, self.offset + other.offset)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, k):
        if not isinstance(k, int):
            return int(self) * k
        return ShiftedInt(self.head * k, self.shift, self.offset * k)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "ShiftedInt":
        if self.offset:
            return ShiftedInt.of(int(self) ** k)
        return ShiftedInt(self.head ** k, self.shift * k)

    def __bool__(self) -> bool:
        return self.sign() != 0

    def _ordering(test):
        def method(self, other):
            if not isinstance(other, (int, ShiftedInt)):
                return NotImplemented
            return test((self - other).sign(), 0)
        return method

    __eq__ = _ordering(operator.eq)
    __lt__ = _ordering(operator.lt)
    __le__ = _ordering(operator.le)
    __gt__ = _ordering(operator.gt)
    __ge__ = _ordering(operator.ge)
    __hash__ = None
    del _ordering


@dataclass(frozen=True)
class GeometricBlock:
    """A maximal family interval starting at `start`, with repeated-average weights.

    level 0: the interval [start, 2*start-1] with flat weight 1/start (the
    first level-1 average on the consecutive tail).
    level 1: `start` runs, run n = [start*2^(n-1), start*2^n - 1] with weight
    1/(start^2 * 2^(n-1)) (the first level-2 average on the consecutive tail);
    a maximal level-2 interval.

    Run bounds and endpoints are ShiftedInt forms of the start, whose head
    stays the odd part of the first block's start along a family, so blocks
    too large to enumerate still answer point queries, partial sums and
    exact certificates with small-integer work.  `start_form` may be given
    as an int or a ShiftedInt and is kept in canonical form; the start is
    expanded to an int only where a point query or a materialisation lands
    inside the block.
    """

    level: int
    start_form: ShiftedInt

    def __post_init__(self):
        if self.level not in (0, 1):
            raise FamilyError(
                f"weight blocks are implemented for levels 0 and 1, got {self.level}"
            )
        if self.start_form < 2:
            raise FamilyError("block start must be at least 2")
        form = self.start_form
        if isinstance(form, int) or form.offset or not form.head & 1:
            object.__setattr__(self, "start_form", ShiftedInt.of(int(form)))

    @cached_property
    def start(self) -> int:
        """The start as an int, expanded on first use; deep in a family it
        is wide."""
        return int(self.start_form)

    @property
    def min_index(self) -> int:
        return self.start

    @property
    def run_count(self):
        return 1 if self.level == 0 else self.start_form

    def run_bounds(self, n: int):
        """(lo, hi) of the n-th run, 1-based, as ShiftedInt forms."""
        if not (1 <= n <= self.run_count):
            raise FamilyError(f"run {n} outside 1..{self.run_count}")
        lo = self.start_form << _checked_exponent(n - 1)
        return lo, (lo << 1) - 1

    def run_weight(self, n: int):
        """(num, p, e): the n-th run's weight is num / (start^p * 2^e)."""
        return 1, self.level + 1, n - 1

    def _weight(self, n: int) -> Fraction:
        num, p, e = self.run_weight(n)
        return Fraction(num, self.start ** p << e)

    def run(self, n: int):
        """(lo, hi, weight) of the n-th run, 1-based, expanded."""
        lo, hi = self.run_bounds(n)
        return int(lo), int(hi), self._weight(n)

    def _run_containing(self, i):
        """Number n of the range [start*2^(n-1), start*2^n - 1] holding i,
        an int or a form at or past the start: 0 below the start, above
        run_count past the block.  Neither branch expands a wide operand."""
        form = self.start_form
        if isinstance(i, int):
            # the bit length of i // start; the canonical form has no offset
            return ((i >> form.shift) // form.head).bit_length()
        n = i.bit_length() - form.bit_length() + 1
        return n if i >= form << (n - 1) else n - 1

    def weight_at(self, i: int):
        n = self._run_containing(i)
        # past the start, expanding it costs no more than i itself
        if n == 0 or n > (1 if self.level == 0 else self.start):
            return None
        return self._weight(n)

    def max_index(self) -> ShiftedInt:
        exponent = 1 if self.level == 0 else _checked_exponent(self.start_form)
        return (self.start_form << exponent) - 1

    def size(self) -> ShiftedInt:
        return self.max_index() + 1 - self.start_form

    @property
    def materializable(self) -> bool:
        return self.level == 0 or self.start_form <= MATERIALIZE_SHIFT_CAP

    def scaled_run_mass(self, n: int):
        """(num, den) with num/den = run_count * (mass of run n); one when the
        run carries its share of a unit mass.

        run_count = start^level cancels against the weight's start^p, so
        neither side is a product of wide integers."""
        lo, hi = self.run_bounds(n)
        num, p, e = self.run_weight(n)
        return (hi - lo + 1) * num, (self.start_form ** (p - self.level)) << e

    def mass(self) -> Fraction:
        # run_count runs, each carrying the mass of run 1; the sampled
        # run-mass certificate checks runs across the whole range
        num, den = self.scaled_run_mass(1)
        return Fraction(1) if num == den else Fraction(int(num), int(den))

    def family_norm_times_min(self) -> Fraction:
        """Closed form for min * (level-`level` family norm of the weights).

        Level 0: the best singleton is the flat weight, min*w = 1.  Level 1:
        a best admissible set starting inside run n takes s consecutive
        support elements; the run mass telescopes so every admissible start
        yields exactly mass 1/start, hence the value is 1.  Cross-checked
        against the generic evaluator on materialized small blocks in tests.
        """
        return Fraction(1)

    def to_sparse(self) -> SparseVector:
        """Materialize the weight vector (small blocks only)."""
        if self.level == 1 and self.start_form > 16:
            raise RangeNotMaterializable(
                f"refusing to materialize a level-1 block of start {self.start}"
            )
        entries = {}
        for n in range(1, self.run_count + 1):
            lo, hi, w = self.run(n)
            for i in range(lo, hi + 1):
                entries[i] = w
        return SparseVector(entries)

    def interval_mass_compare(self, lo, hi):
        """(numerator, denominator) of min * sum of weights over [lo, hi],
        unreduced, so callers can compare against 1 without a giant gcd.
        Bounds may be ints or ShiftedInt forms, and so may the results.

        Run n contributes count * start * w = count / (start^level * 2^(n-1))
        once one start cancels; the terms share the denominator of the last
        run touched, so the sum takes shifts and additions only."""
        lo = max(lo, self.start_form)
        if hi < lo:
            return 0, 1
        num = 0
        touched = 0
        n = self._run_containing(lo)
        while n <= self.run_count:
            r_lo, r_hi = self.run_bounds(n)
            if r_lo > hi:
                break
            num = (num << 1) + (min(hi, r_hi) - max(lo, r_lo) + 1)
            touched = n
            n += 1
        if not touched:
            return 0, 1
        return num, (self.start_form ** self.level) << (touched - 1)

    def describe(self) -> dict:
        out = {"level": self.level, "start": int_descriptor(self.start_form),
               "runs": int_descriptor(self.run_count)}
        if self.materializable:
            out["max"] = int_descriptor(self.max_index())
            out["size"] = int_descriptor(self.size())
        else:
            out["max"] = {"form": f"start*2^start - 1 (start of {self.start_form.bit_length()} bits)"}
        return out


def int_descriptor(v):
    """JSON form of an int or ShiftedInt: itself up to 63 bits, otherwise its
    bit length and leading 64 bits in hex."""
    bits = v.bit_length()
    if bits <= 63:
        return int(v)
    return {"bit_length": bits, "hex_head": format(v >> (bits - 64), "x")}


@dataclass(frozen=True)
class WeightFamily:
    """Successive disjoint maximal blocks with exact weights, defining the
    truncated weighted norm.  The family is part of the space identity."""

    level: int
    blocks: tuple
    n0: int

    def describe(self) -> dict:
        return {
            "level": self.level,
            "n0": self.n0,
            "blocks": [b.describe() for b in self.blocks],
        }


def make_weight_family(alpha, count: int, n0: int) -> WeightFamily:
    """`count` successive disjoint maximal level-(alpha+1) intervals with exact
    weights of unit mass and certified small family norm.

    Blocks are adjacent: each one starts right after the previous maximum.
    Construction fails loudly with the attained prefix when the next start
    cannot be materialized.
    """
    level = alpha.natural_value() if isinstance(alpha, Ordinal) else alpha
    if level not in (0, 1):
        raise FamilyError(
            "weight families are implemented for levels 0 and 1 "
            f"(got {alpha})"
        )
    if count < 1:
        raise FamilyError("count must be >= 1")
    start = n0 + 1
    blocks = []
    for i in range(count):
        block = GeometricBlock(level, start)
        blocks.append(block)
        if i + 1 < count:
            try:
                start = block.max_index() + 1
            except RangeNotMaterializable:
                raise BudgetExceeded(
                    f"cannot place block {i + 2}: the previous maximum is not "
                    f"materializable",
                    attained=tuple(blocks),
                ) from None
    return WeightFamily(level, tuple(blocks), n0)


def _sample_run_numbers(block: GeometricBlock):
    if not block.materializable:
        # runs deep inside an unmaterializable block cannot be expanded
        return [1, 2, 64]
    rc = int(block.run_count)
    picks = [1, 2, rc // 2, rc] if rc <= 4096 else [1, 2, 64, rc]
    return sorted({n for n in picks if 1 <= n <= rc})


def weight_family_certificates(family: WeightFamily) -> list:
    """Per-block exact certificates: unit mass, the closed-form norm value,
    and per-run mass identities sampled across the run range.

    A sampled run passes when run_count * (its mass) is exactly one, compared
    as ShiftedInt forms through `scaled_run_mass`, so runs of blocks with
    hundreds of millions of bits cost small-integer work."""
    rows = []
    for pos, block in enumerate(family.blocks, start=1):
        norm_times_min = block.family_norm_times_min()
        samples = (block.scaled_run_mass(n) for n in _sample_run_numbers(block))
        rows.append({
            "block": pos,
            "min": int_descriptor(block.start_form),
            "norm_times_min": {"num": norm_times_min.numerator,
                               "den": norm_times_min.denominator},
            "checks": {"mass_is_one": block.mass() == 1,
                       "norm_bound": norm_times_min < 3,
                       "sampled_run_mass": all(num == den for num, den in samples)},
        })
    return rows


def _adjacent_partner_is_unit(blocks, block, lo, hi) -> bool:
    """True when [lo, hi], right after `block`, has weighted norm exactly one:
    every other block's contribution must stay strictly below the sup term,
    checked by unreduced exact comparisons."""
    for other in blocks:
        if other is block or other.start_form > hi:
            continue
        num, den = other.interval_mass_compare(lo, hi)
        if num >= den:
            return False
    return True


def _partner(lo, size, placement: str) -> dict:
    return {"lo": int_descriptor(lo), "hi": int_descriptor(lo + size - 1),
            "count": int_descriptor(size), "placement": placement}


def democracy_growth_table(family: WeightFamily) -> list:
    """Democracy-ratio lower bounds: per block, the indicator of the block
    against an equally sized disjoint partner of norm one.

    Partners sit right after their block when the overlap with later runs
    stays strictly below the sup term (checked exactly on ShiftedInt forms);
    otherwise they sit past the whole family where every weight vanishes.
    Either way the partner norm is exactly one, so the ratio is the block
    minimum.
    """
    rows = []
    blocks = family.blocks
    last = blocks[-1]
    for pos, block in enumerate(blocks, start=1):
        partner = {"after_block": len(blocks),
                   "count": "size of the block (beyond every weight)",
                   "placement": "beyond-family-symbolic"}
        if block.materializable:
            size = block.size()
            lo = block.max_index() + 1
            if _adjacent_partner_is_unit(blocks, block, lo, lo + size - 1):
                partner = _partner(lo, size, "adjacent")
            elif last.materializable:
                partner = _partner(last.max_index() + 1, size, "beyond-family")
        rows.append({
            "block": pos,
            "min": block.start_form,
            "partner": partner,
            "partner_norm": 1,
            "ratio": block.start_form,
        })
    return rows

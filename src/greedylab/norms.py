"""Window norms with square-root weights, their direct sums, and the parity norm.

The window space of size parameter N lives on indices 1..2N-1: its norm is the
larger of the Euclidean norm and the sup of weighted left partial sums over
the window [N, 2N-1] with weights 1/sqrt(offset).  The global sum spaces
concatenate these blocks along the integers, block N occupying
((N-1)^2, N^2].

Both are evaluated by one pass over the sorted support (`_window_scan`),
which closes each block as the next one opens and returns the norm and, on
request, a norming functional; a window space is the one-block case.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .vectors import SparseVector


# A sum of squares at least this large and finite lost no bits to squares
# that under- or overflowed; outside that range, or when the exact sum
# overflows on the way, the Euclidean norms fall back to math.hypot's scaled
# sum, so a nonzero vector never gets norm 0 or inf or raises.
_SQUARES_MIN = 2.0 ** -969


class NormDomainError(ValueError):
    pass


# the refusals of the float evaluators past the float range
_PAST_FLOATS = "a coefficient overflows floats"
_NO_FUNCTIONAL = "the norm overflows floats and has no norming functional"


def _euclidean(floats):
    """sqrt of the exactly summed squares, else math.hypot (see above)."""
    try:
        total = math.fsum(map(operator.mul, floats, floats))
    except OverflowError:
        total = math.inf
    if _SQUARES_MIN <= total < math.inf:
        return math.sqrt(total)
    return math.hypot(*floats)


def _window_scan(entries, N, outer, want_witness):
    """The c0 or l2 aggregate of window-block norms of sorted (index, value)
    entries, from one pass over the support.

    With N >= 1 the entries form the one window block N based at 0 and must
    lie in [1..2N-1]; with N = 0, block M holds the global indices
    ((M-1)^2, M^2].  An index past the window is refused before any value
    is converted, so that error wins over a value past the float range,
    refused next by the one pass that converts the payload to floats.  The
    scan then walks the indices beside those floats, keeping the running
    weighted partial sum from the block's window start w0 + 1; a block is
    closed when the next one opens or the entries end.  A one-point block's
    norm is the modulus of its float: sqrt(fl(a*a)) == |a| in binary64,
    math.hypot gives |a| too, and |fl(a / sqrt(k))| <= |a|.  A norm past the
    float range has no norming functional: asking for one is refused.
    """
    end = 2 * N - 1 if N else 0
    if N and entries and next(reversed(entries)) > end:
        g = next(g for g in entries if g > end)
        raise NormDomainError(f"index {g} outside the window space [1..{end}]")
    try:
        floats = list(map(float, entries.values()))
    except OverflowError:
        raise NormDomainError(_PAST_FLOATS) from None
    sqrt = math.sqrt
    norms = []
    closed = []  # witness records: (w0, lo, hi, l2, best, peak, top) per block
    w0 = N - 1
    lo = top = 0
    best = running = peak = 0.0
    for pos, g in enumerate(entries):
        if g > end:  # only with N = 0: a new block opens at g
            if end:
                l2 = (abs(floats[lo]) if pos - lo == 1
                      else _euclidean(floats[lo:pos]))
                norms.append(l2 if l2 >= best else best)
                if want_witness:
                    closed.append((w0, lo, pos, l2, best, peak, top))
            M = math.isqrt(g - 1) + 1
            end = M * M
            w0 = end - M
            lo = pos
            best = running = 0.0
        if g > w0:
            running += floats[pos] / sqrt(g - w0)
            mag = abs(running)
            if mag > best:
                best = mag
                peak, top = running, g
    pos = len(floats)
    # the last block closes here: the same steps as above, written out again
    # so that a lone window block returns without the aggregate (and, as
    # there, without copying the floats when the block holds all of them)
    if end:
        l2 = (abs(floats[lo]) if pos - lo == 1
              else _euclidean(floats[lo:] if lo else floats))
        if N and not want_witness:
            return l2 if l2 >= best else best
        norms.append(l2 if l2 >= best else best)
        if want_witness:
            closed.append((w0, lo, pos, l2, best, peak, top))
    if outer == "c0":
        value = max(norms) if norms else 0.0
    else:
        value = _euclidean(norms)
    if not want_witness:
        return value
    if value == math.inf:
        # (an infinite block's l2 weight v / value would be nan)
        raise NormDomainError(_NO_FUNCTIONAL)
    chosen = norms.index(value) if outer == "c0" and norms else None
    keys = list(entries)
    f = {}
    for k, (w0, lo, hi, l2, best, peak, top) in enumerate(closed):
        v = norms[k]
        w = float(k == chosen) if outer == "c0" else (v / value if value else 0.0)
        if l2 >= best:
            c = 1 / l2 if l2 else 0  # l2 is 0 only where every float(a) is
            for j in range(lo, hi):
                # 1/l2 overflows below about 5.6e-309: divide there instead
                e = c * floats[j] if c != math.inf else floats[j] / l2
                if e:  # a zero drops out before w scales it
                    f[keys[j]] = w * e
        else:
            for g in range(w0 + 1, top + 1):
                f[g] = w * math.copysign(1 / math.sqrt(g - w0), peak)
    return value, SparseVector(f)


def kt_block_norm(x: SparseVector, N: int, want_witness=False):
    """Norm of the size-N window space; support must lie in [1..2N-1].

    `want_witness` adds a norming functional: x over its Euclidean norm when
    that part is active, else the signed weights of the peak partial sum.
    """
    if N < 1:
        raise NormDomainError(f"bad window parameter {N}")
    return _window_scan(x.entries, N, "c0", want_witness)


def block_sum_norm(x: SparseVector, outer: str, want_witness=False):
    """c0 or l2 aggregate of per-block window norms over the global indices.

    `want_witness` adds a norming functional: the active block's for c0, for
    l2 each block's weighted by its norm over the total.
    """
    if outer not in ("c0", "l2"):
        raise NormDomainError(f"outer aggregate must be c0 or l2, got {outer!r}")
    return _window_scan(x.entries, 0, outer, want_witness)


def mixed_parity_norm(x: SparseVector, want_witness=False):
    """l1 over even indices plus l2 over odd indices.

    `want_witness` adds a norming functional: the signs of x on the even
    indices plus its odd part over that part's Euclidean norm.  A coefficient
    past the float range, and a functional of a norm past it, are refused
    with NormDomainError.
    """
    even, odd = parts = ([], [])
    try:
        for i, v in x.entries.items():
            parts[i % 2].append(float(v))
    except OverflowError:
        raise NormDomainError(_PAST_FLOATS) from None
    try:
        l1 = math.fsum(map(abs, even))
    except OverflowError:
        # the terms are >= 0: a partial sum past the float range puts the sum there
        l1 = math.inf
    l2 = _euclidean(odd)
    value = l1 + l2
    if not want_witness:
        return value
    if value == math.inf:
        raise NormDomainError(_NO_FUNCTIONAL)
    f = {i: float(v) / l2 if i % 2 else math.copysign(1.0, v)
         for i, v in x.entries.items()}
    return value, SparseVector(f)


def squares(z: SparseVector):
    """The sum of the squares of z's coefficients: its Euclidean norm
    squared, an int for an int payload (a floor of the window spaces)."""
    return sum(v * v for v in z.entries.values())


@dataclass
class NormOracle:
    """A named norm with its one evaluator, dimension cap and metadata.

    `evaluate(x, want_functional=False)` returns ||x||, or (||x||, f) with f
    a norming functional: f(x) = ||x|| and |f(z)| <= ||z|| for every z.
    `certified` optionally carries proven upper constants, e.g. a
    suppression constant.

    `floor(z)` gives, for an int payload z, L(z)**2 as an int, for a
    1-unconditional norm L that this norm dominates; None means the sup
    norm, which every space here dominates.  For every support A and
    coefficients c, z = x - sum_{n in A} c_n e_n has L(x.drop(A)) =
    L(P_{A^c} z) <= L(z) <= ||z||, so L(x.drop(A)) is a lower bound on the
    best error on A.  Given as a square, a Euclidean floor stays an int.
    """

    name: str
    evaluate: object
    dimension_cap: int = 1_000_000
    certified: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    floor: object = None

    def norm(self, x: SparseVector, want_functional=False):
        top = x.max_index()
        if top > self.dimension_cap:
            raise NormDomainError(
                f"support index {top} exceeds the cap "
                f"{self.dimension_cap} of space {self.name}"
            )
        return self.evaluate(x, want_functional)

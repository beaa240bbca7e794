"""Window norms with square-root weights, their direct sums, and the parity norm.

The window space of size parameter N lives on indices 1..2N-1: its norm is the
larger of the Euclidean norm and the sup of weighted left partial sums over
the window [N, 2N-1] with weights 1/sqrt(offset).  The global sum spaces
concatenate these blocks along the integers, block N occupying
((N-1)^2, N^2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .vectors import SparseVector


# A sum of squares at least this large and finite lost no bits to squares
# that under- or overflowed; outside that range, or when the exact sum
# overflows on the way, the Euclidean norms fall back to math.hypot's scaled
# sum, so a nonzero vector never gets norm 0 or inf or raises.
_SQUARES_MIN = 2.0 ** -969


class NormDomainError(ValueError):
    pass


def _euclidean(floats):
    """sqrt of the exactly summed squares, else math.hypot (see above)."""
    try:
        total = math.fsum([f * f for f in floats])
    except OverflowError:
        total = math.inf
    if _SQUARES_MIN <= total < math.inf:
        return math.sqrt(total)
    return math.hypot(*floats)


def _window_norm(pairs, N, want_witness):
    """Window norm of (index, value) pairs sorted by index, in one pass that
    takes the squares and the running partial sums from index N on."""
    hi = 2 * N - 1
    floats = []
    best = running = 0.0
    for i, a in pairs:
        if i > hi:
            raise NormDomainError(f"index {i} outside the window space [1..{hi}]")
        fa = float(a)
        floats.append(fa)
        if i >= N:
            running += fa / math.sqrt(i - N + 1)
            mag = abs(running)
            if mag > best:
                best = mag
                peak, top = running, i
    l2 = _euclidean(floats)
    value = l2 if l2 >= best else best
    if not want_witness:
        return value
    if l2 >= best:
        c = 1 / l2 if l2 else 0  # l2 is 0 only where every float(a) is
        return value, SparseVector({i: c * a for i, a in pairs})
    return value, SparseVector({i: math.copysign(1 / math.sqrt(i - N + 1), peak)
                                for i in range(N, top + 1)})


def kt_block_norm(x: SparseVector, N: int, want_witness=False):
    """Norm of the size-N window space; support must lie in [1..2N-1].

    `want_witness` adds a norming functional: x over its Euclidean norm when
    that part is active, else the signed weights of the peak partial sum.
    """
    if N < 1:
        raise NormDomainError(f"bad window parameter {N}")
    return _window_norm(x.entries.items(), N, want_witness)


def kt_global_index(N: int, local: int) -> int:
    """Global index of local coordinate `local` inside block N."""
    if not (1 <= local <= 2 * N - 1):
        raise NormDomainError(f"local index {local} outside block {N}")
    return (N - 1) * (N - 1) + local


def kt_block_of(g: int):
    """(block, local) of a global index; blocks tile ((N-1)^2, N^2]."""
    if g < 1:
        raise NormDomainError(f"bad global index {g}")
    N = math.isqrt(g - 1) + 1
    return N, g - (N - 1) * (N - 1)


def block_sum_norm(x: SparseVector, outer: str, want_witness=False):
    """c0 or l2 aggregate of per-block window norms over the global indices.

    `want_witness` adds a norming functional: the active block's for c0, for
    l2 each block's weighted by its norm over the total.
    """
    if outer not in ("c0", "l2"):
        raise NormDomainError(f"outer aggregate must be c0 or l2, got {outer!r}")
    blocks = []
    end = 0
    for g, a in x.entries.items():
        if g > end:
            N, _ = kt_block_of(g)
            base, end = (N - 1) * (N - 1), N * N
            pairs = []
            blocks.append((N, pairs))
        pairs.append((g - base, a))
    parts = [_window_norm(pairs, N, want_witness) for N, pairs in blocks]
    norms = [v for v, _ in parts] if want_witness else parts
    if outer == "c0":
        value = max(norms, default=0.0)
    else:
        value = _euclidean(norms)
    if not want_witness:
        return value
    top = norms.index(value) if outer == "c0" and norms else None
    f = {}
    for k, ((N, _), (v, part)) in enumerate(zip(blocks, parts)):
        w = float(k == top) if outer == "c0" else (v / value if value else 0.0)
        for local, c in part.entries.items():
            f[kt_global_index(N, local)] = w * c
    return value, SparseVector(f)


def mixed_parity_norm(x: SparseVector) -> float:
    """l1 over even indices plus l2 over odd indices."""
    even, odd = parts = ([], [])
    for i, v in x.entries.items():
        parts[i % 2].append(float(v))
    try:
        l1 = math.fsum(map(abs, even))
    except OverflowError:
        # the terms are >= 0: a partial sum past the float range puts the sum there
        l1 = math.inf
    return l1 + _euclidean(odd)


@dataclass
class NormOracle:
    """A named norm with evaluation, certified basis bounds and metadata.

    `certified` optionally carries proven upper constants, e.g. a suppression
    constant; `functional` maps x to (norm, f), f(x) = norm, |f(z)| <= ||z||.
    """

    name: str
    evaluate: object
    basis_bounds: tuple = (1.0, 1.0)
    dimension_cap: int = 1_000_000
    functional: object = None
    witness_fn: object = None
    certified: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def _check_cap(self, x: SparseVector):
        if x.entries and x.max_index() > self.dimension_cap:
            raise NormDomainError(
                f"support index {x.max_index()} exceeds the cap "
                f"{self.dimension_cap} of space {self.name}"
            )

    def norm(self, x: SparseVector):
        self._check_cap(x)
        return self.evaluate(x)

    def norm_with_witness(self, x: SparseVector):
        if self.witness_fn is None:
            return self.norm(x), None
        self._check_cap(x)
        return self.witness_fn(x)

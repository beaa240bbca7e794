"""Finitely supported coefficient vectors keyed by positive integer index.

The payload may be int, float or Fraction; arithmetic preserves whatever the
caller supplies, so the exact-rational constructions and the float norm
evaluators share one container.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class VectorError(ValueError):
    pass


def _parse_scalar(token: str):
    token = token.strip()
    if "/" in token:
        return Fraction(token)
    try:
        as_int = int(token)
    except ValueError:
        pass
    else:
        return as_int
    try:
        return float(token)
    except ValueError as exc:
        raise VectorError(f"bad coefficient {token!r}") from exc


def _format_scalar(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(value) if isinstance(value, float) else str(value)


def over_one_denominator(values):
    """The values (ints, floats or Fractions) as ints over their least common
    denominator: (numerators, denominator).  Float denominators are powers of
    two."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


class SparseVector:
    """Index -> coefficient map sorted by index; zero coefficients are dropped
    and NaN ones refused on construction."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        data = {}
        ordered = True  # stored indices so far strictly increasing
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            last = 0
            for idx, val in items:
                if (type(idx) is not int
                        and (isinstance(idx, bool) or not isinstance(idx, int))
                        or idx < 1):
                    raise VectorError(f"bad index {idx!r}")
                if val == 0:
                    continue
                # only a float payload can be NaN; val != val on a Fraction
                # would cost a Python-level comparison per entry
                if isinstance(val, float) and val != val:
                    raise VectorError(f"NaN coefficient at index {idx}")
                if idx <= last:
                    ordered = False
                last = idx
                data[idx] = val
        self.entries = data if ordered else dict(sorted(data.items()))

    @classmethod
    def basis(cls, n: int, coeff=1.0) -> "SparseVector":
        return cls({n: coeff})

    @classmethod
    def indicator(cls, indices, coeff=1) -> "SparseVector":
        return cls(dict.fromkeys(map(int, indices), coeff))

    @classmethod
    def signed_indicator(cls, indices, signs) -> "SparseVector":
        indices = list(indices)
        if isinstance(signs, dict):
            return cls({i: signs[i] for i in indices})
        return cls({i: s for i, s in zip(indices, signs)})

    @classmethod
    def parse(cls, text: str) -> "SparseVector":
        """Parse the wire format `index:coefficient,index:coefficient,...`."""
        text = text.strip()
        if not text:
            return cls()
        entries = {}
        for chunk in text.split(","):
            if ":" not in chunk:
                raise VectorError(f"bad vector chunk {chunk!r}")
            idx_s, val_s = chunk.split(":", 1)
            try:
                idx = int(idx_s.strip())
            except ValueError as exc:
                raise VectorError(f"bad index {idx_s!r}") from exc
            entries[idx] = _parse_scalar(val_s)
        return cls(entries)

    def to_wire(self) -> str:
        return ",".join(f"{i}:{_format_scalar(v)}" for i, v in self.entries.items())

    # --- accessors ---

    def get(self, idx: int, default=0):
        return self.entries.get(idx, default)

    @property
    def support(self) -> tuple:
        return tuple(self.entries)

    def items(self):
        return self.entries.items()

    def __len__(self):
        return len(self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def max_index(self) -> int:
        return next(reversed(self.entries)) if self.entries else 0

    def min_index(self) -> int:
        return next(iter(self.entries)) if self.entries else 0

    def inf_norm(self):
        return max((abs(v) for v in self.entries.values()), default=0)

    def l1_norm(self):
        total = 0
        for v in self.entries.values():
            total += abs(v)
        return total

    def has_float_payload(self) -> bool:
        return any(isinstance(v, float) for v in self.entries.values())

    # --- algebra ---

    def restrict(self, indices) -> "SparseVector":
        keep = set(indices)
        return SparseVector({i: v for i, v in self.entries.items() if i in keep})

    def drop(self, indices) -> "SparseVector":
        gone = set(indices)
        return SparseVector({i: v for i, v in self.entries.items() if i not in gone})

    def scale(self, c) -> "SparseVector":
        return SparseVector({i: c * v for i, v in self.entries.items()})

    def __add__(self, other: "SparseVector") -> "SparseVector":
        data = dict(self.entries)
        for i, v in other.entries.items():
            data[i] = data.get(i, 0) + v
        return SparseVector(data)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        data = dict(self.entries)
        for i, v in other.entries.items():
            data[i] = data.get(i, 0) - v
        return SparseVector(data)

    def __eq__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(tuple(self.entries.items()))

    def __repr__(self):
        return f"SparseVector({self.to_wire()!r})"

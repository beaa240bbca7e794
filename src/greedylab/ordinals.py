"""Cantor-normal-form ordinals below w^8 with canonical fundamental sequences.

Ordinals index the levels of the combinatorial families.  Text syntax uses a
lowercase ``w``: ``w^2*3 + w*2 + 5`` means w^2*3 + w*2 + 5, and ``0`` is zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

EXPONENT_CAP = 8


class OrdinalError(ValueError):
    """Malformed ordinal data or an out-of-range operation."""


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """Finite sum of w^exponent * coefficient terms, exponents strictly decreasing.

    The empty term tuple encodes zero.  All exponents stay below EXPONENT_CAP,
    which bounds recursion depth everywhere downstream.
    """

    terms: tuple = ()

    def __post_init__(self):
        prev = None
        for term in self.terms:
            if not isinstance(term, tuple) or len(term) != 2:
                raise OrdinalError(f"bad term {term!r}")
            e, c = term
            if not isinstance(e, int) or not isinstance(c, int):
                raise OrdinalError(f"bad term {term!r}")
            if e < 0 or c < 1:
                raise OrdinalError(f"bad term {term!r}")
            if e >= EXPONENT_CAP:
                raise OrdinalError(f"exponent {e} exceeds cap {EXPONENT_CAP}")
            if prev is not None and e >= prev:
                raise OrdinalError("exponents must be strictly decreasing")
            prev = e

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if not isinstance(n, int) or n < 0:
            raise OrdinalError(f"not a natural number: {n!r}")
        return cls(((0, n),)) if n else cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] >= 1

    def predecessor(self) -> "Ordinal":
        if not self.is_successor:
            raise OrdinalError(f"{self} is not a successor ordinal")
        e, c = self.terms[-1]
        rest = self.terms[:-1]
        return Ordinal(rest + ((0, c - 1),)) if c > 1 else Ordinal(rest)

    def successor(self) -> "Ordinal":
        return self.plus(1)

    def plus(self, n: int) -> "Ordinal":
        """Ordinal plus a natural number (right addition)."""
        if not isinstance(n, int) or n < 0:
            raise OrdinalError(f"not a natural number: {n!r}")
        if n == 0:
            return self
        if self.terms and self.terms[-1][0] == 0:
            e, c = self.terms[-1]
            return Ordinal(self.terms[:-1] + ((0, c + n),))
        return Ordinal(self.terms + ((0, n),))

    def natural_value(self):
        """The integer value when the ordinal is finite, else None."""
        if self.is_zero:
            return 0
        if len(self.terms) == 1 and self.terms[0][0] == 0:
            return self.terms[0][1]
        return None

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms < other.terms

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            else:
                base = "w" if e == 1 else f"w^{e}"
                parts.append(base if c == 1 else f"{base}*{c}")
        return " + ".join(parts)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Ordinal({self.text()!r})"


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((1, 1),))

_TERM_RE = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")


def parse_ordinal(text: str) -> Ordinal:
    """Parse the `w^k*c + ... + n` syntax; raises OrdinalError naming the bad token."""
    if not isinstance(text, str):
        raise OrdinalError(f"not an ordinal string: {text!r}")
    body = text.strip()
    if body == "0":
        return ZERO
    terms = []
    for raw in body.split("+"):
        token = raw.strip().replace(" ", "")
        m = _TERM_RE.match(token)
        if not m or not token:
            raise OrdinalError(f"bad ordinal token {raw.strip()!r} in {text!r}")
        exp_s, coeff_s, plain = m.groups()
        if plain is not None:
            terms.append((0, int(plain)))
        else:
            e = int(exp_s) if exp_s is not None else 1
            c = int(coeff_s) if coeff_s is not None else 1
            terms.append((e, c))
    return Ordinal(tuple(terms))


def compare(a: Ordinal, b: Ordinal) -> int:
    """-1, 0 or 1 for the ordinal order."""
    if a.terms < b.terms:
        return -1
    if a.terms > b.terms:
        return 1
    return 0


def classify(a: Ordinal):
    """(kind, predecessor-or-None); predecessor is set only for successors."""
    if a.is_zero:
        return "zero", None
    if a.is_successor:
        return "successor", a.predecessor()
    return "limit", None


def fundamental_term(a: Ordinal, m: int) -> Ordinal:
    """m-th term of the canonical increasing sequence below the limit ordinal `a`.

    Writing a = d + w^k by splitting off the last normal-form term, the m-th
    term is d + w^(k-1)*m.  The family recursion at level `a` then works with
    the successor of this value.  The sequence is strictly increasing in m and
    has supremum a.
    """
    if not a.is_limit:
        raise OrdinalError(f"{a} is not a limit ordinal")
    if not isinstance(m, int) or m < 1:
        raise OrdinalError(f"sequence position must be a positive integer, got {m!r}")
    e, c = a.terms[-1]
    head = a.terms[:-1] + (((e, c - 1),) if c > 1 else ())
    return Ordinal(head + ((e - 1, m),))

"""Decision, decomposition and enumeration oracles for Schreier-type families.

Finite sets are plain strictly increasing tuples of integers >= 1.  The level
of a family is an Ordinal; level 0 is singletons plus the empty set, each
successor level takes at most min-many consecutive blocks from the level
below, and limit levels defer to the canonical fundamental sequence; the
relaxed two-for-one family takes up to twice min-many.  One greedy walk,
`_max_prefix`, follows this recursion on an explicit stack for every
membership and decomposition; one pruned enumerator, `family_members_within`,
lists the members of any hereditary family inside a pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ordinals import Ordinal, fundamental_term, parse_ordinal

ENUMERATION_UNIVERSE_CAP = 24
POWERSET_SCAN_CAP = 16


class FamilyError(ValueError):
    pass


def check_index_set(E) -> tuple:
    """Validate and normalize a strictly increasing tuple of indices >= 1."""
    E = tuple(E)
    prev = 0
    for k in E:
        if not isinstance(k, int) or isinstance(k, bool) or k <= prev:
            raise FamilyError(f"not a strictly increasing set of positive integers: {E!r}")
        prev = k
    return E


def _max_prefix(items: tuple, start: int, alpha: Ordinal, per_min: int = 1) -> int:
    """End position of the longest prefix of items[start:] lying at level alpha
    (per_min 1) or in the relaxed family at the successor level alpha (2).

    Greedy-maximal: a successor-level prefix is built from at most
    per_min * items[start] maximal blocks one level down (per_min applies to
    the top level only); greedy blocks dominate any other block choice
    because the families are hereditary and spreading.  Levels are walked on
    an explicit stack, so deep limit levels never reach the recursion limit.
    """
    n = len(items)
    pos, level, k = start, alpha, per_min
    stack = []  # [predecessor, blocks still to take] of each open level
    while True:
        # descend to the end of one level-`level` member prefix from pos
        while pos < n:
            first, rest = items[pos], n - pos
            if level.is_zero or first == 1 and k == 1:
                # a level-0 member, or a member containing 1, is one point
                pos += 1
                break
            if rest <= k * first:
                # at most k * first singletons: a member at every nonzero
                # level, a limit level resolving to a successor level at this
                # min
                pos = n
                break
            if level.is_limit:
                level = fundamental_term(level, first).successor()
                continue
            if rest <= k * first ** min(level.finite_part, rest.bit_length()):
                # a set with min = first >= 2 and at most first^j points lies
                # at finite level j (split it into at most `first` pieces of at
                # most first^(j-1) points, each with min >= first, and
                # recurse; k times as many points make k * first pieces), and
                # level j lies inside lambda + j for every lambda; past the
                # bit length of rest the power exceeds rest anyway
                pos = n
                break
            level = level.predecessor()
            stack.append([level, k * first - 1])
            k = 1
        # the block ends at pos: close every level that has taken its blocks
        while stack and (not stack[-1][1] or pos >= n):
            stack.pop()
        if not stack:
            return pos
        stack[-1][1] -= 1
        level = stack[-1][0]


def _greedy_blocks(items: tuple, pred: Ordinal, cap: int) -> list:
    """Cut items into consecutive greedy-maximal blocks at level pred,
    stopping once there are more than cap of them.

    A nonempty set lies at the successor of pred exactly when it makes at
    most min-many blocks, in the relaxed family at most twice min-many: the
    rule `_max_prefix` applies at its top level.
    """
    blocks = []
    pos = 0
    while pos < len(items) and len(blocks) <= cap:
        end = _max_prefix(items, pos, pred)
        blocks.append(items[pos:end])
        pos = end
    return blocks


def schreier_member(E, alpha: Ordinal) -> bool:
    """True iff E belongs to the level-alpha family; the empty set always does."""
    E = check_index_set(E)
    if not E:
        return True
    return _max_prefix(E, 0, alpha) == len(E)


def schreier_decompose(E, alpha: Ordinal):
    """Witnessing greedy-maximal block decomposition at a successor level.

    Returns the list of consecutive blocks, each one level down, or None when
    E is not a member.  Limit levels are rejected; resolve the limit clause
    first and decompose at the resulting successor level.
    """
    E = check_index_set(E)
    if not alpha.is_successor:
        raise FamilyError(
            f"decomposition needs a successor level, got {alpha}; "
            "resolve the limit clause first"
        )
    if not E:
        return []
    blocks = _greedy_blocks(E, alpha.predecessor(), E[0])
    return blocks if len(blocks) <= E[0] else None


def schreier_maximal(E, alpha: Ordinal, universe_bound: int) -> bool:
    """True iff no element of (max E, universe_bound] extends E within the family.

    Appending max E + 1 decides: sliding the appended element left (keeping it
    above max E) preserves membership, so a single test covers every candidate.
    """
    E = check_index_set(E)
    if not schreier_member(E, alpha):
        raise FamilyError(f"{E!r} is not a member at level {alpha}")
    k = (E[-1] if E else 0) + 1
    if k > universe_bound:
        return True
    return not schreier_member(E + (k,), alpha)


def _require_f_level(alpha: Ordinal):
    if not alpha.is_successor:
        raise FamilyError(
            f"the two-for-one family needs a successor level >= 1, got {alpha}"
        )


def f_alpha_member(F, alpha: Ordinal) -> bool:
    """Membership in the relaxed family: at most twice the minimum many
    greedy blocks one level below alpha."""
    F = check_index_set(F)
    if not F:
        return True
    _require_f_level(alpha)
    return _max_prefix(F, 0, alpha, 2) == len(F)


def f_alpha_split(F, alpha: Ordinal):
    """Split a member into two disjoint level-alpha members (second may be empty).

    First the halves of the greedy block list: the leading ceil(d/2) blocks fit
    under min F, and the remaining floor(d/2) blocks start high enough to fit
    under their own minimum.
    """
    F = check_index_set(F)
    if not F:
        return (), ()
    _require_f_level(alpha)
    blocks = _greedy_blocks(F, alpha.predecessor(), 2 * F[0])
    if len(blocks) > 2 * F[0]:
        raise FamilyError(f"{F!r} is not a member of the relaxed family at {alpha}")
    if len(blocks) <= F[0]:
        return F, ()
    s = (len(blocks) + 1) // 2
    first = tuple(x for b in blocks[:s] for x in b)
    second = tuple(x for b in blocks[s:] for x in b)
    if not (schreier_member(first, alpha) and schreier_member(second, alpha)):
        raise AssertionError("split halves failed the membership postcondition")
    return first, second


def tail_shift_find(alpha: Ordinal, beta: Ordinal, universe_bound: int, n_cap: int):
    """Smallest N <= n_cap with E minus {1..N-1} at level beta for every level-alpha
    member E of the bounded universe; None when no such N exists below the cap.

    This is a bounded verifier over every level-alpha member of
    [1..universe_bound].
    """
    if not alpha < beta:
        raise FamilyError(f"need alpha < beta, got {alpha} and {beta}")
    if universe_bound > POWERSET_SCAN_CAP:
        raise FamilyError(
            f"universe bound {universe_bound} exceeds the powerset scan cap "
            f"{POWERSET_SCAN_CAP}"
        )
    members = family_members_within(FamilyHandle.schreier(alpha),
                                    range(1, universe_bound + 1), universe_bound)
    for n in range(1, n_cap + 1):
        if all(
            schreier_member(tuple(k for k in E if k >= n), beta) for E in members
        ):
            return n
    return None


def min_level_find(S, alpha: Ordinal, m_cap: int):
    """Least m <= m_cap with S a member at level alpha + m; None when not found.

    Requires min S >= 2 (sets containing 1 other than {1} never join any level).
    """
    S = check_index_set(S)
    if not S or S[0] < 2:
        raise FamilyError(f"need min S >= 2, got {S!r}")
    for m in range(m_cap + 1):
        if schreier_member(S, alpha.plus(m)):
            return m
    return None


@dataclass(frozen=True)
class FamilyHandle:
    """A hereditary family: a Schreier level, a relaxed level, the full powerset,
    or an explicit finite family (validated to be closed under subsets)."""

    kind: str
    alpha: Ordinal | None = None
    members: frozenset | None = None

    def __post_init__(self):
        if self.kind in ("schreier", "f_alpha"):
            if self.alpha is None:
                raise FamilyError(f"{self.kind} handle needs a level")
            if self.kind == "f_alpha":
                _require_f_level(self.alpha)
        elif self.kind == "powerset":
            pass
        elif self.kind == "explicit":
            if self.members is None:
                raise FamilyError("explicit handle needs members")
            normalized = frozenset(check_index_set(m) for m in self.members)
            object.__setattr__(self, "members", normalized)
            if () not in normalized:
                raise FamilyError("explicit family must contain the empty set")
            for m in normalized:
                for i in range(len(m)):
                    sub = m[:i] + m[i + 1 :]
                    if sub not in normalized:
                        raise FamilyError(
                            f"explicit family not closed under subsets: {m!r} "
                            f"present but {sub!r} missing"
                        )
        else:
            raise FamilyError(f"unknown family kind {self.kind!r}")

    @classmethod
    def schreier(cls, alpha: Ordinal) -> "FamilyHandle":
        return cls("schreier", alpha=alpha)

    @classmethod
    def f_alpha(cls, alpha: Ordinal) -> "FamilyHandle":
        return cls("f_alpha", alpha=alpha)

    @classmethod
    def powerset(cls) -> "FamilyHandle":
        return cls("powerset")

    @classmethod
    def explicit(cls, members) -> "FamilyHandle":
        return cls("explicit", members=frozenset(tuple(m) for m in members))

    @classmethod
    def parse(cls, text: str) -> "FamilyHandle":
        text = text.strip()
        if text == "powerset":
            return cls.powerset()
        if text.startswith("s:"):
            return cls.schreier(parse_ordinal(text[2:]))
        if text.startswith("f:"):
            return cls.f_alpha(parse_ordinal(text[2:]))
        raise FamilyError(f"bad family descriptor {text!r}")

    @property
    def label(self) -> str:
        if self.kind == "powerset":
            return "powerset"
        if self.kind == "schreier":
            return f"s:{self.alpha.text()}"
        if self.kind == "f_alpha":
            return f"f:{self.alpha.text()}"
        return f"explicit[{len(self.members)}]"

    def contains(self, E) -> bool:
        if self.kind == "schreier":
            return schreier_member(E, self.alpha)
        if self.kind == "f_alpha":
            return f_alpha_member(E, self.alpha)
        E = check_index_set(E)
        return self.kind == "powerset" or E in self.members


def family_members_within(family, pool, size_cap: int):
    """All family members inside the pool with size <= size_cap, as a list
    of sorted tuples, the empty set first: the one enumerator of members.

    Hereditary families allow pruning: once a prefix leaves the family no
    extension can return.
    """
    pool = tuple(sorted(pool))
    out = [()] if size_cap >= 0 else []

    def extend(prefix, start):
        for j in range(start, len(pool)):
            cand = prefix + (pool[j],)
            if family.contains(cand):
                out.append(cand)
                if len(cand) < size_cap:
                    extend(cand, j + 1)

    if size_cap >= 1:
        extend((), 0)
    return out


def family_subsets(handle: FamilyHandle, universe_bound: int, size_cap: int):
    """Yield every member within [1..universe_bound] of size <= size_cap.

    Order: by size, then lexicographically by elements; each member once.
    """
    if universe_bound < 0 or size_cap < 0:
        raise FamilyError(f"universe bound and size cap must be at least 0, "
                          f"got {universe_bound} and {size_cap}")
    if universe_bound > ENUMERATION_UNIVERSE_CAP:
        raise FamilyError(
            f"universe bound {universe_bound} exceeds the enumeration cap "
            f"{ENUMERATION_UNIVERSE_CAP}"
        )
    members = family_members_within(handle, range(1, universe_bound + 1), size_cap)
    yield from sorted(members, key=lambda E: (len(E), E))

"""Norms defined by maximizing over Schreier-type families.

Three evaluators live here: the family sup norm (best weighted member of a
level-alpha family), the interval-system norm whose interval minima must form
a relaxed-family member, and the weighted truncated norm driven by a generated
family of weight blocks.  All three are exact when fed int/Fraction payloads.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, combinations, product

from .config import BudgetExceeded, james_ops_budget, node_budget
from .ordinals import ONE, Ordinal
from .schreier import FamilyError, f_alpha_member, schreier_member
from .vectors import SparseVector


# ---------------------------------------------------------------------------
# family sup norm: sup over members F of  sum_{n in F} |x_n|
# ---------------------------------------------------------------------------


def _s1_best(values, want_witness=False):
    """Exact optimum at level 1 by a descending scan with a shrinking top-k pool.

    At start value s the admissible sets inside the tail have at most s
    elements, so the best is the top-s sum of the tail; scanning s downward
    keeps a min-heap of the current kept values.  The witness is the top-s
    entries, ties broken by index, of the smallest maximizing start's tail.
    """
    heap = []
    total = 0
    best = 0
    best_pos = 0
    for pos in range(len(values) - 1, -1, -1):
        idx, val = values[pos]
        heapq.heappush(heap, val)
        total += val
        while len(heap) > idx:
            total -= heapq.heappop(heap)
        if total >= best:
            best = total
            best_pos = pos
    if not want_witness:
        return best
    start = values[best_pos][0]
    tail = sorted(values[best_pos:], key=lambda t: (-t[1], t[0]))
    return best, tuple(sorted(i for i, _ in tail[:start]))


def _bnb_best(values, alpha, max_nodes):
    """Branch-and-bound over members inside the support, pruned by tail mass.

    Hereditary families allow pruning a branch as soon as the extended prefix
    leaves the family; remaining absolute mass bounds the achievable gain.
    The search is depth-first on an explicit stack of [next position, member,
    sum] frames, since a member can be as long as the support.
    """
    idxs, vals = zip(*values)
    n = len(values)
    suffix = list(accumulate(reversed(vals), initial=0))[::-1]
    best = 0
    best_wit = ()
    nodes = 0
    stack = [[0, (), 0]]
    while stack:
        frame = stack[-1]
        j, cur, cur_sum = frame
        if j >= n or cur_sum + suffix[j] <= best:
            stack.pop()
            continue
        frame[0] = j + 1
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(
                f"family norm search exceeded {max_nodes} nodes "
                f"(best so far {best})",
                attained=best,
            )
        cand = cur + (idxs[j],)
        if schreier_member(cand, alpha):
            new_sum = cur_sum + vals[j]
            if new_sum > best:
                best = new_sum
                best_wit = cand
            stack.append([j + 1, cand, new_sum])
    return best, best_wit


def schreier_alpha_norm(x: SparseVector, alpha: Ordinal, max_nodes=None,
                        want_witness=False):
    """sup of sum_{n in F} |x_n| over level-alpha members F; exact.

    Exhausted search budgets raise instead of silently approximating.
    """
    values = sorted((i, abs(v)) for i, v in x.entries.items())
    if not values:
        return (0, ()) if want_witness else 0
    if alpha == ONE:
        return _s1_best(values, want_witness)
    if alpha.is_zero:
        i, best = max(values, key=lambda t: t[1])
        wit = (i,)
    else:
        budget = node_budget() if max_nodes is None else max_nodes
        best, wit = _bnb_best(values, alpha, budget)
    return (best, wit) if want_witness else best


def naive_schreier_norm(x: SparseVector, alpha: Ordinal):
    """Reference evaluator: enumerate every subset of the support."""
    supp = x.support
    if len(supp) > 16:
        raise FamilyError("naive family norm limited to supports of size <= 16")
    best = 0
    for size in range(len(supp) + 1):
        for combo in combinations(supp, size):
            if schreier_member(combo, alpha):
                s = sum(abs(x.get(i)) for i in combo)
                if s > best:
                    best = s
    return best


# ---------------------------------------------------------------------------
# interval-system norm (James-type): sup over interval chains I_1 < ... < I_d
# with (min I_j)_j in the relaxed family, of  sum_j |sum_{i in I_j} x_i|
# ---------------------------------------------------------------------------


def _james_dp_level1(support, coeffs, want_witness=False):
    """Exact interval-system optimum when minima only need size <= 2*min.

    Minima may be restricted to support points: sliding an interval's start
    right to its first support point keeps every block sum and only spreads
    the minima set, which stays in the family.  With prefix sums ps, an
    interval starting at position i and ending before position q scores
    |ps[q] - ps[i]|.  F[t][p] is the best chain of at most t intervals
    starting at positions >= p, and the best chain of at most t intervals
    whose first starts at i is

        S[t][i] = max over q > i of  |ps[q] - ps[i]| + F[t-1][q],

    taken from running suffix maxima of +-ps[q] + F[t-1][q].  The first
    minimum caps the chain length, so the optimum is max_i S[tcaps[i]][i].
    """
    n = len(support)
    if n == 0:
        return (0, ()) if want_witness else 0
    ps = list(accumulate(coeffs, initial=0))
    tcaps = [min(2 * support[i], n - i) for i in range(n)]
    tmax = max(tcaps)
    est_ops = n * tmax
    if est_ops > james_ops_budget():
        raise BudgetExceeded(
            f"interval-system DP needs ~{est_ops} operations, over budget"
        )

    capped = [0] * n
    F = [0] * (n + 1)
    rows = [F]
    for t in range(1, tmax + 1):
        nxt = [0] * (n + 1)
        up, dn = ps[n], -ps[n]  # q = n: the interval runs to the end
        for i in range(n - 1, -1, -1):
            p = ps[i]
            a = up - p
            b = dn + p
            s = a if a >= b else b
            if tcaps[i] == t:
                capped[i] = s
            f = nxt[i + 1]
            nxt[i] = s if s > f else f
            f = F[i]
            if p + f > up:
                up = p + f
            if f - p > dn:
                dn = f - p
        F = nxt
        if want_witness:
            rows.append(F)

    best_start = max(range(n), key=capped.__getitem__)
    best = capped[best_start]
    if not want_witness:
        return best
    # walk the rows back: find the end q of the interval starting at i that
    # attains the target; the rest of the chain is worth F[t-1][q], which
    # S[t-1][r] attains at the last r >= q where F[t-1] still equals it
    minima = []
    i, t, target = best_start, tcaps[best_start], best
    while True:
        minima.append(support[i])
        F = rows[t - 1]
        q = next(q for q in range(i + 1, n + 1)
                 if max((ps[q] + F[q]) - ps[i], (F[q] - ps[q]) + ps[i]) == target)
        target = F[q]
        if not target:
            break
        i = q
        while F[i + 1] == target:
            i += 1
        t -= 1
    return best, tuple(minima)


def _james_dfs(support, coeffs, alpha, max_nodes):
    """General-level interval-system search over support minima with pruning.

    Returns the best value and the minima chain that attains it.  A gap from
    position i to the end takes its extreme prefix sums from suffix arrays;
    a gap ending before a later start takes them from running extremes.
    """
    n = len(support)
    ps = list(accumulate(coeffs, initial=0))
    sufmax = list(accumulate(reversed(ps), max))[::-1]
    sufmin = list(accumulate(reversed(ps), min))[::-1]
    abs_suffix = list(accumulate(map(abs, reversed(coeffs)), initial=0))[::-1]

    best = 0
    best_wit = ()
    nodes = 0
    stack = []

    def open_chain(minima, pos, closed):
        # the chain ends with an open interval from pos: score it running to
        # the end, then push a frame [next start, minima, pos, closed, running
        # max, running min] that tries each later start
        nonlocal best, best_wit
        base = ps[pos]
        a = sufmax[pos + 1] - base
        b = base - sufmin[pos + 1]
        total_stop = closed + (a if a >= b else b)
        if total_stop > best:
            best = total_stop
            best_wit = minima
        stack.append([pos + 1, minima, pos, closed, ps[pos + 1], ps[pos + 1]])

    for i in range(n):
        if not f_alpha_member((support[i],), alpha):
            continue
        open_chain((support[i],), i, 0)
        while stack:
            frame = stack[-1]
            r, minima, pos, closed, hi, lo = frame
            if r == n:
                stack.pop()
                continue
            p = ps[r]
            if p > hi:
                hi = p
            if p < lo:
                lo = p
            frame[0], frame[4], frame[5] = r + 1, hi, lo
            a = hi - ps[pos]
            b = ps[pos] - lo
            gap = a if a >= b else b
            if closed + gap + abs_suffix[r] <= best:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(
                    f"interval-system search exceeded {max_nodes} nodes",
                    attained=best,
                )
            cand = minima + (support[r],)
            if f_alpha_member(cand, alpha):
                open_chain(cand, r, closed + gap)
    return best, best_wit


def jamesification_norm(x: SparseVector, alpha: Ordinal = ONE, max_nodes=None,
                        want_witness=False):
    """Interval-system norm at a successor level; exact for exact payloads."""
    if not alpha.is_successor:
        raise FamilyError(f"interval-system norm needs a successor level, got {alpha}")
    support = list(x.support)
    coeffs = [x.get(i) for i in support]
    if alpha == ONE:
        return _james_dp_level1(support, coeffs, want_witness=want_witness)
    budget = node_budget() if max_nodes is None else max_nodes
    best, wit = _james_dfs(support, coeffs, alpha, budget)
    return (best, wit) if want_witness else best


def naive_james_norm(x: SparseVector, alpha: Ordinal = ONE):
    """Reference evaluator: all minima sets inside [1..max support], all ends."""
    if x.is_zero:
        return 0
    top = x.max_index()
    if top > 10:
        raise FamilyError("naive interval-system norm limited to max index <= 10")
    line = list(range(1, top + 1))
    best = 0
    for d in range(1, top + 1):
        for minima in combinations(line, d):
            if not f_alpha_member(minima, alpha):
                continue
            end_ranges = []
            for j, m in enumerate(minima):
                hi = (minima[j + 1] - 1) if j + 1 < d else top
                end_ranges.append(range(m, hi + 1))
            for ends in product(*end_ranges):
                total = 0
                for m, e in zip(minima, ends):
                    total += abs(sum(x.get(i) for i in range(m, e + 1)))
                if total > best:
                    best = total
    return best


# ---------------------------------------------------------------------------
# weighted truncated norm: max of sup-norm and, per generated block F_i,
# min F_i * sum_{n in F_i} w_n |x_n|
# ---------------------------------------------------------------------------


class _ExplicitBlock:
    """Adapter for an explicit (index set, weights) pair."""

    __slots__ = ("indices", "weights", "min_index")

    def __init__(self, indices, weights):
        self.indices = tuple(indices)
        if not self.indices:
            raise FamilyError("weight block needs a nonempty index set")
        self.weights = dict(weights)
        self.min_index = self.indices[0]
        total = sum(self.weights[i] for i in self.indices)
        if total != 1:
            raise FamilyError(f"weights must sum to one exactly, got {total}")

    def weight_at(self, i):
        return self.weights.get(i)


def _as_blocks(family):
    if hasattr(family, "blocks"):
        return list(family.blocks)
    return [
        item if hasattr(item, "weight_at") else _ExplicitBlock(item[0], item[1])
        for item in family
    ]


def weighted_schreier_norm(x: SparseVector, family):
    """Evaluate the truncated weighted norm against a list of weight blocks.

    `family` is either an object with a `.blocks` attribute or an iterable of
    (indices, weights) pairs / block objects exposing weight_at and min_index.
    """
    blocks = _as_blocks(family)
    float_mode = x.has_float_payload()
    best = x.inf_norm()
    if float_mode:
        best = float(best)
    for block in blocks:
        acc = 0
        hit = False
        for i, v in x.entries.items():
            w = block.weight_at(i)
            if w is None:
                continue
            hit = True
            acc += (float(w) * abs(v)) if float_mode else (w * abs(v))
        if not hit:
            continue
        val = block.min_index * acc
        if val > best:
            best = val
    return best

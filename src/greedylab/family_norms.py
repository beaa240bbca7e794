"""Norms defined by maximizing over Schreier-type families.

Three evaluators live here: the family sup norm (best weighted member of a
level-alpha family), the interval-system norm whose interval minima must form
a relaxed-family member, and the weighted truncated norm driven by a generated
family of weight blocks.  All three are exact when fed int/Fraction payloads.
The first two share one driver, `_exact`, which scales the payload to ints and
divides the optimum, or a refusal's attained value, back into its units.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import accumulate, combinations, product
from operator import sub

from .config import BudgetExceeded, node_budget
from .ordinals import ONE, Ordinal, fundamental_term
from .schreier import FamilyError, _max_prefix, f_alpha_member, schreier_member
from .vectors import SparseVector, over_one_denominator


# ---------------------------------------------------------------------------
# exact payloads as scaled ints
# ---------------------------------------------------------------------------


def _as_ints(entries):
    """(entries times D, D) for an int/Fraction payload holding a Fraction,
    D the lcm of its denominators; (entries, None) for any other payload."""
    if type(next(iter(entries.values()), None)) is float:
        return entries, None  # one float keeps the payload: the usual case, cheaply
    kinds = set(map(type, entries.values()))
    if Fraction not in kinds or not kinds <= {int, Fraction}:
        return entries, None
    nums, D = over_one_denominator(entries.values())
    return dict(zip(entries, nums)), D


def _divided(out, D, want_witness=False):
    """A result on the payload scaled by D, back in the payload's units."""
    if D is None:
        return out
    return (Fraction(out[0], D), out[1]) if want_witness else Fraction(out, D)


def _exact(solve, x, alpha, max_cells, want_witness):
    """0 on the zero vector, else solve(entries, alpha, max_cells,
    want_witness) on x's payload scaled to ints and the optimum divided back;
    a refusal's attained value is divided back too and named in its message."""
    if not x.entries:
        return (0, ()) if want_witness else 0
    entries, D = _as_ints(x.entries)
    try:
        out = solve(entries, alpha, max_cells, want_witness)
    except BudgetExceeded as exc:
        held = _divided(exc.attained, D)
        raise BudgetExceeded(f"{exc} (greedy member attains {held})",
                             attained=held) from None
    return _divided(out, D, want_witness)


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


class _WindowDP:
    """Best member of each level inside each window of support positions.

    `best(level, s, r)` is the largest value of a level-`level` member whose
    elements sit at positions s..r-1.  For the family sup norm that value is
    the member's sum of |x|.  For the interval-system norm (`signed` given)
    the member is the minima set of an interval chain inside the window, an
    interval running from its minimum up to position r at most, and the
    value is the chain's sum of |interval sums|; the top level `alpha` is the
    relaxed family, up to twice the minimum many blocks one level down.

    A window that is itself a member is worth its sum of |x|: values are
    >= 0 and the families are hereditary, and for interval chains the
    singleton intervals attain it while the triangle inequality bars more.
    Any other window reads a row memoised on (level, r) and filled downward
    from r on demand:

    - sup norm, level 1: the `_s1_best` heap scan, resumed per right end r;
    - interval norm, level 0: one interval, worth the widest spread of the
      signed prefix sums over positions s..r (no row: a successor level
      takes the spreads for all right ends from one running max and min);
    - successor level b+1: C[u][k], the best union of at most k successive
      level-b members inside [u, r), is the larger of C[u+1][k] and
      best(b, u, w) + C[w][k-1] over w > u.  A union inside [t, r) of at
      most idx[t] blocks (2*idx[t] at the relaxed top) has at most its
      minimum many (twice that), so the row is the running max of
      C[t][idx[t]];
    - limit level: a member whose minimum sits at t lies at the successor of
      the idx[t]-th fundamental term, and every member of that level inside
      [t, r) lies at the limit level (its minimum is >= idx[t]), so the row
      is the running max of those values.

    Every table entry and every candidate of a max is one cell; the DP
    raises BudgetExceeded, carrying the sum of the greedy-maximal member
    from the first position, rather than pass `max_cells`, which defaults to
    `node_budget()` once the first cell is spent.
    """

    def __init__(self, values, alpha, max_cells, signed=None):
        self.idxs = tuple(i for i, _ in values)
        self.vals = [v for _, v in values]
        self.ps = list(accumulate(self.vals, initial=0))
        self.sp = None if signed is None else list(accumulate(signed, initial=0))
        self.alpha = alpha
        self.max_cells = max_cells
        self.cells = 0
        self._reach = {}
        self._rows = {}

    def _relaxed(self, level):
        return self.sp is not None and level == self.alpha

    def reach(self, level, s):
        """End of the longest member prefix of the positions from s."""
        key = (level, s)
        end = self._reach.get(key)
        if end is None:
            if self._relaxed(level):
                end, pred = s, level.predecessor()
                for _ in range(2 * self.idxs[s]):
                    if end == len(self.idxs):
                        break
                    end = self.reach(pred, end)
            else:
                end = _max_prefix(self.idxs, s, level)
            self._reach[key] = end
        return end

    def _spend(self, cells):
        if self.max_cells is None:
            self.max_cells = node_budget()
        if self.cells + cells > self.max_cells:
            raise BudgetExceeded(f"window DP would exceed {self.max_cells} cells",
                                 attained=self.ps[self.reach(self.alpha, 0)])
        self.cells += cells

    def best(self, level, s, r):
        if self.reach(level, s) >= r:
            return self.ps[r] - self.ps[s]
        row = self._rows.get((level, r))
        if row is None:
            row = self._rows[(level, r)] = _Row(r)
        if row.lo > s:
            self._fill(level, row, s, r)
        return row.best[s]

    def _blocks(self, level, u, r):
        """best(level, u, w) for w = u+1..r."""
        if level.is_zero:
            span = self.sp[u:r + 1]
            return list(map(sub, accumulate(span, max), accumulate(span, min)))[1:]
        ps = self.ps
        base, end = ps[u], self.reach(level, u)
        return [ps[w] - base if w <= end else self.best(level, u, w)
                for w in range(u + 1, r + 1)]

    def _fill(self, level, row, s, r):
        idxs, vals = self.idxs, self.vals
        W = row.best
        positions = range(row.lo - 1, s - 1, -1)
        if level == ONE and self.sp is None:
            self._spend(row.lo - s)
            heap, total = row.heap, row.total
            for u in positions:
                heapq.heappush(heap, vals[u])
                total += vals[u]
                while len(heap) > idxs[u]:
                    total -= heapq.heappop(heap)
                W[u] = total if total >= W[u + 1] else W[u + 1]
            row.total = total
        elif level.is_limit:
            for u in positions:
                self._spend(1)
                v = self.best(fundamental_term(level, idxs[u]).successor(), u, r)
                W[u] = v if v > W[u + 1] else W[u + 1]
        else:
            pred = level.predecessor()
            per_min = 2 if self._relaxed(level) else 1
            cols = row.cols
            for u in positions:
                K = min(per_min * idxs[u], r - u)
                self._spend(K * (r - u))
                nxt = cols[u + 1]
                top = len(nxt) - 1
                col = [0] + [nxt[min(k, top)] for k in range(1, K + 1)]
                for w, bw in enumerate(self._blocks(pred, u, r), u + 1):
                    rest = cols[w]
                    for k, c in enumerate(rest[:K], 1):
                        c += bw
                        if c > col[k]:
                            col[k] = c
                    # C[w][j] for j past the positions left is C[w][-1]
                    c = rest[-1] + bw
                    for k in range(len(rest) + 1, K + 1):
                        if c > col[k]:
                            col[k] = c
                cols[u] = col
                W[u] = col[K] if col[K] > W[u + 1] else W[u + 1]
        row.lo = s

    def witness(self, level, s, r):
        """A member inside [s, r) attaining best(level, s, r), read back
        from the row that computed it."""
        idxs = self.idxs
        if self.reach(level, s) >= r:
            return idxs[s:r]
        if level == ONE and self.sp is None:
            return _s1_best(list(zip(idxs[s:r], self.vals[s:r])), True)[1]
        if level.is_zero:
            # the interval starts at the earlier of the extreme prefix sums
            span = self.sp[s:r + 1]
            return (idxs[s + min(span.index(max(span)), span.index(min(span)))],)
        target = self.best(level, s, r)
        if level.is_limit:
            steps = ((fundamental_term(level, idxs[t]).successor(), t)
                     for t in range(s, r))
            step, t = next((b, t) for b, t in steps if self.best(b, t, r) == target)
            return self.witness(step, t, r)
        pred = level.predecessor()
        cols = self._rows[(level, r)].cols
        u = next(t for t in range(s, r) if cols[t][-1] == target)
        k = len(cols[u]) - 1
        out = ()
        while target:
            nxt = cols[u + 1]
            if nxt[min(k, len(nxt) - 1)] == target:
                u += 1
                continue
            for w, bw in enumerate(self._blocks(pred, u, r), u + 1):
                rest = cols[w][min(k - 1, len(cols[w]) - 1)]
                if bw + rest == target:
                    break
            out += self.witness(pred, u, w)
            u, k, target = w, k - 1, rest
        return out


class _Row:
    """One memoised row: values for starts lo..r and the state that resumes
    the fill below lo (the level-1 heap, or the C columns)."""

    __slots__ = ("lo", "best", "heap", "total", "cols")

    def __init__(self, r):
        self.lo = r
        self.best = [0] * (r + 1)
        self.heap = []
        self.total = 0
        self.cols = [None] * r + [(0,)]


def _sup_best(entries, alpha, max_cells, want_witness):
    """Exact family sup norm, with the member attaining it: the level-1 heap
    scan, the largest modulus at level 0, else the window DP.  The only
    member holding index 1 is {1}, so the DP runs on the rest, which is often
    a member itself and needs no table, and 1 is compared with its optimum.
    """
    values = [(i, abs(v)) for i, v in entries.items()]
    if alpha == ONE:
        return _s1_best(values, want_witness)
    if alpha.is_zero:
        i, best = max(values, key=lambda t: t[1])
        return (best, (i,)) if want_witness else best
    head = values.pop(0)[1] if values[0][0] == 1 else None
    best, wit = 0, ()
    if values:
        dp = _WindowDP(values, alpha, max_cells)
        best = dp.best(alpha, 0, len(values))
        if want_witness:
            wit = dp.witness(alpha, 0, len(values))
    if head is not None and head >= best:
        best, wit = head, (1,)
    return (best, wit) if want_witness else best


def schreier_alpha_norm(x: SparseVector, alpha: Ordinal, max_nodes=None,
                        want_witness=False):
    """sup of sum_{n in F} |x_n| over level-alpha members F; exact.

    `max_nodes` bounds the window DP's cells at levels >= 2 (default
    `node_budget()`); the level-0 and level-1 scans are linear and spend
    none.  Exhausted search budgets raise instead of silently approximating.
    """
    return _exact(_sup_best, x, alpha, max_nodes, want_witness)


def sup_functional(x: SparseVector, alpha: Ordinal):
    """The family sup norm of x and a norming functional f of x: the signs
    of x on a member attaining the norm, so |f(z)| <= norm(z) for every z."""
    value, member = schreier_alpha_norm(x, alpha, want_witness=True)
    return value, SparseVector({i: 1 if x.entries[i] > 0 else -1 for i in member})


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


def _james_dp_level1(support, coeffs, max_cells, want_witness):
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
    The n * tmax cells come from `max_cells` (default `node_budget()`); a
    refusal carries the relaxed family's greedy member, the first 2*min points.
    """
    n = len(support)
    ps = list(accumulate(coeffs, initial=0))
    tcaps = [min(2 * support[i], n - i) for i in range(n)]
    tmax = max(tcaps)
    if max_cells is None:
        max_cells = node_budget()
    if n * tmax > max_cells:
        raise BudgetExceeded(
            f"interval-system DP needs {n * tmax} cells, over {max_cells}",
            attained=sum(map(abs, coeffs[:2 * support[0]])))

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


def _interval_best(support, coeffs, alpha, max_cells, want_witness):
    """Exact interval-system optimum by the window DP, with the minima chain
    that attains it."""
    n = len(support)
    if n == 0:
        return (0, ()) if want_witness else 0
    dp = _WindowDP(list(zip(support, map(abs, coeffs))), alpha, max_cells,
                   signed=coeffs)
    best = dp.best(alpha, 0, n)
    return (best, dp.witness(alpha, 0, n)) if want_witness else best


def _interval_norm(entries, alpha, max_cells, want_witness):
    support, coeffs = list(entries), list(entries.values())
    if alpha == ONE:
        return _james_dp_level1(support, coeffs, max_cells, want_witness)
    return _interval_best(support, coeffs, alpha, max_cells, want_witness)


def jamesification_norm(x: SparseVector, alpha: Ordinal = ONE, max_nodes=None,
                        want_witness=False):
    """Interval-system norm at a successor level; exact for exact payloads.

    `max_nodes` bounds the DP cells (default `node_budget()`): the n * T
    cells of the level-1 interval DP (n points, chains of at most T
    intervals), else the window DP's.  Exhausted budgets raise.
    """
    if not alpha.is_successor:
        raise FamilyError(f"interval-system norm needs a successor level, got {alpha}")
    return _exact(_interval_norm, x, alpha, max_nodes, want_witness)


def interval_functional(x: SparseVector, alpha: Ordinal = ONE):
    """The interval-system norm of x and a norming functional f of x.

    Each minimum of the witness chain opens an interval ending, before the
    next minimum, where its sum has the largest modulus; f is that sum's
    sign on every index of the interval, so |f(z)| <= norm(z) for every z.
    """
    value, minima = jamesification_norm(x, alpha, want_witness=True)
    f = {}
    for lo, stop in zip(minima, minima[1:] + (x.max_index() + 1,)):
        run = peak = 0
        end = lo
        for i, v in x.entries.items():
            if lo <= i < stop:
                run += v
                if abs(run) > abs(peak):
                    peak, end = run, i
        f.update(dict.fromkeys(range(lo, end + 1), (peak > 0) - (peak < 0)))
    return value, SparseVector(f)


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


def weighted_schreier_norm(x: SparseVector, family, want_witness=False):
    """Evaluate the truncated weighted norm against `family.blocks`, weight
    blocks exposing weight_at and min_index.

    `want_witness` adds a norming functional: min F times the signed weights
    of x's support in the best block F, else sign(x_n) e_n at a largest |x_n|.
    """
    float_mode = x.has_float_payload()
    best = x.inf_norm()
    if float_mode:
        best = float(best)
    best_block = None
    for block in family.blocks:
        acc = 0
        for i, v in x.entries.items():
            w = block.weight_at(i)
            if w is None:
                continue
            acc += (float(w) * abs(v)) if float_mode else (w * abs(v))
        if not acc:  # nothing to weigh: leave the block's (maybe wide) start unread
            continue
        val = block.min_index * acc
        if val > best:
            best = val
            best_block = block
    if not want_witness:
        return best
    f = {}
    if best_block is None:  # the sup part attains it: a largest entry's sign
        if x.entries:
            top = max(x.entries, key=lambda i: abs(x.entries[i]))
            f[top] = 1 if x.entries[top] > 0 else -1
    else:
        lo = best_block.min_index
        for i, v in x.entries.items():
            w = best_block.weight_at(i)
            if w is not None:
                w = lo * w if v > 0 else -lo * w
                f[i] = float(w) if float_mode else w
    return best, SparseVector(f)

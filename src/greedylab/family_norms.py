"""Norms defined by maximizing over Schreier-type families.

Three evaluators live here: the family sup norm (best weighted member of a
level-alpha family), the interval-system norm whose interval minima must form
a relaxed-family member, and the weighted truncated norm driven by a generated
family of weight blocks.  All three are exact when fed int/Fraction payloads,
which all three run as ints scaled by `_as_ints`.  The first two share one
driver, `_exact`, which divides the optimum, or a refusal's attained value,
back into the payload's units; the weighted norm compares its blocks by
cross-multiplying and divides only the winner back.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations, product

from .config import BudgetExceeded, node_budget
from .ordinals import ONE, ZERO, Ordinal, fundamental_term
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

    The successor step at position u reads best(b, u, w), w > R (below),
    straight from the level-b rows: row (b, w) is made on first use,
    extended down to u in place by `_fill_one` at level 1 (the one place the
    heap step and `_interval_rows` run) or else by `_fill`, and read at u.

    The successor step scans only candidates that can win, by three rules
    resting on the families being hereditary and spreading:

    - split points: with R = min(reach(b, u), r), every window [u, w) with
      w <= R is a member worth ps[w] - ps[u], and C[w][k-1] <= (ps[R] -
      ps[w]) + C[R][k-1] (cut a union at R: the part before R is worth at
      most its sum of |x|, the rest is a union inside [R, r), an interval
      crossing R restarting at R), so w runs over R..r only;
    - block counts: cover(u) greedy level-b blocks tile [u, r) (1 if R = r,
      else 1 + cover(R)), so C[u][k] = ps[r] - ps[u] for k >= cover(u).  k
      stops at min(per_min * idx[u], cover(u)), which equals min(per_min *
      idx[u], 1 + the stop of C[R]) (0 at R = r), the length of the column
      C[R]; a read past the end of a column takes its last entry;
    - interval norm over level 0: a level-0 member is one interval, so
      C[u][k] is the larger of C[u+1][k] and |sp[q] - sp[u]| + C[q][k-1]
      over q > u (an interval from u ending before q <= w leaves C[q][k-1]
      >= C[w][k-1]).  `_interval_rows` keeps the running maxima of
      sp[q] + C[q][j] and C[q][j] - sp[q] over the positions filled, so a
      position costs k cells, not k(r - u); the level-1 norm fills its one
      row, r = n, with it directly.

    Every candidate scanned is one cell: k(r - R + 1) per successor-level
    position, k over level 0, one per limit-level position and one per
    level-1 heap step.  The DP raises BudgetExceeded, carrying the sum of the
    greedy-maximal member from the first position, rather than pass
    `max_cells`, which defaults to `node_budget()` once the first cell is
    spent.
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
            end = self._reach[key] = _max_prefix(
                self.idxs, s, level, 2 if self._relaxed(level) else 1)
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
        rows = self._rows.setdefault(level, {})
        row = rows.get(r)
        if row is None:
            row = rows[r] = _Row(r)
        if row.lo > s:
            self._fill(level, row, s, r)
        return row.best[s]

    def _fill(self, level, row, s, r):
        if level == ONE:
            return self._fill_one(row, s, r)
        idxs, ps, W, cols = self.idxs, self.ps, row.best, row.cols
        positions = range(row.lo - 1, s - 1, -1)
        if level.is_limit:
            for u in positions:
                self._spend(1)
                v = self.best(fundamental_term(level, idxs[u]).successor(), u, r)
                W[u] = v if v > W[u + 1] else W[u + 1]
        else:
            pred = level.predecessor()
            prows = self._rows.setdefault(pred, {})
            extend = self._fill_one if pred == ONE else partial(self._fill, pred)
            per_min = 2 if self._relaxed(level) else 1
            for u in positions:
                R = min(self.reach(pred, u), r)
                K = min(per_min * idxs[u], len(cols[R]))
                self._spend(K * (r - R + 1))
                col = _padded(cols[u + 1], K + 1)
                bw = ps[R] - ps[u]
                for w in range(R, r + 1):
                    if w > R:  # [u, w) is no member: best(pred, u, w) is a row's
                        prow = prows.get(w)
                        if prow is None:
                            prow = prows[w] = _Row(w)
                        if prow.lo > u:
                            extend(prow, u, w)
                        bw = prow.best[u]
                    col[1:] = map(max, col[1:], [c + bw for c in _padded(cols[w], K)])
                cols[u] = col
                W[u] = col[K] if col[K] > W[u + 1] else W[u + 1]
        row.lo = s

    def _fill_one(self, row, s, r):
        """Extend a level-1 row down to start s: the heap scan for the sup
        norm, `_interval_rows` for the interval norm."""
        idxs, W = self.idxs, row.best
        positions = range(row.lo - 1, s - 1, -1)
        if self.sp is None:
            self._spend(row.lo - s)
            vals, heap, total = self.vals, row.heap, row.total
            for u in positions:
                heapq.heappush(heap, vals[u])
                total += vals[u]
                while len(heap) > idxs[u]:
                    total -= heapq.heappop(heap)
                W[u] = total if total >= W[u + 1] else W[u + 1]
            row.total = total
        else:
            per_min = 2 if self._relaxed(ONE) else 1
            self._spend(sum(min(per_min * idxs[u], r - u) for u in positions))
            _interval_rows(row, idxs, self.sp, r, per_min, positions)
        row.lo = s

    def witness(self, level, s, r):
        """A member inside [s, r) attaining best(level, s, r), read back
        from the row that computed it."""
        idxs = self.idxs
        if self.reach(level, s) >= r:
            return idxs[s:r]
        if level == ONE and self.sp is None:
            return _s1_best(list(zip(idxs[s:r], self.vals[s:r])), True)[1]
        target = self.best(level, s, r)
        if level.is_limit:
            steps = ((fundamental_term(level, idxs[t]).successor(), t)
                     for t in range(s, r))
            step, t = next((b, t) for b, t in steps if self.best(b, t, r) == target)
            return self.witness(step, t, r)
        pred = level.predecessor()
        cols = self._rows[level][r].cols
        if pred.is_zero:
            return _interval_walk(cols, idxs, self.sp, s, r, target)
        u = next(t for t in range(s, r) if cols[t][-1] == target)
        k = len(cols[u]) - 1
        out = ()
        while target:
            nxt = cols[u + 1]
            if nxt[min(k, len(nxt) - 1)] == target:
                u += 1
                continue
            # the split points that can win, as the fill scanned them
            for w in range(min(self.reach(pred, u), r), r + 1):
                bw = self.best(pred, u, w)
                rest = cols[w][min(k - 1, len(cols[w]) - 1)]
                if bw + rest == target:
                    break
            out += self.witness(pred, u, w)
            u, k, target = w, k - 1, rest
        return out


def _padded(column, n):
    """The first n entries of a C column, padded with its last: C[w][j] for
    j past the blocks that cover [w, r) is C[w][-1]."""
    head = column[:n]
    return head + head[-1:] * (n - len(head))


def _interval_rows(row, idxs, sp, r, per_min, positions):
    """Fill an interval-chain row over level 0, its values and C columns, at
    the falling positions given.  C[u][k], the best chain of at most k
    intervals inside [u, r), is the largest of C[u+1][k], up[k-1] - sp[u]
    and dn[k-1] + sp[u], where up[j] and dn[j] are the maxima of
    sp[q] + C[q][j] and C[q][j] - sp[q] over the q > u filled, from q = r,
    where the interval runs to the end.  k stops at min(per_min * idx[u],
    r - u); the pass over k reads up[k-1] and dn[k-1], then raises them by
    C[u][k-1]."""
    if row.up is None:
        row.up, row.dn = [sp[r]], [-sp[r]]
    W, cols, up, dn = row.best, row.cols, row.up, row.dn
    for u in positions:
        K = min(per_min * idxs[u], r - u)
        if K == len(up):
            # K = r - u, one more than at u + 1, and each C[q] with q > u
            # ends before j = K: the new entry is the last one
            up.append(up[-1])
            dn.append(dn[-1])
        p, nxt, col = sp[u], cols[u + 1], [0]
        if len(nxt) == K:  # C[u+1] ends before k = K: its last entry repeats
            nxt = nxt + nxt[-1:]
        for j in range(K + 1):
            a, b, f = up[j], dn[j], col[j]
            if p + f > a:
                up[j] = p + f
            if f - p > b:
                dn[j] = f - p
            if j < K:
                a, b, g = a - p, b + p, nxt[j + 1]
                c = a if a >= b else b
                col.append(c if c > g else g)
        cols[u] = col
        W[u] = col[K] if col[K] > W[u + 1] else W[u + 1]


def _interval_walk(cols, idxs, sp, s, r, target):
    """The minima of an interval chain inside [s, r) attaining target, read
    back from the columns `_interval_rows` filled: the interval from u ends
    before the first w where the fill's own float expressions give it."""
    u = next(t for t in range(s, r) if cols[t][-1] == target)
    k = len(cols[u]) - 1
    out = []
    while target:
        nxt = cols[u + 1]
        if nxt[min(k, len(nxt) - 1)] == target:
            u += 1
            continue
        p = sp[u]
        for w in range(u + 1, r + 1):
            col = cols[w]
            rest = col[k - 1] if k <= len(col) else col[-1]
            a, b = (sp[w] + rest) - p, (rest - sp[w]) + p
            if (a if a >= b else b) == target:
                break
        out.append(idxs[u])
        u, k, target = w, k - 1, rest
    return tuple(out)


class _Row:
    """One memoised row: values for starts lo..r and the state that resumes
    the fill below lo (the level-1 heap, or the C columns and, over level 0,
    the running maxima of +-sp[q] + C[q][j] over q >= lo)."""

    __slots__ = ("lo", "best", "heap", "total", "cols", "up", "dn")

    def __init__(self, r):
        self.lo = r
        self.best = [0] * (r + 1)
        self.heap = []
        self.total = 0
        self.cols = [None] * r + [[0]]
        self.up = self.dn = None


def _sup_best(entries, alpha, max_cells, want_witness):
    """Exact family sup norm, with the member attaining it: the level-1 heap
    scan, the largest modulus at level 0, else the window DP.  The only
    member holding index 1 is {1}, so the DP runs on the rest, which is often
    a member itself and needs no table, and 1 is compared with its optimum.
    """
    values = [(i, abs(v)) for i, v in entries.items()]
    if alpha == ONE:  # the DP's level-1 rows ran 2-3x slower on small supports
        return _s1_best(values, want_witness)
    if alpha.is_zero:
        i, best = max(values, key=lambda t: t[1])
        return (best, (i,)) if want_witness else best
    head = values.pop(0)[1] if values[0][0] == 1 else None
    dp = _WindowDP(values, alpha, max_cells)
    best = dp.best(alpha, 0, len(values))
    wit = dp.witness(alpha, 0, len(values)) if want_witness else ()
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


def _interval_norm(entries, alpha, max_cells, want_witness):
    """Exact interval-system optimum, with the minima chain attaining it.

    Minima may be restricted to support points: sliding an interval's start
    right to its first support point keeps every block sum and only spreads
    the minima set, which stays in the family.  Level 1 fills one row,
    r = n, directly; its cells are charged up front, and a refusal carries
    the relaxed family's greedy member, the first 2*min points.
    """
    support, coeffs = list(entries), list(entries.values())
    n = len(support)
    if alpha != ONE:
        dp = _WindowDP(list(zip(support, map(abs, coeffs))), alpha, max_cells,
                       signed=coeffs)
        best = dp.best(alpha, 0, n)
        return (best, dp.witness(alpha, 0, n)) if want_witness else best
    # through a _WindowDP, the many calls on a few points ran twice as slow
    max_cells = node_budget() if max_cells is None else max_cells
    if n * (n + 1) // 2 > max_cells:  # n - u cells at most at each u
        cells = sum(map(min, [2 * i for i in support], range(n, 0, -1)))
        if cells > max_cells:
            raise BudgetExceeded(
                f"interval-system DP needs {cells} cells, over {max_cells}",
                attained=sum(map(abs, coeffs[:2 * support[0]])))
    sp = list(accumulate(coeffs, initial=0))
    row = _Row(n)
    _interval_rows(row, support, sp, n, 2, range(n - 1, -1, -1))
    best = row.best[0]
    if not want_witness:
        return best
    return best, _interval_walk(row.cols, support, sp, 0, n, best)


def jamesification_norm(x: SparseVector, alpha: Ordinal = ONE, max_nodes=None,
                        want_witness=False):
    """Interval-system norm at a successor level; exact for exact payloads.

    `max_nodes` bounds the DP cells (default `node_budget()`): at level 1,
    the sum over support positions u of min(2 * idx_u, n - u), the chain
    lengths its one row scans on n points, else the window DP's.
    Exhausted budgets raise.
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
    opens = iter(minima)  # support points, met in one pass over the entries
    nxt, lo = next(opens, None), None
    for i, v in x.entries.items():
        if i == nxt:
            if lo is not None:
                f.update(dict.fromkeys(range(lo, end + 1), (peak > 0) - (peak < 0)))
            lo = end = i
            run = peak = 0
            nxt = next(opens, None)
        if lo is not None:
            run += v
            if abs(run) > abs(peak):
                peak, end = run, i
    if lo is not None:
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
    blocks exposing `level`, `start` (= min F) and `runs_of`.

    Run n of a block weighs 1/(start^(level+1) * 2^(n-1)), so min F * sum
    w_i |x_i| is acc / (start^level * 2^(top-1)), top the last run touched,
    where acc shifts left as the run number grows and adds |x_i| in index
    order.  Exact payloads run on ints scaled by `_as_ints`, blocks compared
    by cross-multiplying; float payloads add w * |x_i| in index order, w
    computed once per run by int true division, as float(Fraction) does.

    `want_witness` adds a norming functional: min F times the signed weights
    of x's support in the best block F, else sign(x_n) e_n at a largest |x_n|.
    """
    mags = {i: abs(v) for i, v in x.entries.items()}
    best = max(mags.values(), default=0)  # the sup part, as x.inf_norm()
    # floats keep their own pass: scaled to ints, small supports ran 25% slower
    float_mode = x.has_float_payload()
    if float_mode:
        best = float(best)
    else:
        best_num, best_den = best.as_integer_ratio()
        mags, D = _as_ints(mags)
    best_block = None
    for block in family.blocks:
        acc = top = 0
        for n, _, v in block.runs_of(mags):
            if n != top:
                if float_mode:
                    w = 1 / (block.start ** (block.level + 1) << (n - 1))
                else:
                    acc <<= n - top
                top = n
            acc += w * v if float_mode else v
        if not acc:  # nothing to weigh: leave the block's (maybe wide) start unread
            continue
        if float_mode:
            val = block.start * acc
            if val > best:
                best, best_block = val, block
            continue
        den = (D or 1) * block.start ** block.level << (top - 1)
        if acc * best_den > best_num * den:
            best_num, best_den, best_block = acc, den, block
    if not float_mode and best_block is not None:
        best = Fraction(best_num, best_den)
    if not want_witness:
        return best
    if best_block is None:  # the sup part attains it: a largest entry's sign
        return best, sup_functional(x, ZERO)[1]
    f = {}
    scale, top = best_block.start ** best_block.level, 0
    for n, i, v in best_block.runs_of(x.entries):
        if n != top:
            top = n
            w = 1 / (scale << (n - 1)) if float_mode else Fraction(1, scale << (n - 1))
        f[i] = w if v > 0 else -w
    return best, SparseVector(f)

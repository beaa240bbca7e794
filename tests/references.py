"""Reference implementations the tests compare the library's fast paths
against: slow, simple, and independent of the code under test."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from greedylab.config import BudgetExceeded
from greedylab.family_norms import _WindowDP
from greedylab.greedy import GreedyError
from greedylab.norms import NormDomainError
from greedylab.ordinals import ONE, Ordinal, fundamental_term
from greedylab.schreier import check_index_set, family_members_within
from greedylab.vectors import SparseVector


def grid_best_coefficients(x: SparseVector, support, oracle, points: int = 41,
                           rounds: int = 6):
    """Reference optimizer: per-axis grids with refinement around the best node.

    Limited to |support| <= 2; the single-pass grid step is too coarse for
    the comparison tolerance, so the grid recenters and shrinks each round.
    """
    support = tuple(sorted(support))
    if len(support) > 2:
        raise GreedyError("grid optimizer limited to supports of size <= 2")
    if not support:
        return oracle.norm(x), {}
    radius = 3.0 * float(x.inf_norm() or 1.0)
    centers = [0.0] * len(support)
    span = radius
    best_val = None
    best_pt = None
    for _ in range(rounds):
        axes = []
        for c in centers:
            lo, hi = c - span, c + span
            step = (hi - lo) / (points - 1)
            axes.append([lo + k * step for k in range(points)])
        for pt in product(*axes):
            data = dict(x.entries)
            for n, a in zip(support, pt):
                data[n] = data.get(n, 0) - a
            v = oracle.norm(SparseVector(data))
            if best_val is None or v < best_val:
                best_val = v
                best_pt = pt
        centers = list(best_pt)
        span = 2.0 * (2.0 * span / (points - 1))
    return best_val, dict(zip(support, best_pt))


def kt_global_index(N: int, local: int) -> int:
    """Global index of local coordinate `local` inside window block N of the
    `ktsum` spaces."""
    if not (1 <= local <= 2 * N - 1):
        raise NormDomainError(f"local index {local} outside block {N}")
    return (N - 1) * (N - 1) + local


def kt_block_of(g: int):
    """(block, local) of a global index; blocks tile ((N-1)^2, N^2]."""
    if g < 1:
        raise NormDomainError(f"bad global index {g}")
    N = math.isqrt(g - 1) + 1
    return N, g - (N - 1) * (N - 1)


def schreier_member_backtracking(E, alpha: Ordinal, _cache=None) -> bool:
    """Reference oracle: full backtracking over block splits and limit indices."""
    E = check_index_set(E)
    cache = {} if _cache is None else _cache

    def member(items, a):
        if not items:
            return True
        key = (items, a.terms)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if a.is_zero:
            res = len(items) == 1
        elif a.is_limit:
            res = any(
                member(items, fundamental_term(a, m).successor())
                for m in range(1, items[0] + 1)
            )
        else:
            pred = a.predecessor()
            n = len(items)
            seen = {}

            def cover(pos, left):
                if pos == n:
                    return True
                if left == 0:
                    return False
                state = (pos, left)
                got = seen.get(state)
                if got is not None:
                    return got
                ok = False
                for end in range(pos + 1, n + 1):
                    if member(items[pos:end], pred) and cover(end, left - 1):
                        ok = True
                        break
                seen[state] = ok
                return ok

            res = cover(0, items[0])
        cache[key] = res
        return res

    return member(E, alpha)


class WindowDPReference(_WindowDP):
    """The window DP with its successor step as first written: every split
    point w = u+1..r, block counts up to min(per_min * min, r - u), and the
    interval norm's level 0 as one interval, worth the widest spread of the
    signed prefix sums over the window.  Cells are spent as that step spent
    them, k(r - u) per position; the level-1 heap scan and the limit levels
    are the library's own."""

    def _fill(self, level, row, s, r):
        if level.is_limit or (level == ONE and self.sp is None):
            return super()._fill(level, row, s, r)
        pred = level.predecessor()
        per_min = 2 if self._relaxed(level) else 1
        W, cols = row.best, row.cols
        for u in range(row.lo - 1, s - 1, -1):
            K = min(per_min * self.idxs[u], r - u)
            self._spend(K * (r - u))
            nxt = cols[u + 1]
            col = [0] + [nxt[min(k, len(nxt) - 1)] for k in range(1, K + 1)]
            for w in range(u + 1, r + 1):
                bw = self._window(pred, u, w)
                rest = cols[w]
                for k in range(1, K + 1):
                    c = rest[min(k - 1, len(rest) - 1)] + bw
                    if c > col[k]:
                        col[k] = c
            cols[u] = col
            W[u] = max(col[K], W[u + 1])
        row.lo = s

    def _window(self, level, u, w):
        if level.is_zero:
            span = self.sp[u:w + 1]
            return max(span) - min(span)
        return self.best(level, u, w)


def f_alpha_member_backtracking(F, alpha: Ordinal) -> bool:
    """Reference oracle for the relaxed family: some split of F into at most
    2 * min F successive pieces, each a backtracked member one level below
    alpha."""
    F = check_index_set(F)
    if not F:
        return True
    pred = alpha.predecessor()
    cache = {}

    @lru_cache(maxsize=None)
    def cover(pos, left):
        if pos == len(F):
            return True
        return left > 0 and any(
            schreier_member_backtracking(F[pos:end], pred, cache)
            and cover(end, left - 1)
            for end in range(pos + 1, len(F) + 1)
        )

    return cover(0, 2 * F[0])


def _rah_block(alpha: Ordinal, stream, budget: int, used: int):
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


def rah_sequence_recursive(alpha: Ordinal, stream, count: int, budget: int):
    """Reference builder: one recursive call per block and per leaf, each
    leaf re-scaled at every level above it and the stream re-sliced after
    each block."""
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


def block_weight_at(block, i):
    """The weight of index i in a weight block, None outside it: walks the
    runs from the first, comparing i with their bounds as ShiftedInt forms,
    so an index below the start leaves the start unexpanded."""
    n = 1
    while n <= block.run_count:
        lo, hi = block.run_bounds(n)
        if i < lo:
            return None
        if i <= hi:
            num, p, e = block.run_weight(n)
            return Fraction(num, block.start ** p << e)
        n += 1
    return None


def weight_block_by_runs(block) -> SparseVector:
    """Reference materialisation of a weight block: every index of every
    run with the run's expanded weight, run by run."""
    entries = {}
    for n in range(1, block.run_count + 1):
        lo, hi, w = block.run(n)
        for i in range(lo, hi + 1):
            entries[i] = w
    return SparseVector(entries)


def weighted_norm_pointwise(x: SparseVector, family, want_witness=False):
    """Reference evaluator of the truncated weighted norm: one Fraction
    weight, multiply and add per block and support point."""
    float_mode = x.has_float_payload()
    best = x.inf_norm()
    if float_mode:
        best = float(best)
    best_block = None
    for block in family.blocks:
        acc = 0
        for i, v in x.entries.items():
            w = block_weight_at(block, i)
            if w is None:
                continue
            acc += (float(w) * abs(v)) if float_mode else (w * abs(v))
        if not acc:
            continue
        val = block.start * acc
        if val > best:
            best = val
            best_block = block
    if not want_witness:
        return best
    f = {}
    if best_block is None:
        if x.entries:
            top = max(x.entries, key=lambda i: abs(x.entries[i]))
            f[top] = 1 if x.entries[top] > 0 else -1
    else:
        lo = best_block.start
        for i, v in x.entries.items():
            w = block_weight_at(best_block, i)
            if w is not None:
                w = lo * w if v > 0 else -lo * w
                f[i] = float(w) if float_mode else w
    return best, SparseVector(f)


def grid_equality_reference(oracle, family, dim: int):
    """Both maxima of the theorem suite's grid check, by direct enumeration
    over the {-1,0,1} grid on 1..dim: the greedy residual against the least
    projection error on a member of size <= m, over every greedy set of
    every unit vector; and the sign-splitting ratio with its projection
    form, over every assignment of the indices to x, signs on A and
    coefficients on B with |A| <= |B| and A in the family."""
    idxs = tuple(range(1, dim + 1))
    table = {t: oracle.norm(SparseVector({i: v for i, v in zip(idxs, t) if v}))
             for t in product((-1.0, 0.0, 1.0), repeat=dim)}

    def norm_of(entries: dict) -> float:
        return table[tuple(float(entries.get(i, 0.0)) for i in idxs)]

    member_set = set(family_members_within(family, idxs, dim))

    max_a = 1.0
    for t in product((-1.0, 0.0, 1.0), repeat=dim):
        x = {i: v for i, v in zip(idxs, t) if v}
        supp = tuple(x)
        drop_norm = {A: norm_of({i: v for i, v in x.items() if i not in A})
                     for size in range(len(supp) + 1)
                     for A in combinations(supp, size)}
        for m in range(1, len(supp) + 1):
            denom = min(drop_norm[A] for A in drop_norm
                        if len(A) <= m and A in member_set)
            if denom < 1e-12:
                continue
            for lam in combinations(supp, m):
                max_a = max(max_a, drop_norm[lam] / denom)

    max_b = 1.0
    roles = ("x-", "x0", "x+", "A-", "A+", "B-", "B+")
    for assign in product(roles, repeat=dim):
        A = tuple(i for i, r in zip(idxs, assign) if r.startswith("A"))
        B = tuple(i for i, r in zip(idxs, assign) if r.startswith("B"))
        if len(A) > len(B) or A not in member_set:
            continue
        signed = {i: (r[0], -1.0 if r[1] == "-" else 1.0)
                  for i, r in zip(idxs, assign) if r != "x0"}
        x, lhs, rhs = ({i: v for i, (role, v) in signed.items() if role in kinds}
                       for kinds in ("x", "xA", "xB"))
        denom = norm_of(rhs)
        if denom < 1e-12:
            continue
        max_b = max(max_b, norm_of(lhs) / denom)
        if x:
            max_b = max(max_b, norm_of(x) / denom)
    return {"max_almost_greedy": max_a, "max_sign_splitting": max_b}

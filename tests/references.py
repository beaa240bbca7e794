"""Reference implementations the tests compare the library's fast paths
against: slow, simple, and independent of the code under test."""

from itertools import product

from greedylab.greedy import GreedyError
from greedylab.ordinals import Ordinal, fundamental_term
from greedylab.schreier import check_index_set
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

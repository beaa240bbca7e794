"""Thresholding greedy machinery over an arbitrary norm oracle and family.

Greedy sets pick the largest coefficient moduli; the best m-term error over a
family minimizes over admissible supports with free coefficients, exactly: the
projection error where the suppression constant is 1, else Kelley's cutting
planes on norming functionals, run on Python ints (the payload over one
denominator, each cut over its functional's), each LP solved by an
integer-preserving (fraction-free) simplex, except that the first cut's LP
optimum has a closed form and ends the search when it already closes the
gap.  Candidate supports
lie in the support of x, plus the EXTRA_OFFSUPPORT smallest unused indices
where the suppression constant is not 1 (an off-support index cannot lower a
projection error).  One loop, `_best_support`, searches both errors (sigma_m,
almost_greedy_error): it skips a support unsolved when the largest modulus it
leaves, a lower bound on its error since every norm here dominates the sup
norm, cannot beat the best so far, and a per-sample memo solves each support
once for all the orders m of one sampled vector.  Each constant's defining
ratio is written once, in `_ratio`: the estimators maximize it into certified
lower bounds, and their witnesses replay through it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, count, islice, product

from .norms import NormDomainError
from .vectors import SparseVector, over_one_denominator

TIE_TOL = 1e-12
GAP_TOL = 1e-9
KELLEY_MAX_CUTS = 200
EXTRA_OFFSUPPORT = 2

CONSTANT_NAMES = ("Cw", "Cl", "Ks", "Cd", "Csd", "Cb", "Cg", "Ca")


class GreedyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# greedy sets
# ---------------------------------------------------------------------------


@dataclass
class GreedyResult:
    order: int
    greedy_set: tuple
    approximant: SparseVector
    residual: SparseVector
    tie_flag: bool


def _ranked_support(x: SparseVector):
    return sorted(x.entries, key=lambda i: (-abs(x.entries[i]), i))


def _result_for(x: SparseVector, chosen: tuple, m: int, tie_flag: bool) -> GreedyResult:
    chosen = tuple(sorted(chosen))
    approximant = x.restrict(chosen)
    residual = x.drop(chosen)
    return GreedyResult(m, chosen, approximant, residual, tie_flag)


def greedy_set(x: SparseVector, m: int, tie_break: str = "smallest-index",
               dimension_cap=None):
    """Greedy set(s) of order m.

    Canonical mode breaks modulus ties by smallest index; enumerate-all mode
    returns every completion of the tied boundary.  Orders beyond the support
    pad with the smallest unused indices (zero coefficients tie), flagged.
    """
    if tie_break not in ("smallest-index", "enumerate-all"):
        raise GreedyError(f"unknown tie_break {tie_break!r}")
    if m < 0:
        raise GreedyError("order must be nonnegative")
    if dimension_cap is not None and m > dimension_cap:
        raise GreedyError(f"order {m} exceeds the dimension cap {dimension_cap}")
    ranked = _ranked_support(x)
    n = len(ranked)

    if m > n:
        pad = islice((i for i in count(1) if i not in x.entries), m - n)
        results = [_result_for(x, tuple(ranked) + tuple(pad), m, True)]
    elif m == 0:
        results = [_result_for(x, (), 0, False)]
    else:
        threshold = abs(x.entries[ranked[m - 1]])
        above = [i for i in ranked if abs(x.entries[i]) > threshold + TIE_TOL]
        tied = [i for i in ranked if abs(abs(x.entries[i]) - threshold) <= TIE_TOL]
        tie_flag = len(above) + len(tied) > m
        if tie_break == "smallest-index":
            results = [_result_for(x, tuple(ranked[:m]), m, tie_flag)]
        else:
            results = [_result_for(x, tuple(above) + combo, m, tie_flag)
                       for combo in combinations(sorted(tied), m - len(above))]
    return results if tie_break == "enumerate-all" else results[0]


# ---------------------------------------------------------------------------
# family-member enumeration inside an index pool
# ---------------------------------------------------------------------------


def family_members_within(family, pool, size_cap: int):
    """All family members inside the sorted pool with size <= size_cap.

    Hereditary families allow pruning: once a prefix leaves the family no
    extension can return.  Yields sorted tuples, the empty set first.
    """
    pool = tuple(sorted(pool))
    out = [()]

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


# ---------------------------------------------------------------------------
# inner coefficient minimization (convex in the coefficients)
# ---------------------------------------------------------------------------


def _cut_lp(cuts, width):
    """Exact minimum of t over t >= 0, 0 <= d_n <= width and the cuts
    e t + sum_n g_n d_n >= b, given as int triples (e, g, b) with e > 0, and
    an int width; returns (t, d, det), the optimum being t / det and d / det.

    Bland-rule simplex on the dual, max sum_j b_j l_j - width sum_n u_n over
    l, u >= 0 with sum_j e_j l_j <= 1 and sum_j g_jn l_j <= u_n, whose origin
    is a feasible basis; (t, d) is minus the final reduced costs of the slacks.
    Scaling a cut by a positive factor scales its dual column, which changes
    no sign and no ratio of the ratio test, so the pivots are those of the
    cut with e = 1.  The integer tableau is pivoted fraction-free (Bareiss,
    Edmonds): each row is det times its Gauss-Jordan row, where det, the
    previous pivot (1 at first), is |det P| for the submatrix P on the
    pivoted rows and their basic columns.  Those rows are adj(P) times integer
    rows, the others det P times Schur complements, so v*p - f*q is a multiple
    of det and the floor division exact.  Pivots are positive: signs and
    ratios are the true ones, and the ratio test compares them by
    cross-multiplication.
    """
    J, k = len(cuts), len(cuts[0][1])
    slack = J + k
    rows = [[e for e, _, _ in cuts] + [0] * k + [1] + [0] * k + [1]]
    rows += [[g[r] for _, g, _ in cuts] + [-int(m == r) for m in range(k)]
             + [int(s == r + 1) for s in range(k + 1)] + [0] for r in range(k)]
    obj = [b for _, _, b in cuts] + [-width] * k + [0] * (k + 2)
    basis = list(range(slack, slack + k + 1))
    det = 1
    while True:
        enter = next((j for j in range(slack + k + 1) if obj[j] > 0), None)
        if enter is None:
            t, *d = (-v for v in obj[slack:-1])
            return t, d, det
        # the primal is feasible, so the dual is bounded and a row qualifies;
        # the least ratio row[-1] / row[enter], ties to the least basic column
        r = None
        for i, row in enumerate(rows):
            p = row[enter]
            if p > 0 and (r is None or row[-1] * den < num * p
                          or row[-1] * den == num * p and basis[i] < basis[r]):
                r, num, den = i, row[-1], p
        pivot, p = rows[r], rows[r][enter]
        for row in rows + [obj]:
            if row is not pivot:
                f = row[enter]
                row[:] = ([(v * p - f * q) // det for v, q in zip(row, pivot)] if f
                          else [v * p // det for v in row])
        det = p
        basis[r] = enter


def _one_cut_bound(cut, width):
    """`_cut_lp([cut], width)`'s optimal t in closed form, as (numerator,
    denominator): one cut (e, g, b) leaves t = max(0, b - width * sum of the
    positive g_n) / e."""
    e, g, b = cut
    return max(0, b - width * sum(v for v in g if v > 0)), e


def _gap_closed(best, num, den):
    """Whether best - num/den <= GAP_TOL * max(1, best): in floats, after
    rounding the bound to a float, when best is a float, and exactly when it
    is exact."""
    bound = num / den if isinstance(best, float) else Fraction(num, den)
    return best - bound <= GAP_TOL * max(1, best)


def best_coefficients(x: SparseVector, support, oracle):
    """Exact minimum over c of ||x - sum_{n in A} c_n e_n||.

    With a suppression constant of 1 it is ||P_{A^c} x||, at c = x_A.  Else
    Kelley's cutting planes: the norming functional f of each residual gives
    the cut t >= f(x) - sum_n c_n f(e_n); with the box |c_n - x_n| <=
    ||P_{A^c} x|| = r (which holds every minimiser, as the norm dominates the
    sup norm) the cuts make an LP whose exact optimum is a lower bound.  The
    loop runs on ints: x and r over one denominator D, so that t and the box
    offsets d = c - x_A + r are D times their true values, and each cut over
    its functional's denominator, divided by its gcd so that a repeated cut
    compares equal.  It stops at a repeated cut (exact on a polyhedral norm)
    or a gap within GAP_TOL, and is unconverged after KELLEY_MAX_CUTS cuts.
    Returns (value, coefficients dict, converged flag): the value is the norm
    at the coefficients, floats for float payloads (one correctly rounded
    division each) and exact otherwise.  A residual norm past the float range
    raises NormDomainError.
    """
    support = tuple(sorted(support))
    if not support:
        return oracle.norm(x), {}, True
    if oracle.certified.get("Ks") == 1:
        return oracle.norm(x.drop(support)), {n: x.get(n) for n in support}, True
    exact = not x.has_float_payload()
    coeffs = [x.get(n) for n in support]
    rest = x.drop(support).entries
    cuts = []
    best = (math.inf, None)
    converged = True
    for _ in range(KELLEY_MAX_CUTS):
        value, f = oracle.norm(x - SparseVector(dict(zip(support, coeffs))), True)
        if value == math.inf:
            raise NormDomainError(f"residual norm on support {support} overflows floats")
        if not cuts:
            # c = (low + d) / D with 0 <= d <= 2r: b = f(x.drop(A)) + r sum g
            (r, *xs), D = over_one_denominator([value, *coeffs, *rest.values()])
            low = [v - r for v in xs[:len(support)]]
            xs_rest = xs[len(support):]
        if value < best[0]:
            best = (value, coeffs)
        fs, e = over_one_denominator([f.get(n) for n in chain(support, rest)])
        g = fs[:len(support)]
        b = sum(v * w for v, w in zip(fs[len(support):], xs_rest)) + r * sum(g)
        h = math.gcd(e, b, *g)
        cut = (e // h, tuple(v // h for v in g), b // h)
        if cut in cuts:
            break
        cuts.append(cut)
        if len(cuts) == 1:
            num, den = _one_cut_bound(cut, 2 * r)
            if _gap_closed(best[0], num, den * D):
                break
        t, d, det = _cut_lp(cuts, 2 * r)
        den = det * D
        if _gap_closed(best[0], t, den):
            break
        coeffs = [Fraction(lo * det + v, den) if exact else (lo * det + v) / den
                  for lo, v in zip(low, d)]
    else:
        converged = False
    value, coeffs = best
    return value, dict(zip(support, coeffs)), converged


# ---------------------------------------------------------------------------
# best m-term errors
# ---------------------------------------------------------------------------


def _enumeration_guard(x: SparseVector, m: int):
    if m < 0:
        raise GreedyError("m must be nonnegative")
    if m > 10 or len(x) > 22:
        raise GreedyError(
            f"support-set enumeration guard: m={m}, support={len(x)}")


@dataclass
class ApproximationResult:
    value: float
    support: tuple
    coefficients: dict
    converged: bool


class _SampleMemo:
    """One sampled vector's work, shared by its configurations (one per order
    m) and keyed on the vector's identity: ||x||, and in `errors` each
    support's error result keyed on (A, free), as best_coefficients returns
    it when the coefficients on A are free, else as (||x.drop(A)||,).  Holds
    one vector at a time, for one oracle."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.x = None

    def at(self, x):
        if x is not self.x:
            self.x, self._norm, self._ranked = x, None, None
            self.errors = {}
        return self

    def norm(self):
        if self._norm is None:
            self._norm = self.oracle.norm(self.x)
        return self._norm

    def off_max(self, A):
        """max |x_n| over n not in A, a lower bound on the error of every
        approximant supported on A: each space's norm dominates the sup norm
        (up to rounding the bound to a float, where the norm is a float;
        _cutoff is a float, so comparing with it loses nothing)."""
        if self._ranked is None:
            self._ranked = _ranked_support(self.x)
        return next((abs(self.x.entries[n]) for n in self._ranked if n not in A), 0)


def _cutoff(best):
    """A support replaces the best one only with an error below this: best
    less a margin of 1e-15, relative below 1.  A support whose off_max is at
    least this cannot win, so it is skipped unsolved."""
    return best - 1e-15 * min(1, best)


def _best_support(x, m, oracle, family, memo, free):
    """The first support A of least error among the empty set and the family
    members of size <= m, as (A, error result): best_coefficients(x, A) when
    the coefficients on A are free, else (||x.drop(A)||,).

    Candidates lie inside the support of x.  With free coefficients, unless
    the space declares a suppression constant of 1, the pool also holds the
    EXTRA_OFFSUPPORT smallest unused indices (a recorded computational
    compromise); an off-support index cannot lower a projection error.  A
    support is solved only if the sup-norm bound max_{n not in A} |x_n| lets
    it beat the best so far, and at most once per `memo` (a _SampleMemo of
    this oracle), which the orders m of one sampled x share.
    """
    _enumeration_guard(x, m)
    memo = (memo or _SampleMemo(oracle)).at(x)
    pool = list(x.support)
    if free and oracle.certified.get("Ks") != 1:
        unused = (i for i in range(1, oracle.dimension_cap + 1) if i not in x.entries)
        pool += islice(unused, EXTRA_OFFSUPPORT)
    best = ((), (memo.norm(), {}, True) if free else (memo.norm(),))
    cutoff = _cutoff(memo.norm())
    for A in family_members_within(family, pool, m)[1:]:
        if memo.off_max(A) >= cutoff:
            continue
        error = memo.errors.get((A, free))
        if error is None:
            error = memo.errors[A, free] = (best_coefficients(x, A, oracle) if free
                                            else (oracle.norm(x.drop(A)),))
        if error[0] < cutoff:
            best = (A, error)
            cutoff = _cutoff(error[0])
    return best


def sigma_m(x: SparseVector, m: int, oracle, family, memo=None) -> ApproximationResult:
    """Best m-term error over the family with free coefficients (see
    _best_support); the empty support is always admissible."""
    A, (value, coeffs, converged) = _best_support(x, m, oracle, family, memo, True)
    return ApproximationResult(value, A, coeffs, converged)


def almost_greedy_error(x: SparseVector, m: int, oracle, family, memo=None):
    """Best m-term projection error over the family, as (error, support);
    exact minimum by enumeration (see _best_support)."""
    A, (value,) = _best_support(x, m, oracle, family, memo, False)
    return value, A


# ---------------------------------------------------------------------------
# constant estimators (certified lower bounds with reproducible witnesses)
# ---------------------------------------------------------------------------


@dataclass
class SearchSpec:
    seed: int = 0
    samples: int = 200
    support_cap: int = 6
    index_range: int = 64
    set_size_cap: int = 6
    m_cap: int = 3
    template: str | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**vars(self), "extras": dict(sorted(self.extras.items()))}


@dataclass
class ConstantEstimate:
    constant_name: str
    lower_bound: float
    witness: dict
    sampling_spec: dict

    def to_dict(self) -> dict:
        return {
            "constant": self.constant_name,
            "lower_bound": self.lower_bound,
            "witness": self.witness,
            "spec": self.sampling_spec,
        }


def _random_vector(rng, spec: SearchSpec, cap: int) -> SparseVector:
    size = rng.randint(1, spec.support_cap)
    hi = min(spec.index_range, cap)
    indices = rng.sample(range(1, hi + 1), min(size, hi))
    mode = rng.choice(("signs", "uniform", "decay"))
    entries = {}
    for rank, i in enumerate(sorted(indices), start=1):
        if mode == "signs":
            entries[i] = float(rng.choice((-1, 1)))
        elif mode == "uniform":
            entries[i] = rng.uniform(-1.0, 1.0)
        else:
            entries[i] = rng.choice((-1.0, 1.0)) / math.sqrt(rank)
    return SparseVector(entries)


def _random_family_member(rng, family, pool, size_cap: int) -> tuple:
    """Grow a random member by attempted insertions (hereditary families)."""
    member = ()
    candidates = sorted(pool)
    rng.shuffle(candidates)
    for i in candidates:
        if len(member) >= size_cap:
            break
        cand = tuple(sorted(member + (i,)))
        if family.contains(cand):
            member = cand
    return member


def _ratio(name: str, oracle, family, cfg: dict, memo=None) -> float:
    """The defining ratio of constant `name` on one configuration, whose
    vector fields are SparseVectors; 0 when its denominator is below 1e-9.
    `memo`, a _SampleMemo of oracle, carries ||x|| and σ_m's support errors
    across the configurations of one sampled x."""
    memo = memo or _SampleMemo(oracle)
    if name in ("Cd", "Csd"):
        num, den = oracle.norm(cfg["vector_A"]), oracle.norm(cfg["vector_B"])
    elif name == "Cb":
        num, den = oracle.norm(cfg["lhs"]), oracle.norm(cfg["rhs"])
    elif name in ("Cw", "Cl", "Ks"):
        x = cfg["vector"]
        if name == "Ks":
            part = x.drop(cfg["set"])
        else:
            res = greedy_set(x, cfg["m"])
            part = res.approximant if name == "Cw" else res.residual
        num, den = oracle.norm(part), memo.at(x).norm()
    elif name in ("Cg", "Ca"):
        x, m = cfg["vector"], cfg["m"]
        num = oracle.norm(greedy_set(x, m).residual)
        if name == "Cg":
            den = sigma_m(x, m, oracle, family, memo).value
        else:
            den = almost_greedy_error(x, m, oracle, family, memo)[0]
    else:
        raise GreedyError(f"unknown constant {name!r}")
    return num / den if den >= 1e-9 else 0.0


def _wire(cfg: dict) -> dict:
    return {k: v.to_wire() if isinstance(v, SparseVector) else v
            for k, v in cfg.items()}


def evaluate_witness(name: str, oracle, family, witness: dict) -> float:
    """Recompute the ratio a witness claims; reproducibility check.  Vector
    fields travel as wire strings, the only strings besides the kind."""
    if witness.get("kind") == "trivial":
        return 1.0
    cfg = {k: SparseVector.parse(v) if isinstance(v, str) else v
           for k, v in witness.items() if k != "kind"}
    return _ratio(name, oracle, family, cfg)


def _template_configs(name, oracle, family, spec):
    """Named adversarial configurations; deterministic."""
    template = spec.template
    if template is None:
        return
    if template == "kt-alternating":
        N = oracle.meta.get("window")
        if N is None:
            raise GreedyError("kt-alternating template needs a window space")
        entries = {}
        for i in range(N, 2 * N):
            entries[i] = ((-1) ** i) / math.sqrt(i - N + 1)
        x = SparseVector(entries)
        if name == "Ks":
            # removing either sign class is admissible; which one leaves the
            # heavier running sums depends on the parity of the window start
            for A in (tuple(i for i, v in x.entries.items() if v > 0),
                      tuple(i for i, v in x.entries.items() if v < 0)):
                if family.contains(A):
                    yield {"vector": x, "set": list(A)}
    elif template == "parity-odd-even":
        k = spec.extras.get("k", 100)
        A = tuple(range(2, 2 * k + 1, 2))
        B = tuple(range(1, 2 * k, 2))
        if name in ("Cd", "Csd") and family.contains(A):
            yield {"A": list(A), "B": list(B),
                   "vector_A": SparseVector.indicator(A, 1.0),
                   "vector_B": SparseVector.indicator(B, 1.0)}
    else:
        raise GreedyError(f"unknown template {template!r}")


def _disjoint_sets(rng, oracle, family, spec: SearchSpec, spare: int):
    """A random family member A and a set B disjoint from it with |A| <= |B|,
    both in 1..min(index_range, dimension cap), leaving at least `spare` of
    those indices outside A and B: (A, B, the indices outside A), or None
    when the draw is degenerate."""
    pool = range(1, min(spec.index_range, oracle.dimension_cap) + 1)
    A = _random_family_member(rng, family, pool, spec.set_size_cap)
    if not A:
        return None
    rest = [i for i in pool if i not in set(A)]
    if len(rest) < len(A) + spare:
        return None
    size = rng.randint(len(A), min(len(rest) - spare, max(len(A), spec.set_size_cap)))
    return A, tuple(sorted(rng.sample(rest, size))), rest


def _sampled_configs(name, rng, oracle, family, spec: SearchSpec):
    """Random configurations for constant `name` from spec.samples rounds of
    draws from rng; a round whose draw is degenerate yields nothing."""
    for _ in range(spec.samples):
        if name in ("Cd", "Csd"):
            drawn = _disjoint_sets(rng, oracle, family, spec, 0)
            if drawn is None:
                continue
            A, B, _ = drawn
            if name == "Cd":
                xa = SparseVector.indicator(A, 1.0)
                xb = SparseVector.indicator(B, 1.0)
            else:
                xa = SparseVector.signed_indicator(A, [float(rng.choice((-1, 1))) for _ in A])
                xb = SparseVector.signed_indicator(B, [float(rng.choice((-1, 1))) for _ in B])
            yield {"A": list(A), "B": list(B), "vector_A": xa, "vector_B": xb}
        elif name == "Cb":
            cfg = _random_property_config(rng, oracle, family, spec)
            if cfg is not None:
                lhs, rhs = _property_sides(cfg)
                yield {"lhs": lhs, "rhs": rhs}
        else:
            x = _random_vector(rng, spec, oracle.dimension_cap)
            if name == "Ks":
                A = _random_family_member(rng, family, x.support, spec.set_size_cap)
                if A:
                    yield {"vector": x, "set": list(A)}
            elif name in ("Cw", "Cl"):
                for m in range(1, len(x) + 1):
                    yield {"vector": x, "m": m}
            elif len(x) >= 2:
                for m in range(1, min(spec.m_cap, len(x)) + 1):
                    yield {"vector": x, "m": m}


def _max_ratio(name, oracle, family, configs, floor):
    """The largest `_ratio` over the (kind, configuration) pairs, under one
    _SampleMemo, and the first pair attaining it; (floor, None) when no ratio
    exceeds floor."""
    memo = _SampleMemo(oracle)
    best, top = floor, None
    for kind, cfg in configs:
        ratio = _ratio(name, oracle, family, cfg, memo)
        if ratio > best:
            best, top = ratio, (kind, cfg)
    return best, top


def estimate_constant(name: str, oracle, family, spec: SearchSpec) -> ConstantEstimate:
    """Certified lower bound for a named greedy-type constant.

    The bound is the supremum of the defining ratio over explored
    configurations, never an upper bound; re-running with the same spec is
    bit-identical.  Degenerate searches report 1 with a trivial witness.
    """
    if name not in CONSTANT_NAMES:
        raise GreedyError(f"unknown constant {name!r}; pick from {CONSTANT_NAMES}")
    templated = ((f"template:{spec.template}", cfg)
                 for cfg in _template_configs(name, oracle, family, spec))
    sampled = (("sampled", cfg) for cfg in _sampled_configs(
        name, random.Random(spec.seed), oracle, family, spec))
    best, top = _max_ratio(name, oracle, family, chain(templated, sampled), 1.0)
    witness = {"kind": "trivial"} if top is None else {"kind": top[0], **_wire(top[1])}
    return ConstantEstimate(name, best, witness, spec.to_dict())


# ---------------------------------------------------------------------------
# property-(A) checks
# ---------------------------------------------------------------------------


@dataclass
class PropertyConfig:
    """x with sup-norm <= 1, A in the family, B disjoint with |A| <= |B|,
    signs on A and coefficients of modulus >= 1 on B."""
    x: SparseVector
    A: tuple
    B: tuple
    signs: dict
    b: dict


def _property_sides(cfg: PropertyConfig):
    lhs = cfg.x + SparseVector({i: cfg.signs[i] for i in cfg.A})
    rhs = cfg.x + SparseVector({n: cfg.b[n] for n in cfg.B})
    return lhs, rhs


def _random_property_config(rng, oracle, family, spec) -> PropertyConfig | None:
    drawn = _disjoint_sets(rng, oracle, family, spec, 1)
    if drawn is None:
        return None
    A, B, rest = drawn
    left = [i for i in rest if i not in set(B)]
    supp_size = rng.randint(0, min(len(left), spec.support_cap))
    supp = tuple(sorted(rng.sample(left, supp_size)))
    x = SparseVector({i: rng.uniform(-1.0, 1.0) for i in supp})
    signs = {i: float(rng.choice((-1, 1))) for i in A}
    b = {n: float(rng.choice((-1, 1))) * rng.choice((1.0, 1.5, 2.0)) for n in B}
    return PropertyConfig(x, A, B, signs, b)


def property_A_check(oracle, family, cfg: PropertyConfig, certified_bound=None):
    """Evaluate both sides of the sign-splitting comparability inequality.

    Returns the direct ratio, the projection-form ratio computed from the same
    configuration, and (when a certified constant is supplied) whether the
    direct ratio stays below it.
    """
    if float(cfg.x.inf_norm() or 0.0) > 1.0 + 1e-12:
        raise GreedyError("config x must have sup-norm at most 1")
    if not family.contains(cfg.A):
        raise GreedyError("config A must belong to the family")
    if len(cfg.A) > len(cfg.B):
        raise GreedyError("config needs |A| <= |B|")
    sets = set(cfg.A) | set(cfg.B)
    if len(sets) != len(cfg.A) + len(cfg.B) or sets & set(cfg.x.support):
        raise GreedyError("config sets must be pairwise disjoint from the support")
    if any(abs(v) < 1.0 - 1e-12 for v in cfg.b.values()):
        raise GreedyError("config coefficients on B must have modulus >= 1")
    lhs, rhs = _property_sides(cfg)
    ratio = _ratio("Cb", oracle, family, {"lhs": lhs, "rhs": rhs})
    # projection form on the same configuration: A is disjoint from the
    # support, so projecting it away leaves x alone
    p_ratio = oracle.norm(cfg.x) / oracle.norm(rhs) if cfg.x.entries else 0.0
    out = {"ratio": ratio, "projection_ratio": p_ratio}
    if certified_bound is not None:
        out["within_bound"] = ratio <= certified_bound + 1e-9
    return out


# ---------------------------------------------------------------------------
# theorem cross-checks
# ---------------------------------------------------------------------------


@dataclass
class TheoremSuiteSpec:
    seed: int = 0
    samples: int = 100
    sign_sets: int = 20
    sign_set_size: int = 8
    grid_dim: int = 4
    m_cap: int = 3
    certified: dict = field(default_factory=dict)


def _grid_equality_check(oracle, family, dim: int, tol: float = 1e-6):
    """Exhaustive {-1,0,1} coefficient grids: the almost-greedy constant and
    the sign-splitting constant coincide, because the two configuration pools
    map into each other (unit coefficients keep every transformed vector on
    the grid).  Returns both maxima and the verdict."""
    idxs = tuple(range(1, dim + 1))
    table = {t: oracle.norm(SparseVector({i: v for i, v in zip(idxs, t) if v}))
             for t in product((-1.0, 0.0, 1.0), repeat=dim)}

    def norm_of(entries: dict) -> float:
        key = tuple(float(entries.get(i, 0.0)) for i in idxs)
        return table[key]

    members = [A for A in _all_subsets(idxs) if family.contains(A)]
    member_set = set(members)

    max_a = 1.0
    for t in product((-1.0, 0.0, 1.0), repeat=dim):
        supp = tuple(i for i, v in zip(idxs, t) if v)
        if not supp:
            continue
        x = {i: v for i, v in zip(idxs, t) if v}
        drop_norm = {}
        for A in _all_subsets(supp):
            drop_norm[A] = norm_of({i: v for i, v in x.items() if i not in set(A)})
        for m in range(1, len(supp) + 1):
            denom = min(drop_norm[A] for A in drop_norm
                        if len(A) <= m and A in member_set)
            for lam in combinations(supp, m):
                num = drop_norm[lam]
                if denom < 1e-12:
                    continue
                ratio = num / denom
                if ratio > max_a:
                    max_a = ratio

    max_b = 1.0
    roles = ("x-", "x0", "x+", "A-", "A+", "B-", "B+")
    for assign in product(roles, repeat=dim):
        A = tuple(i for i, r in zip(idxs, assign) if r.startswith("A"))
        B = tuple(i for i, r in zip(idxs, assign) if r.startswith("B"))
        if len(A) > len(B) or A not in member_set:
            continue
        # x, x + signs on A and x + coefficients on B; the roles are disjoint
        signed = {i: (r[0], -1.0 if r[1] == "-" else 1.0)
                  for i, r in zip(idxs, assign) if r != "x0"}
        x, lhs, rhs = ({i: v for i, (role, v) in signed.items() if role in kinds}
                       for kinds in ("x", "xA", "xB"))
        denom = norm_of(rhs)
        if denom < 1e-12:
            continue
        ratio = norm_of(lhs) / denom
        if ratio > max_b:
            max_b = ratio
        # projection form: same A and B, x may now overlap A
        if x:
            p_ratio = norm_of(x) / denom
            if p_ratio > max_b:
                max_b = p_ratio
    return {"max_almost_greedy": max_a, "max_sign_splitting": max_b,
            "difference": abs(max_a - max_b), "equal": abs(max_a - max_b) <= tol}


def _all_subsets(items: tuple):
    return [c for size in range(len(items) + 1) for c in combinations(items, size)]


def theorem_suite(oracle, family, spec: TheoremSuiteSpec) -> dict:
    """Cross-checks the characterization inequalities predict on samples.

    (a) greedy residual against the product of certified constants when both
    are supplied, else recorded-only; (b) sign-flip comparability against a
    certified suppression constant; (c) exact equality of the almost-greedy
    and sign-splitting maxima on fully enumerated small grids.
    """
    rng = random.Random(spec.seed)
    checks = []

    ks = spec.certified.get("Ks")
    cb = spec.certified.get("Cb")
    sampling = SearchSpec(samples=spec.samples, m_cap=spec.m_cap)
    configs = (("sampled", cfg) for cfg in _sampled_configs(
        "Cg", rng, oracle, family, sampling))
    worst, top = _max_ratio("Cg", oracle, family, configs, 0.0)
    worst_wit = None if top is None else _wire(top[1])
    if ks is not None and cb is not None:
        ok = worst <= ks * cb + 1e-9
        checks.append({"name": "greedy-ratio-vs-certified-product",
                       "status": "PASS" if ok else "FAIL",
                       "value": worst, "bound": ks * cb, "witness": worst_wit})
    else:
        checks.append({"name": "greedy-ratio-recorded", "status": "RECORDED",
                       "value": worst, "witness": worst_wit})

    cl = spec.certified.get("Cl")
    if cl is not None:
        bad = None
        hi = min(oracle.dimension_cap, 64)
        for _ in range(spec.sign_sets):
            size = rng.randint(1, spec.sign_set_size)
            A = tuple(sorted(rng.sample(range(1, hi + 1), size)))
            base = oracle.norm(SparseVector.indicator(A, 1.0))
            for signs in product((-1.0, 1.0), repeat=size):
                val = oracle.norm(SparseVector.signed_indicator(A, signs))
                if val > 2 * cl * base + 1e-9 or val < base / (2 * cl) - 1e-9:
                    bad = {"set": list(A), "signs": list(signs), "value": val,
                           "base": base}
                    break
            if bad:
                break
        checks.append({"name": "sign-flip-comparability",
                       "status": "FAIL" if bad else "PASS",
                       "bound_factor": 2 * cl, "witness": bad})
    else:
        checks.append({"name": "sign-flip-comparability", "status": "RECORDED",
                       "witness": None})

    grid = _grid_equality_check(oracle, family, min(spec.grid_dim,
                                                    oracle.dimension_cap))
    checks.append({"name": "grid-constant-equality",
                   "status": "PASS" if grid["equal"] else "FAIL", **grid})
    return {"space": oracle.name, "family": getattr(family, "label", str(family)),
            "checks": checks}

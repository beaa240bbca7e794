import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greedylab.norms import (NormDomainError, block_sum_norm, kt_block_norm,
                             mixed_parity_norm)
from greedylab.spaces import make_space
from greedylab.vectors import SparseVector
from references import kt_block_of, kt_global_index


def harmonic(n):
    return sum(1.0 / i for i in range(1, n + 1))


def test_kt_window_closed_forms():
    N = 4
    pos = SparseVector({i: 1 / math.sqrt(i - N + 1) for i in range(N, 2 * N)})
    assert abs(kt_block_norm(pos, N) - 25 / 12) < 1e-12
    alt = SparseVector({i: (-1) ** i / math.sqrt(i - N + 1) for i in range(N, 2 * N)})
    assert abs(kt_block_norm(alt, N) - math.sqrt(25 / 12)) < 1e-12
    flat = SparseVector({i: 1.0 for i in range(N, 2 * N)})
    expected = sum(1 / math.sqrt(j) for j in range(1, N + 1))
    assert abs(kt_block_norm(flat, N) - expected) < 1e-12


def test_kt_window_domain():
    with pytest.raises(NormDomainError):
        kt_block_norm(SparseVector({8: 1.0}), 4)


def test_euclidean_parts_survive_under_and_overflow():
    # each entry's square is 0.0 or inf, and a lone entry's norm is its modulus
    cases = [(lambda x: kt_block_norm(x, 2), 1, 1e-200),
             (lambda x: block_sum_norm(x, "l2"), 3, 1e-170),
             (mixed_parity_norm, 1, 1e-200)]
    for norm, index, tiny in cases:
        for value in (tiny, 1e200):
            assert norm(SparseVector({index: value})) == value
    # finite squares whose exact sum overflows on the way
    pair = math.hypot(1e154, 1e154)
    assert kt_block_norm(SparseVector({1: 1e154, 2: 1e154}), 2) == pair
    assert block_sum_norm(SparseVector({1: 1e154, 2: 1e154}), "l2") == pair
    assert mixed_parity_norm(SparseVector({1: 1e154, 3: 1e154})) == pair
    assert mixed_parity_norm(SparseVector({2: 1e308, 4: 1e308})) == math.inf


def dense_kt_block_norm(x, N, want_witness=False):
    """The window norm by a scan over every index of the window, as the
    library computed it before it scanned only the support."""
    hi = 2 * N - 1
    squares = []
    for i, a in x.entries.items():
        if i > hi:
            raise NormDomainError(f"index {i} outside the window space [1..{hi}]")
        squares.append(float(a) * float(a))
    try:
        total = math.fsum(squares)
    except OverflowError:
        total = math.inf
    l2 = (math.sqrt(total) if 2.0 ** -969 <= total < math.inf
          else math.hypot(*map(float, x.entries.values())))
    best = 0.0
    running = 0.0
    for i in range(N, hi + 1):
        a = x.entries.get(i)
        if a:
            running += float(a) / math.sqrt(i - N + 1)
            mag = abs(running)
            if mag > best:
                best = mag
                peak, top = running, i
    value = l2 if l2 >= best else best
    if not want_witness:
        return value
    if value == math.inf:
        raise NormDomainError("the norm overflows floats")
    if l2 >= best:
        c = 1 / l2 if l2 else 0
        if c == math.inf:  # 1/l2 overflows: the entries are divided by l2
            return value, SparseVector({i: float(a) / l2
                                        for i, a in x.entries.items()})
        return value, x.scale(c)
    return value, SparseVector({i: math.copysign(1 / math.sqrt(i - N + 1), peak)
                                for i in range(N, top + 1)})


def dense_block_sum_norm(x, outer, want_witness=False):
    """block_sum_norm with one SparseVector per block, each through the
    dense window scan."""
    per_block = {}
    for g, a in x.entries.items():
        N, local = kt_block_of(g)
        per_block.setdefault(N, {})[local] = a
    blocks = sorted(per_block.items())
    norms = [dense_kt_block_norm(SparseVector(entries), N) for N, entries in blocks]
    if outer == "c0":
        value = max(norms, default=0.0)
    else:
        try:
            total = math.fsum(v * v for v in norms)
        except OverflowError:
            total = math.inf
        value = (math.sqrt(total) if 2.0 ** -969 <= total < math.inf
                 else math.hypot(*norms))
    if not want_witness:
        return value
    if value == math.inf:
        raise NormDomainError("the norm overflows floats")
    parts = [dense_kt_block_norm(SparseVector(entries), N, True)
             for N, entries in blocks]
    top = norms.index(value) if outer == "c0" and norms else None
    f = {}
    for k, ((N, _), (v, part)) in enumerate(zip(blocks, parts)):
        w = float(k == top) if outer == "c0" else (v / value if value else 0.0)
        for local, c in part.entries.items():
            f[kt_global_index(N, local)] = w * c
    return value, SparseVector(f)


_FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)
_HUGE = st.floats(1e154, 1e308).flatmap(lambda f: st.sampled_from((f, -f)))
_SUBNORMAL = st.floats(-2.0 ** -1022, 2.0 ** -1022, allow_subnormal=True)
# the payloads the evaluators accept: floats of every range, ints past 2^53,
# Fractions (some too small for a float), and +-1 for tied blocks
_PAYLOADS = st.one_of(
    _FLOATS, st.floats(allow_nan=False, allow_infinity=False), _HUGE, _SUBNORMAL,
    st.integers(-2 ** 70, 2 ** 70), st.fractions(max_denominator=10 ** 6),
    st.integers(1, 10 ** 6).map(lambda k: Fraction(k, 10 ** 330)),
    st.sampled_from((1, -1.0)))


def _outcome(norm, *args):
    # a norm past the float range has no norming functional: both
    # implementations refuse to build one
    try:
        return norm(*args)
    except NormDomainError as exc:
        return type(exc)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(N=st.integers(1, 40), data=st.data())
def test_window_norm_matches_dense_scan(N, data):
    x = data.draw(st.dictionaries(st.integers(1, 2 * N - 1), _PAYLOADS,
                                  max_size=2 * N - 1).map(SparseVector))
    assert kt_block_norm(x, N) == dense_kt_block_norm(x, N)
    assert (_outcome(kt_block_norm, x, N, True)
            == _outcome(dense_kt_block_norm, x, N, True))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.dictionaries(st.integers(1, 2000), _PAYLOADS, max_size=40).map(SparseVector),
       st.sampled_from(("c0", "l2")))
# the block's Euclidean part and the total overflow: the functional is refused
@example(SparseVector({2: 1.7e308, 3: 1.7e308}), "l2")
def test_block_sum_norm_matches_dense_scan(x, outer):
    assert block_sum_norm(x, outer) == dense_block_sum_norm(x, outer)
    assert (_outcome(block_sum_norm, x, outer, True)
            == _outcome(dense_block_sum_norm, x, outer, True))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(1, 45), st.tuples(st.integers(0, 99), _PAYLOADS),
                       min_size=1, max_size=8))
def test_one_point_blocks_are_their_modulus(picks):
    # one point per block: block N's local index is drawn in [1..2N-1]
    x = SparseVector({kt_global_index(N, 1 + k % (2 * N - 1)): a
                      for N, (k, a) in picks.items()})
    moduli = [abs(float(a)) for a in x.entries.values()]
    for (g, a), modulus in zip(x.entries.items(), moduli):
        N, local = kt_block_of(g)
        alone = SparseVector({local: a})
        assert kt_block_norm(alone, N) == modulus
        for outer in ("c0", "l2"):
            assert block_sum_norm(SparseVector({g: a}), outer) == modulus
    assert block_sum_norm(x, "c0") == max(moduli, default=0.0)
    witness = _outcome(block_sum_norm, x, "c0", True)
    assert witness == _outcome(dense_block_sum_norm, x, "c0", True)
    if witness is not NormDomainError and 0 < witness[0] and 1 / witness[0] < math.inf:
        # the c0 witness lives on the first block attaining the max
        value, f = witness
        g = next(g for g, m in zip(x.entries, moduli) if m == value)
        assert list(f.entries) == [g]
        assert f.entries[g] == (1 / value) * float(x.entries[g])


def test_float_range_faults_are_domain_errors():
    # block 4's peak partial sum overflows while its Euclidean part does not:
    # the block's l2 weight v / value was inf / inf, and a NaN entry raised
    # VectorError
    x = SparseVector({10: -6.060828308873061e+307, 13: 1.0819115672673157e+308,
                      14: 1.2131549338950908e+308})
    assert block_sum_norm(x, "l2") == math.inf
    for outer in ("c0", "l2"):
        with pytest.raises(NormDomainError, match="no norming functional"):
            block_sum_norm(x, outer, True)
    with pytest.raises(NormDomainError, match="no norming functional"):
        kt_block_norm(SparseVector({3: 1.7e308, 4: 1.7e308}), 3, True)
    with pytest.raises(NormDomainError, match="no norming functional"):
        mixed_parity_norm(SparseVector({2: 1e308, 4: 1e308}), True)
    # an int or Fraction past the float range: float() raised OverflowError
    for huge in (2 ** 1100, -2 ** 1100, Fraction(10 ** 400, 3)):
        for norm in (lambda x, w: kt_block_norm(x, 2, w),
                     lambda x, w: block_sum_norm(x, "c0", w),
                     lambda x, w: block_sum_norm(x, "l2", w),
                     mixed_parity_norm):
            for want in (False, True):
                with pytest.raises(NormDomainError,
                                   match="a coefficient overflows floats"):
                    norm(SparseVector({1: 1.0, 3: huge}), want)
    # an index past the window is refused before anything is converted
    with pytest.raises(NormDomainError, match=r"index 4 outside the window space \[1..3\]"):
        kt_block_norm(SparseVector({1: 2 ** 1100, 4: 1.0, 5: 1.0}), 2)


def test_functionals_stay_finite_at_subnormal_block_norms():
    # 1/l2 overflows below about 5.6e-309, so these entries are x / l2
    assert kt_block_norm(SparseVector({1: 5e-324}), 1, True) == (
        5e-324, SparseVector({1: 1.0}))
    # the inactive block's weight 0.0 met 1/l2 = inf here and made a nan
    assert block_sum_norm(SparseVector({1: 1.0, 2: 2.2e-309}), "c0", True) == (
        1.0, SparseVector({1: 1.0}))


def test_c0_witness_takes_the_first_tied_block():
    # blocks 2 and 3 hold the same pattern, so their norms tie at sqrt(2)
    x = SparseVector({kt_global_index(2, 1): 1.0, kt_global_index(2, 3): -1.0,
                      kt_global_index(3, 2): 1.0, kt_global_index(3, 4): -1.0})
    value, f = block_sum_norm(x, "c0", True)
    assert value == math.sqrt(2.0)
    assert (value, f) == dense_block_sum_norm(x, "c0", True)
    assert f.support == (2, 4)


def test_dimension_cap_names_the_top_index():
    with pytest.raises(NormDomainError, match="support index 16 exceeds the cap 15"):
        make_space("kt:N=8").norm(SparseVector({3: 1.0, 16: 2.0}))


def test_functional_requests_check_the_dimension_cap():
    with pytest.raises(NormDomainError, match="support index 16 exceeds the cap 15"):
        make_space("kt:N=8").norm(SparseVector({16: 1.0}), want_functional=True)
    with pytest.raises(NormDomainError, match="exceeds the cap 512"):
        make_space("james:a=1").norm(SparseVector({513: 1.0}), want_functional=True)


@pytest.mark.parametrize("descriptor, message", [
    ("kt:N=0", "N >= 1"), ("kt:N=-3", "N >= 1"),
    ("kt:N=4,M=3", "space kt takes no option 'M'"),
    ("walpha:a=1,size=3", "space walpha takes no option 'size'"),
    ("walpha:a=1,blocks=x", "walpha blocks and n0 are ints"),
    ("parity:junk", "bad space option 'junk'"),
    ("parity:a=1", "space parity takes no option 'a'"),
    ("bogus", "unknown space descriptor")])
def test_make_space_refuses_bad_descriptors(descriptor, message):
    with pytest.raises(NormDomainError, match=message):
        make_space(descriptor)


def test_weighted_functional_reads_the_best_block():
    # the first level-1 block [3..23] has unit mass, so min F * mass = 3 wins
    oracle = make_space("walpha:a=1")
    x = SparseVector.indicator(range(3, 24), -1)
    value, f = oracle.norm(x, want_functional=True)
    assert value == 3 and _dot(f, x) == 3
    assert f.get(3) == Fraction(-1, 3) and f.get(23) == Fraction(-1, 12)
    # below that the sup part wins, at the first largest entry
    value, f = oracle.norm(SparseVector({4: 0.5, 7: -2.0, 9: 2.0}), True)
    assert (value, f) == (2.0, SparseVector({7: -1}))


def test_global_block_layout():
    assert [kt_global_index(N, 1) for N in (1, 2, 3, 4)] == [1, 2, 5, 10]
    for g in range(1, 200):
        N, local = kt_block_of(g)
        assert kt_global_index(N, local) == g
        assert 1 <= local <= 2 * N - 1


def test_block_sum_examples():
    A = [kt_global_index(4, i) for i in range(4, 8)]
    expected = sum(1 / math.sqrt(j) for j in range(1, 5))
    assert abs(block_sum_norm(SparseVector.indicator(A, 1.0), "c0") - expected) < 1e-12
    for outer in ("c0", "l2"):
        assert block_sum_norm(SparseVector.basis(17), outer) == 1.0
    firsts = [kt_global_index(N, 1) for N in range(1, 5)]
    assert abs(block_sum_norm(SparseVector.indicator(firsts, 1.0), "l2") - 2.0) < 1e-12


def test_parity_examples():
    assert mixed_parity_norm(SparseVector.indicator([1, 3, 5, 7], 1.0)) == 2.0
    assert mixed_parity_norm(SparseVector.indicator([8, 10, 12, 14], 1.0)) == 4.0
    assert mixed_parity_norm(SparseVector()) == 0.0


def test_suppression_project():
    x = SparseVector({2: 1.0, 5: 1.0})
    assert x.restrict(()) == SparseVector()
    assert x.restrict(x.support) == x
    assert x.restrict((2,)) == SparseVector({2: 1.0})


SPACES = ("kt:N=8", "ktsum:c0", "ktsum:l2", "parity", "schreier:a=1",
          "james:a=1", "walpha:a=1")


@pytest.mark.parametrize("descriptor", SPACES)
def test_norm_axioms_sampled(descriptor):
    oracle = make_space(descriptor)
    rng = random.Random(hash(descriptor) % (2 ** 31))
    cap = min(oracle.dimension_cap, 15)
    for _ in range(300):
        size = rng.randint(1, min(6, cap))
        xs = SparseVector({i: rng.uniform(-2, 2)
                           for i in rng.sample(range(1, cap + 1), size)})
        ys = SparseVector({i: rng.uniform(-2, 2)
                           for i in rng.sample(range(1, cap + 1), size)})
        nx, ny = oracle.norm(xs), oracle.norm(ys)
        if xs.entries:
            assert nx > 0
        lam = rng.uniform(-3, 3)
        scaled = oracle.norm(xs.scale(lam))
        assert abs(scaled - abs(lam) * nx) <= 1e-12 * max(1.0, abs(lam) * nx)
        tri = oracle.norm(xs + ys)
        assert tri <= nx + ny + 1e-12 * max(1.0, nx + ny)
    assert oracle.norm(SparseVector()) == 0


@pytest.mark.parametrize("descriptor", SPACES)
def test_basis_bounds_certified(descriptor):
    oracle = make_space(descriptor)
    rng = random.Random(5)
    cap = min(oracle.dimension_cap, 100)
    c1, c2 = 1.0, 1.0  # every space here has a normalised 1-bounded basis
    for n in sorted(rng.sample(range(1, cap + 1), 12)):
        assert abs(oracle.norm(SparseVector.basis(n)) - 1.0) < 1e-12
    for _ in range(50):
        size = rng.randint(1, min(6, cap))
        x = SparseVector({i: rng.uniform(-2, 2)
                          for i in rng.sample(range(1, cap + 1), size)})
        nx = oracle.norm(x)
        for i, v in x.items():
            # coordinate functionals are bounded by c2 on every space here
            assert abs(v) <= c2 * nx + 1e-12
    assert c1 <= 1.0 <= c2


def test_kt_quasi_greedy_bound_sampled():
    from greedylab.greedy import greedy_set

    rng = random.Random(101)
    bound = 3.0 + math.sqrt(2.0)
    for N in (2, 4, 8):
        dim = 2 * N - 1
        for _ in range(300):
            size = rng.randint(1, dim)
            x = SparseVector({i: rng.uniform(-1, 1)
                              for i in rng.sample(range(1, dim + 1), size)})
            nx = kt_block_norm(x, N)
            for m in range(1, len(x) + 1):
                approx = greedy_set(x, m).approximant
                assert kt_block_norm(approx, N) <= bound * nx + 1e-9


def test_l2_sum_democracy_sampled():
    rng = random.Random(55)
    for _ in range(500):
        size = rng.randint(1, 60)
        A = rng.sample(range(1, 2000), size)
        norm = block_sum_norm(SparseVector.indicator(A, 1.0), "l2")
        assert math.sqrt(size) - 1e-9 <= norm <= 2 * math.sqrt(size) + 1e-9


def test_parity_suppression_unconditional_sampled():
    rng = random.Random(77)
    for _ in range(300):
        size = rng.randint(1, 8)
        x = SparseVector({i: rng.uniform(-1, 1)
                          for i in rng.sample(range(1, 30), size)})
        A = rng.sample(list(x.support), rng.randint(0, len(x)))
        assert mixed_parity_norm(x.drop(A)) <= mixed_parity_norm(x) + 1e-12


def _dot(f, z):
    return sum(f.get(i) * v for i, v in z.items())


@pytest.mark.parametrize("descriptor, top", [
    ("james:a=1", 16), ("james:a=2", 16), ("kt:N=8", 15), ("ktsum:c0", 40),
    ("ktsum:l2", 40), ("parity", 20), ("schreier:a=1", 20),
    ("schreier:a=2", 20), ("walpha:a=1", 40), ("walpha:a=0", 20)])
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_norming_functionals(descriptor, top, data):
    # the cutting planes of sigma_m are valid only if f_y attains the norm
    # at y and nowhere exceeds it
    oracle = make_space(descriptor)
    coeffs = st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 10 ** 6)
    vectors = st.dictionaries(st.integers(1, top), coeffs,
                              max_size=8).map(SparseVector)
    y, z = data.draw(vectors), data.draw(vectors)
    value, f = oracle.norm(y, want_functional=True)
    assert value == oracle.norm(y)
    assert abs(_dot(f, y) - value) <= 1e-12 * value
    # probes: z, and y moved along each coordinate, gaps of its support too
    steps = [SparseVector({n: t * value}) for n in range(1, top + 1)
             for t in (-0.01, 0.01)]
    for w in [z] + [y + step for step in steps]:
        assert abs(_dot(f, w)) <= oracle.norm(w) * (1 + 1e-12)

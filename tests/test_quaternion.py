"""Arithmetic, enumeration, division, and factorization tests.

The enumeration tests check against a brute-force doubled-coordinate
lattice scan written here from scratch, so the two counting paths share
no code.
"""

import functools
import gc
import itertools
import math
import random
import signal
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpfree import quaternion
from gpfree.counting import factorize, is_rational_prime
from gpfree.greedy import build_greedy
from gpfree.quaternion import (
    ONE,
    HurwitzInt,
    ModelledFactorization,
    _collector_paused,
    _least_right_associate,
    _mul,
    _norm_coords,
    _norm_rows,
    _right_gcd,
    enumerate_norm,
    factor_modelled,
    format_elements,
    format_norm,
    is_gp_triple,
    left_divide,
    units,
)

ZERO = HurwitzInt(0, 0, 0, 0)


def brute_force_norm_class(n):
    """Scan all doubled-coordinate vectors with shared parity and norm n."""
    found = []
    lim = 2 * math.isqrt(n) + 2
    rng = range(-lim, lim + 1)
    for da in rng:
        for db in rng:
            for dc in rng:
                rem = 4 * n - da * da - db * db - dc * dc
                if rem < 0:
                    continue
                dd = math.isqrt(rem)
                if dd * dd != rem:
                    continue
                for cand in {dd, -dd}:
                    if len({da & 1, db & 1, dc & 1, cand & 1}) == 1:
                        found.append(HurwitzInt(da, db, dc, cand))
    return found


@functools.cache
def _norm_class(p):
    return tuple(enumerate_norm(p))


def full_class_factors(q, model):
    """Slow oracle: factor_modelled's factors as the full-class scan found them.

    For each modelled norm p it builds the whole norm-p class and takes
    the first element that left divides what remains, then absorbs the
    leftover unit into the last factor.
    """
    factors, rest = [], q
    for p in model:
        for cand in _norm_class(p):
            quot = left_divide(cand, rest)
            if quot is not None:
                factors.append(cand)
                rest = quot
                break
        else:
            raise AssertionError(f"no norm-{p} left factor of {rest}")
    factors[-1] = factors[-1] * rest
    return tuple(factors)


def conj(q):
    """Quaternion conjugate, written here from the coordinates."""
    return HurwitzInt(q.da, -q.db, -q.dc, -q.dd)


def prime_model(n):
    return [p for p, e in factorize(n) for _ in range(e)]


def quaternions(max_half=12):
    parity = st.integers(min_value=0, max_value=1)
    coord = st.integers(min_value=-max_half, max_value=max_half)

    def build(bit, a, b, c, d):
        return HurwitzInt(2 * a + bit, 2 * b + bit, 2 * c + bit, 2 * d + bit)

    return st.builds(build, parity, coord, coord, coord, coord)


def nonzero_quaternions(max_half=12):
    return quaternions(max_half).filter(lambda q: not q.is_zero())


def seeded_element(rng, max_norm, min_norm=1):
    """A seeded random element with norm in [min_norm, max_norm]."""
    half = math.isqrt(max_norm)
    while True:
        parity = rng.randrange(2)
        q = HurwitzInt(*(2 * rng.randint(-half, half) + parity for _ in range(4)))
        if min_norm <= q.norm() <= max_norm:
            return q


def element_of_prime_norm(rng, near):
    """A seeded random element whose norm is a prime a little below near."""
    half = math.isqrt(near // 3)
    while True:
        parity = rng.randrange(2)
        da, db, dc = (2 * rng.randint(-half, half) + parity for _ in range(3))
        rest = 4 * near - da * da - db * db - dc * dc
        if rest < 0:
            continue
        dd = math.isqrt(rest)
        dd -= (dd ^ parity) & 1
        q = HurwitzInt(da, db, dc, dd)
        if is_rational_prime(q.norm()):
            return q


class TestConstruction:
    def test_mixed_parity_rejected(self):
        with pytest.raises(ValueError):
            HurwitzInt(1, 0, 0, 0)
        with pytest.raises(ValueError):
            HurwitzInt(2, 2, 2, 1)

    def test_from_integers_doubles(self):
        q = HurwitzInt.from_integers(1, 2, 3, 4)
        assert q.coords == (2, 4, 6, 8)
        assert q.norm() == 30

    def test_half_integer_element(self):
        omega = HurwitzInt(1, 1, 1, 1)
        assert omega.norm() == 1
        assert omega.is_unit()

    def test_str_and_repr(self):
        assert str(HurwitzInt.from_integers(1, 2, 3, 4)) == "(2,4,6,8)/2"
        assert str(HurwitzInt(1, 1, 1, 1)) == "(1,1,1,1)/2"
        assert repr(HurwitzInt(1, 1, 1, 1)) == "HurwitzInt(1, 1, 1, 1)"


class TestArithmetic:
    def test_hand_product(self):
        # (1+i)(1+j) = 1 + j + i + k
        one_i = HurwitzInt.from_integers(1, 1, 0, 0)
        one_j = HurwitzInt.from_integers(1, 0, 1, 0)
        assert one_i * one_j == HurwitzInt.from_integers(1, 1, 1, 1)
        assert one_j * one_i == HurwitzInt.from_integers(1, 1, 1, -1)

    def test_conjugate_gives_norm(self):
        q = HurwitzInt(1, 3, 5, 7)
        assert q * conj(q) == HurwitzInt.from_integers(q.norm(), 0, 0, 0)

    def test_units(self):
        us = units()
        assert len(us) == 24
        assert ONE in us
        assert HurwitzInt(1, 1, 1, 1) in us
        assert all(u.norm() == 1 for u in us)
        # closed under multiplication and inverse
        table = {u * v for u in us for v in us}
        assert table == set(us)

    @given(quaternions(), quaternions())
    def test_norm_multiplicative(self, a, b):
        assert (a * b).norm() == a.norm() * b.norm()

    @given(quaternions(), quaternions(), quaternions())
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(quaternions(), quaternions())
    def test_conjugate_antihomomorphism(self, a, b):
        assert conj(a * b) == conj(b) * conj(a)

    @given(quaternions())
    def test_neg_and_eq_hash(self, a):
        assert -(-a) == a
        assert hash(a) == hash(HurwitzInt(*a.coords))
        assert (a == ZERO) == a.is_zero()


class DeadlinePassed(BaseException):
    """Raised by the deadline fixture; not an Exception, so hypothesis does not retry the example."""


@pytest.fixture
def deadline():
    """Fail a test that runs past 30 s, so that a Euclid loop that does not end fails rather than hangs."""
    def expire(signum, frame):
        raise DeadlinePassed("test ran past its 30 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 30)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def unfiltered_norm_rows(norm):
    """Oracle for _norm_rows: the same scan, with every same-parity (da, db), empty rows too."""
    target = 4 * norm
    quaternion._extend_pair_table(target)
    top = math.isqrt(target)
    for da in range(-top, top + 1):
        rest = target - da * da
        lim = math.isqrt(rest)
        for db in range(-lim + ((lim ^ da) & 1), lim + 1, 2):
            yield da, db, quaternion._pairs[rest - db * db]


def double_loop_pair_rows(limit):
    """Oracle for _pair_rows: every (u, v) in the bounding square, filtered by norm and parity."""
    pairs = [[] for _ in range(limit + 1)]
    top = math.isqrt(limit)
    for u in range(-top, top + 1):
        for v in range(-top, top + 1):
            m = u * u + v * v
            if m <= limit and not (u ^ v) & 1:
                pairs[m].append((u, v))
    return pairs


class TestPairTable:
    def test_disc_walk_matches_double_loop(self):
        # Row m of the table at any limit >= m holds the same pairs in the
        # same order, so one oracle table serves every smaller limit.
        oracle = double_loop_pair_rows(2048)
        for limit in range(2049):
            assert quaternion._pair_rows(limit) == oracle[:limit + 1], limit

    @pytest.mark.parametrize("seed", range(3))
    def test_disc_walk_matches_double_loop_seeded(self, seed):
        limit = random.Random(seed).randrange(2049, 40001)
        assert quaternion._pair_rows(limit) == double_loop_pair_rows(limit)

    def test_table_extends_to_cover(self):
        quaternion._extend_pair_table(5000)
        assert len(quaternion._pairs) > 5000
        assert quaternion._pairs[:5001] == double_loop_pair_rows(5000)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 16))
    def test_matches_brute_force(self, n):
        got = enumerate_norm(n)
        assert [q.coords for q in got] == sorted(
            q.coords for q in brute_force_norm_class(n)
        )
        assert all(q.norm() == n for q in got)
        assert len(set(got)) == len(got)

    def test_norm_one_is_units(self):
        assert units() == tuple(enumerate_norm(1))

    def test_deterministic_order(self):
        assert enumerate_norm(2) == enumerate_norm(2)
        assert str(enumerate_norm(2)[0]) == "(-2,-2,0,0)/2"
        assert str(enumerate_norm(5)[0]) == "(-4,-2,0,0)/2"
        assert len(enumerate_norm(5)) == 144

    def test_lazy_scan_prefixes(self):
        # A caller that stops early sees exactly the head of the sorted class.
        for n in range(1, 301):
            coords = [q.coords for q in enumerate_norm(n)]
            for k in {0, 1, 2, 7, len(coords) // 3, len(coords) - 1}:
                assert list(itertools.islice(_norm_coords(n), k)) == coords[:k]

    def test_lazy_scan_survives_table_growth(self):
        # The pair table is rebuilt in place when a larger norm needs it; a
        # scan already under way must still yield the same sequence.
        expected = [q.coords for q in enumerate_norm(299)]
        scan = _norm_coords(299)
        head = list(itertools.islice(scan, 100))
        assert len(enumerate_norm(4099)) == 24 * 4100
        assert head + list(scan) == expected

    @pytest.mark.parametrize("norms", [range(1, 301), [2**k for k in range(12)]],
                             ids=["1-300", "powers-of-2"])
    def test_rows_are_the_non_empty_unfiltered_rows(self, norms):
        for n in norms:
            rows = list(_norm_rows(n))
            assert rows == [(da, db, row) for da, db, row in unfiltered_norm_rows(n) if row]
            assert all(row for _, _, row in rows)

    def test_unvalidated_build_matches_constructor(self):
        # enumerate_norm builds its elements without the constructor's
        # parity check; each must be what the validating constructor
        # builds from the same coordinates, and the lazy scan must agree.
        for n in [*range(1, 301), 1999]:
            got = enumerate_norm(n)
            coords = [q.coords for q in got]
            assert all(not ((da ^ db) | (da ^ dc) | (da ^ dd)) & 1 for da, db, dc, dd in coords)
            assert all(type(q) is HurwitzInt for q in got)
            assert got == [HurwitzInt(*c) for c in coords]
            assert list(_norm_coords(n)) == coords

    def test_constructor_still_validates(self):
        with pytest.raises(ValueError):
            HurwitzInt(1, 2, 3, 4)

    def test_large_class_spot(self):
        # growable pair tables must survive a jump past their initial size
        assert len(enumerate_norm(2048)) == 24
        assert len(enumerate_norm(2047)) == 24 * (1 + 23 + 89 + 23 * 89)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            enumerate_norm(0)


class TestRendering:
    # The bulk renderers must give exactly str(q), which every CLI output
    # and its pinned bytes are made of.
    def test_norm_class_matches_str(self):
        for n in [*range(1, 301), 2047]:
            assert format_norm(n) == [str(q) for q in enumerate_norm(n)], n

    def test_elements_match_str(self):
        report = build_greedy(60, rng=random.Random(1))
        elements = [*report.included]
        for c, (a, b, r) in report.excluded:
            elements += [c, a, b, r]
        assert format_elements(q.coords for q in elements) == [str(q) for q in elements]

    def test_end_is_appended_verbatim(self):
        coords = [q.coords for q in enumerate_norm(3)]
        for end in ["", "\n", ",3,included,,,\n", "%d%%s"]:
            assert format_elements(coords, end) == [f"{q}{end}" for q in enumerate_norm(3)]

    def test_str_of_extreme_coordinates(self):
        q = HurwitzInt(-(10**30), 0, 2, -4)
        assert str(q) == f"({-(10**30)},0,2,-4)/2"
        assert format_elements([q.coords]) == [str(q)]

    def test_bad_input(self):
        with pytest.raises(ValueError, match="^norm must be positive, got 0$"):
            format_norm(0)


class TestDivision:
    @given(nonzero_quaternions(6), quaternions(6))
    def test_left_divide_roundtrip(self, a, c):
        assert left_divide(a, a * c) == c

    def test_non_divisible(self):
        i = HurwitzInt.from_integers(0, 1, 0, 0)
        three = HurwitzInt.from_integers(3, 0, 0, 0)
        assert left_divide(three, i) is None

    @given(nonzero_quaternions(6), quaternions(6))
    def test_quotient_unique(self, a, b):
        q = left_divide(a, b)
        if q is not None:
            assert a * q == b

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            left_divide(ZERO, ONE)


@pytest.mark.usefixtures("deadline")
class TestFactorization:
    def test_known_models(self):
        q = HurwitzInt.from_integers(1, 2, 3, 4)
        f = factor_modelled(q, (2, 3, 5))
        assert f.prime_norms == (2, 3, 5)
        assert [x.norm() for x in f.factors] == [2, 3, 5]
        assert f.product() == q
        assert [str(x) for x in f.factors] == [
            "(-2,-2,0,0)/2", "(-3,-1,-1,-1)/2", "(3,1,3,-1)/2",
        ]

    def test_reordered_model(self):
        q = HurwitzInt.from_integers(1, 2, 3, 4)
        f = factor_modelled(q, (5, 3, 2))
        assert [x.norm() for x in f.factors] == [5, 3, 2]
        assert f.product() == q

    def test_identity_empty_model(self):
        f = factor_modelled(ONE, ())
        assert f == ModelledFactorization((), ())
        assert f.product() == ONE

    def test_every_ordering_small_norms(self):
        for n in range(2, 25):
            primes = []
            m = n
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                while m % p == 0:
                    primes.append(p)
                    m //= p
            if m != 1:
                primes.append(m)
            for q in enumerate_norm(n)[:: max(1, len(enumerate_norm(n)) // 6)]:
                for model in set(itertools.permutations(primes)):
                    f = factor_modelled(q, model)
                    assert f.product() == q
                    assert tuple(x.norm() for x in f.factors) == model
                    assert f.factors == full_class_factors(q, model)

    def test_stride_sample_larger_norms(self):
        for n in range(25, 100, 7):
            cls = enumerate_norm(n)
            primes = []
            m = n
            p = 2
            while p * p <= m:
                while m % p == 0:
                    primes.append(p)
                    m //= p
                p += 1
            if m != 1:
                primes.append(m)
            for q in (cls[0], cls[len(cls) // 2], cls[-1]):
                f = factor_modelled(q, tuple(primes))
                assert f.product() == q
                assert f.factors == full_class_factors(q, tuple(primes))

    @given(quaternions(35).filter(lambda q: 2 <= q.norm() <= 5000),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_class_scan(self, q, rnd):
        model = prime_model(q.norm())
        rnd.shuffle(model)
        assert factor_modelled(q, model).factors == full_class_factors(q, model)

    @pytest.mark.parametrize("coords, primes", [
        ((2, 4, 6, 8), (2, 3, 5)),  # 1 + 2i + 3j + 4k, the known model
        ((6, 6, 0, 0), (2, 3, 3)),  # 3(1 + i): divisible by the rational prime 3
        ((0, 0, 10, 10), (2, 5, 5)),  # 5(j + k)
        ((6, 6, 6, 6), (3, 3, 2, 2)),  # 3(1 + i + j + k)
        ((14, 0, 0, 0), (7, 7)),  # 7
        ((4, 0, 0, 0), (2, 2)),  # 2, a square of the ramified prime
        ((8, 8, 0, 0), (2, 2, 2, 2, 2)),  # 4(1 + i)
        ((3, 5, 7, 9), (41,)),  # a half-integer prime
        ((5, 1, 3, 7), (3, 7)),  # half-integer with two distinct primes
    ])
    def test_matches_full_class_scan_every_ordering(self, coords, primes):
        q = HurwitzInt(*coords)
        assert math.prod(primes) == q.norm()
        for model in set(itertools.permutations(primes)):
            assert factor_modelled(q, model).factors == full_class_factors(q, model)

    def test_matches_full_class_scan_seeded(self):
        # The queries benchmark's range: norms to 2000, models in any order.
        rng = random.Random(2401)
        for _ in range(300):
            q = seeded_element(rng, 2000, 2)
            model = prime_model(q.norm())
            rng.shuffle(model)
            assert factor_modelled(q, model).factors == full_class_factors(q, model), (q, model)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_full_class_scan_on_multiples_of_p(self, p):
        # q = p * y lies in pH, so with p first in the model the generator
        # of qH + pH has norm p^2 and the first element of the class is taken.
        rng = random.Random(p)
        for _ in range(25):
            y = seeded_element(rng, 200)
            q = HurwitzInt(2 * p, 0, 0, 0) * y
            rest = prime_model(y.norm())
            rng.shuffle(rest)
            for model in {(p, p, *rest), (p, *rest, p), (*rest, p, p)}:
                assert factor_modelled(q, model).factors == full_class_factors(q, model), (q, model)

    def test_matches_full_class_scan_on_powers_of_2(self):
        # The norm-2^k class is (1 + i)^k times the units, and 2 is ramified.
        for k in range(1, 9):
            for q in enumerate_norm(2**k):
                model = (2,) * k
                assert factor_modelled(q, model).factors == full_class_factors(q, model)

    @pytest.mark.parametrize("norms", [(2, 2, 3), (2, 3, 3, 5), (2, 2, 2, 7), (3, 5, 7), (2, 13, 13)])
    def test_matches_full_class_scan_every_ordering_of_mixed_models(self, norms):
        rng = random.Random(sum(norms))
        for _ in range(4):
            q = ONE
            for p in norms:
                q = q * rng.choice(enumerate_norm(p))
            for model in set(itertools.permutations(norms)):
                assert factor_modelled(q, model).factors == full_class_factors(q, model), (q, model)

    def test_primes_near_10_9(self):
        # Past the oracle's reach: the factors must still have the modelled
        # norms and multiply back to q.
        rng = random.Random(10**9)
        for _ in range(5):
            parts = [element_of_prime_norm(rng, 10**9) for _ in range(3)]
            q = parts[0] * parts[1] * parts[2]
            norms = [x.norm() for x in parts]
            for model in set(itertools.permutations(norms)):
                f = factor_modelled(q, model)
                assert tuple(x.norm() for x in f.factors) == model
                assert f.product() == q

    def test_rejects_bad_model(self):
        q = HurwitzInt.from_integers(1, 2, 3, 4)
        with pytest.raises(ValueError):
            factor_modelled(q, (2, 3))
        with pytest.raises(ValueError):
            factor_modelled(q, (6, 5))
        with pytest.raises(ValueError):
            factor_modelled(ZERO, (2,))


@pytest.mark.usefixtures("deadline")
class TestRightGcd:
    # _right_gcd(a, b) returns a g with gH = aH + bH.  factor_modelled calls
    # it with a = p and b a cofactor whose norm p divides.
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 101, 1999])
    def test_generates_the_ideal_of_p_and_b(self, p):
        rng = random.Random(p)
        done = 0
        while done < 40:
            b = seeded_element(rng, 50 * p)
            if rng.random() < 0.25:
                b = HurwitzInt(2 * p, 0, 0, 0) * b
            if b.norm() % p:
                continue
            g = HurwitzInt(*_right_gcd((2 * p, 0, 0, 0), b.coords))
            assert left_divide(g, HurwitzInt(2 * p, 0, 0, 0)) is not None
            assert left_divide(g, b) is not None
            in_ph = left_divide(HurwitzInt(2 * p, 0, 0, 0), b) is not None
            assert g.norm() == (p * p if in_ph else p), (p, b)
            done += 1

    def test_each_divisor_at_most_half_the_last(self, monkeypatch):
        # A step multiplies conj(b) * a, then b * t, so every other product
        # shows the divisor b of one step.  Each remainder, the next b, has
        # at most half its norm, so the loop ends within log2(N(b)) + 1 steps.
        products = []

        def recording_mul(x, y):
            if len(products) > 1000:
                raise RuntimeError("Euclid does not terminate")
            products.append(x)
            return _mul(x, y)

        monkeypatch.setattr(quaternion, "_mul", recording_mul)
        rng = random.Random(7)
        for _ in range(500):
            a = seeded_element(rng, 10**6)
            b = seeded_element(rng, 10**6)
            products.clear()
            _right_gcd(a.coords, b.coords)
            norms = [HurwitzInt(*x).norm() for x in products[::2]]
            assert norms[0] == b.norm()
            assert all(2 * later <= earlier for earlier, later in zip(norms, norms[1:])), (a, b)
            assert len(norms) <= b.norm().bit_length(), (a, b)

    def test_lexicographically_least_right_associate(self):
        rng = random.Random(24)
        for _ in range(2000):
            g = seeded_element(rng, 10**4).coords
            assert _least_right_associate(g) == min(_mul(g, u.coords) for u in units())


class TestGpTriple:
    def test_constructed_triples(self):
        a = HurwitzInt.from_integers(1, 1, 0, 0)
        r = HurwitzInt.from_integers(0, 1, 1, 0)
        assert is_gp_triple(a, a * r, (a * r) * r)

    def test_zero_triple(self):
        assert is_gp_triple(ZERO, ZERO, ZERO)

    def test_non_triple(self):
        one = ONE
        i = HurwitzInt.from_integers(0, 1, 0, 0)
        j = HurwitzInt.from_integers(0, 0, 1, 0)
        assert not is_gp_triple(one, i, j)

    @given(nonzero_quaternions(5), nonzero_quaternions(5))
    @settings(max_examples=60)
    def test_always_detects(self, a, r):
        # A unit ratio never makes a progression, by is_gp_triple's contract.
        b = a * r
        assert is_gp_triple(a, b, b * r) == (r.norm() >= 2)


class TestCollectorPause:
    """enumerate_norm and build_greedy pause the cyclic collector and restore it."""

    @pytest.fixture
    def collection_starts(self):
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        # A fresh generation-0 count, so no collection is due on entry.
        gc.collect()
        gc.callbacks.append(count)
        yield starts
        gc.callbacks.remove(count)

    def test_enabled_after_return(self):
        assert gc.isenabled()
        assert len(enumerate_norm(50)) == 24 * 31
        assert gc.isenabled()
        build_greedy(30)
        assert gc.isenabled()

    def test_enabled_after_rejected_input(self):
        with pytest.raises(ValueError):
            enumerate_norm(0)
        assert gc.isenabled()
        with pytest.raises(ValueError):
            build_greedy(0)
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self):
        gc.disable()
        try:
            enumerate_norm(50)
            assert not gc.isenabled()
            build_greedy(30)
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("call", [lambda: enumerate_norm(1500), lambda: build_greedy(60)],
                             ids=["enumerate_norm-1500", "build_greedy-60"])
    def test_no_collections_while_building(self, collection_starts, call):
        # An unpaused build runs dozens of collections.  With nothing frozen
        # the pause allows only its young collection on entry: re-enabling
        # without the move to the oldest generation would set off a
        # generation-0 scan of everything built.  With frozen objects (as
        # at start-up on CPython 3.12) the bare pause allows that one scan.
        moves = not gc.get_freeze_count()
        call()
        if moves:
            assert collection_starts == [1]
        else:
            assert collection_starts in ([], [0])

    def test_class_moved_to_oldest_generation(self):
        # A full collection first, so no older generation is due to run.
        gc.collect()
        moves = not gc.get_freeze_count()
        out = enumerate_norm(1500)
        oldest = {id(o) for o in gc.get_objects(generation=2)}
        # The bare pause moves nothing, so the class stays young.
        assert (id(out) in oldest) == moves
        assert all((id(q) in oldest) == moves for q in out)

    def test_caller_garbage_collected_on_entry(self):
        class Node:
            pass

        gc.collect()
        a, b = Node(), Node()
        a.other, b.other = b, a
        dead = weakref.ref(a)
        del a, b
        assert dead() is not None
        # Promoted with everything else, the cycle would wait for a full
        # collection.
        enumerate_norm(1500)
        assert dead() is None

    def test_caller_frozen_objects_stay_frozen(self):
        # Objects frozen before the test (on CPython 3.12, the interpreter's
        # own) are not the test's to thaw.
        owned = not gc.get_freeze_count()
        if owned:
            gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            enumerate_norm(1500)
            assert gc.get_freeze_count() == frozen
            build_greedy(30)
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            if owned:
                gc.unfreeze()

    def test_freeze_made_while_paused_stays_frozen(self):
        # Stands in for another thread that freezes while a build runs.
        before = gc.get_freeze_count()
        try:
            with _collector_paused():
                gc.freeze()
            assert gc.get_freeze_count() > before
            assert gc.isenabled()
        finally:
            if not before:
                gc.unfreeze()
